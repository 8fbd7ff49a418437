"""Model construction, validation rules, and structural invariants."""

import copy
import dataclasses
import functools
import inspect
import math
import operator
import pickle
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fmeda_uq import (
    DcSource,
    FailureModeRow,
    FmedaTable,
    FmedaValidationError,
    Part,
    Subpart,
    analyze,
    emit_csv,
    emit_json,
    validate,
)
from fmeda_uq import cli, model
from fmeda_uq.model import table_arrays
from conftest import make_table, two_fm_table


def test_minimal_valid_table():
    table = make_table([dict(lambda_fm=100.0, dc=0.9)])
    assert validate(table) == []
    assert table.lambda_tot == 100.0


def test_dc_out_of_range_flagged():
    table = make_table([dict(lambda_fm=100.0, dc=1.2)])
    violations = validate(table)
    assert len(violations) == 1
    assert violations[0].rule == "dc.range"
    assert violations[0].observed == 1.2


def test_negative_values_flagged():
    table = make_table([dict(lambda_fm=-5.0, dc=0.5, sigma_dc=-0.1)])
    rules = {v.rule for v in validate(table)}
    assert "lambda_fm.nonneg" in rules
    assert "sigma_dc.nonneg" in rules


def test_nan_rejected():
    table = make_table([dict(lambda_fm=float("nan"), dc=0.5)])
    rules = {v.rule for v in validate(table)}
    assert "value.finite" in rules
    # An int beyond the float range is not finite either.
    table = make_table([dict(lambda_fm=10**400, dc=0.9)])
    assert [v.rule for v in validate(table)] == ["value.finite"]


def test_duplicate_ids_flagged():
    table = make_table([
        dict(id="FM1", lambda_fm=10.0, dc=0.5),
        dict(id="FM1", lambda_fm=10.0, dc=0.5),
    ])
    assert any(v.rule == "table.duplicate_id" for v in validate(table))


def test_zero_total_lambda_flagged():
    table = make_table([dict(lambda_fm=0.0, dc=0.5)])
    assert any(v.rule == "table.lambda_tot_positive" for v in validate(table))


def test_overflowing_total_lambda_flagged():
    # Each rate is finite, but their sum is not.
    table = make_table([
        dict(lambda_fm=1e308, dc=0.99),
        dict(lambda_fm=1e308, dc=0.99),
    ])
    assert [v.rule for v in validate(table)] == ["table.lambda_tot_finite"]
    with pytest.raises(FmedaValidationError):
        table.lambda_tot


def test_validate_judges_the_lambda_tot_that_analysis_uses(rng):
    # Rates that sum to within a few ulps of the largest float: numpy's
    # pairwise sum, which TableArrays.lambda_tot holds, and a sequential
    # sum overflow on different tables.  validate must pass exactly the
    # tables whose pairwise sum is finite.
    max_float = sys.float_info.max
    order_matters = 0
    for _ in range(300):
        weights = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 40)))
        shares = weights / weights.sum()
        rates = [float(r) for r in shares * max_float * rng.uniform(1.0 - 1e-15, 1.0 + 1e-15)]
        table = make_table([dict(lambda_fm=r, dc=0.9, sigma_dc=0.01) for r in rates])
        with np.errstate(over="ignore"):
            pairwise = float(np.sum(rates))
        violations = validate(table)
        if math.isfinite(pairwise):
            assert violations == []
            assert table_arrays(table).lambda_tot == pairwise
        else:
            assert [v.rule for v in violations] == ["table.lambda_tot_finite"]
            with pytest.raises(FmedaValidationError):
                table_arrays(table)
        sequential = functools.reduce(operator.add, rates)
        order_matters += math.isfinite(sequential) != math.isfinite(pairwise)
    assert order_matters > 0


def test_zero_lambda_rows_permitted():
    table = make_table([
        dict(lambda_fm=0.0, dc=0.5),
        dict(lambda_fm=10.0, dc=0.5),
    ])
    assert validate(table) == []
    assert table.lambda_tot == 10.0


def test_faultsim_source_rules():
    ok = make_table([dict(
        lambda_fm=10.0, dc=0.9,
        dc_source=DcSource.fault_simulation(0.01, 0.95),
    )])
    assert validate(ok) == []

    bad_margin = make_table([dict(
        lambda_fm=10.0, dc=0.9, dc_source=DcSource.fault_simulation(1.5, 0.95),
    )])
    assert any(v.rule == "dc_source.margin_range" for v in validate(bad_margin))

    bad_level = make_table([dict(
        lambda_fm=10.0, dc=0.9, dc_source=DcSource.fault_simulation(0.01, 0.80),
    )])
    assert any(v.rule == "dc_source.confidence_level" for v in validate(bad_level))


def test_a_source_that_is_not_a_dc_source_is_one_violation():
    table = make_table([dict(lambda_fm=1.0, dc=0.5, dc_source="expert")])
    [violation] = validate(table)
    assert (violation.rule, violation.field, violation.observed) == \
        ("dc_source.kind", "dc_source", "expert")
    with pytest.raises(FmedaValidationError):
        table_arrays(table)
    with pytest.raises(FmedaValidationError):
        analyze(table)


def _one_row_table(subclassed=None):
    """A valid one-row table whose object of class subclassed (the table, a
    part, subpart, row or DC source) is an instance of a subclass."""
    def make(cls, *args, **kwargs):
        return (type(f"My{cls.__name__}", (cls,), {}) if cls is subclassed else cls)(
            *args, **kwargs)
    row = make(FailureModeRow, "A", lambda_fm=1.0, dc=0.5, dc_source=make(DcSource))
    return make(FmedaTable, (make(Part, "P", (make(Subpart, "S", failure_modes=(row,)),)),))


@pytest.mark.parametrize("cls, rule", [
    (FmedaTable, "table.type"), (Part, "table.part_type"), (Subpart, "part.subpart_type"),
    (FailureModeRow, "subpart.row_type"), (DcSource, "dc_source.kind")],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_a_subclass_instance_is_one_violation(cls, rule):
    # The readers build the package's own classes, and a dataclass is
    # never equal to an instance of another class, so a subclass instance
    # that validated would not read back as itself.
    assert validate(_one_row_table()) == []
    table = _one_row_table(cls)
    [violation] = validate(table)
    assert violation.rule == rule
    with pytest.raises(FmedaValidationError, match=rule):
        table_arrays(table)


@pytest.mark.parametrize("table", [None, "table", (), object()],
                         ids=["None", "str", "tuple", "object"])
def test_anything_but_a_table_is_one_violation(table):
    [violation] = validate(table)
    assert (violation.location, violation.field, violation.rule, violation.observed) == \
        ("table", "type", "table.type", table)
    with pytest.raises(FmedaValidationError, match="table.type"):
        table_arrays(table)
    with pytest.raises(FmedaValidationError, match="table.type"):
        analyze(table)


def test_distribution_mode_materializes_rates():
    table = make_table(
        [
            dict(fmd_fraction=0.25, sigma_fmd=0.01, dc=0.9),
            dict(fmd_fraction=0.75, sigma_fmd=0.02, dc=0.8),
        ],
        lambda_subpart=200.0,
    )
    assert validate(table) == []
    rows = table.parts[0].subparts[0].failure_modes
    assert rows[0].lambda_fm is None and rows[1].lambda_fm is None
    arr = table_arrays(table)
    assert arr.lam[0] == 50.0
    assert arr.sigma_lam[0] == 2.0
    assert arr.lam[1] == 150.0
    report = analyze(table).rows
    assert (report[0]["lambda_fm_fit"], report[0]["sigma_lambda_fm_fit"]) == (50.0, 2.0)
    assert report[1]["lambda_fm_fit"] == 150.0
    assert table.lambda_tot == 200.0


def test_distribution_fractions_must_sum_to_one():
    table = make_table(
        [dict(fmd_fraction=0.5, dc=0.9), dict(fmd_fraction=0.4, dc=0.9)],
        lambda_subpart=100.0,
    )
    bad = [v for v in validate(table) if v.rule == "fmd.sum"]
    assert len(bad) == 1
    assert bad[0].observed == pytest.approx(0.9)


def test_distribution_needs_subpart_rate():
    table = make_table([dict(fmd_fraction=1.0, dc=0.9)])
    assert any(v.rule == "fmd.lambda_subpart_missing" for v in validate(table))


@pytest.mark.parametrize("lambda_subpart, sigma_fmd", [(10**400, 0.0), (1.0, 10**400)],
                         ids=["lambda_subpart", "sigma_fmd"])
def test_distribution_inputs_beyond_the_float_range_are_violations(lambda_subpart, sigma_fmd):
    rows = (FailureModeRow(id="FM1", fmd_fraction=1.0, sigma_fmd=sigma_fmd, dc=0.9),)
    sub = Subpart("EXEC", lambda_subpart, None, rows)
    assert sub.failure_modes == rows
    table = FmedaTable((Part("CPU", (sub,)),))
    assert [v.rule for v in validate(table)] == ["value.finite"]
    with pytest.raises(FmedaValidationError) as err:
        table_arrays(table)
    assert [v.rule for v in err.value.violations] == ["value.finite"]


def test_distribution_rate_that_overflows_is_a_violation():
    table = make_table([dict(fmd_fraction=1.0, sigma_fmd=10.0, dc=0.9)], lambda_subpart=1e308)
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        ("sigma_lambda_fm", "value.finite", math.inf)]


@pytest.mark.parametrize("own", [dict(lambda_fm=5.0), dict(sigma_lambda_fm=0.5)])
def test_distribution_row_with_its_own_fit_rate_flagged(own):
    table = make_table([dict(fmd_fraction=1.0, dc=0.9, **own)], lambda_subpart=100.0)
    assert [(v.field, v.rule) for v in validate(table)] == [
        (*own, "fmd.mode_consistency")]


@pytest.mark.parametrize("sigma_fmd", [0.3, 1, 5e-324])
def test_direct_row_with_a_fraction_sigma_flagged(sigma_fmd):
    # table_arrays would drop the sigma and no writer keeps it, so the
    # row's rate would count as certain.
    table = make_table([dict(lambda_fm=10.0, sigma_fmd=sigma_fmd, dc=0.9)])
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        ("sigma_fmd", "fmd.mode_consistency", sigma_fmd)]
    with pytest.raises(FmedaValidationError):
        table_arrays(table)


@pytest.mark.parametrize("fields, lambda_subpart, sigma", [
    (dict(lambda_fm=10.0), None, "sigma_fmd"),
    (dict(fmd_fraction=1.0), 10.0, "sigma_lambda_fm"),
], ids=["direct", "distribution"])
def test_an_array_as_the_other_modes_sigma_is_a_violation(fields, lambda_subpart, sigma):
    # validate never raises, not even where == gives an array.
    row = dict(fields, dc=0.9, **{sigma: np.array([0.1, 0.2])})
    [*_, last] = validate(make_table([row], lambda_subpart=lambda_subpart))
    assert (last.field, last.rule) == (sigma, "fmd.mode_consistency")


@pytest.mark.parametrize("source", [
    DcSource("expert", 0.3, 0.5), DcSource("expert", 0.01), DcSource("expert", None, 0.95)])
def test_an_expert_source_with_a_campaign_is_a_violation(source):
    # The writers spell every expert source "expert", so its margin and
    # level would not read back.
    table = make_table([dict(lambda_fm=10.0, dc=0.9, sigma_dc=0.01, dc_source=source)])
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        ("dc_source", "dc_source.expert_campaign", source)]
    assert validate(make_table([dict(lambda_fm=10.0, dc=0.9, dc_source=DcSource())])) == []


@pytest.mark.parametrize("field", ["dc", "sigma_dc", "dc_latent", "sigma_lambda_fm",
                                   "sigma_dc_latent"])
def test_none_in_a_numeric_field_is_a_violation(field):
    table = make_table([{"lambda_fm": 1.0, "dc": 0.5, field: None}])
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        (field, "value.finite", None)]
    with pytest.raises(FmedaValidationError):
        table_arrays(table)


def test_none_sigma_fmd_is_a_violation():
    table = make_table([dict(fmd_fraction=1.0, sigma_fmd=None, dc=0.5)], lambda_subpart=10.0)
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        ("sigma_fmd", "value.finite", None)]


def test_a_bool_where_a_number_belongs_is_a_violation():
    # Neither parser reads a bool as a number, so a table holding one must
    # not validate: it could be written out ("dc": true) but not read back.
    table = make_table([dict(lambda_fm=10.0, dc=True, sigma_dc=0.01)])
    assert [(v.field, v.rule, v.observed) for v in validate(table)] == [
        ("dc", "value.finite", True)]
    with pytest.raises(FmedaValidationError):
        emit_json(table)


def test_violation_message_prints_an_int_beyond_the_digit_limit():
    table = make_table([dict(lambda_fm=10**5000, dc=0.9)])
    with pytest.raises(FmedaValidationError) as err:
        table_arrays(table)
    assert [v.rule for v in err.value.violations] == ["value.finite"]
    message = str(err.value)
    assert "[value.finite] CPU/EXEC/FM1.lambda_fm" in message
    if 0 < sys.get_int_max_str_digits() < 5001:
        assert f"(observed an int of {(10**5000).bit_length()} bits)" in message


def test_mixed_mode_rows_flagged():
    table = make_table(
        [dict(fmd_fraction=1.0, dc=0.9), dict(lambda_fm=10.0, dc=0.9)],
        lambda_subpart=100.0,
    )
    assert any(v.rule == "fmd.mode_consistency" for v in validate(table))


def test_direct_mode_subpart_rate_must_match_rows():
    ok = make_table(
        [dict(lambda_fm=60.0, dc=0.9), dict(lambda_fm=40.0, dc=0.9)],
        lambda_subpart=100.0,
    )
    assert validate(ok) == []
    off = make_table(
        [dict(lambda_fm=60.0, dc=0.9), dict(lambda_fm=40.0, dc=0.9)],
        lambda_subpart=101.0,
    )
    assert any(v.rule == "subpart.lambda_mismatch" for v in validate(off))


def test_total_lambda_requires_valid_table():
    table = make_table([dict(lambda_fm=100.0, dc=1.2)])
    with pytest.raises(FmedaValidationError):
        table.lambda_tot


def test_validate_is_idempotent_and_pure():
    table = make_table([dict(lambda_fm=100.0, dc=1.2)])
    first = validate(table)
    second = validate(table)
    assert first == second


def test_types_are_immutable():
    row = FailureModeRow(id="FM1", lambda_fm=1.0, dc=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.dc = 0.6
    table = make_table([dict(lambda_fm=1.0, dc=0.5)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.asil_target = "B"


def test_failure_mode_row_init_is_the_dataclass_init():
    # FailureModeRow writes its own __init__; it must take the fields, in
    # order, with their defaults, and normalize as the dataclass promised.
    params = list(inspect.signature(FailureModeRow).parameters.values())
    fields = dataclasses.fields(FailureModeRow)
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)

    source = DcSource.fault_simulation(0.02, 0.95)
    values = ("FM1", "", 10.0, 1.0, None, 0.0, 0.9, 0.01, 0.5, 0.02, source, ["SM1", "SM2"])
    row = FailureModeRow(*values)
    by_keywords = FailureModeRow(**{f.name: v for f, v in zip(fields, values)})
    assert row.safety_mechanisms == ("SM1", "SM2")
    assert row.name == "FM1"
    assert FailureModeRow("FM2", "pump").name == "pump"
    assert row == by_keywords and hash(row) == hash(by_keywords)
    assert tuple([getattr(row, f.name) for f in fields]) == (
        "FM1", "FM1", *values[2:-1], ("SM1", "SM2"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.name = "other"
    changed = dataclasses.replace(row, dc=0.95, safety_mechanisms=["SM3"])
    assert (changed.dc, changed.safety_mechanisms, changed.id) == (0.95, ("SM3",), "FM1")
    assert changed != row
    copied = pickle.loads(pickle.dumps(row))
    assert copied == row and hash(copied) == hash(row) and vars(copied) == vars(row)
    assert repr(copied) == repr(row)


@given(st.permutations(range(6)))
def test_total_lambda_invariant_under_reordering(order):
    lams = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    rows = tuple(
        FailureModeRow(id=f"FM{i}", lambda_fm=lams[i], dc=0.5) for i in order
    )
    table = FmedaTable((Part("P", (Subpart("S", None, None, rows),)),))
    assert table.lambda_tot == sum(lams)


def test_reordering_subparts_and_parts_preserves_total():
    sub_a = Subpart("A", None, None, (
        FailureModeRow(id="A1", lambda_fm=12.5, dc=0.9),
    ))
    sub_b = Subpart("B", None, None, (
        FailureModeRow(id="B1", lambda_fm=30.0, dc=0.8),
        FailureModeRow(id="B2", lambda_fm=7.5, dc=0.7),
    ))
    t1 = FmedaTable((Part("P1", (sub_a, sub_b)),))
    t2 = FmedaTable((Part("P1", (sub_b,)), Part("P2", (sub_a,))))
    assert t1.lambda_tot == t2.lambda_tot == 50.0


def test_lambda_tot_is_derived_not_stored():
    table = make_table([dict(lambda_fm=42.5, dc=0.9)])
    assert table.lambda_tot == 42.5
    assert "lambda_tot" not in {f.name for f in dataclasses.fields(FmedaTable)}


# ---------------------------------------------------------------------------
# table_arrays caches its validated result on the table
# ---------------------------------------------------------------------------


def _counting_validate(monkeypatch) -> list:
    """Count the walks over a table's rows: validate and table_arrays both run one."""
    calls = []
    real = model._walk
    monkeypatch.setattr(model, "_walk", lambda table: calls.append(table) or real(table))
    return calls


def test_table_arrays_validates_once_per_table(monkeypatch):
    calls = _counting_validate(monkeypatch)
    table = two_fm_table()
    first = table_arrays(table)
    assert table_arrays(table) is first
    assert table.lambda_tot == 100.0
    assert analyze(table).spfm == pytest.approx(0.945)
    assert len(calls) == 1


def test_rate_sum_runs_once_per_fresh_table(monkeypatch):
    calls = []
    real = model._rate_sum
    monkeypatch.setattr(model, "_rate_sum", lambda rates: calls.append(1) or real(rates))
    table = two_fm_table()
    table_arrays(table)
    assert table.lambda_tot == analyze(table).lambda_tot == 100.0
    assert len(calls) == 1


def test_cached_arrays_are_read_only():
    arr = table_arrays(two_fm_table())
    for column in (arr.lam, arr.sigma_lam, arr.dc, arr.sigma_dc, arr.dc_lat,
                   arr.sigma_dc_lat):
        with pytest.raises(ValueError):
            column[0] = 0.5
    assert table_arrays(two_fm_table()).dc[0] == 0.9


def test_replaced_table_is_validated_afresh():
    table = two_fm_table()
    table_arrays(table)
    with pytest.raises(FmedaValidationError):
        table_arrays(dataclasses.replace(table, asil_target="E"))
    bad_row = dataclasses.replace(table.parts[0].subparts[0].failure_modes[0], dc=1.5)
    bad_sub = dataclasses.replace(table.parts[0].subparts[0], failure_modes=(bad_row,))
    bad = dataclasses.replace(table, parts=(Part("CPU", (bad_sub,)),))
    with pytest.raises(FmedaValidationError):
        table_arrays(bad)
    with pytest.raises(FmedaValidationError):
        bad.lambda_tot


def test_cache_is_invisible_to_equality_repr_and_hash():
    table = two_fm_table()
    before = (repr(table), hash(table))
    table_arrays(table)
    assert (repr(table), hash(table)) == before
    assert table == two_fm_table()
    assert dataclasses.replace(table) == table
    assert not hasattr(dataclasses.replace(table), "_arrays")


def test_copies_do_not_carry_the_cache():
    table = two_fm_table()
    table_arrays(table)
    for other in (copy.copy(table), copy.deepcopy(table),
                  pickle.loads(pickle.dumps(table))):
        assert other == table
        assert not hasattr(other, "_arrays")
        assert table_arrays(other).lambda_tot == 100.0


# Names with "/" and non-ASCII text; a row name may also be "", its id.
_PLACE_TEXT = st.text(alphabet="aZ/\u00e9\u2192", min_size=1, max_size=4)


@st.composite
def _placed_tables(draw):
    """Valid tables of one to three parts of one to three subparts each:
    Distribution subparts and DirectLambda ones, which may be empty.  A
    row with an int coverage passes only through the rule block."""
    parts, n_rows = [], 0
    for p in range(draw(st.integers(1, 3))):
        subs = []
        for s in range(draw(st.integers(1, 3))):
            dist = draw(st.booleans())
            n = draw(st.integers(1 if dist else 0, 3))
            rows = []
            for _ in range(n):
                n_rows += 1
                numbers = dict(fmd_fraction=1.0 / n) if dist else \
                    dict(lambda_fm=draw(st.floats(1.0, 1e3)))
                rows.append(FailureModeRow(
                    f"R{n_rows}", draw(st.one_of(st.just(""), _PLACE_TEXT)),
                    dc=draw(st.sampled_from((0.5, 0.9, 0, 1))), **numbers))
            subs.append(Subpart(f"S{s}{draw(_PLACE_TEXT)}", draw(st.floats(1.0, 1e3)) if dist
                                else None, None, tuple(rows)))
        parts.append(Part(f"P{p}{draw(_PLACE_TEXT)}", tuple(subs)))
    assume(n_rows > 0)
    return FmedaTable(tuple(parts))


@settings(settings.get_profile("fuzz"), max_examples=100)
@given(_placed_tables())
def test_the_walk_records_each_rows_place(table):
    places = [(part.name, sub.name, row.id, row.name) for part in table.parts
              for sub in part.subparts for row in sub.failure_modes]
    arrays = table_arrays(table)
    assert list(zip(arrays.parts, arrays.subparts, arrays.ids, arrays.names)) == places
    assert all(type(column) is tuple for column in (arrays.parts, arrays.subparts,
                                                    arrays.names))
    report = analyze(table).rows
    assert [(r["part"], r["subpart"], r["failure_mode"], r["name"]) for r in report] == places


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_cli_analyze_validates_once(suffix, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"table{suffix}"
    table = two_fm_table()
    path.write_text(emit_csv(table) if suffix == ".csv" else emit_json(table),
                    encoding="utf-8")
    calls = _counting_validate(monkeypatch)
    assert cli.main(["analyze", "--input", str(path), "--asil", "B"]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# The cheap check of a clean row agrees with the rule block
# ---------------------------------------------------------------------------


class _RulesId(str):
    """A row id the cheap check does not take (not exactly a str), so a row
    carrying it goes through model._row_rules; it formats as its text."""


_NEXT_BELOW_0 = math.nextafter(0.0, -1.0)
# Values just inside and just outside the rules, and of the wrong kinds:
# for the numbers in [0, 1], and for the rates and sigmas in [0, inf).
_UNIT_EDGES = (0.0, -0.0, 1.0, _NEXT_BELOW_0, math.nextafter(1.0, 2.0), -1.0,
               math.nan, math.inf, None, 1, True, "0.5")
_NONNEG_EDGES = (0.0, -0.0, 5e-324, _NEXT_BELOW_0, -1.0, 1e308, math.inf, -math.inf,
                 math.nan, None, 0, True, "0.5")
_SOURCES = st.sampled_from((
    model.EXPERT_JUDGMENT, DcSource(), DcSource.fault_simulation(0.01, 0.95),
    DcSource.fault_simulation(5e-324, 0.99),
    DcSource.fault_simulation(math.nextafter(1.0, 0.0), 0.90),
    DcSource.fault_simulation(0.0, 0.95), DcSource.fault_simulation(1.0, 0.95),
    DcSource.fault_simulation(0.01, 0.5), DcSource.fault_simulation(math.nan, 0.95),
    DcSource.fault_simulation(1, 0.95), DcSource("bogus"), DcSource("expert", 0.3, 0.5),
))
# The number fields of a row, the range a valid value is drawn from, and
# the edge values that may replace it.
_RANGES = {"dc": (0.0, 1.0, _UNIT_EDGES), "sigma_dc": (0.0, 0.1, _NONNEG_EDGES),
           "dc_latent": (0.0, 1.0, _UNIT_EDGES), "sigma_dc_latent": (0.0, 0.1, _NONNEG_EDGES),
           "sigma_fmd": (0.0, 0.5, _NONNEG_EDGES), "lambda_fm": (0.0, 1e3, _NONNEG_EDGES),
           "sigma_lambda_fm": (0.0, 10.0, _NONNEG_EDGES),
           "fmd_fraction": (0.0, 1.0, _UNIT_EDGES)}


@st.composite
def _rows(draw, dist: bool, n: int):
    """n rows of one subpart, drawn valid (a Distribution subpart's fractions
    sum to 1); then about half of them get one number set to an edge value,
    and a third draw a source that may break a rule."""
    rows = []
    for _ in range(n):
        fields = {key: draw(st.floats(lo, hi)) for key, (lo, hi, _) in _RANGES.items()}
        fields["id"] = draw(st.sampled_from(("", "R0", "R1")) if draw(st.integers(0, 5)) == 0
                            else st.uuids().map(str))
        if dist:
            fields["lambda_fm"] = None
            fields["sigma_lambda_fm"] = 0.0
        else:
            fields["fmd_fraction"] = None
            fields["sigma_fmd"] = 0.0
        rows.append(fields)
    if dist:
        total = sum(fields["fmd_fraction"] for fields in rows) or 1.0
        for fields in rows:
            fields["fmd_fraction"] /= total
    for fields in rows:
        fields["dc_source"] = draw(_SOURCES) if draw(st.integers(0, 2)) == 0 \
            else model.EXPERT_JUDGMENT
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(_RANGES)))
            fields[key] = draw(st.sampled_from(_RANGES[key][2]))
    return rows


@st.composite
def _subparts(draw):
    """(name, lambda_subpart, fmd_mode, rows) of one subpart."""
    dist = draw(st.booleans())
    if dist:
        rate = draw(st.one_of(st.floats(0.0, 1e3), st.sampled_from(_NONNEG_EDGES)))
        mode = draw(st.sampled_from((model.DISTRIBUTION, None)))
    else:
        rate = draw(st.one_of(st.none(), st.none(), st.sampled_from(_NONNEG_EDGES)))
        mode = draw(st.sampled_from((model.DIRECT_LAMBDA, model.DIRECT_LAMBDA, None, "Bogus")))
    rows = draw(_rows(dist, draw(st.integers(1, 4))))
    return draw(st.sampled_from(("S", "T"))), rate, mode, rows


def _build(subparts, rules_ids: bool) -> FmedaTable:
    subs = []
    for name, rate, mode, rows in subparts:
        fms = tuple(FailureModeRow(**dict(
            fields, id=_RulesId(fields["id"]) if rules_ids else fields["id"]))
            for fields in rows)
        subs.append(Subpart(name, rate, mode, fms))
    return FmedaTable((Part("P", tuple(subs)),))


def _spy_row_rules(calls: list):
    """model._row_rules, recording (row, the violations it reported) per call."""
    real = model._row_rules

    def spy(row, loc, dist, scale, seen_ids, bad):
        found = []

        def record(*violation):
            found.append(violation)
            bad(*violation)

        calls.append((row, found))
        return real(row, loc, dist, scale, seen_ids, record)
    return spy


@settings(settings.get_profile("fuzz"), max_examples=300)
@given(st.lists(_subparts(), min_size=1, max_size=3))
def test_cheap_check_accepts_only_rows_the_rules_pass(subparts):
    table = _build(subparts, rules_ids=False)
    rows = [row for part in table.parts for sub in part.subparts for row in sub.failure_modes]
    fast_calls, rule_calls = [], []
    with mock.patch.object(model, "_row_rules", _spy_row_rules(fast_calls)):
        fast = model._walk(table)
    with mock.patch.object(model, "_row_rules", _spy_row_rules(rule_calls)):
        rules = model._walk(_build(subparts, rules_ids=True))

    # Every row of the second table went through the rule block, in order.
    # A row that the cheap check took (no call in the first walk) is one for
    # which the rule block reports nothing.
    assert len(rule_calls) == len(rows)
    checked = {id(row) for row, _ in fast_calls}
    for row, (_, found) in zip(rows, rule_calls):
        if id(row) not in checked:
            assert found == [], row

    assert [str(v) for v in fast[0]] == [str(v) for v in rules[0]]
    if rules[1] is None:
        assert fast[1] is None
        return
    assert fast[1].ids == rules[1].ids
    for name in ("lam", "sigma_lam", "dc", "sigma_dc", "dc_lat", "sigma_dc_lat"):
        a, b = getattr(fast[1], name), getattr(rules[1], name)
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert fast[1].lambda_tot.hex() == rules[1].lambda_tot.hex()
