"""Parsing, emission, and round-trip identity of both table formats."""

import collections
import csv
import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmeda_uq import (
    EXPERT_JUDGMENT,
    DcSource,
    FmedaValidationError,
    ParseError,
    PropagationMode,
    analyze,
    emit_csv,
    emit_json,
    emit_result,
    parse_csv,
    parse_json,
    validate,
)
from fmeda_uq import FailureModeRow, FmedaTable, Part, Subpart, ingest, model
from fmeda_uq.ingest import fmt12
from fmeda_uq.model import table_arrays
from conftest import fixture_corpus, make_table, random_table, two_fm_table

HEADER = ("part,subpart,failure_mode,lambda_fit,sigma_lambda_fit,fmd_fraction,"
          "dc,sigma_dc,dc_latent,sigma_dc_latent,dc_source,sm_list")

MINIMAL_CSV = HEADER + "\nCPU,EXEC,FM1,100,0,,0.9,0.02,0,0,expert,\n"

MINIMAL_JSON = json.dumps({
    "version": "fmeda-uq/1",
    "parts": [{
        "name": "CPU",
        "subparts": [{
            "name": "EXEC",
            "failure_modes": [{
                "id": "FM1", "lambda_fit": 100, "sigma_lambda_fit": 0,
                "dc": 0.9, "sigma_dc": 0.02, "dc_latent": 0,
                "sigma_dc_latent": 0, "dc_source": "expert",
            }],
        }],
    }],
})


def test_parse_minimal_csv():
    table = parse_csv(MINIMAL_CSV)
    assert table.lambda_tot == 100.0
    row = table.parts[0].subparts[0].failure_modes[0]
    assert row.id == "FM1"
    assert row.dc == 0.9
    assert row.sigma_dc == 0.02


def test_csv_and_json_parse_to_the_same_table():
    assert parse_csv(MINIMAL_CSV) == parse_json(MINIMAL_JSON)


def test_csv_bad_number_names_line_and_column():
    text = HEADER + "\nCPU,EXEC,FM1,100,0,,abc,0.02,0,0,expert,\n"
    with pytest.raises(ParseError) as err:
        parse_csv(text)
    assert err.value.line == 2
    assert err.value.column == "dc"


def test_csv_empty_file():
    with pytest.raises(ParseError, match="no data rows"):
        parse_csv("")
    with pytest.raises(ParseError, match="no data rows"):
        parse_csv(HEADER + "\n")


def test_csv_unknown_column_rejected():
    text = MINIMAL_CSV.replace("sm_list", "sm_list,bonus").replace(
        "expert,", "expert,,x")
    with pytest.raises(ParseError, match="unknown columns"):
        parse_csv(text)


def test_csv_missing_column_rejected():
    text = MINIMAL_CSV.replace(",sm_list", "").replace("expert,", "expert")
    with pytest.raises(ParseError, match="missing columns"):
        parse_csv(text)


def test_csv_columns_out_of_order_rejected():
    header = HEADER.split(",")
    header[0], header[1] = header[1], header[0]
    assert sorted(header) == sorted(ingest.CSV_COLUMNS)
    text = ",".join(header) + MINIMAL_CSV[len(HEADER):]
    with pytest.raises(ParseError, match="columns out of order") as info:
        parse_csv(text)
    assert info.value.line == 1
    assert "unknown" not in str(info.value) and "missing" not in str(info.value)


def test_csv_both_rate_cells_rejected():
    text = HEADER + "\nCPU,EXEC,FM1,100,0,0.5,0.9,0,0,0,expert,\n"
    with pytest.raises(ParseError, match="exactly one"):
        parse_csv(text)


def test_csv_validation_failures_are_aggregated():
    text = HEADER + "\n" \
        "CPU,EXEC,FM1,100,0,,1.2,0,0,0,expert,\n" \
        "CPU,EXEC,FM1,-5,0,,0.9,0,0,0,expert,\n"
    with pytest.raises(FmedaValidationError) as err:
        parse_csv(text)
    rules = {v.rule for v in err.value.violations}
    assert {"dc.range", "table.duplicate_id", "lambda_fm.nonneg"} <= rules


def test_csv_distribution_subpart_via_rate_row():
    text = HEADER + "\n" \
        "CPU,EXEC,,200,,,,,,,,\n" \
        "CPU,EXEC,FM1,,0.01,0.25,0.9,0.02,0,0,expert,\n" \
        "CPU,EXEC,FM2,,0.02,0.75,0.8,0.01,0,0,expert,SM1;SM2\n"
    table = parse_csv(text)
    sub = table.parts[0].subparts[0]
    assert sub.fmd_mode == "Distribution"
    assert sub.lambda_subpart == 200.0
    assert sub.failure_modes[0].lambda_fm is None
    arr = table_arrays(table)
    assert arr.lam[0] == 50.0
    assert arr.sigma_lam[0] == 2.0
    report = analyze(table).rows[0]
    assert (report["lambda_fm_fit"], report["sigma_lambda_fm_fit"]) == (50.0, 2.0)
    assert sub.failure_modes[1].safety_mechanisms == ("SM1", "SM2")


def test_csv_duplicate_subpart_rate_rejected():
    text = HEADER + "\n" \
        "CPU,EXEC,,200,,,,,,,,\n" \
        "CPU,EXEC,,200,,,,,,,,\n"
    with pytest.raises(ParseError, match="duplicate subpart rate"):
        parse_csv(text)


def test_csv_faultsim_source_parsed():
    text = HEADER + "\nCPU,EXEC,FM1,100,0,,0.9,,0,0,faultsim:e=0.01:cl=0.95,\n"
    row = parse_csv(text).parts[0].subparts[0].failure_modes[0]
    assert row.dc_source == DcSource.fault_simulation(0.01, 0.95)


def test_csv_bad_dc_source_rejected():
    text = HEADER + "\nCPU,EXEC,FM1,100,0,,0.9,0,0,0,guesswork,\n"
    with pytest.raises(ParseError, match="dc_source"):
        parse_csv(text)


_ROW = {"id": "FM1", "lambda_fit": 100, "dc": 0.9, "sigma_dc": 0.02, "dc_source": "expert"}


def _in_both_formats(row: dict) -> tuple[str, str]:
    cells = {"part": "CPU", "subpart": "EXEC", "failure_mode": row["id"], **row}
    csv_text = HEADER + "\n" + ",".join(str(cells.get(c, "")) for c in ingest.CSV_COLUMNS) + "\n"
    json_text = json.dumps({"version": ingest.FORMAT_VERSION, "parts": [{
        "name": "CPU", "subparts": [{"name": "EXEC", "failure_modes": [row]}]}]})
    return csv_text, json_text


@pytest.mark.parametrize("change", [
    dict(fmd_fraction=0.5),
    dict(lambda_fit=None),
    dict(dc=None),
    dict(dc_source=None),
    dict(dc_source="guesswork"),
    dict(dc_source="faultsim:e=0.01"),
    dict(dc_source="faultsim:e=inf:cl=0.95"),
    dict(sigma_dc=math.inf),
    dict(dc=math.nan),
    dict(lambda_fit=10**400),
    dict(sigma_dc=-(10**400)),
], ids=["both_rates", "no_rate", "no_dc", "no_dc_source", "dc_source_unknown",
        "dc_source_short", "dc_source_infinite_margin", "infinite", "nan",
        "int_beyond_float", "negative_int_beyond_float"])
def test_csv_and_json_reject_the_same_row_mistakes(change):
    csv_text, json_text = _in_both_formats(_ROW)
    assert parse_csv(csv_text) == parse_json(json_text)
    row = {key: value for key, value in {**_ROW, **change}.items() if value is not None}
    csv_text, json_text = _in_both_formats(row)
    with pytest.raises(ParseError):
        parse_csv(csv_text)
    with pytest.raises(ParseError):
        parse_json(json_text)


_RECORDS = [
    "CPU,EXEC,FM1,100,0,,0.9,0.02,0,0,expert,",
    "CPU,EXEC,FM2,50,5,,0.99,0.001,0.5,0.01,expert,SM1;SM2",
    "MEM,ARR,,200,,,,,,,,",
    "MEM,ARR,FM3,,0.01,0.6,0.9,,0,0,faultsim:e=0.01:cl=0.95,SM3",
    "MEM,ARR,FM4,,,0.4,0.5,0.05,0,0,expert,",
]
_FM5 = "CPU,EXEC,FM5,1,0,,0.9,0,0,0,expert,"


def _csv_edit(at: int, record: str, replace: bool = False) -> str:
    records = list(_RECORDS)
    records[at:at + replace] = [record]
    return HEADER + "\n" + "\n".join(records) + "\n"


# Record-level edits of a CSV table: (edited, what it must parse as).  An
# expected str is a CSV text that parses to the same table; a tuple is the
# ParseError's (message, line, column).
_RATE_ROW_CELL = "subpart-rate row must leave this cell empty"


@pytest.mark.parametrize("edited, expected", [
    (_csv_edit(1, ""), _csv_edit(0, _RECORDS[0], True)),
    (_csv_edit(1, "  , ,,,,,,,,,,\t"), _csv_edit(0, _RECORDS[0], True)),
    (_csv_edit(2, "   "), _csv_edit(0, _RECORDS[0], True)),
    (_csv_edit(1, ",,"), _csv_edit(0, _RECORDS[0], True)),
    (_csv_edit(1, "CPU,EXEC,FM5,1"), ("line 3: expected 12 columns, got 4", 3, None)),
    (_csv_edit(1, _FM5 + ","), ("line 3: expected 12 columns, got 13", 3, None)),
    (_csv_edit(2, "MEM,ARR,,200,3,,,,,,,", True),
     (f"line 4, column 'sigma_lambda_fit': {_RATE_ROW_CELL}", 4, "sigma_lambda_fit")),
    (_csv_edit(2, "MEM,ARR,,200,,,,,,,expert,", True),
     (f"line 4, column 'dc_source': {_RATE_ROW_CELL}", 4, "dc_source")),
    (_csv_edit(2, "MEM,ARR,,200,,,,,,,,SM1", True),
     (f"line 4, column 'sm_list': {_RATE_ROW_CELL}", 4, "sm_list")),
    (_csv_edit(2, "MEM,ARR,,,,,,,,,,", True),
     ("line 4, column 'lambda_fit': row without a failure_mode must declare the subpart rate",
      4, "lambda_fit")),
    (_csv_edit(3, "MEM,ARR,,200,,,,,,,,"),
     ("line 5, column 'lambda_fit': duplicate subpart rate for MEM/ARR", 5, "lambda_fit")),
    (_csv_edit(2, "MEM,ARR,,nan,,,,,,,,", True),
     ("line 4, column 'lambda_fit': not a finite number: 'nan'", 4, "lambda_fit")),
    (_csv_edit(1, _FM5 + ";a; ;b;"), _csv_edit(1, _FM5 + "a;b")),
    (_csv_edit(1, _FM5 + '""'), _csv_edit(1, _FM5)),
    (_csv_edit(1, " CPU , EXEC , FM5 , 1 , 0 ,, 0.9 ,,, , expert , a "),
     _csv_edit(1, "CPU,EXEC,FM5,1,0,,0.9,,,,expert,a")),
    (_csv_edit(1, "," + _FM5[4:]), ("line 3, column 'part': cell must not be empty", 3, "part")),
    (_csv_edit(1, "CPU, ," + _FM5[9:]),
     ("line 3, column 'subpart': cell must not be empty", 3, "subpart")),
    (_csv_edit(1, _FM5.replace("0.9", "0.9x")),
     ("line 3, column 'dc': not a number: '0.9x'", 3, "dc")),
    (_csv_edit(1, _FM5.replace("0.9,0", "0.9,inf")),
     ("line 3, column 'sigma_dc': not a finite number: 'inf'", 3, "sigma_dc")),
], ids=["blank", "whitespace_cells", "whitespace_record", "short_blank", "short", "long",
        "rate_row_stray_sigma", "rate_row_stray_source", "rate_row_stray_sm",
        "rate_row_without_rate", "duplicate_rate", "nan_rate", "sm_list_sparse",
        "sm_list_quoted_empty", "padded_cells", "empty_part", "empty_subpart",
        "bad_number", "infinite_number"])
def test_csv_record_edits(edited, expected):
    if isinstance(expected, str):
        assert parse_csv(edited) == parse_csv(expected)
        return
    with pytest.raises(ParseError) as err:
        parse_csv(edited)
    assert (str(err.value), err.value.line, err.value.column) == expected


def test_json_distribution_fraction_sum_violation():
    doc = {
        "version": "fmeda-uq/1",
        "parts": [{"name": "P", "subparts": [{
            "name": "S", "lambda_fit": 100, "fmd_mode": "Distribution",
            "failure_modes": [
                {"id": "A", "fmd_fraction": 0.5, "dc": 0.9, "dc_source": "expert"},
                {"id": "B", "fmd_fraction": 0.4, "dc": 0.9, "dc_source": "expert"},
            ],
        }]}],
    }
    with pytest.raises(FmedaValidationError) as err:
        parse_json(json.dumps(doc))
    assert any(v.rule == "fmd.sum" for v in err.value.violations)


def test_json_unknown_key_rejected():
    doc = json.loads(MINIMAL_JSON)
    doc["parts"][0]["surprise"] = 1
    with pytest.raises(ParseError, match="unknown key"):
        parse_json(json.dumps(doc))


@pytest.mark.parametrize("old, new, path", [
    ('"version": "fmeda-uq/1"', '"version": "fmeda-uq/1", "version": "fmeda-uq/1"',
     "$.version"),
    ('"name": "CPU"', '"name": "CPU", "name": "GPU"', "$.parts[0].name"),
    ('"name": "EXEC"', '"name": "EXEC", "name": "EXEC"', "$.parts[0].subparts[0].name"),
    ('"dc": 0.9', '"dc": 0.99, "dc": 0.5', "$.parts[0].subparts[0].failure_modes[0].dc"),
], ids=["document", "part", "subpart", "row"])
def test_json_repeated_key_rejected(old, new, path):
    # json.loads would keep the last value silently.
    assert MINIMAL_JSON.count(old) == 1
    with pytest.raises(ParseError) as err:
        parse_json(MINIMAL_JSON.replace(old, new))
    key = path.rsplit(".", 1)[1]
    assert (err.value.line, err.value.column) == (None, path)
    assert str(err.value) == f"column {path!r}: repeated key {key!r}"


def _two_of_each() -> dict:
    """A document of two parts, each of two subparts, each of two rows."""
    def sub(j):
        return {"name": f"S{j}", "failure_modes": [
            {"id": f"FM{j}{k}", "lambda_fit": 10.0, "dc": 0.9} for k in range(2)]}
    return {"version": "fmeda-uq/1", "parts": [
        {"name": f"P{i}", "subparts": [sub(2 * i + j) for j in range(2)]} for i in range(2)]}


_FIRST_ROW = ("parts", 0, "subparts", 0, "failure_modes", 0)
_LAST_ROW = ("parts", 1, "subparts", 1, "failure_modes", 1)


# The document's own keys are checked first, so its repeated key is always
# the first mistake; at the other levels either mistake may come first.
@pytest.mark.parametrize("repeated, bad_row, column", [
    (("version",), _LAST_ROW, "$.version"),
    (("parts", 0, "name"), _LAST_ROW, "$.parts[0].name"),
    (("parts", 0, "subparts", 0, "name"), _LAST_ROW, "$.parts[0].subparts[0].name"),
    ((*_FIRST_ROW, "dc"), _LAST_ROW, "$.parts[0].subparts[0].failure_modes[0].dc"),
    (("parts", 1, "name"), _FIRST_ROW, None),
    (("parts", 0, "subparts", 1, "name"), _FIRST_ROW, None),
    (("parts", 0, "subparts", 0, "failure_modes", 1, "dc"), _FIRST_ROW, None),
], ids=["document", "part", "subpart", "row",
        "part_after_bad_value", "subpart_after_bad_value", "row_after_bad_value"])
def test_json_first_mistake_in_document_order_is_the_error(repeated, bad_row, column):
    # A repeated key is reported at its key path when the walk reaches its
    # object (column), or a bad value in an earlier row is (column None).
    doc = _two_of_each()
    obj = doc
    for step in bad_row:
        obj = obj[step]
    obj["lambda_fit"] = "x"
    *at, key = repeated
    obj = doc
    for step in at:
        obj = obj[step]
    obj["\0"] = obj[key]
    with pytest.raises(ParseError) as err:
        parse_json(json.dumps(doc).replace(json.dumps("\0"), json.dumps(key)))
    if column is None:
        assert err.value.column == "$.parts[0].subparts[0].failure_modes[0].lambda_fit"
        assert str(err.value).endswith("expected a number, got str")
    else:
        assert str(err.value) == f"column {column!r}: repeated key {key!r}"


# A rule error and a non-number, each in a record of _RECORDS' line 3 (FM2)
# and line 5 (FM3, after a subpart-rate row).
_BOTH_RATES_3 = "CPU,EXEC,FM2,50,5,0.5,0.99,0.001,0.5,0.01,expert,SM1;SM2"
_WORD_DC_3 = "CPU,EXEC,FM2,50,5,,high,0.001,0.5,0.01,expert,SM1;SM2"
_BOTH_RATES_5 = "MEM,ARR,FM3,50,0.01,0.6,0.9,,0,0,faultsim:e=0.01:cl=0.95,SM3"
_WORD_DC_5 = "MEM,ARR,FM3,,0.01,0.6,high,,0,0,faultsim:e=0.01:cl=0.95,SM3"
_ONE_RATE = "exactly one of lambda_fit and fmd_fraction must be set"


# Edits of _RECORDS as (index, record, replace), applied in order, and the
# ParseError's (message, line, column); None: the text parses, and its
# FM2 row holds 1e308 for both lambda_fit and sigma_lambda_fit.
@pytest.mark.parametrize("edits, expected", [
    ([(1, _BOTH_RATES_3, True), (3, _WORD_DC_5, True)],
     (f"line 3, column 'lambda_fit': {_ONE_RATE}", 3, "lambda_fit")),
    ([(1, _WORD_DC_3, True), (3, _BOTH_RATES_5, True)],
     ("line 3, column 'dc': not a number: 'high'", 3, "dc")),
    ([(1, "CPU,EXEC,FM2,inf,5,,high,0.001,0.5,0.01,expert,", True)],
     ("line 3, column 'lambda_fit': not a finite number: 'inf'", 3, "lambda_fit")),
    ([(1, "CPU,EXEC,FM2,50,nan,,0.99,0.001,0.5,0.01x,expert,", True)],
     ("line 3, column 'sigma_lambda_fit': not a finite number: 'nan'", 3, "sigma_lambda_fit")),
    ([(1, "", False), (2, _WORD_DC_3, True)],
     ("line 4, column 'dc': not a number: 'high'", 4, "dc")),
    ([(1, "  ,\t, ", False), (2, _BOTH_RATES_3, True)],
     (f"line 4, column 'lambda_fit': {_ONE_RATE}", 4, "lambda_fit")),
    ([(3, _WORD_DC_5, True)], ("line 5, column 'dc': not a number: 'high'", 5, "dc")),
    ([(3, _BOTH_RATES_5, True)], (f"line 5, column 'lambda_fit': {_ONE_RATE}", 5, "lambda_fit")),
    ([(1, "CPU,EXEC,FM2,1e308,1e308,,0.99,0.001,0.5,0.01,expert,", True)], None),
], ids=["rule_then_number", "number_then_rule", "non_finite_then_number",
        "nan_then_number", "after_blank_line", "after_whitespace_record",
        "number_after_rate_row", "rule_after_rate_row", "finite_cells_overflow_their_sum"])
def test_csv_first_mistake_in_document_order_is_the_error(edits, expected):
    records = list(_RECORDS)
    for at, record, replace in edits:
        records[at:at + replace] = [record]
    text = HEADER + "\n" + "\n".join(records) + "\n"
    if expected is None:
        row = parse_csv(text).parts[0].subparts[0].failure_modes[1]
        assert (row.id, row.lambda_fm, row.sigma_lambda_fm) == ("FM2", 1e308, 1e308)
        return
    with pytest.raises(ParseError) as err:
        parse_csv(text)
    assert (str(err.value), err.value.line, err.value.column) == expected


_NUMERIC = ingest.CSV_COLUMNS[3:10]


# Each numeric cell of the FM2 record above (line 3), in turn, holds a bad
# number: alone, or with the two cells after it (cyclically) holding 1e308,
# finite cells whose sum overflows, so the cell-by-cell scan must pass them.
@pytest.mark.parametrize("overflow", [False, True], ids=["alone", "with_1e308_twice"])
@pytest.mark.parametrize("bad, message", [
    ("x", "not a number: 'x'"),
    ("inf", "not a finite number: 'inf'"),
    ("nan", "not a finite number: 'nan'"),
], ids=["word", "inf", "nan"])
@pytest.mark.parametrize("column", _NUMERIC)
def test_csv_each_numeric_cell_names_its_own_mistake(column, bad, message, overflow):
    cells = _RECORDS[1].split(",")
    at = ingest.CSV_COLUMNS.index(column)
    cells[at] = bad
    if overflow:
        for k in (1, 2):
            cells[3 + (at - 3 + k) % len(_NUMERIC)] = "1e308"
    with pytest.raises(ParseError) as err:
        parse_csv(_csv_edit(1, ",".join(cells), True))
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line 3, column {column!r}: {message}", 3, column)


@pytest.mark.parametrize("old, new", [
    ('"lambda_fit": 100', '"lambda_fit": {"a": 1, "a": 1}'),
    ('"dc_source": "expert"', '"dc_source": {"a": 1, "a": 1}'),
], ids=["number", "string"])
def test_json_repeated_key_object_as_a_value_reads_dict(old, new):
    # An object with a repeated key where a value belongs is a wrong type,
    # reported like any other object there.
    with pytest.raises(ParseError) as err:
        parse_json(MINIMAL_JSON.replace(old, new))
    assert str(err.value).endswith("got dict")


def test_json_version_checked():
    doc = json.loads(MINIMAL_JSON)
    doc["version"] = "fmeda-uq/2"
    with pytest.raises(ParseError, match="version"):
        parse_json(json.dumps(doc))


def test_json_round_trip_identity():
    table = parse_json(MINIMAL_JSON)
    assert parse_json(emit_json(table)) == table


def test_csv_round_trip_identity():
    table = parse_csv(MINIMAL_CSV)
    assert parse_csv(emit_csv(table)) == table


def test_round_trip_distribution_and_faultsim(rng):
    table = make_table(
        [
            dict(fmd_fraction=0.25, sigma_fmd=0.01, dc=0.9, sigma_dc=0.02,
                 dc_source=DcSource.fault_simulation(0.01, 0.95)),
            dict(fmd_fraction=0.75, sigma_fmd=0.02, dc=0.8, dc_latent=0.5,
                 sigma_dc_latent=0.01,
                 safety_mechanisms=("ECC", "LOCKSTEP")),
        ],
        lambda_subpart=200.0,
    )
    assert parse_csv(emit_csv(table)) == table
    assert parse_json(emit_json(table)) == table


def test_round_trip_random_corpus(rng):
    for _ in range(20):
        table = random_table(rng, n_range=(2, 12), sigma_dc_latent_max=0.02,
                             stable_digits=9)
        assert parse_csv(emit_csv(table)) == table
        assert parse_json(emit_json(table)) == table


def test_emit_json_is_deterministic():
    table = two_fm_table()
    assert emit_json(table) == emit_json(table)
    assert emit_csv(table) == emit_csv(table)


def test_json_asil_target_round_trips():
    table = make_table([dict(lambda_fm=10.0, dc=0.9)], asil_target="B")
    again = parse_json(emit_json(table))
    assert again.asil_target == "B"


def _f12(lo: float, hi: float):
    """Floats in [lo, hi] rounded to 12 digits: the values JSON keeps exactly."""
    return st.floats(lo, hi).map(lambda x: float(fmt12(x)))


# Names, ids and safety mechanisms: spaces, non-ASCII text and ";".
_TEXT = st.text(alphabet=" aZ\u00e9\u2192\u00fc_;", max_size=5)
_LEVELS = st.sampled_from(model.FAULTSIM_CONFIDENCE_LEVELS)
_SOURCES = st.one_of(st.sampled_from((EXPERT_JUDGMENT, DcSource())),
                     st.builds(DcSource.fault_simulation, _f12(1e-6, 0.5), _LEVELS))
# A subclass of each class a table is built of; the readers build none.
_SUBCLASSES = {cls: type(f"My{cls.__name__}", (cls,), {})
               for cls in (FmedaTable, Part, Subpart, FailureModeRow, DcSource)}


@st.composite
def _api_tables(draw):
    """Tables built through the API, every float a 12-digit one: DirectLambda
    and Distribution subparts and every kind of source.  Half of them have
    something no writer can keep: a first row with an expert source with a
    campaign or a nonzero sigma of its subpart's other mode, or a subclass
    instance as the table or as its first part, subpart, row or source."""
    planted = draw(st.sampled_from((None, None, None, "source", "sigma", "subclass")))
    mine = draw(st.sampled_from(list(_SUBCLASSES))) if planted == "subclass" else None

    def cls(base, first):
        return _SUBCLASSES[base] if first and base is mine else base

    parts, n_rows = [], 0
    for p in range(draw(st.integers(1, 2))):
        subs = []
        for s in range(draw(st.integers(1, 2))):
            dist = draw(st.booleans())
            n = draw(st.integers(1, 3))
            weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
            rows = []
            for k in range(n):
                n_rows += 1
                fields = dict(
                    id=f"R{n_rows} {draw(_TEXT)}".strip(), name=draw(st.text(max_size=4)),
                    dc=draw(_f12(0.0, 1.0)), sigma_dc=draw(_f12(0.0, 0.1)),
                    dc_latent=draw(_f12(0.0, 1.0)), sigma_dc_latent=draw(_f12(0.0, 0.1)),
                    dc_source=draw(_SOURCES),
                    safety_mechanisms=draw(st.lists(_TEXT, max_size=2)))
                if dist:
                    fields.update(fmd_fraction=float(fmt12(weights[k] / sum(weights))),
                                  sigma_fmd=draw(_f12(0.0, 0.1)))
                else:
                    fields.update(lambda_fm=draw(_f12(0.0, 1e3)),
                                  sigma_lambda_fm=draw(_f12(0.0, 10.0)))
                if n_rows == 1 and planted == "source":
                    fields["dc_source"] = DcSource("expert", draw(_f12(1e-6, 0.5)), draw(_LEVELS))
                elif n_rows == 1 and planted == "sigma":
                    fields["sigma_lambda_fm" if dist else "sigma_fmd"] = draw(_f12(1e-3, 1.0))
                elif n_rows == 1 and mine is DcSource:
                    src = fields["dc_source"]
                    fields["dc_source"] = _SUBCLASSES[DcSource](
                        src.kind, src.margin_e, src.confidence_level)
                rows.append(cls(FailureModeRow, n_rows == 1)(**fields))
            if dist:
                rate = draw(_f12(1.0, 1e3))
            else:
                rate = draw(st.sampled_from((None, float(fmt12(sum(r.lambda_fm for r in rows))))))
            mode = draw(st.sampled_from((None, "Distribution" if dist else "DirectLambda")))
            subs.append(cls(Subpart, p == s == 0)(
                f"S{s} {draw(_TEXT)}".strip(), rate, mode, tuple(rows)))
        parts.append(cls(Part, p == 0)(f"P{p} {draw(_TEXT)}".strip(), tuple(subs)))
    return cls(FmedaTable, True)(tuple(parts), draw(st.sampled_from((None, "A", "B", "C", "D"))))


@settings(settings.get_profile("fuzz"), max_examples=200)
@given(_api_tables())
def test_json_gives_back_every_field_of_a_table_that_validates(table):
    # README's JSON contract: parse_json(emit_json(table)) == table for
    # every valid table whose floats have at most 12 significant digits.
    if validate(table) == []:
        assert parse_json(emit_json(table)) == table


def test_csv_and_json_give_identical_analysis_json():
    t_csv = parse_csv(MINIMAL_CSV)
    t_json = parse_json(MINIMAL_JSON)
    doc_csv = emit_result(analyze(t_csv), "json")
    doc_json = emit_result(analyze(t_json), "json")
    assert doc_csv == doc_json


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def test_result_json_schema_stable():
    result = analyze(two_fm_table())
    doc = emit_result(result, "json")
    parsed = json.loads(doc)
    assert parsed["spfm"] == 0.945
    assert list(parsed) == sorted(parsed)
    assert doc == emit_result(analyze(two_fm_table()), "json")


def test_to_dict_shares_the_report_objects():
    _assert_to_dict_shares_the_report_objects(analyze(two_fm_table(), asil_target="B"))


def _assert_to_dict_shares_the_report_objects(result):
    doc = result.to_dict()
    for key, items in (("rows", result.rows), ("eii", result.eii_entries),
                       ("eii_totals", result.eii_totals)):
        assert len(doc[key]) == len(items) > 0
        assert all(a is b for a, b in zip(doc[key], items)), key
    assert list(result.rows[0]) == [
        "part", "subpart", "failure_mode", "name", "lambda_fm_fit", "sigma_lambda_fm_fit",
        "dc", "sigma_dc", "dc_latent", "sigma_dc_latent", "eii_dc_percent",
        "eii_lambda_percent", "eii_total_percent"]
    assert set(result.eii_entries[0]) == {"failure_mode", "input", "raw_eii",
                                          "variance_share", "percent"}
    assert set(result.eii_totals[0]) == {"failure_mode", "percent"}


@pytest.mark.parametrize("n_fm", [2, 2 * ingest._BLOCK + 88])
def test_emit_result_builds_none_of_the_report_dicts(n_fm):
    table = two_fm_table() if n_fm == 2 else \
        random_table(np.random.default_rng(5), n_fm=n_fm, sigma_dc_latent_max=0.02)
    result = analyze(table, asil_target="B")
    texts = {fmt: emit_result(result, fmt) for fmt in ("json", "markdown", "csv")}
    assert not {"rows", "eii_entries", "eii_totals"} & vars(result).keys()
    rows = result.rows
    assert result.rows is rows and result.eii_entries is result.eii_entries
    assert len(rows) == len(result.row_columns) == n_fm
    _assert_to_dict_shares_the_report_objects(result)
    # The columns and the dicts built from them give the same documents.
    assert texts["json"] == _reference(result.to_dict())
    assert {fmt: emit_result(result, fmt) for fmt in texts} == texts


def test_result_markdown_columns_and_totals():
    result = analyze(two_fm_table())
    doc = emit_result(result, "markdown")
    assert "| part | subpart | failure mode | lambda_fm [FIT] " in doc
    assert "EII from sigma_DC [%]" in doc
    assert "total EII [%]" in doc
    # EII totals column sums to 100.00 for the worked table
    totals = []
    for line in doc.splitlines():
        if line.startswith("| CPU |"):
            totals.append(float(line.split("|")[-2]))
    assert sum(totals) == pytest.approx(100.00, abs=0.011)
    assert "- SPFM: 0.945" in doc
    assert "- sigma_SPFM (DC-only): 0.010012492197" in doc


def test_result_markdown_escapes_pipes_and_line_breaks():
    text = HEADER + "\n" \
        '"CPU|0",EXEC,FM1,50,0,,0.9,0.02,0,0,expert,\n' \
        '"CPU\n1","A\\|B",FM2,50,0,,0.99,0.001,0,0,expert,\n' \
        'GPU,"X\r\nY","F|3",10,1,,0.8,0.01,0,0,expert,\n'
    table = parse_csv(text)
    result = analyze(table)
    doc = emit_result(result, "markdown")
    lines = doc.split("\n")
    head = lines.index("## Failure modes") + 2
    table_lines = lines[head:lines.index("## Summary") - 1]
    assert len(table_lines) == 2 + 3  # header, rule, one line per row
    for line in table_lines:
        # A pipe is a cell border unless an odd run of backslashes escapes it.
        borders = [i for i, c in enumerate(line) if c == "|"
                   and (len(line[:i]) - len(line[:i].rstrip("\\"))) % 2 == 0]
        assert len(borders) == 11, line
    assert "| CPU\\|0 | EXEC | FM1 |" in doc
    assert "| CPU<br>1 | A\\\\\\|B | FM2 |" in doc
    assert "| GPU | X<br>Y | F\\|3 |" in doc
    # JSON and CSV carry the names as they are.
    names = [(r["part"], r["subpart"], r["failure_mode"]) for r in result.rows]
    assert names == [("CPU|0", "EXEC", "FM1"), ("CPU\n1", "A\\|B", "FM2"),
                     ("GPU", "X\r\nY", "F|3")]
    assert [(r["part"], r["subpart"], r["failure_mode"])
            for r in json.loads(emit_result(result, "json"))["rows"]] == names
    csv_rows = list(csv.reader(io.StringIO(emit_result(result, "csv"), newline="")))[1:4]
    assert [tuple(r[:3]) for r in csv_rows] == names


def test_csv_writers_quote_a_lone_carriage_return():
    # csv.writer quotes only the characters of its "\n" line terminator, so
    # an unquoted "\r" would end the record early on reading.
    table = parse_csv(HEADER + "\n"
                      'CPU,"EX\rEC","F3\r4",50,0,,0.9,0.02,0,0,expert,\n'
                      "CPU,EXEC,FM2,50,0,,0.99,0.001,0,0,expert,\n")
    back = parse_csv(emit_csv(table))
    assert back == table
    assert [(s.name, [r.id for r in s.failure_modes]) for s in back.parts[0].subparts] \
        == [("EX\rEC", ["F3\r4"]), ("EXEC", ["FM2"])]
    rows = list(csv.reader(io.StringIO(emit_result(analyze(table), "csv"), newline="")))
    assert [r[:3] for r in rows[1:3]] == [["CPU", "EX\rEC", "F3\r4"], ["CPU", "EXEC", "FM2"]]


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_result_mode_may_be_given_by_value(fmt):
    table = two_fm_table()
    by_value = analyze(table, mode="dc_only", asil_target="B")
    assert by_value.mode is PropagationMode.DC_ONLY
    assert emit_result(by_value, fmt) == \
        emit_result(analyze(table, mode=PropagationMode.DC_ONLY, asil_target="B"), fmt)


def test_result_unknown_mode_rejected_before_any_work():
    invalid = make_table([dict(lambda_fm=-1.0, dc=0.9)])
    with pytest.raises(ValueError, match="dc-only") as caught:
        analyze(invalid, mode="dc-only")
    assert not isinstance(caught.value, FmedaValidationError)


def test_result_zero_sigma_interval_has_zero_width():
    result = analyze(make_table([dict(lambda_fm=10.0, dc=0.9, dc_latent=1.0)]))
    assert result.interval_spfm.lo == result.interval_spfm.hi
    doc = emit_result(result, "markdown")
    assert "[0.9, 0.9]" in doc
    assert result.eii_note is not None


def test_result_csv_has_rows_and_summary():
    doc = emit_result(analyze(two_fm_table(), asil_target="B"), "csv")
    lines = doc.splitlines()
    assert lines[0].startswith("part,subpart,failure_mode")
    assert "spfm,0.945" in doc
    assert "verdict_overall,PassRobust" in doc


def test_unknown_result_format_rejected():
    with pytest.raises(ValueError):
        emit_result(analyze(two_fm_table()), "yaml")


# ---------------------------------------------------------------------------
# The JSON writer: json.dumps(sort_keys=True, indent=2) of 12-digit floats
# ---------------------------------------------------------------------------


def _reference(doc) -> str:
    """The writer's contract, spelled with the standard library."""
    def rounded(obj):
        if isinstance(obj, float):
            return float(fmt12(obj))
        if isinstance(obj, dict):
            return {k: rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [rounded(v) for v in obj]
        return obj
    return json.dumps(rounded(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
def test_float_token_is_the_json_of_the_12_digit_float(x):
    assert ingest._float_token(x) == json.dumps(float(fmt12(x)))


@pytest.mark.parametrize("x", [
    0.0, 5e-324, 1e-310, sys.float_info.min, sys.float_info.max,
    1e12, 1.5e13, 9.99999999999e15, 1e16,
    999999999999.5,  # rounds up into the exponent-12 band
    123456789012345.0, 2.5, 1e-5, 1e100,
])
def test_float_token_pinned_cases(x):
    for v in (x, -x):
        assert ingest._float_token(v) == json.dumps(float(fmt12(v)))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_rejected(x):
    with pytest.raises(ValueError):
        ingest._float_token(x)
    with pytest.raises(ValueError):
        ingest._json_text({"spfm": [1.0, x]})


def test_writer_rejects_what_json_cannot_encode():
    with pytest.raises(TypeError):
        ingest._json_text({"x": object()})
    with pytest.raises(TypeError):
        ingest._json_text({1: 2.0})


def test_writer_layout_matches_json_dumps():
    doc = {"b": [], "a": {}, "c": [{"z": None, "y": True, "x": False}, 3, -0.0],
           "\u00e9\n\"": "caf\u00e9\t\\", "d": (1.5, "x"),
           "e": collections.OrderedDict(b=[1.0], a={"y": 2.0})}
    assert ingest._json_text(doc, end="\n") == _reference(doc)


_PINNED = [1e-05, -0.0, 2.0, 5e-324, 1e-310, 1e12, 1.5e13, 9.99999999999e15, 1e16,
           999999999999.5, 1e100]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.one_of(
    _FINITE, _FINITE.map(np.float64), st.sampled_from(_PINNED + [-x for x in _PINNED]),
    st.integers(-10**30, 10**30), st.booleans(), st.none(), st.text(max_size=6),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_KEYS = st.sets(st.text(max_size=4) | st.sampled_from(["%", "%s", "a%%b", "%(x)s"]),
                min_size=1, max_size=6)


@st.composite
def _object_arrays(draw, mixed: bool):
    """A list of dicts with one key set; if mixed, other members between them."""
    keys = draw(_KEYS)
    same = st.fixed_dictionaries({key: _VALUES for key in keys})
    other = _VALUES | st.dictionaries(st.text(max_size=4), _VALUES, max_size=4) if mixed \
        else same
    return [draw(same)] + draw(st.lists(st.one_of(same, other), max_size=6))


def _columns(objs: list) -> ingest.Columns | None:
    """objs as a Columns, if they are dicts that all have the first one's keys."""
    if objs and all([type(o) is dict and o.keys() == objs[0].keys() for o in objs]):
        return ingest.Columns({key: [o[key] for o in objs] for key in objs[0]})
    return None


def _arrays(objs: list) -> list:
    """The forms of one array that the writer takes: the list, and its
    Columns when it has one."""
    columns = _columns(objs)
    return [objs] if columns is None else [objs, columns]


# Array sizes around the column writer's block boundaries: one block, just
# under and over one boundary, and over two.
_SIZES = [1, 7, ingest._BLOCK - 1, ingest._BLOCK, ingest._BLOCK + 1, 2 * ingest._BLOCK + 7]

# Floats whose %.12g token is not their JSON token: integral values
# (123.0000000000001 rounds to "123", 1e11 is "100000000000"), the exponents
# 12-15, exponents written without a "." (1e-05, 1e+16) and subnormals; and
# floats whose token the column check sends the slow way although it is
# right (1.5e-30, 2.5e+19).  The mixins are the other values a float key
# may hold.
_COLUMN_TRIGGERS = [0.0, -0.0, 5.0, 123.0000000000001, 1e11, 5.5e12, 9.99999999999e15,
                    1e16, 2.5e19, 2.5e20, 1e-05, 1.5e-30, 5e-324, 1e-310, sys.float_info.min]
_COLUMN_MIXINS = [7, None, np.float64(0.25), np.float64(1e13), "s", True, [1.5], {"k": 2.0}]


@st.composite
def _long_object_arrays(draw):
    """Arrays of one member to past two blocks of the column writer,
    triggers at random rows.

    Each key holds floats, strs, or floats mixed with other values, with
    one planted value, often alone, and a few more at drawn rows; now and
    then a member with other keys or no object at all breaks the array's
    key set, so that the array has no Columns form.
    """
    n = draw(st.sampled_from(_SIZES))
    keys = draw(_KEYS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objs = [{} for _ in range(n)]
    for key in keys:
        kind = draw(st.sampled_from(["float", "str", "mixed"]))
        if kind == "str":
            column = [f"v{i}\u00e9" for i in range(n)]
        else:
            column = [float(x) for x in rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)]
        plants = {"float": _COLUMN_TRIGGERS, "str": _COLUMN_MIXINS,
                  "mixed": _COLUMN_TRIGGERS + _COLUMN_MIXINS}[kind]
        plant = st.tuples(st.integers(0, n - 1), st.sampled_from(plants))
        for row, value in [draw(plant)] + draw(st.lists(plant, max_size=4)):
            column[row] = value
        for obj, value in zip(objs, column):
            obj[key] = value
    if n > 1:
        for row, other in draw(st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from(
                [{"other": 1.0}, 2.5, None, "x"])), max_size=2)):
            objs[row] = other
    return objs


@settings(settings.get_profile("fuzz"), max_examples=200)
@given(objs=st.one_of(_object_arrays(mixed=False), _object_arrays(mixed=True),
                      _long_object_arrays()))
@example(objs=[{"a": f"s{i}"} for i in range(8)] + [{"a": 7}])
def test_object_arrays_equal_json_dumps(objs):
    expected = _reference(objs)
    for array in _arrays(objs):
        assert ingest._json_text(array, end="\n") == expected
        doc = {"rows": array, "eii": tuple(objs)}
        assert ingest._json_text(doc, end="\n") == _reference({"rows": objs, "eii": objs})


def _long_array(value, row: int = ingest._BLOCK + 10) -> list:
    """An array of same-key objects past one block, value at row under key "b"."""
    objs = [{"a": float(i) + 0.5, "b": {"c": 0.5}} for i in range(ingest._BLOCK + 20)]
    objs[row]["b"] = value
    return objs


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_in_an_object_array_are_rejected(x):
    long = _long_array(1.5)
    long[ingest._BLOCK + 10]["a"] = x
    for objs in ([{"a": x, "b": "s"}], [{"a": 1.0, "b": "s"}, {"a": x, "b": "s"}],
                 [{"a": 1.0}, {"a": [x]}], long, _long_array([x])):
        assert _columns(objs) is not None
        for array in _arrays(objs):
            with pytest.raises(ValueError):
                ingest._json_text(array)


def test_non_str_keys_in_an_object_array_are_rejected():
    long = _long_array(1.5)
    long[ingest._BLOCK + 10] = {1: 2.0}
    for objs in ([{1: 2.0}, {1: 3.0}], [{"a": 1.0}, {1: 2.0}], [{"a": 1.0}, {"a": {1: 2.0}}],
                 [{1: 2.0}] * len(long), long, _long_array({1: 2.0}), _long_array({2: 1.0}, 3)):
        for array in _arrays(objs):
            with pytest.raises(TypeError):
                ingest._json_text(array)


def _capture_documents(monkeypatch) -> list:
    """The documents that ingest._json_text is asked to write, from now on."""
    captured = []
    real = ingest._json_text

    def capture(obj, newline="\n", end=""):
        if end == "\n":  # the document, with its final newline
            captured.append(obj)
        return real(obj, newline, end)

    monkeypatch.setattr(ingest, "_json_text", capture)
    return captured


def test_documents_equal_json_dumps_on_the_acceptance_corpus(monkeypatch):
    captured = _capture_documents(monkeypatch)
    # One table of more rows than two blocks of the column writer, so that
    # its report rows and EII entries cross block boundaries.
    multi_block = random_table(np.random.default_rng(17), n_fm=2 * ingest._BLOCK + 88,
                               sigma_dc_latent_max=0.02)
    for name, table, _ in fixture_corpus() + [("multi_block", multi_block, True)]:
        for confidence in (0.90, 0.99):
            result = analyze(table, confidence_level=confidence, asil_target="D")
            assert emit_result(result, "json") == _reference(result.to_dict()), name
        captured.clear()
        text = emit_json(table)
        assert len(captured) == 1
        assert text == _reference(captured[0]), name


def _alternating_keys_table() -> FmedaTable:
    """Subparts of 8 to 13 rows whose optional keys alternate, as in the
    benchmark's SoC table: a name on every other row, safety mechanisms on
    every third, so each array of failure modes has members of four key
    sets."""
    rng = np.random.default_rng(23)
    parts = []
    for p in range(3):
        subs = []
        for s in range(4):
            n = 8 + s + p
            dist = s == 3
            rows = []
            for i in range(n):
                fields = dict(id=f"P{p}S{s}R{i}", dc=float(rng.uniform(0.5, 1.0)),
                              sigma_dc=float(rng.uniform(0.0, 0.02)))
                if dist:
                    fields.update(fmd_fraction=1.0 / n if i else 1.0 - (n - 1) * (1.0 / n))
                else:
                    fields.update(lambda_fm=float(rng.uniform(1.0, 50.0)),
                                  sigma_lambda_fm=float(rng.uniform(0.0, 2.0)))
                if i % 2 == 0:
                    fields["name"] = f"mode {i} \u00e9"
                if i % 3 == 0:
                    fields["safety_mechanisms"] = ("SM1", f"SM{i}")
                rows.append(FailureModeRow(**fields))
            subs.append(Subpart(f"S{s}", 100.0 if dist else None, None, tuple(rows)))
        parts.append(Part(f"P{p}", tuple(subs)))
    return FmedaTable(tuple(parts), "D")


def test_objects_with_alternating_keys_equal_json_dumps(monkeypatch):
    table = _alternating_keys_table()
    captured = _capture_documents(monkeypatch)
    text = emit_json(table)
    assert len(captured) == 1
    assert text == _reference(captured[0])
    for part in captured[0]["parts"]:
        for sub in part["subparts"]:
            rows = sub["failure_modes"]
            assert len(rows) >= 8
            assert len({frozenset(row) for row in rows}) == 4
    result = analyze(table)
    assert emit_result(result, "json") == _reference(result.to_dict())
    assert emit_json(parse_json(text)) == text


def test_report_writer_peak_memory_is_about_twice_its_text():
    # The member texts and the one text they are joined into; a container
    # that copied its joined members again would take about 3 times.
    result = analyze(random_table(np.random.default_rng(3), n_fm=10_000,
                                  sigma_dc_latent_max=0.02), asil_target="D")
    emit_result(result, "json")  # one-time allocations
    tracemalloc.start()
    try:
        text = emit_result(result, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * len(text)


def test_analyses_compare_by_the_objects_of_their_columns():
    # AnalysisResult's == compares its Columns fields, which compare by
    # their objects: a re-read table gives an equal analysis, and one
    # changed DC an unequal one.
    text = emit_json(two_fm_table())
    result, reread = analyze(two_fm_table()), analyze(parse_json(text))
    assert result == reread and result.row_columns == reread.row_columns
    changed = analyze(parse_json(text.replace('"dc": 0.99,', '"dc": 0.98,', 1)))
    assert result != changed and result.row_columns != changed.row_columns
    # A Columns is not the list, nor the tuple, of its own objects.
    rows = result.row_columns.objects()
    assert result.row_columns != list(rows) and list(rows) != result.row_columns
    assert result.row_columns != rows
