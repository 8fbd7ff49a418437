"""Parsing, emission, and round-trip identity of both table formats."""

import json
import math
import sys

import pytest
from hypothesis import given, strategies as st

from fmeda_uq import (
    DcSource,
    FmedaValidationError,
    ParseError,
    analyze,
    emit_csv,
    emit_json,
    emit_result,
    parse_csv,
    parse_json,
)
from fmeda_uq import ingest
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
    assert (report.lambda_fm, report.sigma_lambda_fm) == (50.0, 2.0)
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
           "\u00e9\n\"": "caf\u00e9\t\\", "d": (1.5, "x")}
    assert ingest._json_text(doc) + "\n" == _reference(doc)


def test_documents_equal_json_dumps_on_the_acceptance_corpus(monkeypatch):
    captured = []
    real = ingest._json_text

    def capture(obj, newline="\n"):
        if newline == "\n":  # the document, not one of its members
            captured.append(obj)
        return real(obj, newline)

    monkeypatch.setattr(ingest, "_json_text", capture)
    for name, table, _ in fixture_corpus():
        for confidence in (0.90, 0.99):
            result = analyze(table, confidence_level=confidence, asil_target="D")
            assert emit_result(result, "json") == _reference(result.to_dict()), name
        captured.clear()
        text = emit_json(table)
        assert len(captured) == 1
        assert text == _reference(captured[0]), name
