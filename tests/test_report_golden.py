"""The exact markdown and CSV reports of a fixed set of analyses.

tests/data/reports/ holds, for every case below, the markdown (.md) and
CSV (.csv) report that emit_result writes.  Together the cases take every
branch of the summary: an ASIL verdict and none, a defined and an
undefined LFM (at ASIL A and at B), a zero sigma (the EII note and a
zero-width interval), clamped intervals, a stamp, a Distribution subpart
with a fraction sigma, and names that markdown escapes and CSV quotes.
worked_asil_b is the analysis whose JSON report is
worked_two_fm_analysis.json.  The test asserts that the package still writes exactly those bytes.

Regenerate the files after a deliberate change of a report with

    PYTHONPATH=src python tests/test_report_golden.py
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

from fmeda_uq import analyze, emit_result, parse_csv
from fmeda_uq.ingest import CSV_COLUMNS
from conftest import make_table

DATA = Path(__file__).parent / "data"
REPORTS = DATA / "reports"
SUFFIXES = {"markdown": ".md", "csv": ".csv"}
STAMP = {"tool": "fmeda-uq 0.1.0", "created": "2026-01-01T00:00:00+00:00"}


def _worked():
    return parse_csv((DATA / "worked_two_fm.csv").read_text(encoding="utf-8"))


def _no_detected_pool():
    # DC 0 everywhere: no detected pool, so LFM is undefined.
    return make_table([dict(lambda_fm=40.0, sigma_lambda_fm=4.0, dc=0.0, sigma_dc=0.05),
                       dict(lambda_fm=60.0, dc=0.0)])


def _names():
    return parse_csv(",".join(CSV_COLUMNS) + "\n"
                     '"CPU|0",EXEC,FM1,50,5,,0.9,0.02,0.6,0.05,expert,SM1\n'
                     '"CPU\n1","A\\|B","F\r2",50,0,,0.99,0.001,0.8,0,expert,\n'
                     "GPU,DIST,,200,,,,,,,,\n"
                     "GPU,DIST,G1,,0.02,0.25,0.95,0.01,0.9,0,faultsim:e=0.02:cl=0.95,SM2\n"
                     "GPU,DIST,G2,,,0.75,0.6,0.05,0.5,0.1,expert,\n")


# name: (table builder, analyze keyword arguments)
CASES = {
    "worked_asil_b": (_worked, dict(asil_target="B")),
    "worked_no_target": (_worked, {}),
    "undefined_lfm_asil_a": (_no_detected_pool, dict(asil_target="A")),
    "undefined_lfm_asil_b": (_no_detected_pool, dict(asil_target="B")),
    "zero_sigma": (lambda: make_table([dict(lambda_fm=10.0, dc=0.9, dc_latent=1.0)]),
                   dict(asil_target="B")),
    "clamped": (lambda: make_table([dict(lambda_fm=10.0, dc=0.999, sigma_dc=0.01,
                                         dc_latent=0.95, sigma_dc_latent=0.1)]),
                dict(asil_target="D", confidence_level=0.99)),
    "stamped_dc_only": (_worked, dict(asil_target="D", mode="dc_only", stamp=STAMP)),
    "names_and_fractions": (_names, dict(asil_target="C", mode="lambda_only")),
}


def _result(name):
    build, kwargs = CASES[name]
    return analyze(build(), **kwargs)


def _path(name, fmt) -> Path:
    return REPORTS / (name + SUFFIXES[fmt])


@pytest.mark.parametrize("fmt", sorted(SUFFIXES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_the_golden_file(name, fmt):
    assert emit_result(_result(name), fmt).encode("utf-8") == _path(name, fmt).read_bytes()


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_emit_result_reads_only_the_document(name, fmt):
    result = _result(name)
    document_only = types.SimpleNamespace(to_dict=result.to_dict)
    assert emit_result(document_only, fmt) == emit_result(result, fmt)


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    for case in CASES:
        for out in SUFFIXES:
            _path(case, out).write_bytes(emit_result(_result(case), out).encode("utf-8"))
