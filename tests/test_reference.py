"""`analyze` against the benchmark's independent reference.

perfbench/oracle.py recomputes every number that `analyze` reports in
plain Python, with math.fsum for every sum and neither numpy nor fmeda_uq
imported, from the tables that perfbench/gen.py writes.  perfbench/checks.py
compares a JSON report with it, and the markdown and CSV reports with the
JSON one.  The benchmark runs both on its own outputs; here they check
`cli.main analyze` on every table of three portfolios and on the three
Monte Carlo tables, each in the format, propagation mode, confidence level
and ASIL target its generator gives it.  The SoC-scale table of the
analyze_soc workload is left to the benchmark: with it this file took
5.5 s instead of 4.2 s on a 2-vCPU VM.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

from fmeda_uq import cli  # noqa: E402


def _analyze(path: Path, options: list[str], fmt: str) -> tuple[int, str]:
    """cli.main analyze on path: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", "--input", str(path), *options, "--format", fmt])
    return code, out.getvalue()


def _errors(path: Path, options: list[str], ref: dict, thresholds) -> list[str]:
    """What checks.py finds wrong in the three reports of one table."""
    code, text = _analyze(path, options, "json")
    errors, doc = checks.check_analysis(text, code, ref, thresholds)
    if errors:
        return errors
    for fmt, check in (("markdown", checks.check_markdown), ("csv", checks.check_result_csv)):
        fmt_code, fmt_text = _analyze(path, options, fmt)
        errors += check(fmt_text, doc)
        if fmt_code != code:
            errors.append(f"{fmt} exit {fmt_code} != {code}")
    return errors


def _write(path: Path, table: dict, fmt: str) -> Path:
    path.write_text(gen.write_json(table) if fmt == "json" else gen.write_csv(table),
                    encoding="utf-8", newline="")
    return path


def test_oracle_self_check():
    oracle.self_check()


@pytest.mark.parametrize("seed", [1, 7, 41])
def test_portfolio_reports_match_the_reference(seed, tmp_path):
    failures = []
    for table in gen.portfolio(seed):
        spec = table["spec"]
        path = _write(tmp_path / f"{table['name']}.{spec['format']}", table, spec["format"])
        options = ["--confidence", f"{spec['confidence']:.2f}", "--mode", spec["mode"]]
        if spec["format"] == "csv" and spec["target"] is not None:
            options += ["--asil", spec["target"]]  # a JSON table states its own
        ref = oracle.reference(table, spec["confidence"], spec["mode"], spec["target"])
        found = _errors(path, options, ref, gen.THRESHOLDS.get(spec["target"]))
        failures += [f"{table['name']}: {e}" for e in found]
    assert failures == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_table_reports_match_the_reference(seed, tmp_path):
    table = gen.verify_table(seed)
    path = _write(tmp_path / "verify.json", table, "json")
    assert _errors(path, [], oracle.reference(table), None) == []

