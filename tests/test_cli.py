"""CLI surface: subcommands, exit codes, stream separation, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fmeda_uq import PropagationMode, cli, emit_json
from conftest import make_table, strict_json, two_fm_table

TWO_FM_CSV = (
    "part,subpart,failure_mode,lambda_fit,sigma_lambda_fit,fmd_fraction,"
    "dc,sigma_dc,dc_latent,sigma_dc_latent,dc_source,sm_list\n"
    "CPU,EXEC,FM1,50,0,,0.9,0.02,0.6,0,expert,\n"
    "CPU,EXEC,FM2,50,0,,0.99,0.001,0.8,0,expert,\n"
)


@pytest.fixture
def table_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(TWO_FM_CSV, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_no_target(table_csv, capsys):
    code, out, err = run(capsys, ["analyze", "--input", table_csv])
    assert code == 0
    assert err == ""
    doc = strict_json(out)
    assert doc["spfm"] == 0.945
    assert doc["asil"] is None


def test_analyze_pass_robust_at_b(table_csv, capsys):
    code, out, _ = run(capsys, ["analyze", "--input", table_csv, "--asil", "B"])
    assert code == 0
    doc = strict_json(out)
    assert doc["asil"]["overall"] == "PassRobust"
    # 0.945 - 1.96 * 0.0100125 = 0.92538 >= 0.90
    assert doc["interval_spfm"]["lo"] >= 0.90


def test_analyze_fragile_exit_code(tmp_path, capsys):
    table = make_table([dict(lambda_fm=100.0, dc=0.905, sigma_dc=0.0053,
                             dc_latent=0.9)])
    path = tmp_path / "fragile.json"
    path.write_text(emit_json(table), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", "--input", str(path), "--asil", "B"])
    assert code == 2
    assert strict_json(out)["asil"]["spfm"] == "PassFragile"


def test_analyze_fail_exit_code(tmp_path, capsys):
    table = make_table([dict(lambda_fm=100.0, dc=0.88, dc_latent=0.9)])
    path = tmp_path / "fail.json"
    path.write_text(emit_json(table), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", "--input", str(path), "--asil", "B"])
    assert code == 3
    assert strict_json(out)["asil"]["overall"] == "Fail"


def test_analyze_malformed_csv_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(TWO_FM_CSV.replace("0.9,", "oops,", 1), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "line 2" in err
    assert "dc" in err


def test_analyze_repeated_json_key_exit_one(tmp_path, capsys):
    text = emit_json(two_fm_table()).replace('"dc": 0.9,', '"dc": 0.99, "dc": 0.5,', 1)
    assert '"dc": 0.5' in text
    code, out, err = run(capsys, ["analyze", "--input", _write(tmp_path, "t.json", text)])
    assert code == 1
    assert out == ""
    assert "repeated key 'dc'" in err


def test_analyze_validation_errors_listed(tmp_path, capsys):
    path = tmp_path / "invalid.csv"
    path.write_text(TWO_FM_CSV.replace("0.9,", "1.9,", 1), encoding="utf-8")
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "dc.range" in err


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, ["analyze", "--input", "does-not-exist.csv"])
    assert code == 1
    assert "cannot read" in err


def test_analyze_markdown_and_csv_formats(table_csv, capsys):
    code, out, _ = run(capsys, ["analyze", "--input", table_csv,
                                "--format", "markdown"])
    assert code == 0
    assert out.startswith("# FMEDA uncertainty analysis")
    code, out, _ = run(capsys, ["analyze", "--input", table_csv,
                                "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("part,subpart")


def test_analyze_byte_identical_reruns(table_csv, capsys):
    _, first, _ = run(capsys, ["analyze", "--input", table_csv, "--asil", "B"])
    _, second, _ = run(capsys, ["analyze", "--input", table_csv, "--asil", "B"])
    assert first == second


def test_analyze_stamp_adds_metadata(table_csv, capsys):
    _, plain, _ = run(capsys, ["analyze", "--input", table_csv])
    _, stamped, _ = run(capsys, ["analyze", "--input", table_csv, "--stamp"])
    assert "stamp" not in strict_json(plain)
    doc = strict_json(stamped)
    assert doc["stamp"]["tool"].startswith("fmeda-uq ")


def test_back_to_back_calls_share_the_parser_but_no_state(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(emit_json(dataclasses.replace(two_fm_table(), asil_target="B")),
                    encoding="utf-8")
    argv = ["analyze", "--input", str(path)]
    stamped = strict_json(run(capsys, argv + ["--stamp"])[1])
    plain = strict_json(run(capsys, argv)[1])
    assert "stamp" in stamped and "stamp" not in plain
    assert strict_json(run(capsys, argv + ["--asil", "D"])[1])["asil"]["target"] == "D"
    assert strict_json(run(capsys, argv)[1])["asil"]["target"] == "B"  # the table's
    assert cli._build_parser() is cli._build_parser()


def test_help_and_usage_text_are_those_of_a_fresh_parser(capsys):
    def outcome(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    fresh = cli._build_parser.__wrapped__().parse_args
    for argv in (["--help"], ["analyze", "--help"], ["verify", "--help"], [], ["analyze"],
                 ["--version"]):
        expected = outcome(fresh, argv)
        assert outcome(cli.main, argv) == outcome(cli.main, argv) == expected
        assert expected[1 if argv and argv[-1].startswith("--") else 2]


def test_analyze_json_input(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(emit_json(two_fm_table()), encoding="utf-8")
    code, out, _ = run(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    assert strict_json(out)["spfm"] == 0.945


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_analyze_overflowing_total_rate_is_an_input_error(tmp_path, capsys):
    # Each rate is finite, their sum is not: no verdict can rest on it.
    path = _write(tmp_path, "huge.csv", TWO_FM_CSV.replace(",50,0,", ",1e308,0,"))
    code, out, err = run(capsys, ["analyze", "--input", path, "--asil", "D"])
    assert code == 1
    assert out == ""
    assert "table.lambda_tot_finite" in err


# Every rate is finite and a sequential sum of them is too; numpy's pairwise
# sum, the lambda_tot that analyze and verify use, overflows.
PAIRWISE_OVERFLOW_RATES = (2.84904500872e307, 2.55501586796e307, 2.87289897873e307,
                           2.37246196535e307, 2.14930836725e307, 2.83180652565e307,
                           2.34624571674e307, 1.48918223157e303)


@pytest.mark.parametrize("argv", [["analyze", "--asil", "D"], ["verify", "--samples", "1000"]])
def test_pairwise_overflowing_total_rate_is_an_input_error(argv, tmp_path, capsys):
    lines = [TWO_FM_CSV.splitlines()[0]] + [
        f"CPU,EXEC,FM{i},{rate!r},0,,0.9,0.01,0.5,0,expert,"
        for i, rate in enumerate(PAIRWISE_OVERFLOW_RATES, 1)]
    path = _write(tmp_path, "huge.csv", "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv + ["--input", path])
    assert code == 1
    assert out == ""
    assert "table.lambda_tot_finite" in err


def test_analyze_huge_rates_match_unit_rates(table_csv, tmp_path, capsys):
    # Rates of 1e200 FIT square to inf; the normalized weights do not.
    path = _write(tmp_path, "big.csv", TWO_FM_CSV.replace(",50,0,", ",1e200,0,"))
    code_ref, ref, _ = run(capsys, ["analyze", "--input", table_csv, "--asil", "B"])
    code, out, err = run(capsys, ["analyze", "--input", path, "--asil", "B"])
    assert (code, err) == (code_ref, "")
    doc, want = strict_json(out), strict_json(ref)
    assert doc["lambda_tot_fit"] == 2e200
    for key in ("spfm", "lfm", "sigma_spfm", "sigma_lfm", "interval_spfm",
                "interval_lfm", "eii", "eii_totals", "asil"):
        assert doc[key] == want[key], key


def test_verify_rates_near_the_top_of_the_float_range(tmp_path, capsys):
    # lambda_tot is 1.6e308, finite; a sum of drawn rates of this size is not.
    path = _write(tmp_path, "top.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,8e307,3e307,,0.9,0.01,0.5,0,expert,\n"
                  "CPU,EXEC,FM2,8e307,3e307,,0.95,0.01,0.5,0,expert,\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify", "--input", path, "--samples", "2000"])
    assert (code, err) == (0, "")
    doc = strict_json(out)
    assert doc["all_pass"] is True
    for metric in ("spfm", "lfm"):
        assert doc[metric]["empirical_sigma"] > 0.0


def test_analyze_subnormal_rate(tmp_path, capsys):
    path = _write(tmp_path, "tiny.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,1e-320,0,,0.9,0.02,0,0,expert,\n")
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert (code, err) == (0, "")
    doc = strict_json(out)
    assert doc["spfm"] == 0.9
    assert doc["sigma_spfm"] == {"full": 0.02, "dc_only": 0.02, "lambda_only": 0.0}


def test_analyze_subnormal_detected_pool(tmp_path, capsys):
    # The LFM partials are divided by the 5e-324 pool twice and overflow;
    # each sigma is 0, so their products are 0, not inf * 0 = nan.
    path = _write(tmp_path, "tiny_pool.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "P,S,FM1,1,0,,5e-324,0,0,0,expert,\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["analyze", "--input", path])
    assert (code, err) == (0, "")
    doc = strict_json(out)
    assert (doc["lfm"], doc["sigma_lfm"]) == (0.0, 0.0)
    assert doc["interval_lfm"] == {"lo": 0.0, "hi": 0.0, "clamped": False}


def test_overflowing_sigma_is_an_input_error(tmp_path, capsys):
    # sigma_lambda/lambda_tot is finite, its square is not: no format may
    # carry the resulting inf/NaN sigmas and EII shares.
    path = _write(tmp_path, "wild.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,1e-10,1e300,,0.9,0.02,0.6,0,expert,\n"
                  "CPU,EXEC,FM2,50,0,,0.99,0.001,0.8,0,expert,\n")
    runs = [["analyze", "--input", path, "--asil", "B", "--format", fmt]
            for fmt in ("json", "markdown", "csv")]
    runs.append(["verify", "--input", path, "--samples", "2000"])
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "table.sigma_finite" in err
        assert "Traceback" not in err


def test_faultsim_sigma_is_the_same_for_analyze_and_verify(tmp_path, capsys):
    # An empty sigma_dc on a fault-simulation row means e/t in every command.
    path = _write(tmp_path, "faultsim.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,60,0,,0.97,,0.6,0,faultsim:e=0.01:cl=0.95,\n"
                  "CPU,EXEC,FM2,40,0,,0.9,0.02,0.8,0,expert,\n")
    code, out, _ = run(capsys, ["analyze", "--input", path])
    assert code == 0
    analyzed = strict_json(out)["sigma_spfm"]["full"]
    assert analyzed == pytest.approx(
        ((60 * 0.01 / 1.96) ** 2 + (40 * 0.02) ** 2) ** 0.5 / 100, rel=1e-11)
    code, out, _ = run(capsys, ["verify", "--input", path, "--samples", "20000"])
    assert code == 0
    assert strict_json(out)["spfm"]["analytic_sigma"] == pytest.approx(analyzed, rel=1e-11)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    for command in ("analyze", "verify"):
        code, out, err = run(capsys, [command, "--input", path])
        assert code == 1
        assert out == ""
        assert "nested too deeply" in err


def test_csv_byte_order_mark_is_ignored(table_csv, tmp_path, capsys):
    path = _write(tmp_path, "bom.csv", "\ufeff" + TWO_FM_CSV)
    _, plain, _ = run(capsys, ["analyze", "--input", table_csv])
    code, out, err = run(capsys, ["analyze", "--input", path])
    assert (code, err) == (0, "")
    assert out == plain


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(TWO_FM_CSV.replace("CPU", "CPU\xe9").encode("latin-1"))
    code, out, err = run(capsys, ["analyze", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert "not UTF-8" in err


def test_empty_distribution_subpart_is_an_input_error(tmp_path, capsys):
    # Its FMD fractions sum to 0, not 1; accepted, its 50 FIT would be left
    # out of lambda_tot, and its CSV would not read back.
    doc = json.loads(emit_json(two_fm_table()))
    doc["parts"][0]["subparts"].append(
        {"name": "DIST", "fmd_mode": "Distribution", "lambda_fit": 50.0, "failure_modes": []})
    path = _write(tmp_path, "table.json", json.dumps(doc))
    code, out, err = run(capsys, ["analyze", "--input", path, "--asil", "B"])
    assert (code, out) == (1, "")
    assert "[fmd.sum] CPU/DIST.fmd_fraction" in err


def _one_part_json(part: str) -> str:
    """A JSON table of one row in a part of this name, written as
    json.dumps escapes it (a lone surrogate as "\\ud800")."""
    return json.dumps({"version": "fmeda-uq/1", "parts": [{"name": part, "subparts": [
        {"name": "EXEC", "failure_modes": [
            {"id": "FM1", "lambda_fit": 10.0, "dc": 0.9, "dc_source": "expert"}]}]}]})


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_reports_reach_a_strict_utf8_stdout(fmt, tmp_path):
    # capsys and StringIO take any str, surrogates included, so the command
    # runs in a child whose stdout is a pipe that encodes strictly as UTF-8,
    # as a file or a terminal does.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for part, expected in (("CPU\ud800", 1), ("CPU \u00e9\U0001f600", 0)):
        path = _write(tmp_path, "table.json", _one_part_json(part))
        proc = subprocess.run(
            [sys.executable, "-m", "fmeda_uq.cli", "analyze", "--input", path, "--format", fmt],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == expected, proc.stderr.decode("utf-8", "replace")
        assert b"Traceback" not in proc.stderr
        if expected:
            assert proc.stdout == b""
            assert b"[text.utf8] 'CPU\\ud800'.name" in proc.stderr
        else:
            assert part in proc.stdout.decode("utf-8") or fmt == "json"


def test_sample_size_worked_example(capsys):
    code, out, err = run(capsys, ["sample-size", "--population", "1000000",
                                  "--margin", "0.01", "--confidence", "0.95"])
    assert code == 0
    assert err == ""
    assert strict_json(out)["sample_size"] == 9513


def test_sample_size_text_format(capsys):
    code, out, _ = run(capsys, ["sample-size", "--population", "1000",
                                "--margin", "0.05", "--confidence", "0.95",
                                "--format", "text"])
    assert code == 0
    assert "sample size:      278" in out


def test_sample_size_text_format_lists_every_field_of_the_plan(capsys):
    code, out, _ = run(capsys, ["sample-size", "--population", "50000",
                                "--margin", "0.01", "--confidence", "0.99",
                                "--proportion", "0.2", "--format", "text"])
    assert code == 0
    assert out == ("population:       50000\n"
                   "proportion:       0.2\n"
                   "margin:           0.01\n"
                   "confidence level: 0.99\n"
                   "cutoff:           2.5758\n"
                   "sample size:      8757\n")


def test_sample_size_invalid_margin(capsys):
    code, out, err = run(capsys, ["sample-size", "--population", "1000",
                                  "--margin", "1.5", "--confidence", "0.95"])
    assert code == 1
    assert out == ""
    assert "margin" in err


def test_sample_size_population_beyond_float_range(capsys):
    code, out, err = run(capsys, ["sample-size", "--population", "1" + "0" * 400,
                                  "--margin", "0.01", "--confidence", "0.95"])
    assert code == 1
    assert out == ""
    assert err.startswith("invalid parameters: population")


def test_sample_size_cap(capsys):
    code, out, _ = run(capsys, ["sample-size", "--population", "10",
                                "--margin", "0.5", "--confidence", "0.90"])
    assert code == 0
    assert strict_json(out)["sample_size"] <= 10


def test_verify_passes_on_worked_table(table_csv, capsys):
    code, out, _ = run(capsys, ["verify", "--input", table_csv,
                                "--samples", "100000", "--seed", "42"])
    assert code == 0
    doc = strict_json(out)
    assert doc["all_pass"] is True
    assert doc["spfm"]["relative_gap"] <= 0.03
    assert doc["lfm"]["tolerance"] == 0.05


def test_verify_zero_sigma_trivially_passes(tmp_path, capsys):
    table = make_table([dict(lambda_fm=10.0, dc=0.9, dc_latent=0.5)])
    path = tmp_path / "zero.json"
    path.write_text(emit_json(table), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "--input", str(path),
                                "--samples", "2000"])
    assert code == 0
    assert strict_json(out)["spfm"]["empirical_sigma"] == 0.0


def test_verify_corrupted_analytic_path_exits_four(table_csv, capsys, monkeypatch):
    # Negative control: break the analytic route and the oracle must notice.
    import fmeda_uq.analysis as analysis

    real = analysis._propagate

    def doubled(arr):
        prop = real(arr)
        sigma = dict(prop.sigma_spfm_by_mode)
        sigma[PropagationMode.FULL] *= 2.0
        return dataclasses.replace(prop, sigma_spfm_by_mode=sigma)

    monkeypatch.setattr(analysis, "_propagate", doubled)
    code, out, _ = run(capsys, ["verify", "--input", table_csv,
                                "--samples", "20000"])
    assert code == 4
    assert strict_json(out)["spfm"]["passed"] is False


def test_verify_checks_the_sigma_that_analyze_reports(tmp_path, capsys, monkeypatch):
    # A fault between the kernel and the report, the DC-only sigma stored as
    # the full one, must fail verify: it has no kernel route of its own.
    import fmeda_uq.analysis as analysis
    import fmeda_uq.mc_oracle as mc

    assert not hasattr(mc, "_propagate")
    real = analysis._propagate

    def dc_only_as_full(arr):
        prop = real(arr)
        sigma = dict(prop.sigma_spfm_by_mode)
        sigma[PropagationMode.FULL] = sigma[PropagationMode.DC_ONLY]
        return dataclasses.replace(prop, sigma_spfm_by_mode=sigma)

    path = _write(tmp_path, "rates.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,50,10,,0.6,0.01,0.6,0,expert,\n"
                  "CPU,EXEC,FM2,50,10,,0.7,0.01,0.8,0,expert,\n")
    argv = ["verify", "--input", path, "--samples", "20000"]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(analysis, "_propagate", dc_only_as_full)
    code, out, _ = run(capsys, argv)
    assert code == 4
    spfm = strict_json(out)["spfm"]
    assert spfm["analytic_sigma"] == analysis.analyze(cli._load_table(path)).sigma_spfm_full
    assert spfm["passed"] is False


def test_verify_rounding_noise_is_not_a_mismatch(tmp_path, capsys):
    # Equal latent coverages make LFM 0.5 in every sample up to rounding,
    # and the analytic sigma_LFM is exactly 0.
    path = _write(tmp_path, "latent.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,37.3,0,,0.71,0.02,0.5,0,expert,\n"
                  "CPU,EXEC,FM2,13.7,0,,0.63,0.03,0.5,0,expert,\n")
    code, out, _ = run(capsys, ["verify", "--input", path, "--samples", "20000",
                                "--seed", "1"])
    assert code == 0
    lfm = strict_json(out)["lfm"]
    assert lfm["analytic_sigma"] == 0.0
    assert (lfm["empirical_sigma"], lfm["relative_gap"], lfm["passed"]) == (0.0, 0.0, True)


def test_verify_equal_latent_coverage_is_not_a_mismatch(tmp_path, capsys):
    # LFM is constant when every latent DC is equal; the analytic sigma_LFM
    # used to come out as rounding noise (7.7e-19) here, and verify exit 4.
    path = _write(tmp_path, "latent.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,15.7,0,,0.82,0.02,0.7,0,expert,\n"
                  "CPU,EXEC,FM2,1.3,0,,0.79,0.02,0.7,0,expert,\n")
    code, out, _ = run(capsys, ["verify", "--input", path, "--samples", "20000",
                                "--seed", "1"])
    assert code == 0
    lfm = strict_json(out)["lfm"]
    assert (lfm["analytic_sigma"], lfm["relative_gap"], lfm["passed"]) == (0.0, 0.0, True)


def test_verify_spread_against_zero_analytic_sigma_fails(table_csv, capsys, monkeypatch):
    # Negative control: an analytic route that claims no spread at all.
    import fmeda_uq.analysis as analysis
    import fmeda_uq.mc_oracle as mc

    real = analysis._propagate
    monkeypatch.setattr(analysis, "_propagate", lambda arr: dataclasses.replace(
        real(arr), sigma_spfm_by_mode=dict.fromkeys(PropagationMode, 0.0)))
    code, out, _ = run(capsys, ["verify", "--input", table_csv, "--samples", "20000"])
    assert code == 4
    doc = strict_json(out)
    assert doc["spfm"]["relative_gap"] is None
    assert doc["spfm"]["passed"] is False
    assert doc["all_pass"] is False
    # The verdict itself keeps a float gap; only its JSON form is null.
    v = mc.verify(two_fm_table(), mc.McConfig(samples=20000))[0]
    assert (v.relative_gap, v.passed) == (float("inf"), False)


def test_verify_small_detected_pool_is_not_a_mismatch(tmp_path, capsys):
    # Every DC small and every latent DC 0: LFM is 0 in every sample.  The
    # sampled detected pool used to be lambda_tot minus the residual, which
    # cancels here, and its rounding spread failed the exactly-0 sigma_LFM.
    path = _write(tmp_path, "small_dc.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,10,0,,0.0187,0.005,0,0,expert,\n"
                  "CPU,EXEC,FM2,5,0,,0.0432,0.005,0,0,expert,\n")
    code, out, _ = run(capsys, ["verify", "--input", path, "--samples", "20000",
                                "--seed", "1"])
    assert code == 0
    lfm = strict_json(out)["lfm"]
    assert (lfm["analytic_sigma"], lfm["empirical_sigma"], lfm["passed"]) == (0.0, 0.0, True)
    # Here about 9% of the DC draws clamp at 0 and SPFM fails on that bias,
    # so only the LFM verdict is checked.
    path = _write(tmp_path, "small_dc_2.csv", TWO_FM_CSV.splitlines()[0] + "\n"
                  "CPU,EXEC,FM1,1,0,,0.0625,0.03125,0,0,expert,\n"
                  "CPU,EXEC,FM2,1,0,,0.03125,0.03125,0,0,expert,\n")
    for samples in ("2000", "20000"):
        _, out, _ = run(capsys, ["verify", "--input", path, "--samples", samples,
                                 "--seed", "1"])
        assert strict_json(out)["lfm"]["passed"] is True


def test_verify_oversized_samples_is_an_input_error(table_csv, capsys, monkeypatch):
    # A real allocation of that size need not fail fast, so the sampler's
    # MemoryError is simulated.
    import fmeda_uq.mc_oracle as mc

    def out_of_memory(arr, config, with_lfm):
        raise MemoryError

    monkeypatch.setattr(mc, "_simulate", out_of_memory)
    code, out, err = run(capsys, ["verify", "--input", table_csv,
                                  "--samples", "100000000"])
    assert (code, out) == (1, "")
    assert "--samples 100000000" in err
    assert "Traceback" not in err


def test_verify_samples_over_the_cap_exit_one_at_once(table_csv, capsys, monkeypatch):
    import fmeda_uq.mc_oracle as mc

    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler was started")

    monkeypatch.setattr(mc, "_simulate", must_not_run)
    monkeypatch.setattr(mc.threading, "Thread", must_not_run)
    code, out, err = run(capsys, ["verify", "--input", table_csv,
                                  "--samples", "100000000000000000000"])
    assert (code, out) == (1, "")
    assert f"at most {mc.MAX_VERDICT_SAMPLES} samples" in err
    assert "Traceback" not in err


def test_verify_seed_beyond_64_bits_is_an_input_error(table_csv, capsys, monkeypatch):
    import fmeda_uq.mc_oracle as mc

    def must_not_run(*args, **kwargs):
        raise AssertionError("the sampler was started")

    monkeypatch.setattr(mc, "_simulate", must_not_run)
    code, out, err = run(capsys, ["verify", "--input", table_csv,
                                  "--seed", str(2**64)])
    assert (code, out) == (1, "")
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "unsigned 64-bit" in err
    assert "Traceback" not in err


def test_verify_input_error(capsys):
    code, _, err = run(capsys, ["verify", "--input", "missing.csv"])
    assert code == 1
    assert err != ""


def test_verify_too_few_samples(table_csv, capsys):
    code, out, err = run(capsys, ["verify", "--input", table_csv,
                                  "--samples", "500"])
    assert code == 1
    assert out == ""
    assert "1000" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])  # missing --input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--input", "x.csv", "--confidence", "0.80"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# Any bytes in, a documented outcome out
# ---------------------------------------------------------------------------

_VALID_INPUTS = (TWO_FM_CSV.encode(), emit_json(two_fm_table()).encode())
_TWO_FM_JSON = _VALID_INPUTS[1].decode()


@st.composite
def _edited(draw, base: bytes) -> bytes:
    """base with a few short spans replaced by arbitrary bytes."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 3))] = draw(st.binary(max_size=3))
    return bytes(data)


@settings(settings.get_profile("fuzz"), max_examples=150)
@given(data=st.one_of(st.binary(max_size=400), *map(_edited, _VALID_INPUTS)),
       suffix=st.sampled_from([".csv", ".json"]))
# Long tokens, which the short edits above cannot make: an int beyond the
# float range, an int literal beyond Python's 4300-digit conversion limit,
# and a CSV cell beyond csv.field_size_limit().
@example(data=_TWO_FM_JSON.replace("50.0", "1" + "0" * 400, 1).encode(), suffix=".json")
@example(data=_TWO_FM_JSON.replace("50.0", "1" * 5000, 1).encode(), suffix=".json")
@example(data=TWO_FM_CSV.replace("expert,", "expert," + "x" * 140_000, 1).encode(),
         suffix=".csv")
def test_any_bytes_give_a_documented_outcome(data, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        commands = [(["analyze", "--input", path, "--format", fmt], fmt == "json")
                    for fmt in ("json", "markdown", "csv")]
        commands.append((["verify", "--input", path, "--samples", "1000"], True))
        for argv, is_json in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            assert code in {0, 1, 2, 3, 4}, argv
            assert "Traceback" not in err.getvalue()
            if code == 1:
                assert out.getvalue() == "" and err.getvalue() != ""
            elif is_json:
                strict_json(out.getvalue())
            else:
                assert out.getvalue() != ""
