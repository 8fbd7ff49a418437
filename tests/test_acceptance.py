"""Acceptance suite: one test per release criterion, one printed line each.

Every criterion runs at its stated tolerance and time budget; the printed
summary line makes the outcome visible in `pytest -s` output.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fmeda_uq import (
    McConfig,
    analyze,
    cli,
    emit_csv,
    emit_json,
    emit_result,
    parse_csv,
    parse_json,
    sample_size,
    verify,
)
from fmeda_uq.model import table_arrays
from fmeda_uq.uncertainty import _propagate
from conftest import fixture_corpus, make_table, random_table

DATA = Path(__file__).parent / "data"


def _report(number: int, name: str, started: float, budget_s: float,
            failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget_s}s")
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, failures[:5]


def test_acceptance_1_quadrature_identity():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    for i in range(1000):
        table = random_table(rng)  # 2..50 modes, defaults match the contract
        res = analyze(table)
        full = res.sigma_spfm_full
        dc = res.sigma_spfm_dc_only
        lam = res.sigma_spfm_lambda_only
        lhs, rhs = full**2, dc**2 + lam**2
        if abs(lhs - rhs) > 1e-12 * max(lhs, rhs):
            failures.append(f"table {i}: {lhs} != {rhs}")
    _report(1, "quadrature identity on 1000 tables", started, 5.0, failures)


def test_acceptance_2_monte_carlo_oracle():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(202)
    for i in range(50):
        table = random_table(rng, n_range=(2, 10), away_from_bounds=True)
        verdict = verify(table, McConfig(samples=100_000, seed=1000 + i))[0]
        if not verdict.passed:
            failures.append(f"small-sigma table {i}: gap {verdict.relative_gap:.4f}")
    # Linear exactness: DC-only uncertainty, no truncation, 1e6 samples.
    for i in range(5):
        table = random_table(rng, n_range=(2, 6), sigma_lam_frac_max=0.0,
                             away_from_bounds=True)
        verdict = verify(
            table, McConfig(samples=1_000_000, seed=2000 + i, truncate=False)
        )[0]
        if verdict.relative_gap >= 0.01:
            failures.append(f"linear table {i}: gap {verdict.relative_gap:.4f}")
    _report(2, "Monte Carlo oracle agreement", started, 20.0, failures)


def test_acceptance_3_gradient_checks():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(303)

    def fd(f, u, i):
        h = 1e-6 * max(1.0, abs(u[i]))
        up = u.copy(); up[i] += h
        dn = u.copy(); dn[i] -= h
        return (f(up) - f(dn)) / (2.0 * h)

    def close(a, b):
        return abs(a - b) <= 1e-6 * max(abs(a), abs(b)) + 1e-9

    for t in range(100):
        table = random_table(rng, n_range=(2, 10), dc_range=(0.2, 1.0),
                             sigma_dc_latent_max=0.02)
        arr = table_arrays(table)
        prop = _propagate(arr)
        s_dc, _, s_w = prop.spfm_partials
        l_dc, l_lat, l_w = prop.lfm_partials
        s_lam, l_lam = s_w / arr.lambda_tot, l_w / arr.lambda_tot
        for i in range(arr.dc.size):
            checks = [
                (s_dc[i], fd(lambda u: _propagate(replace(arr, dc=u)).spfm, arr.dc, i)),
                (s_lam[i], fd(lambda u: _propagate(replace(arr, lam=u)).spfm, arr.lam, i)),
                (l_dc[i], fd(lambda u: _propagate(replace(arr, dc=u)).lfm, arr.dc, i)),
                (l_lat[i], fd(lambda u: _propagate(replace(arr, dc_lat=u)).lfm,
                              arr.dc_lat, i)),
                (l_lam[i], fd(lambda u: _propagate(replace(arr, lam=u)).lfm, arr.lam, i)),
            ]
            for analytic, numeric in checks:
                if not close(analytic, numeric):
                    failures.append(f"table {t} input {i}: {analytic} vs {numeric}")
    _report(3, "gradient checks on 100 tables", started, 5.0, failures)


def test_acceptance_4_sample_size_table():
    started = time.perf_counter()
    failures = []
    exact_t = {0.90: Fraction(16449, 10000), 0.95: Fraction(196, 100),
               0.99: Fraction(25758, 10000)}

    def oracle(population, margin, confidence):
        t = exact_t[confidence]
        denom = 1 + margin**2 * (population - 1) / (t**2 * Fraction(1, 4))
        return min(math.ceil(population / denom), population)

    cases = [
        (10**6, Fraction(1, 100), 0.95, 9513),
        (1000, Fraction(5, 100), 0.95, 278),
    ]
    for population, margin, confidence, expected in cases:
        got = sample_size(population, float(margin), confidence).sample_size
        want = oracle(population, margin, confidence)
        if not (got == want == expected):
            failures.append(f"n({population}, {margin}, {confidence}) = {got}, "
                            f"oracle {want}, expected {expected}")

    limit = math.ceil(exact_t[0.95]**2 * Fraction(1, 4) / Fraction(1, 100)**2)
    if limit != 9604:
        failures.append(f"exact limit computed as {limit}")
    for population in (10**9, 10**10, 10**11):
        got = sample_size(population, 0.01, 0.95).sample_size
        if abs(got - limit) > 1:
            failures.append(f"n({population}) = {got} not within 1 of {limit}")
    _report(4, "sample-size exact values and limit", started, 1.0, failures)


def test_acceptance_5_eii_partition_and_ranking():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(505)
    checked = 0
    for i in range(300):
        table = random_table(rng, n_range=(2, 20))
        entries = analyze(table).eii_entries
        if not entries:
            continue
        checked += 1
        total_pct = sum(e["percent"] for e in entries)
        if abs(total_pct - 100.0) > 1e-7:
            failures.append(f"table {i}: percents sum to {total_pct}")
        ids = table_arrays(table).ids
        by_raw = sorted(entries, key=lambda e: (-e["raw_eii"], ids.index(e["failure_mode"])))
        if [(e["failure_mode"], e["input"]) for e in by_raw] != \
                [(e["failure_mode"], e["input"]) for e in entries]:
            failures.append(f"table {i}: raw ranking differs from share ranking")
    if checked < 250:
        failures.append(f"only {checked} tables had nonzero sigma")
    _report(5, "EII partition of unity and rank stability", started, 2.0, failures)


def test_acceptance_6_worked_example_through_cli(capsys):
    started = time.perf_counter()
    failures = []
    fixture = DATA / "worked_two_fm.csv"
    golden = (DATA / "worked_two_fm_analysis.json").read_text(encoding="utf-8")

    code = cli.main(["analyze", "--input", str(fixture), "--asil", "B"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"exit code {code}")
    if out != golden:
        failures.append("output differs from golden file")

    doc = json.loads(out)
    if abs(doc["spfm"] - 0.945) > 1e-9:
        failures.append(f"spfm {doc['spfm']}")
    if abs(doc["sigma_spfm"]["dc_only"] - 0.0100125) > 1e-7:
        failures.append(f"sigma dc_only {doc['sigma_spfm']['dc_only']}")
    shares = {e["failure_mode"]: e["percent"] for e in doc["eii"]}
    if abs(shares["FM1"] - 99.75) > 0.01 or abs(shares["FM2"] - 0.25) > 0.01:
        failures.append(f"EII shares {shares}")
    if doc["asil"]["overall"] != "PassRobust":
        failures.append(f"verdict {doc['asil']}")
    _report(6, "worked two-mode example via CLI (golden file)", started, 1.0,
            failures)


def test_acceptance_7_half_proportion_maximizes_n():
    started = time.perf_counter()
    failures = []
    n_half = sample_size(10**5, 0.01, 0.95, 0.5).sample_size
    for p100 in range(1, 100):
        p = p100 / 100.0
        n = sample_size(10**5, 0.01, 0.95, p).sample_size
        if n > n_half:
            failures.append(f"n(p={p}) = {n} exceeds n(0.5) = {n_half}")
    _report(7, "p = 0.5 is the conservative maximum", started, 1.0, failures)


def test_acceptance_8_round_trip_and_determinism(capsys):
    started = time.perf_counter()
    failures = []
    corpus = fixture_corpus()
    if len(corpus) < 20:
        failures.append("corpus too small")
    for name, table, csv_ok in corpus:
        if parse_json(emit_json(table)) != table:
            failures.append(f"{name}: JSON round trip differs")
        if csv_ok and parse_csv(emit_csv(table)) != table:
            failures.append(f"{name}: CSV round trip differs")

    fixture = str(DATA / "worked_two_fm.csv")
    cli.main(["analyze", "--input", fixture, "--asil", "B"])
    first = capsys.readouterr().out
    cli.main(["analyze", "--input", fixture, "--asil", "B"])
    second = capsys.readouterr().out
    if first != second:
        failures.append("repeated analyze runs differ")
    for fmt in ("markdown", "csv"):
        a = emit_result(analyze(corpus[0][1]), fmt)
        b = emit_result(analyze(corpus[0][1]), fmt)
        if a != b:
            failures.append(f"{fmt} emission not deterministic")
    _report(8, "round-trip corpus and byte-identical reruns", started, 2.0,
            failures)
