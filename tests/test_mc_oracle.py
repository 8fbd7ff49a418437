"""Monte Carlo oracle: agreement with the closed forms, determinism, truncation."""

import tracemalloc

import numpy as np
import pytest

import fmeda_uq.mc_oracle as mc
from fmeda_uq import McConfig, cli, emit_json, mc_sigma_lfm, mc_sigma_spfm
from conftest import make_table, random_table, strict_json, two_fm_table


def test_zero_sigma_table_passes_exactly():
    table = make_table([dict(lambda_fm=100.0, dc=0.9, dc_latent=0.5)])
    v = mc_sigma_spfm(table, McConfig(samples=2000, seed=7))
    assert v.empirical_sigma == 0.0
    assert v.analytic_sigma == 0.0
    assert v.relative_gap == 0.0
    assert v.passed
    w = mc_sigma_lfm(table, McConfig(samples=2000, seed=7))
    assert w.empirical_sigma == 0.0 and w.passed


def test_worked_two_mode_table_within_three_percent():
    v = mc_sigma_spfm(two_fm_table(), McConfig(samples=100_000, seed=42))
    assert v.analytic_sigma == pytest.approx(0.0100125, abs=1e-7)
    assert v.relative_gap <= 0.03
    assert v.passed


def test_single_mode_linear_case():
    # SPFM is linear in DC for a single full-rate mode, so the normal draw
    # passes through: empirical ~= sigma_dc.
    table = make_table([dict(lambda_fm=200.0, dc=0.5, sigma_dc=0.05)])
    v = mc_sigma_spfm(table, McConfig(samples=100_000, seed=3))
    assert v.analytic_sigma == pytest.approx(0.05, rel=1e-12)
    assert abs(v.empirical_sigma - 0.05) / 0.05 <= 0.03


def test_lfm_single_mode_latent_linear_case():
    table = make_table([dict(lambda_fm=50.0, dc=0.9, dc_latent=0.5,
                             sigma_dc_latent=0.04)])
    v = mc_sigma_lfm(table, McConfig(samples=100_000, seed=11))
    assert v.analytic_sigma == pytest.approx(0.04, rel=1e-12)
    assert v.relative_gap <= 0.03


def test_lfm_random_small_sigma_tables(rng):
    for _ in range(5):
        table = random_table(
            rng, n_fm=3, dc_range=(0.4, 1.0), dc_latent_range=(0.2, 0.9),
            sigma_dc_max=0.02, sigma_lam_frac_max=0.02,
            sigma_dc_latent_max=0.02, away_from_bounds=True,
        )
        v = mc_sigma_lfm(table, McConfig(samples=100_000, seed=5))
        assert v.relative_gap <= 0.05, (v.relative_gap, v.analytic_sigma)


def test_determinism_bit_identical():
    table = two_fm_table()
    cfg = McConfig(samples=20_000, seed=77)
    a = mc_sigma_spfm(table, cfg)
    b = mc_sigma_spfm(table, cfg)
    assert a == b
    c = mc_sigma_spfm(table, McConfig(samples=20_000, seed=78))
    assert c.empirical_sigma != a.empirical_sigma


def _all_sigmas_table():
    return make_table([
        dict(lambda_fm=50.0, dc=0.90, sigma_dc=0.02, dc_latent=0.6,
             sigma_dc_latent=0.01),
        dict(lambda_fm=30.0, sigma_lambda_fm=3.0, dc=0.99, dc_latent=0.8),
        dict(lambda_fm=20.0, dc=0.7, dc_latent=0.5),
    ])


def test_chunking_does_not_change_the_stream(monkeypatch):
    # A sample count spanning several chunks must still be reproducible.
    table = two_fm_table()
    cfg = McConfig(samples=70_000, seed=5)
    assert mc_sigma_spfm(table, cfg) == mc_sigma_spfm(table, cfg)
    # And the draws, so the verdicts, do not depend on the chunk size.
    table = _all_sigmas_table()
    cfg = McConfig(samples=20_000, seed=5)
    default = mc_sigma_spfm(table, cfg), mc_sigma_lfm(table, cfg)
    monkeypatch.setattr(mc, "_BUFFER_ELEMENTS", 5)
    assert (mc_sigma_spfm(table, cfg), mc_sigma_lfm(table, cfg)) == default


def test_verify_verdicts_equal_the_public_ones(tmp_path, capsys):
    # verify simulates both metrics in one pass; mc_sigma_spfm simulates
    # SPFM alone.  The draws and so the verdicts are the same bit for bit.
    cfg = McConfig(samples=20_000, seed=9)
    no_detected_pool = make_table([dict(lambda_fm=10.0, sigma_dc=0.01),
                                   dict(lambda_fm=5.0, sigma_lambda_fm=1.0)])
    for table in (_all_sigmas_table(), no_detected_pool):
        path = tmp_path / "table.json"
        path.write_text(emit_json(table), encoding="utf-8")
        code = cli.main(["verify", "--input", str(path), "--samples", "20000",
                         "--seed", "9"])
        doc = strict_json(capsys.readouterr().out)
        assert code == 0
        assert doc["spfm"] == mc_sigma_spfm(table, cfg).to_dict()
        if table is no_detected_pool:
            assert doc["lfm"] is None
        else:
            assert doc["lfm"] == mc_sigma_lfm(table, cfg).to_dict()


def test_memory_does_not_grow_with_rows(rng):
    # Chunks hold a fixed number of elements, not a fixed number of samples.
    table = random_table(rng, n_fm=10_000, sigma_dc_latent_max=0.01)
    tracemalloc.start()
    try:
        mc_sigma_lfm(table, McConfig(samples=2000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_convergence_quadrupling_samples_halves_spread():
    table = two_fm_table()
    small, large = [], []
    for seed in range(30):
        small.append(mc_sigma_spfm(table, McConfig(samples=2000, seed=seed)).empirical_sigma)
        large.append(mc_sigma_spfm(table, McConfig(samples=8000, seed=seed)).empirical_sigma)
    ratio = np.std(small) / np.std(large)
    assert 1.4 <= ratio <= 2.9


def test_truncation_rate_small_away_from_bounds(rng):
    table = random_table(rng, n_fm=5, away_from_bounds=True)
    v = mc_sigma_spfm(table, McConfig(samples=100_000, seed=9))
    assert v.truncation_rate < 1e-3
    assert v.warning is None


def test_truncation_rate_reported_near_bounds():
    # DC sits one sigma below 1: ~16% of draws clamp.
    table = make_table([dict(lambda_fm=100.0, dc=0.98, sigma_dc=0.02)])
    v = mc_sigma_spfm(table, McConfig(samples=50_000, seed=13))
    assert v.truncation_rate > 0.10
    assert v.warning is not None


def test_truncation_disabled_restores_linearity():
    table = make_table([dict(lambda_fm=100.0, dc=0.98, sigma_dc=0.02)])
    v = mc_sigma_spfm(table, McConfig(samples=1_000_000, seed=13, truncate=False))
    assert v.truncation_rate == 0.0
    assert v.relative_gap <= 0.01


def test_exactness_on_dc_only_tables_at_1e6(rng):
    table = random_table(rng, n_fm=4, sigma_lam_frac_max=0.0,
                         away_from_bounds=True)
    v = mc_sigma_spfm(table, McConfig(samples=1_000_000, seed=21, truncate=False))
    assert v.relative_gap < 0.01


def test_minimum_samples_enforced():
    with pytest.raises(ValueError, match="1000"):
        mc_sigma_spfm(two_fm_table(), McConfig(samples=500, seed=1))


def test_verdict_serializes():
    v = mc_sigma_spfm(two_fm_table(), McConfig(samples=2000, seed=1))
    doc = v.to_dict()
    assert doc["metric"] == "SPFM"
    assert doc["rng_algorithm"] == "numpy-pcg64"
    assert isinstance(doc["passed"], bool)


def test_pass_iff_gap_within_tolerance():
    table = two_fm_table()
    v = mc_sigma_spfm(table, McConfig(samples=5000, seed=2), tolerance=1e-9)
    assert not v.passed and v.relative_gap > v.tolerance
    w = mc_sigma_spfm(table, McConfig(samples=5000, seed=2), tolerance=0.5)
    assert w.passed and w.relative_gap <= w.tolerance
