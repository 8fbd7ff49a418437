"""Monte Carlo oracle: agreement with the closed forms, determinism, truncation."""

import tracemalloc

import numpy as np
import pytest

import fmeda_uq.mc_oracle as mc
from fmeda_uq import McConfig, cli, emit_json, verify
from fmeda_uq.model import table_arrays
from fmeda_uq.uncertainty import _propagate
from conftest import make_table, random_table, strict_json, two_fm_table


def test_zero_sigma_table_passes_exactly():
    table = make_table([dict(lambda_fm=100.0, dc=0.9, dc_latent=0.5)])
    v, w, _ = verify(table, McConfig(samples=2000, seed=7))
    assert v.empirical_sigma == 0.0
    assert v.analytic_sigma == 0.0
    assert v.relative_gap == 0.0
    assert v.passed
    assert w.empirical_sigma == 0.0 and w.passed


def test_worked_two_mode_table_within_three_percent():
    v = verify(two_fm_table(), McConfig(samples=100_000, seed=42))[0]
    assert v.analytic_sigma == pytest.approx(0.0100125, abs=1e-7)
    assert v.relative_gap <= 0.03
    assert v.passed


def test_single_mode_linear_case():
    # SPFM is linear in DC for a single full-rate mode, so the normal draw
    # passes through: empirical ~= sigma_dc.
    table = make_table([dict(lambda_fm=200.0, dc=0.5, sigma_dc=0.05)])
    v = verify(table, McConfig(samples=100_000, seed=3))[0]
    assert v.analytic_sigma == pytest.approx(0.05, rel=1e-12)
    assert abs(v.empirical_sigma - 0.05) / 0.05 <= 0.03


def test_lfm_single_mode_latent_linear_case():
    table = make_table([dict(lambda_fm=50.0, dc=0.9, dc_latent=0.5,
                             sigma_dc_latent=0.04)])
    v = verify(table, McConfig(samples=100_000, seed=11))[1]
    assert v.analytic_sigma == pytest.approx(0.04, rel=1e-12)
    assert v.relative_gap <= 0.03


def test_lfm_random_small_sigma_tables(rng):
    for _ in range(5):
        table = random_table(
            rng, n_fm=3, dc_range=(0.4, 1.0), dc_latent_range=(0.2, 0.9),
            sigma_dc_max=0.02, sigma_lam_frac_max=0.02,
            sigma_dc_latent_max=0.02, away_from_bounds=True,
        )
        v = verify(table, McConfig(samples=100_000, seed=5))[1]
        assert v.relative_gap <= 0.05, (v.relative_gap, v.analytic_sigma)


def test_constant_lfm_has_no_spread_on_small_dc_tables(rng):
    # With every latent DC 0 and no rate sigma, LFM is 0 in every sample.
    # Small DCs make the detected pool small next to lambda_tot, where
    # lambda_tot minus the residual cancelled and left a rounding spread.
    for _ in range(100):
        table = random_table(rng, n_range=(2, 5), dc_range=(0.0, 0.15),
                             dc_latent_range=(0.0, 0.0), sigma_lam_frac_max=0.0)
        lfm = verify(table, McConfig(samples=5000, seed=1))[1]
        assert lfm.analytic_sigma == 0.0
        assert (lfm.empirical_sigma, lfm.passed) == (0.0, True)


def test_determinism_bit_identical():
    table = two_fm_table()
    cfg = McConfig(samples=20_000, seed=77)
    a = verify(table, cfg)
    b = verify(table, cfg)
    assert a == b
    c = verify(table, McConfig(samples=20_000, seed=78))
    assert c[0].empirical_sigma != a[0].empirical_sigma


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
    assert verify(table, cfg) == verify(table, cfg)
    # And the draws, so the verdicts, do not depend on the chunk size.
    table = _all_sigmas_table()
    cfg = McConfig(samples=20_000, seed=5)
    default = verify(table, cfg)
    monkeypatch.setattr(mc, "_BUFFER_ELEMENTS", 5)
    assert verify(table, cfg) == default


def test_verify_verdicts_equal_the_public_ones(tmp_path, capsys):
    # The CLI reports exactly the verdicts of the library's verify, and
    # the SPFM draws do not depend on whether LFM is simulated.
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
        spfm, lfm, note = verify(table, cfg)
        assert doc["spfm"] == spfm.to_dict()
        if table is no_detected_pool:
            assert doc["lfm"] is None
            assert (lfm, note) == (None, _propagate(table_arrays(table)).lfm_note)
        else:
            assert doc["lfm"] == lfm.to_dict()
    arr = table_arrays(_all_sigmas_table())
    assert np.array_equal(mc._simulate(arr, cfg, with_lfm=True).spfm,
                          mc._simulate(arr, cfg, with_lfm=False).spfm)


def test_memory_does_not_grow_with_rows(rng):
    # Chunks hold a fixed number of elements, not a fixed number of samples.
    table = random_table(rng, n_fm=10_000, sigma_dc_latent_max=0.01)
    tracemalloc.start()
    try:
        verify(table, McConfig(samples=2000, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_convergence_quadrupling_samples_halves_spread():
    table = two_fm_table()
    small, large = [], []
    for seed in range(30):
        small.append(verify(table, McConfig(samples=2000, seed=seed))[0].empirical_sigma)
        large.append(verify(table, McConfig(samples=8000, seed=seed))[0].empirical_sigma)
    ratio = np.std(small) / np.std(large)
    assert 1.4 <= ratio <= 2.9


def test_truncation_rate_small_away_from_bounds(rng):
    table = random_table(rng, n_fm=5, away_from_bounds=True)
    v = verify(table, McConfig(samples=100_000, seed=9))[0]
    assert v.truncation_rate < 1e-3
    assert v.warning is None


def test_truncation_rate_reported_near_bounds():
    # DC sits one sigma below 1: ~16% of draws clamp.
    table = make_table([dict(lambda_fm=100.0, dc=0.98, sigma_dc=0.02)])
    v = verify(table, McConfig(samples=50_000, seed=13))[0]
    assert v.truncation_rate > 0.10
    assert v.warning is not None


def test_truncation_disabled_restores_linearity():
    table = make_table([dict(lambda_fm=100.0, dc=0.98, sigma_dc=0.02)])
    v = verify(table, McConfig(samples=1_000_000, seed=13, truncate=False))[0]
    assert v.truncation_rate == 0.0
    assert v.relative_gap <= 0.01


def test_exactness_on_dc_only_tables_at_1e6(rng):
    table = random_table(rng, n_fm=4, sigma_lam_frac_max=0.0,
                         away_from_bounds=True)
    v = verify(table, McConfig(samples=1_000_000, seed=21, truncate=False))[0]
    assert v.relative_gap < 0.01


def test_minimum_samples_enforced():
    with pytest.raises(ValueError, match="1000"):
        McConfig(samples=500, seed=1)


def test_verdict_serializes():
    v = verify(two_fm_table(), McConfig(samples=2000, seed=1))[0]
    doc = v.to_dict()
    assert doc["metric"] == "SPFM"
    assert doc["rng_algorithm"] == "numpy-pcg64"
    assert isinstance(doc["passed"], bool)


def test_pass_iff_gap_within_tolerance():
    arr = table_arrays(two_fm_table())
    cfg = McConfig(samples=5000, seed=2)
    s = mc._simulate(arr, cfg, with_lfm=False)
    analytic = _propagate(arr).sigma_spfm_full
    v = mc._verdict("SPFM", analytic, s.spfm, s.spfm_rate, 0, cfg, 1e-9)
    assert not v.passed and v.relative_gap > v.tolerance
    w = mc._verdict("SPFM", analytic, s.spfm, s.spfm_rate, 0, cfg, 0.5)
    assert w.passed and w.relative_gap <= w.tolerance
