"""SPFM/LFM point estimates and ASIL verdicts."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fmeda_uq import FmedaValidationError, McConfig, PropagationMode, analyze, asil_verdict, verify
from fmeda_uq.model import TableArrays, table_arrays
from fmeda_uq.uncertainty import UndefinedMetricError, _propagate
from conftest import make_table, random_table, two_fm_table


def test_spfm_perfect_coverage():
    assert analyze(make_table([dict(lambda_fm=10.0, dc=1.0)])).spfm == 1.0


def test_spfm_no_coverage():
    assert analyze(make_table([dict(lambda_fm=10.0, dc=0.0)])).spfm == 0.0


def test_spfm_two_mode_example():
    # 1 - (0.10*50 + 0.01*50)/100 = 1 - 5.5/100
    assert analyze(two_fm_table()).spfm == pytest.approx(0.945, abs=1e-15)


def test_point_metrics_survive_an_overflowing_sigma():
    # Only the sigmas overflow; the kernel's SPFM and LFM stay finite, and
    # it neither raises nor warns.  analyze and verify reject the sigma.
    table = make_table([dict(lambda_fm=1e-10, sigma_lambda_fm=1e300, dc=0.9,
                             sigma_dc=0.02, dc_latent=0.6),
                        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001, dc_latent=0.8)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop = _propagate(table_arrays(table))
        assert prop.spfm == pytest.approx(1 - (0.1e-10 + 0.5) / (50 + 1e-10))
        assert math.isfinite(prop.lfm)
        assert not math.isfinite(prop.sigma_spfm_by_mode[PropagationMode.FULL])
    with pytest.raises(FmedaValidationError, match="table.sigma_finite"):
        analyze(table)
    with pytest.raises(FmedaValidationError, match="table.sigma_finite"):
        verify(table, McConfig(samples=2000))


def test_spfm_undefined_for_zero_total_rate():
    zero = np.array([0.0])
    arr = TableArrays(ids=("FM1",), parts=("P",), subparts=("S",), names=("FM1",),
                      lam=zero, sigma_lam=zero, dc=np.array([0.5]),
                      sigma_dc=zero, dc_lat=zero, sigma_dc_lat=zero, lambda_tot=0.0)
    with pytest.raises(UndefinedMetricError):
        _propagate(arr)


def test_lfm_full_latent_coverage():
    table = make_table([dict(lambda_fm=10.0, dc=0.9, dc_latent=1.0)])
    assert analyze(table).lfm == 1.0


def test_lfm_fully_latent_remainder():
    table = make_table([dict(lambda_fm=10.0, dc=0.9, dc_latent=0.0)])
    assert analyze(table).lfm == pytest.approx(0.0, abs=1e-15)


def test_lfm_two_mode_example():
    # numerator 0.4*45 + 0.2*49.5 = 27.9 over denominator 94.5
    assert analyze(two_fm_table()).lfm == pytest.approx(1.0 - 27.9 / 94.5, abs=1e-12)


def test_lfm_undefined_when_everything_residual():
    table = make_table([dict(lambda_fm=10.0, dc=0.0)])
    res = analyze(table)
    assert res.lfm is None
    assert "residual" in res.lfm_note
    assert verify(table, McConfig(samples=1000))[1:] == (None, res.lfm_note)


def test_lfm_undefined_when_every_dc_is_zero(rng):
    # Decided by structure, not by the sign of a rounded difference: the
    # residual sum of large tables can land a few ulps below lambda_tot
    # (testing the sign of that difference defines LFM on 5 of these 12).
    for _ in range(12):
        table = random_table(rng, n_range=(100, 5000), lam_range=(0.1, 50.0),
                             dc_range=(0.0, 0.0))
        res = analyze(table)
        assert res.lfm is None
        assert res.lfm_note is not None


def test_spfm_invariant_under_splitting_a_mode(rng):
    for _ in range(20):
        table = random_table(rng, n_range=(2, 8))
        rows = [
            dict(id=r.id, lambda_fm=r.lambda_fm, dc=r.dc)
            for part in table.parts for sub in part.subparts for r in sub.failure_modes
        ]
        base = analyze(make_table(rows)).spfm
        # Split the first mode in two at the same coverage.
        first = rows[0]
        split = [
            dict(id="FM1a", lambda_fm=first["lambda_fm"] * 0.3, dc=first["dc"]),
            dict(id="FM1b", lambda_fm=first["lambda_fm"] * 0.7, dc=first["dc"]),
        ] + rows[1:]
        assert analyze(make_table(split)).spfm == pytest.approx(base, rel=1e-12)


def test_spfm_monotone_in_dc(rng):
    for _ in range(20):
        table = random_table(rng, n_range=(2, 8), dc_range=(0.0, 0.95))
        base = analyze(table).spfm
        arrs = table_arrays(table)
        for i in range(arrs.dc.size):
            bumped = arrs.dc.copy()
            bumped[i] = min(bumped[i] + 0.01, 1.0)
            assert _propagate(replace(arrs, dc=bumped)).spfm >= base - 1e-15


def test_spfm_decreases_when_worst_mode_grows(rng):
    # Adding failure rate to the mode with the lowest DC cannot raise SPFM
    # (its DC is <= the lambda-weighted average that SPFM equals).
    for _ in range(20):
        table = random_table(rng, n_range=(2, 8))
        arrs = table_arrays(table)
        base = _propagate(arrs).spfm
        worst = int(np.argmin(arrs.dc))
        lam = arrs.lam.copy()
        lam[worst] += 10.0
        grown = _propagate(replace(arrs, lam=lam, lambda_tot=float(lam.sum()))).spfm
        assert grown <= base + 1e-12


def test_spfm_equals_constant_dc():
    for c in (0.0, 0.25, 0.5, 0.9, 1.0):
        table = make_table([
            dict(lambda_fm=12.0, dc=c),
            dict(lambda_fm=88.5, dc=c),
            dict(lambda_fm=0.5, dc=c),
        ])
        assert analyze(table).spfm == pytest.approx(c, abs=1e-14)


def test_lfm_matches_spfm_structure_on_detected_pool(rng):
    # LFM is the SPFM formula applied to the detected rates DC_i*lambda_i
    # with DC_lat in place of DC.
    for _ in range(20):
        table = random_table(rng, n_range=(2, 8), dc_range=(0.2, 1.0))
        arrs = table_arrays(table)
        direct = _propagate(arrs).lfm
        detected = arrs.dc * arrs.lam
        structural = _propagate(replace(arrs, dc=arrs.dc_lat, lam=detected,
                                        lambda_tot=float(detected.sum()))).spfm
        assert direct == pytest.approx(structural, rel=1e-12)


# ---------------------------------------------------------------------------
# ASIL verdicts
# ---------------------------------------------------------------------------


def _probe(spfm_v, sigma, lfm_v=1.0, sigma_lfm=0.0, k=1.96):
    return dict(spfm=spfm_v, sigma_spfm=sigma, lfm=lfm_v, sigma_lfm=sigma_lfm, k=k)


def test_verdict_robust_with_zero_sigma():
    v = asil_verdict("B", **_probe(0.95, 0.0))
    assert v.spfm == "PassRobust"
    assert v.overall == "PassRobust"


def test_verdict_fragile_when_lower_bound_crosses_threshold():
    # 0.905 - 1.96*0.0053 = 0.8946 < 0.90 although the nominal value passes
    v = asil_verdict("B", **_probe(0.905, 0.0053))
    assert v.spfm == "PassFragile"


def test_verdict_fail_below_threshold():
    v = asil_verdict("B", **_probe(0.88, 0.2))
    assert v.spfm == "Fail"
    assert v.overall == "Fail"
    # A value or sigma that is not finite cannot support a pass.
    for value, sigma in ((math.nan, 0.0), (0.95, math.nan), (math.inf, 0.0),
                         (0.95, math.inf), (-math.inf, 0.0)):
        v = asil_verdict("B", **_probe(value, sigma))
        assert v.spfm == "Fail"
        assert v.overall == "Fail"
    for lfm_v, sigma_lfm in ((math.nan, 0.0), (math.inf, 0.0), (0.95, math.nan)):
        v = asil_verdict("B", **_probe(0.95, 0.0, lfm_v=lfm_v, sigma_lfm=sigma_lfm))
        assert v.lfm == "Fail"
        assert v.overall == "Fail"


def test_verdict_thresholds_per_level():
    assert asil_verdict("C", **_probe(0.98, 0.0)).spfm == "PassRobust"
    assert asil_verdict("D", **_probe(0.98, 0.0)).spfm == "Fail"
    # A has no quantitative targets
    assert asil_verdict("A", **_probe(0.10, 0.0)).overall == "PassRobust"


def test_verdict_overall_is_worst_metric():
    v = asil_verdict("B", **_probe(0.95, 0.0, lfm_v=0.55, sigma_lfm=0.0))
    assert v.spfm == "PassRobust"
    assert v.lfm == "Fail"
    assert v.overall == "Fail"


def test_verdict_unknown_target_rejected():
    with pytest.raises(ValueError):
        asil_verdict("E", **_probe(0.95, 0.0))
