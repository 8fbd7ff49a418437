"""Propagated sigmas: closed forms, decomposition, gradients, intervals."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmeda_uq import PropagationMode, analyze, confidence_interval
from fmeda_uq.model import table_arrays
from fmeda_uq.uncertainty import _propagate
from conftest import make_table, random_table, two_fm_table

FULL = PropagationMode.FULL
DC_ONLY = PropagationMode.DC_ONLY
LAMBDA_ONLY = PropagationMode.LAMBDA_ONLY


def test_sigma_spfm_zero_without_input_uncertainty():
    table = make_table([dict(lambda_fm=100.0, dc=0.9)])
    res = analyze(table)
    assert res.sigma_spfm_full == 0.0
    assert res.sigma_lfm == 0.0


def test_sigma_spfm_single_mode_collapses_to_sigma_dc():
    # One mode carrying the whole rate: (1/lam)*sqrt(lam^2 s^2) = s
    table = make_table([dict(lambda_fm=123.0, dc=0.0, sigma_dc=0.07)])
    assert analyze(table).sigma_spfm_dc_only == pytest.approx(0.07, rel=1e-14)


def test_sigma_spfm_dc_only_worked_value():
    table = make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_dc=0.02),
        dict(lambda_fm=50.0, dc=0.99, sigma_dc=0.001),
    ])
    expected = math.sqrt(50**2 * 0.0004 + 50**2 * 1e-6) / 100.0
    assert expected == pytest.approx(0.01001249, abs=5e-9)
    assert analyze(table).sigma_spfm_dc_only == pytest.approx(expected, rel=1e-14)


def test_sigma_spfm_lambda_only_worked_value():
    table = make_table([
        dict(lambda_fm=50.0, dc=0.9, sigma_lambda_fm=5.0),
        dict(lambda_fm=50.0, dc=0.99, sigma_lambda_fm=5.0),
    ])
    expected = math.sqrt(0.01 * 25 + 0.0001 * 25) / 100.0
    assert expected == pytest.approx(0.00502494, abs=5e-9)
    res = analyze(table)
    assert res.sigma_spfm_lambda_only == pytest.approx(expected, rel=1e-14)
    assert res.sigma_spfm_full == pytest.approx(expected, rel=1e-14)


def test_quadrature_decomposition(rng):
    for _ in range(100):
        table = random_table(rng)
        res = analyze(table)
        full = res.sigma_spfm_full
        dc = res.sigma_spfm_dc_only
        lam = res.sigma_spfm_lambda_only
        assert full**2 == pytest.approx(dc**2 + lam**2, rel=1e-12)


def test_scale_invariance(rng):
    from fmeda_uq.model import FmedaTable, Part, Subpart

    # Over the whole float range of FIT rates: the kernel works on lambda_i/lambda_tot.
    for scale in (1e-300, 1e-150, 0.001, 7.0, 4096.0, 1e150, 1e300):
        table = random_table(rng, n_range=(3, 10), dc_range=(0.2, 1.0),
                             sigma_dc_latent_max=0.02)
        sub = table.parts[0].subparts[0]
        scaled_rows = tuple(
            replace(r, lambda_fm=r.lambda_fm * scale,
                    sigma_lambda_fm=r.sigma_lambda_fm * scale)
            for r in sub.failure_modes
        )
        scaled = FmedaTable((Part("PART", (Subpart("SUB", None, None, scaled_rows),)),))
        assert analyze(scaled).spfm == pytest.approx(analyze(table).spfm, rel=1e-12)
        for mode in (FULL, DC_ONLY, LAMBDA_ONLY):
            assert analyze(scaled, mode=mode).sigma_spfm == pytest.approx(
                analyze(table, mode=mode).sigma_spfm, rel=1e-12)
        assert analyze(scaled).sigma_lfm == pytest.approx(analyze(table).sigma_lfm,
                                                          rel=1e-12)


def test_sigma_spfm_monotone_in_each_sigma(rng):
    from fmeda_uq.model import FmedaTable, Part, Subpart

    table = random_table(rng, n_fm=6)
    base = analyze(table).sigma_spfm_full
    sub = table.parts[0].subparts[0]
    for i in range(6):
        for field in ("sigma_dc", "sigma_lambda_fm"):
            rows = list(sub.failure_modes)
            rows[i] = replace(rows[i], **{field: getattr(rows[i], field) + 0.01})
            bumped = FmedaTable(
                (Part("PART", (Subpart("SUB", None, None, tuple(rows)),)),)
            )
            assert analyze(bumped).sigma_spfm_full >= base


def _fd_gradient(f, u: np.ndarray, i: int) -> float:
    h = 1e-6 * max(1.0, abs(u[i]))
    up = u.copy(); up[i] += h
    dn = u.copy(); dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def _check_grad(analytic: float, fd: float):
    assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd)) + 1e-9


def test_spfm_partials_match_finite_differences(rng):
    for _ in range(30):
        table = random_table(rng, n_range=(2, 10))
        arr = table_arrays(table)
        d_dc, _, d_w = _propagate(arr).spfm_partials
        d_lam = d_w / arr.lambda_tot
        for i in range(arr.dc.size):
            fd = _fd_gradient(
                lambda dc: _propagate(replace(arr, dc=dc)).spfm, arr.dc, i
            )
            _check_grad(d_dc[i], fd)
            fd = _fd_gradient(
                lambda lam: _propagate(replace(arr, lam=lam)).spfm, arr.lam, i
            )
            _check_grad(d_lam[i], fd)


def test_lfm_partials_match_finite_differences(rng):
    for _ in range(30):
        table = random_table(rng, n_range=(2, 10), dc_range=(0.3, 1.0))
        arr = table_arrays(table)
        d_dc, d_lat, d_w = _propagate(arr).lfm_partials
        d_lam = d_w / arr.lambda_tot
        for i in range(arr.dc.size):
            fd = _fd_gradient(
                lambda dc: _propagate(replace(arr, dc=dc)).lfm,
                arr.dc, i,
            )
            _check_grad(d_dc[i], fd)
            fd = _fd_gradient(
                lambda lat: _propagate(replace(arr, dc_lat=lat)).lfm,
                arr.dc_lat, i,
            )
            _check_grad(d_lat[i], fd)
            fd = _fd_gradient(
                lambda lam: _propagate(replace(arr, lam=lam)).lfm,
                arr.lam, i,
            )
            _check_grad(d_lam[i], fd)


def test_sigma_lfm_single_mode_latent_only():
    # For one mode, LFM = DC_lat, so its sigma passes through unchanged.
    table = make_table([dict(lambda_fm=80.0, dc=0.9, dc_latent=0.7,
                             sigma_dc_latent=0.03)])
    assert analyze(table).sigma_lfm == pytest.approx(0.03, rel=1e-12)


def test_sigma_lfm_matches_finite_difference_quadrature(rng):
    # Independent check: rebuild the variance from FD gradients.
    for _ in range(10):
        table = random_table(rng, n_fm=3, dc_range=(0.3, 1.0),
                             sigma_dc_latent_max=0.02)
        arr = table_arrays(table)
        var = 0.0
        for i in range(3):
            fd_dc = _fd_gradient(
                lambda dc: _propagate(replace(arr, dc=dc)).lfm,
                arr.dc, i)
            fd_lat = _fd_gradient(
                lambda lat: _propagate(replace(arr, dc_lat=lat)).lfm,
                arr.dc_lat, i)
            fd_lam = _fd_gradient(
                lambda lam: _propagate(replace(arr, lam=lam)).lfm,
                arr.lam, i)
            var += (fd_dc * arr.sigma_dc[i])**2 + (fd_lat * arr.sigma_dc_lat[i])**2 \
                + (fd_lam * arr.sigma_lam[i])**2
        assert analyze(table).sigma_lfm == pytest.approx(math.sqrt(var), rel=1e-6)


def test_sigma_lfm_undefined_without_detected_pool():
    table = make_table([dict(lambda_fm=10.0, dc=0.0, sigma_dc=0.01)])
    res = analyze(table)
    assert res.sigma_lfm is None
    assert res.lfm_note is not None


def test_kernel_arrays_share_one_row_layout(rng):
    # Every per-input array is (3, n): rows DC, latent DC, w; one column per
    # table row.  Each sigma is the square root of its (partial * sigma)^2
    # rows, and each mode's SPFM sigma sums exactly the rows it keeps.
    full, dc_only, lambda_only = PropagationMode
    for _ in range(40):
        arr = table_arrays(random_table(rng, n_range=(1, 40), sigma_dc_latent_max=0.05))
        prop = _propagate(arr)
        w, n = arr.lam / arr.lambda_tot, arr.dc.size
        assert prop.input_sigmas.tolist() == [
            arr.sigma_dc.tolist(), arr.sigma_dc_lat.tolist(),
            (arr.sigma_lam / arr.lambda_tot).tolist()]
        assert prop.spfm_partials.tolist() == [w.tolist(), [0.0] * n, (arr.dc - 1.0).tolist()]
        assert np.array_equal(prop.spfm_terms, (prop.spfm_partials * prop.input_sigmas) ** 2)
        assert prop.spfm_terms[1].tolist() == [0.0] * n
        var_dc, var_lat, var_w = (float(row.sum()) for row in prop.spfm_terms)
        assert var_lat == 0.0
        assert prop.sigma_spfm_by_mode == {full: math.sqrt(var_dc + var_w),
                                           dc_only: math.sqrt(var_dc),
                                           lambda_only: math.sqrt(var_w)}
        if prop.lfm is None:
            assert prop.lfm_partials is None and prop.sigma_lfm is None
            continue
        assert prop.lfm_partials.shape == (3, n)
        lfm_terms = (prop.lfm_partials * prop.input_sigmas) ** 2
        assert prop.sigma_lfm == pytest.approx(
            math.sqrt(sum(float(row.sum()) for row in lfm_terms)), rel=1e-12, abs=1e-300)


def test_undefined_lfm_has_no_partials():
    prop = _propagate(table_arrays(make_table([dict(lambda_fm=10.0, dc=0.0, sigma_dc=0.01)])))
    assert (prop.lfm, prop.lfm_partials, prop.sigma_lfm) == (None, None, None)
    assert prop.spfm_partials.shape == (3, 1)


# ---------------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------------


def test_interval_worked_example():
    iv = confidence_interval(0.945, 0.01, 0.95)
    assert iv.lo == pytest.approx(0.9254, abs=1e-12)
    assert iv.hi == pytest.approx(0.9646, abs=1e-12)
    assert not iv.clamped


def test_interval_zero_sigma_collapses():
    iv = confidence_interval(0.42, 0.0, 0.99)
    assert (iv.lo, iv.hi) == (0.42, 0.42)
    assert not iv.clamped


def test_interval_clamps_and_flags():
    iv = confidence_interval(0.999, 0.01, 0.95)
    assert iv.lo == pytest.approx(0.9794, abs=1e-12)
    assert iv.hi == 1.0
    assert iv.clamped


@pytest.mark.parametrize("level,k", [(0.90, 1.6449), (0.95, 1.9600), (0.99, 2.5758)])
def test_interval_width_is_two_k_sigma(level, k):
    iv = confidence_interval(0.5, 0.01, level)
    assert iv.hi - iv.lo == pytest.approx(2 * k * 0.01, rel=1e-12)


def test_unsupported_confidence_level_rejected():
    with pytest.raises(ValueError, match="confidence"):
        confidence_interval(0.5, 0.01, 0.80)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        confidence_interval(0.5, -0.01, 0.95)


def test_analyze_bundles_everything():
    res = analyze(two_fm_table(), mode=FULL, confidence_level=0.95)
    assert res.k == 1.9600
    assert res.sigma_spfm == pytest.approx(0.010012492197, rel=1e-9)
    assert res.interval_spfm.lo <= 0.945 <= res.interval_spfm.hi
    assert res.sigma_lfm is not None
    assert res.interval_lfm.lo <= 1.0 - 27.9 / 94.5 <= res.interval_lfm.hi


def test_analyze_survives_undefined_lfm():
    table = make_table([dict(lambda_fm=10.0, dc=0.0, sigma_dc=0.01)])
    res = analyze(table)
    assert res.sigma_lfm is None
    assert res.interval_lfm is None
    assert res.sigma_spfm > 0


def test_deterministic_bit_identical():
    t = two_fm_table()
    assert analyze(t).sigma_spfm_full == analyze(t).sigma_spfm_full
    assert analyze(t).sigma_lfm == analyze(t).sigma_lfm


@settings(settings.get_profile("fuzz"), max_examples=200)
# A detected pool of ~1e-256: detected**2 used to underflow, giving 0/0.
@example(rows=[(1.0, 0.0, 0.0), (1.0, 1.8710328867273246e-256, 0.0)], latent=0.0)
@given(
    rows=st.lists(st.tuples(st.floats(0.1, 500.0), st.floats(0.0, 1.0),
                            st.floats(0.0, 0.05)),
                  min_size=2, max_size=60),
    latent=st.floats(0.0, 1.0),
)
def test_equal_latent_coverage_gives_an_exactly_constant_lfm(rows, latent):
    # With one latent DC for every row and no rate or latent sigma, LFM does
    # not depend on any uncertain input: its DC partials and sigma are
    # exactly 0, not rounding noise.
    table = make_table([dict(lambda_fm=lam, dc=dc, sigma_dc=s, dc_latent=latent)
                        for lam, dc, s in rows])
    res = analyze(table)
    if res.lfm is None:
        return
    d_dc, _, _ = _propagate(table_arrays(table)).lfm_partials
    assert not d_dc.any()
    assert res.sigma_lfm == 0.0
