"""Propagated sigmas: closed forms, decomposition, gradients, intervals."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmeda_uq import (EXPERT_JUDGMENT, DcSource, FailureModeRow, FmedaTable, Part,
                      PropagationMode, Subpart, analyze, confidence_interval, margin_to_sigma)
from fmeda_uq.metrics import FAIL, PASS_FRAGILE, PASS_ROBUST
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


_RATE = st.floats(1e-6, 1e6)
_FRACTION = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1.0), st.floats(0.95, 1.0))
_SIGMA = st.one_of(st.just(0.0), st.floats(1e-6, 0.05))
_SOURCES = [EXPERT_JUDGMENT, DcSource.fault_simulation(0.02, 0.95),
            DcSource.fault_simulation(0.05, 0.99)]


@st.composite
def _tables(draw):
    """Tables of one to three subparts of one to four rows, DirectLambda or
    Distribution, with expert and fault-simulation rows.  Each rate and
    rate sigma is 0 or within [1e-6, 1e6], so it stays a normal float when
    scaled by 2**k for |k| <= 200, and so do their sums; each coverage is
    0 or at least 1e-3, so the kernel's products of coverages and weights
    stay normal too."""
    subs = []
    for s in range(draw(st.integers(1, 3))):
        dist = draw(st.booleans())
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
        rows = []
        for weight in weights:
            fields = dict(id=f"S{s}R{len(rows)}", dc=draw(_FRACTION), sigma_dc=draw(_SIGMA),
                          dc_latent=draw(_FRACTION), sigma_dc_latent=draw(_SIGMA),
                          dc_source=draw(st.sampled_from(_SOURCES)))
            if dist:
                fields.update(fmd_fraction=weight / sum(weights), sigma_fmd=draw(_SIGMA))
            else:
                lam = draw(_RATE)
                fields.update(lambda_fm=lam, sigma_lambda_fm=lam * draw(
                    st.one_of(st.just(0.0), st.floats(1e-6, 0.5))))
            rows.append(FailureModeRow(**fields))
        subs.append(Subpart(f"S{s}", draw(_RATE) if dist else None, None, tuple(rows)))
    return FmedaTable((Part("P", tuple(subs)),))


def _scaled(table: FmedaTable, factor: float) -> FmedaTable:
    """table with every rate and rate sigma times factor: each row's
    lambda_fm and sigma_lambda_fm and each subpart rate."""
    def row(r):
        if r.lambda_fm is None:
            return r
        return replace(r, lambda_fm=r.lambda_fm * factor,
                       sigma_lambda_fm=r.sigma_lambda_fm * factor)
    return FmedaTable(tuple(Part(p.name, tuple(
        Subpart(s.name, None if s.lambda_subpart is None else s.lambda_subpart * factor,
                s.fmd_mode, tuple(map(row, s.failure_modes)))
        for s in p.subparts)) for p in table.parts))


_TARGETS = (None, "A", "B", "C", "D")


@settings(settings.get_profile("fuzz"), max_examples=100)
@given(table=_tables(), k=st.integers(-200, 200))
def test_power_of_two_scaling_changes_no_bit(table, k):
    # The kernel works on lambda_i/lambda_tot, and a power-of-two factor
    # changes no rounding while every rate, sigma and sum stays normal: each
    # metric, sigma, interval, EII share and verdict is the same float, and
    # the report's rates are the old ones times the factor, exactly.
    factor = 2.0 ** k
    scaled = _scaled(table, factor)
    for target in _TARGETS:
        for mode in PropagationMode:
            docs = []
            for t, f in ((table, 1.0), (scaled, factor)):
                doc = analyze(t, asil_target=target, mode=mode).to_dict()
                doc["lambda_tot_fit"] /= f
                for r in doc["rows"]:
                    r["lambda_fm_fit"] /= f
                    r["sigma_lambda_fm_fit"] /= f
                docs.append(json.dumps(doc, sort_keys=True))
            assert docs[0] == docs[1], (target, mode)


_RANK = {PASS_ROBUST: 0, PASS_FRAGILE: 1, FAIL: 2}


@settings(settings.get_profile("fuzz"), max_examples=100)
@given(table=_tables(), data=st.data())
def test_raising_one_input_sigma_never_improves_a_verdict(table, data):
    # A fault-simulation row with sigma_dc 0 has the sigma e/t; a stated
    # sigma_dc replaces it, so raising it starts from e/t.
    located = [(i, j) for i, sub in enumerate(table.parts[0].subparts)
               for j in range(len(sub.failure_modes))]
    i, j = data.draw(st.sampled_from(located))
    subs = list(table.parts[0].subparts)
    row = subs[i].failure_modes[j]
    rate_sigma = "sigma_lambda_fm" if row.lambda_fm is not None else "sigma_fmd"
    field = data.draw(st.sampled_from([rate_sigma, "sigma_dc", "sigma_dc_latent"]))
    old = getattr(row, field)
    if field == "sigma_dc" and old == 0.0 and row.dc_source.is_fault_simulation:
        old = margin_to_sigma(row.dc_source.margin_e, row.dc_source.confidence_level)
    step = data.draw(st.floats(1e-9, 0.1))
    raised = old + (step * row.lambda_fm if field == "sigma_lambda_fm" else step)
    rows = list(subs[i].failure_modes)
    rows[j] = replace(row, **{field: raised})
    subs[i] = replace(subs[i], failure_modes=tuple(rows))
    bumped = FmedaTable((Part("P", tuple(subs)),))
    for target in _TARGETS[1:]:
        for mode in PropagationMode:
            before = analyze(table, asil_target=target, mode=mode).verdict
            after = analyze(bumped, asil_target=target, mode=mode).verdict
            for name in ("spfm", "lfm", "overall"):
                a, b = getattr(before, name), getattr(after, name)
                assert (a is None) == (b is None), (target, mode, name)
                if a is not None:
                    assert _RANK[b] >= _RANK[a], (target, mode, name, a, b)


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
