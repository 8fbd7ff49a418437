"""Monte Carlo oracle: agreement with the closed forms, determinism, truncation."""

import dataclasses
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fmeda_uq.mc_oracle as mc
from fmeda_uq import McConfig, PropagationMode, cli, emit_json, verify
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


def test_chunking_does_not_change_the_stream():
    # A sample count spanning several chunks must still be reproducible.
    # test_verdicts_are_pinned_bit_for_bit checks that the verdicts do not
    # depend on the chunk size.
    table = two_fm_table()
    cfg = McConfig(samples=70_000, seed=5)
    assert verify(table, cfg) == verify(table, cfg)


def _state(moments):
    return (moments.n, moments.mean, moments.m2, moments.lo, moments.hi)


def test_verify_verdicts_equal_the_public_ones(tmp_path, capsys):
    # The CLI reports exactly the verdicts of the library's verify.
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


def test_spfm_samples_do_not_depend_on_the_latent_side():
    # Other latent DCs and latent sigmas, zero ones included, leave the
    # SPFM moments and truncation rate bit-identical; the LFM ones move.
    cfg = McConfig(samples=20_000, seed=9)
    table = _all_sigmas_table()
    (spfm, rate), (lfm, _) = mc._simulate(table_arrays(table), cfg)
    sub = table.parts[0].subparts[0]
    for dc_latent, sigma_dc_latent in ((0.0, 0.0), (0.3, 0.2), (0.999, 0.05)):
        rows = tuple(dataclasses.replace(row, dc_latent=dc_latent, sigma_dc_latent=sigma_dc_latent)
                     for row in sub.failure_modes)
        other = dataclasses.replace(table, parts=(
            dataclasses.replace(table.parts[0], subparts=(
                dataclasses.replace(sub, failure_modes=rows),)),))
        (other_spfm, other_rate), (other_lfm, _) = mc._simulate(table_arrays(other), cfg)
        assert (_state(other_spfm), other_rate) == (_state(spfm), rate)
        assert _state(other_lfm) != _state(lfm)


@pytest.mark.parametrize("truncate", [True, False])
def test_a_table_with_no_detected_pool_gets_no_lfm_verdict(truncate):
    # Every pass samples LFM too; with no detected pool its samples divide
    # by 0 or drop, quietly, and verify reports the note instead.
    table = make_table([dict(lambda_fm=10.0, sigma_lambda_fm=10.0, sigma_dc_latent=0.2),
                        dict(lambda_fm=5.0, sigma_dc=0.01, dc_latent=0.5)])
    before = threading.active_count()
    spfm, lfm, note = verify(table, McConfig(samples=2000, seed=3, truncate=truncate))
    assert (spfm.metric, lfm, note) == ("SPFM", None, _propagate(table_arrays(table)).lfm_note)
    assert threading.active_count() == before


def _verify_peak(table, samples):
    tracemalloc.start()
    try:
        verify(table, McConfig(samples=samples, seed=3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_rows(rng):
    # Chunks hold a fixed number of elements, not a fixed number of samples.
    table = random_table(rng, n_fm=10_000, sigma_dc_latent_max=0.01)
    assert _verify_peak(table, 2000) < 64 * 2**20


def test_memory_does_not_grow_with_samples():
    # The moments are streamed: no array holds one value per sample.
    table = two_fm_table()
    _verify_peak(table, 20_000)  # the one-time allocations of a process's first verify
    assert _verify_peak(table, 200_000) - _verify_peak(table, 20_000) < 0.5 * 2**20


def test_streamed_moments_equal_the_two_pass_ones(monkeypatch, rng):
    # Two-row tables give chunks of many blocks; the 40-row one gives blocks
    # that span chunks.  The merged moments are those of both halves' values.
    seen = {}
    add, merge = mc._Moments.add, mc._Moments.merge

    def collecting(self, values):
        seen.setdefault(self, []).append(values.copy())
        add(self, values)

    def merging(self, other):
        seen[self] = seen.get(self, []) + seen.get(other, [])
        merge(self, other)

    monkeypatch.setattr(mc._Moments, "add", collecting)
    monkeypatch.setattr(mc._Moments, "merge", merging)
    tables = [_pinned_table(name) for name in sorted(_PINNED)]
    tables += [random_table(rng, n_fm=n, sigma_dc_latent_max=0.02) for n in (1, 7, 40)]
    cfg = McConfig(samples=20_000, seed=5)
    for table in tables:
        arr = table_arrays(table)
        seen.clear()
        (spfm, _), (lfm, _) = mc._simulate(arr, cfg)
        assert spfm.n == cfg.samples
        for moments in (spfm, lfm):
            values = np.concatenate(seen[moments])
            assert moments.n == values.size
            if not values.size:  # a table with no detected pool drops every LFM sample
                continue
            assert (moments.lo, moments.hi) == (values.min(), values.max())
            assert moments.sigma() == pytest.approx(np.std(values, ddof=1),
                                                    rel=1e-12, abs=0)


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


def test_maximum_samples_enforced():
    assert McConfig(samples=mc.MAX_VERDICT_SAMPLES).samples == 10 ** 9
    for samples in (mc.MAX_VERDICT_SAMPLES + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"at most {mc.MAX_VERDICT_SAMPLES} samples"):
            McConfig(samples=samples, seed=1)


def test_seed_beyond_64_bits_rejected():
    assert McConfig(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            McConfig(seed=seed)


@pytest.mark.parametrize("field, value", [
    ("samples", 5000.0), ("samples", True), ("samples", "5000"),
    ("seed", 1.5), ("seed", 7.0), ("seed", False),
])
def test_non_integer_samples_and_seed_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        McConfig(**{field: value})


def test_verdict_serializes():
    v = verify(two_fm_table(), McConfig(samples=2000, seed=1))[0]
    doc = v.to_dict()
    assert doc["metric"] == "SPFM"
    assert doc["rng_algorithm"] == "numpy-pcg64"
    assert isinstance(doc["passed"], bool)


def test_verdict_writes_a_non_finite_spread_as_null():
    v = mc.McVerdict("SPFM", float("nan"), 0.01, float("inf"), 0.03, False, 0.0, 1000, 1,
                     True)
    doc = v.to_dict()
    assert doc["empirical_sigma"] is None and doc["relative_gap"] is None
    assert strict_json(json.dumps(doc, allow_nan=False)) == doc


def test_pass_iff_gap_within_tolerance():
    arr = table_arrays(two_fm_table())
    cfg = McConfig(samples=5000, seed=2)
    spfm, _ = mc._simulate(arr, cfg)
    analytic = _propagate(arr).sigma_spfm_by_mode[PropagationMode.FULL]
    v = mc._verdict("SPFM", analytic, *spfm, cfg, 1e-9)
    assert not v.passed and v.relative_gap > v.tolerance
    w = mc._verdict("SPFM", analytic, *spfm, cfg, 0.5)
    assert w.passed and w.relative_gap <= w.tolerance


# Verdicts of McConfig(samples=20_000, seed=5), recorded with float.hex from
# the two-half sampler: per metric (empirical_sigma, analytic_sigma,
# relative_gap, truncation_rate, passed, warning).  A half drawn from the
# wrong seed, its chunks in the wrong order, or a half cut short changes
# them.
_CLAMPED = "truncation clamped {} of draws; boundary effects may bias the empirical sigma"
_PINNED = {
    "all_sigmas": (
        ("0x1.4abcebe96a125p-7", "0x1.47d3d1fbaa427p-7", "0x1.22ec9f17f4e62p-7",
         "0x0.0p+0", True, None),
        ("0x1.1498dabc81140p-7", "0x1.170807f26926fp-7", "0x1.1ddea2853533ap-7",
         "0x0.0p+0", True, None),
    ),
    # More than 10% of the DC, rate and latent DC draws clamp.
    "near_bounds": (
        ("0x1.15a4ccb2548c1p-6", "0x1.3e41ab19007c3p-6", "0x1.05587b3a54b9cp-3",
         "0x1.0e147ae147ae1p-3", False, _CLAMPED.format("13.188%")),
        ("0x1.e1cd17adebdb5p-6", "0x1.14614c8312b38p-5", "0x1.06e7f96b84294p-3",
         "0x1.2222222222222p-3", False, _CLAMPED.format("14.167%")),
    ),
    "no_detected_pool": (
        ("0x1.0f4d77e4f0bf2p-4", "0x1.126db8f7a2a9dp-4", "0x1.7541ebff189a5p-7",
         "0x1.018fc504816f0p-2", True, _CLAMPED.format("25.152%")),
        None,
    ),
    # DC clamps to 0 in about 31% of the draws, and the one row's detected
    # pool with it.
    "dropped_lfm": (
        ("0x1.ec0b4b5b12c47p-7", "0x1.47ae147ae147bp-6", "0x1.fe5cb483655a3p-3",
         "0x1.412d77318fc50p-2", False, _CLAMPED.format("31.365%")),
        ("0x1.9ae70b7fa1d67p-4", "0x1.999999999999ap-4", "0x1.a0ce5f8a4c040p-9",
         "0x1.412d77318fc50p-3", True, _CLAMPED.format("15.682%")
         + "; 6273 sample(s) had no detected pool and were excluded"),
    ),
}


def _pinned_table(name):
    return {
        "all_sigmas": _all_sigmas_table,
        "near_bounds": lambda: make_table([
            dict(lambda_fm=100.0, dc=0.98, sigma_dc=0.02, dc_latent=0.97,
                 sigma_dc_latent=0.03),
            dict(lambda_fm=5.0, sigma_lambda_fm=4.0, dc=0.9, dc_latent=0.5),
        ]),
        "no_detected_pool": lambda: make_table([
            dict(lambda_fm=10.0, sigma_dc=0.01),
            dict(lambda_fm=5.0, sigma_lambda_fm=1.0),
        ]),
        "dropped_lfm": lambda: make_table([
            dict(lambda_fm=10.0, dc=0.01, sigma_dc=0.02, dc_latent=0.5,
                 sigma_dc_latent=0.1),
        ]),
    }[name]()


def _hexed(v):
    if v is None:
        return None
    return (v.empirical_sigma.hex(), v.analytic_sigma.hex(), v.relative_gap.hex(),
            v.truncation_rate.hex(), v.passed, v.warning)


@pytest.mark.parametrize("buffer_elements", [None, 5])
@pytest.mark.parametrize("name", sorted(_PINNED))
def test_verdicts_are_pinned_bit_for_bit(name, buffer_elements, monkeypatch):
    # 5 elements give one-sample chunks: 10^4 chunks per half.
    if buffer_elements is not None:
        monkeypatch.setattr(mc, "_BUFFER_ELEMENTS", buffer_elements)
    spfm, lfm, note = verify(_pinned_table(name), McConfig(samples=20_000, seed=5))
    assert (_hexed(spfm), _hexed(lfm)) == _PINNED[name]
    assert (note is None) == (lfm is not None)


def _fail_draw(monkeypatch, fails):
    """Make _Input.draw call fails(input, on the calling thread) first."""
    draw, caller = mc._Input.draw, threading.get_ident()

    def failing(self, m):
        fails(self, threading.get_ident() == caller)
        draw(self, m)

    monkeypatch.setattr(mc._Input, "draw", failing)


def _fail_helper_rate_draw(inp, on_caller):
    if not on_caller and inp.upper is None:  # only the rate input has no upper bound
        raise MemoryError


@pytest.mark.parametrize("delayed", ["caller", "helper"])
@pytest.mark.parametrize("name", sorted(_PINNED))
def test_verdicts_do_not_depend_on_which_half_finishes_first(name, delayed, monkeypatch):
    # The delayed half starts after the other has finished on most runs.
    slept = []

    def sleep_first(inp, on_caller):
        if not slept and on_caller == (delayed == "caller"):
            slept.append(inp)
            time.sleep(0.05)

    _fail_draw(monkeypatch, sleep_first)
    spfm, lfm, _ = verify(_pinned_table(name), McConfig(samples=20_000, seed=5))
    assert (_hexed(spfm), _hexed(lfm)) == _PINNED[name]


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_half_stops_the_other_within_one_chunk(failing, monkeypatch):
    # One-sample chunks: 10^4 chunks of three draws per half.  The failing
    # half raises at its 30th draw once the other half is at its second,
    # where that one waits until the stop is set; then it finishes its
    # chunk and stops.  A half that did not stop would draw 3 * 10^4.
    monkeypatch.setattr(mc, "_BUFFER_ELEMENTS", 5)
    stops, draws, other_waits = [], {True: 0, False: 0}, threading.Event()
    shard = mc._shard

    def keeping_stop(*args):
        stops.append(args[-1])
        return shard(*args)

    def fail_thirtieth_draw(inp, on_caller):
        mine = on_caller == (failing == "caller")
        draws[mine] += 1
        if mine and draws[mine] == 30:
            assert other_waits.wait(10)
            raise KeyError(failing)
        if not mine and draws[mine] == 2:
            other_waits.set()
            assert stops[0].wait(10)

    monkeypatch.setattr(mc, "_shard", keeping_stop)
    _fail_draw(monkeypatch, fail_thirtieth_draw)
    before = threading.active_count()
    with pytest.raises(KeyError, match=failing):
        verify(_all_sigmas_table(), McConfig(samples=20_000, seed=5))
    assert draws == {True: 30, False: 3}
    assert threading.active_count() == before


def test_no_thread_outlives_verify(monkeypatch):
    table, cfg = _all_sigmas_table(), McConfig(samples=20_000, seed=5)
    before = threading.active_count()
    verify(table, cfg)
    assert threading.active_count() == before

    # The helper thread raises: the caller gets its exception, type and all.
    _fail_draw(monkeypatch, _fail_helper_rate_draw)
    with pytest.raises(MemoryError):
        verify(table, cfg)
    assert threading.active_count() == before

    # The calling thread raises on its third draw: the latent DC draw of
    # its first of two chunks.
    calls = []

    def fail_third_caller_draw(inp, on_caller):
        if on_caller:
            calls.append(inp)
            if len(calls) == 3:
                raise KeyError("dc")

    monkeypatch.undo()
    _fail_draw(monkeypatch, fail_third_caller_draw)
    with pytest.raises(KeyError, match="dc"):
        verify(table, cfg)
    assert len(calls) == 3
    assert threading.active_count() == before


def test_helper_memory_error_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(emit_json(_all_sigmas_table()), encoding="utf-8")
    _fail_draw(monkeypatch, _fail_helper_rate_draw)
    before = threading.active_count()
    code = cli.main(["verify", "--input", str(path), "--samples", "20000"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "--samples 20000" in err
    assert "Traceback" not in err
    assert threading.active_count() == before
