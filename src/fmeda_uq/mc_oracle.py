"""Monte Carlo verifier for the analytic error propagation.

Independently of the closed-form sigmas, the metric's spread can be
estimated by brute force: draw each uncertain input from a normal
distribution centered on its nominal value, recompute the metric per
sample, and take the sample standard deviation.  A verdict compares that
empirical sigma against the analytic one at a relative tolerance (3% for
SPFM; 5% for LFM, whose ratio form makes first-order propagation carry
genuine truncation error).

The analytic side of verify is analyze: a verdict checks the sigma that
analyze reports, so a fault between the kernel and the report fails it
too.  Conventions shared with the analytic model so the two routes
agree: both read the same model.table_arrays extraction (fault-simulation
rows carry sigma_DC = e/t), lambda_tot stays fixed at its nominal value
while individual rates are perturbed, and inputs are mutually independent.
With truncation enabled (the default), DC draws clamp to [0, 1] and rate
draws to [0, inf); the clamp rate is reported, and above 0.1% the verdict
carries a warning because boundary effects then bias the comparison.
Disable truncation for mathematical-fidelity checks.

One pass samples both metrics, SPFM and LFM, on every table; one with
no detected pool gets no LFM verdict.  The samples are split into two
fixed halves, floor(samples/2) and the rest, each seeded by its own
np.random.SeedSequence child of the config's seed and drawing each kind
of uncertain input (DC, rate, latent DC) from its own PCG64 child
stream.  Only the columns with a nonzero sigma take draws, sample by
sample in row order.  So the draws do not depend on the chunk
size, and the SPFM samples do not depend on the latent DC stream: a
given (table, config) gives the same verdicts bit for bit across runs
and platforms.  Chunks hold a fixed number of elements, not of samples,
so memory does not grow with the row count (until one sample's row alone
exceeds a buffer).

Two threads run the halves, the calling thread the first and one helper
thread the second, with the same sequential sampler (_shard) and buffers
of their own; numpy releases the GIL while it fills and transforms them.
One thread draws each stream, so the verdicts depend neither on
the scheduling nor on the chunk size, and the threads do equal work
whatever each kind of draw costs.  A half that raises sets a stop event,
which the other checks once per chunk.  On one CPU the threads take turns.

No sample is kept.  Each metric's values pass through a staging block of
_BLOCK samples, and each full block's count, mean, centred sum of squares
(M2), min and max are merged into the running ones with the pairwise
update of Chan, Golub & LeVeque (1983); so are the second half's into
the first's.  Blocks hold fixed runs of samples, so the sigma does not
depend on the chunk size, and memory does not grow with the sample
count: run time is linear in it.

Each LFM sample divides by its detected pool summed as sum(DC*lambda)
plus the gap lambda_tot - sum(lambda), as the kernel does.  Written as
lambda_tot minus the residual it cancels when every DC is small, and a
table whose LFM is constant would show a spread of rounding noise.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .analysis import analyze
from .model import FmedaTable, TableArrays, table_arrays

RNG_ALGORITHM = "numpy-pcg64"
MIN_VERDICT_SAMPLES = 1000
# The most samples a verdict may ask for.  Run time is linear in the count
# (about 0.17 us per sample on the worked table, so 10^9 take a few
# minutes); a larger request is refused rather than left to run for years.
MAX_VERDICT_SAMPLES = 10 ** 9
TRUNCATION_WARN_RATE = 1e-3
# Elements per chunk matrix, shared by the two halves: each half's chunk
# holds half of it, samples x rows.  It bounds memory; the draws do not
# depend on it.
_BUFFER_ELEMENTS = 1 << 15
# Samples per staging block of a moment accumulator: the unit of the
# pairwise merge, so the sigma does not depend on the chunk size.
_BLOCK = 1024
# A spread of at most this many ulps of 1.0 (8 * np.finfo(float).eps, about
# 1.8e-15) counts as 0 when the analytic sigma is 0.  Measured rounding
# spreads on such tables of 2 to 5000 rows stayed under 2 ulps of 1.0.
_ROUNDING_ULPS = 8

SPFM_TOLERANCE = 0.03
LFM_TOLERANCE = 0.05


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; identical configs give identical verdicts."""

    samples: int = 100_000
    seed: int = 42
    truncate: bool = True

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.samples < MIN_VERDICT_SAMPLES:
            raise ValueError(
                f"at least {MIN_VERDICT_SAMPLES} samples are required for a verdict, "
                f"got {self.samples}"
            )
        if self.samples > MAX_VERDICT_SAMPLES:
            raise ValueError(
                f"at most {MAX_VERDICT_SAMPLES} samples are allowed for a verdict, "
                f"got {self.samples}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class McVerdict:
    """Empirical vs analytic sigma with the pass/fail comparison."""

    metric: str
    empirical_sigma: float
    analytic_sigma: float
    relative_gap: float  # inf: spread where the analytic sigma is 0
    tolerance: float
    passed: bool
    truncation_rate: float
    samples: int
    seed: int
    truncate: bool
    rng_algorithm: str = RNG_ALGORITHM
    warning: str | None = None

    def to_dict(self) -> dict:
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        # JSON has no infinity or nan; null marks a value with no finite size.
        for name in ("empirical_sigma", "relative_gap"):
            if not math.isfinite(doc[name]):
                doc[name] = None
        return doc


class _Input:
    """One kind of uncertain input: its child stream and the matrix it fills.

    values, one chunk of samples x rows, starts as the nominal values.
    Only columns with a nonzero sigma take draws, sample by sample in row
    order, into a buffer and then into their columns of values, clamped
    to [0, upper] if truncate.  One thread draws each input, so its
    stream and its clamp count advance in chunk order.
    """

    def __init__(self, rng: np.random.Generator, chunk: int, truncate: bool,
                 nominal: np.ndarray, sigma: np.ndarray, upper: float | None):
        self.rng = rng
        self.cols = np.flatnonzero(sigma > 0)
        self.mean = nominal[self.cols]
        self.sigma = sigma[self.cols]
        self.upper = upper
        self.truncate = truncate
        self.values = np.tile(nominal, (chunk, 1))
        self.buf = np.empty((chunk, self.cols.size))
        self.clamped = 0

    def draw(self, m: int) -> None:
        z = self.buf[:m]
        self.rng.standard_normal(out=z)
        z *= self.sigma
        z += self.mean
        # Most chunks clamp nothing: two reductions rule that out before any
        # boolean temporary is built.
        if self.truncate and z.size and (
                z.min() < 0.0 or (self.upper is not None and z.max() > self.upper)):
            hits = int(np.count_nonzero(z < 0.0))
            if self.upper is not None:
                hits += int(np.count_nonzero(z > self.upper))
            self.clamped += hits
            np.clip(z, 0.0, self.upper, out=z)
        self.values[:m, self.cols] = z


class _Moments:
    """Count, mean, M2, min and max of one metric's samples, merged by block.

    add() copies values into a staging block; each full block's mean and
    centred M2 (two passes over the block, pairwise sums) are merged into
    the running ones with the update of Chan, Golub & LeVeque (1983).  A
    raw sum of squares would cancel where the spread is a few ulps.
    """

    def __init__(self):
        self.block = np.empty(_BLOCK)
        self.fill = 0
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.lo = math.inf
        self.hi = -math.inf

    def add(self, values: np.ndarray) -> None:
        while values.size:
            take = min(_BLOCK - self.fill, values.size)
            self.block[self.fill:self.fill + take] = values[:take]
            self.fill += take
            values = values[take:]
            if self.fill == _BLOCK:
                self.flush()

    def flush(self) -> None:
        """Merge the staged samples into the running moments."""
        nb = self.fill
        if nb:
            b = self.block[:nb]
            lo, hi = float(b.min()), float(b.max())
            mean_b = float(b.sum()) / nb
            np.subtract(b, mean_b, out=b)
            np.square(b, out=b)
            self._join(nb, mean_b, float(b.sum()), lo, hi)
            self.fill = 0

    def merge(self, other: _Moments) -> None:
        """Merge another run's flushed moments into these."""
        if other.n:  # an LFM half may have dropped every sample
            self._join(other.n, other.mean, other.m2, other.lo, other.hi)

    def _join(self, nb: int, mean_b: float, m2_b: float, lo: float, hi: float) -> None:
        self.lo, self.hi = min(self.lo, lo), max(self.hi, hi)
        n = self.n + nb
        delta = mean_b - self.mean
        self.mean += delta * nb / n
        self.m2 += m2_b + delta * delta * self.n * nb / n
        self.n = n

    def sigma(self) -> float:
        """The sample standard deviation; exactly 0 for a constant stream."""
        if self.n > 1 and self.lo != self.hi:
            return math.sqrt(self.m2 / (self.n - 1))
        # A constant stream has zero spread, not mean-rounding noise.
        return 0.0


def _shard(arr: TableArrays, samples: int, seed: np.random.SeedSequence, truncate: bool,
           stop: threading.Event):
    """Sample one half, chunk after chunk: (SPFM, LFM, clamp counts).

    seed spawns the half's DC, rate and latent DC streams; the clamp counts
    are each one's (clamped draws, columns).  A stop set before a chunk
    ends the half: None.

    The rates, their sigmas and lambda_tot are first scaled by 2**-e, where
    e is lambda_tot's binary exponent, so lambda_tot lies in [0.5, 1) and
    the sums of sampled rates stay finite where the rates sit near the top
    of the float range.  The metrics are ratios of rates, and a
    power-of-two scaling changes no rounding while every value, scaled
    and unscaled, is a normal float; then the samples are those of the
    unscaled rates bit for bit.
    """
    chunk = min(samples, max(1, _BUFFER_ELEMENTS // (2 * arr.lam.size)))
    e = math.frexp(arr.lambda_tot)[1]
    lam_nominal, lambda_tot = np.ldexp(arr.lam, -e), math.ldexp(arr.lambda_tot, -e)
    kinds = ((arr.dc, arr.sigma_dc, 1.0), (lam_nominal, np.ldexp(arr.sigma_lam, -e), None),
             (arr.dc_lat, arr.sigma_dc_lat, 1.0))
    inputs = [_Input(np.random.default_rng(s), chunk, truncate, *kind)
              for s, kind in zip(seed.spawn(3), kinds)]
    dc, lam, lat = (inp.values for inp in inputs)
    work, det = np.empty_like(dc), np.empty_like(dc)
    # Per-sample values are written in place: no chunk allocates, so the peak
    # does not depend on how the two halves' chunks interleave.
    vals, pools = np.empty(chunk), np.empty(chunk)
    spfm, lfm = _Moments(), _Moments()

    for start in range(0, samples, chunk):
        if stop.is_set():
            return None
        m = min(chunk, samples - start)
        for inp in inputs:
            inp.draw(m)
        w, d, v, pool = work[:m], det[:m], vals[:m], pools[:m]
        np.subtract(1.0, dc[:m], out=w)
        w *= lam[:m]
        np.divide(w.sum(axis=1, out=v), lambda_tot, out=v)  # residual / lambda_tot
        spfm.add(np.subtract(1.0, v, out=v))
        np.multiply(dc[:m], lam[:m], out=d)
        np.subtract(1.0, lat[:m], out=w)
        w *= d
        # The detected pool: the gap lambda_tot - sum(lambda), plus sum(DC*lambda).
        np.subtract(lambda_tot, lam[:m].sum(axis=1, out=pool), out=pool)
        pool += d.sum(axis=1, out=v)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(w.sum(axis=1, out=v), pool, out=v)  # latent / pool
        np.subtract(1.0, v, out=v)
        bad = pool <= 0.0
        lfm.add(v[~bad] if bad.any() else v)

    spfm.flush()
    lfm.flush()
    return spfm, lfm, [(inp.clamped, inp.cols.size) for inp in inputs]


def _simulate(arr: TableArrays, config: McConfig) -> list[tuple[_Moments, float]]:
    """Draw every uncertain input once: each metric's (moments, truncation rate).

    SPFM's rate counts the DC and rate draws, LFM's the latent DC ones too.
    The calling thread runs the first half, and raises what either raised.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    sizes = (config.samples // 2, config.samples - config.samples // 2)
    stop, halves = threading.Event(), [None, None]

    def run(k: int) -> None:
        try:
            halves[k] = _shard(arr, sizes[k], seeds[k], config.truncate, stop)
        except BaseException as exc:  # raised below, once the other half stopped
            stop.set()
            halves[k] = exc

    helper = threading.Thread(target=run, args=(1,), name="fmeda-uq-mc-half", daemon=True)
    helper.start()
    run(0)
    helper.join()
    for half in halves:
        if isinstance(half, BaseException):
            raise half
    (spfm, lfm, clamps), (spfm_2, lfm_2, clamps_2) = halves
    metrics = []
    for moments, moments_2, kinds in ((spfm, spfm_2, 2), (lfm, lfm_2, 3)):
        moments.merge(moments_2)
        draws = config.samples * sum(cols for _, cols in clamps[:kinds])
        clamped = sum(hits for hits, _ in clamps[:kinds] + clamps_2[:kinds])
        metrics.append((moments, clamped / draws if draws else 0.0))
    return metrics


def _verdict(metric: str, analytic: float, moments: _Moments, rate: float, config: McConfig,
             tolerance: float) -> McVerdict:
    empirical = moments.sigma()
    # Only LFM drops samples: those whose sampled detected pool is empty.
    dropped = config.samples - moments.n

    if analytic != 0.0:
        gap = abs(empirical - analytic) / analytic
    else:
        # A zero analytic sigma says the metric is constant; the samples can
        # then differ only by rounding.  Each sample is 1 - ratio, so that
        # rounding is relative to 1 even where the metric is near 0.  A larger
        # spread is a mismatch with no finite relative size.
        if empirical <= _ROUNDING_ULPS * np.finfo(float).eps:
            empirical, gap = 0.0, 0.0
        else:
            gap = math.inf

    warning = None
    if rate >= TRUNCATION_WARN_RATE:
        warning = (
            f"truncation clamped {rate:.3%} of draws; boundary effects may bias "
            f"the empirical sigma"
        )
    if dropped:
        extra = f"{dropped} sample(s) had no detected pool and were excluded"
        warning = f"{warning}; {extra}" if warning else extra

    return McVerdict(
        metric=metric,
        empirical_sigma=empirical,
        analytic_sigma=analytic,
        relative_gap=gap,
        tolerance=tolerance,
        passed=gap <= tolerance,
        truncation_rate=rate,
        samples=config.samples,
        seed=config.seed,
        truncate=config.truncate,
        warning=warning,
    )


def verify(table: FmedaTable, config: McConfig) -> tuple[McVerdict, McVerdict | None, str | None]:
    """Check the sigma_SPFM and sigma_LFM that analyze reports against one seeded pass.

    Returns (SPFM verdict, LFM verdict, None), or (SPFM verdict, None,
    the reason) when LFM is undefined.  Raises FmedaValidationError for
    an invalid table or a propagated sigma that overflows.
    """
    result = analyze(table)
    sigma_spfm, sigma_lfm, lfm_note = result.sigma_spfm_full, result.sigma_lfm, result.lfm_note
    del result  # its rows and EII entries are not kept while sampling
    spfm, lfm = _simulate(table_arrays(table), config)
    verdict = _verdict("SPFM", sigma_spfm, *spfm, config, SPFM_TOLERANCE)
    if sigma_lfm is None:
        return verdict, None, lfm_note
    return verdict, _verdict("LFM", sigma_lfm, *lfm, config, LFM_TOLERANCE), None
