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

One pass serves both metrics.  Each kind of uncertain input (DC, rate,
latent DC) has its own numpy PCG64 child stream, spawned from the
config's seed by np.random.SeedSequence, and only the columns with a
nonzero sigma are drawn, sample by sample in row order.  So the drawn
values do not depend on the chunk size, and the SPFM samples do not
depend on whether the table has an LFM to simulate: a given (table,
config) gives the same verdicts bit for bit across runs and platforms.
Chunks are sized by a fixed number of elements, not a fixed number of
samples, and the buffers are allocated once per call, so memory does not
grow with the row count (until one sample's row alone exceeds a buffer).

No sample is kept.  Each metric's values pass through a staging block of
_BLOCK samples, and each full block's count, mean, centred sum of squares
(M2), min and max are merged into the running ones with the pairwise
update of Chan, Golub & LeVeque (1983).  Blocks hold fixed runs of
samples, so the merges, and the sigma, do not depend on the chunk size,
and memory does not grow with the sample count: run time is linear in it.

Two threads share the work of a chunk.  A helper thread draws the rate
and latent DC streams of chunk k+1 into the spare one of two buffer sets
while the calling thread draws the DC stream and evaluates SPFM and LFM
for chunk k; numpy releases the GIL while it fills and transforms the
buffers.  Each stream is drawn by one thread only, chunk after chunk, so
the drawn values, the clamp counts and the verdicts depend neither on
the scheduling nor on the chunk size.  The element budget covers both
buffer sets together, so buffer memory is what one set took before.  On
a single CPU the two threads only take turns, and the gain is gone.

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
# Elements per chunk buffer, shared by the two buffer sets of the rate and
# latent DC matrices: a chunk holds half of it, samples x rows.  It bounds
# memory; the drawn streams do not depend on it.
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
        # JSON has no infinity; null marks a gap with no finite size.
        if not math.isfinite(self.relative_gap):
            doc["relative_gap"] = None
        return doc


class _Input:
    """One kind of uncertain input: its child stream and the columns it draws.

    Only columns with a nonzero sigma are drawn, sample by sample in row
    order, into one buffer allocated per call; the drawn values are then
    written into the matching columns of dest, a sampled matrix of that
    input.  One thread draws each input, so its stream and its clamp count
    advance in chunk order.
    """

    def __init__(self, rng: np.random.Generator, rows: int, nominal: np.ndarray,
                 sigma: np.ndarray, upper: float | None):
        self.rng = rng
        self.cols = np.flatnonzero(sigma > 0)
        self.mean = nominal[self.cols]
        self.sigma = sigma[self.cols]
        self.upper = upper
        self.buf = np.empty((rows, self.cols.size))
        self.clamped = 0

    def draw(self, dest: np.ndarray, m: int, truncate: bool) -> None:
        z = self.buf[:m]
        self.rng.standard_normal(out=z)
        z *= self.sigma
        z += self.mean
        # Most chunks clamp nothing: two reductions rule that out before any
        # boolean temporary is built.
        if truncate and z.size and (
                z.min() < 0.0 or (self.upper is not None and z.max() > self.upper)):
            hits = int(np.count_nonzero(z < 0.0))
            if self.upper is not None:
                hits += int(np.count_nonzero(z > self.upper))
            self.clamped += hits
            np.clip(z, 0.0, self.upper, out=z)
        dest[:m, self.cols] = z


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
        if not nb:
            return
        b = self.block[:nb]
        self.lo = min(self.lo, float(b.min()))
        self.hi = max(self.hi, float(b.max()))
        mean_b = float(b.sum()) / nb
        np.subtract(b, mean_b, out=b)
        np.square(b, out=b)
        m2_b = float(b.sum())
        n = self.n + nb
        delta = mean_b - self.mean
        self.mean += delta * nb / n
        self.m2 += m2_b + delta * delta * self.n * nb / n
        self.n = n
        self.fill = 0

    def sigma(self) -> float:
        """The sample standard deviation; exactly 0 for a constant stream."""
        if self.n > 1 and self.lo != self.hi:
            return math.sqrt(self.m2 / (self.n - 1))
        # A constant stream has zero spread, not mean-rounding noise.
        return 0.0


@dataclass(frozen=True)
class _Samples:
    """The metric moments of one pass, with its truncation counts."""

    spfm: _Moments
    lfm: _Moments | None  # None unless LFM was simulated
    spfm_rate: float
    lfm_rate: float


def _simulate(arr: TableArrays, config: McConfig, with_lfm: bool) -> _Samples:
    """Draw every uncertain input once; SPFM per sample, and LFM if asked.

    The calling thread draws DC and evaluates each chunk.  Meanwhile one
    helper thread draws the rates (and latent DCs) of the next chunk into
    the spare one of two buffer sets: `ready` counts the sets it has filled,
    `free` the sets it may fill.
    """
    chunk = min(config.samples, max(1, _BUFFER_ELEMENTS // (2 * arr.lam.size)))
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)]
    dc_input = _Input(streams[0], chunk, arr.dc, arr.sigma_dc, 1.0)
    ahead = [_Input(streams[1], chunk, arr.lam, arr.sigma_lam, None)]
    nominal = [arr.lam]
    if with_lfm:
        ahead.append(_Input(streams[2], chunk, arr.dc_lat, arr.sigma_dc_lat, 1.0))
        nominal.append(arr.dc_lat)
    dc = np.tile(arr.dc, (chunk, 1))
    sets = [[np.tile(x, (chunk, 1)) for x in nominal] for _ in range(2)]
    work = np.empty_like(dc)
    det = np.empty_like(dc) if with_lfm else None
    spfm = _Moments()
    lfm = _Moments() if with_lfm else None

    starts = range(0, config.samples, chunk)
    ready, free = threading.Semaphore(0), threading.Semaphore(2)
    failure: list[BaseException] = []
    stopping = False

    def draw_ahead() -> None:
        try:
            for k, start in enumerate(starts):
                free.acquire()
                if stopping:
                    return
                m = min(chunk, config.samples - start)
                for inp, dest in zip(ahead, sets[k % 2]):
                    inp.draw(dest, m, config.truncate)
                ready.release()
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)
            ready.release()

    helper = threading.Thread(target=draw_ahead, name="fmeda-uq-mc-draws", daemon=True)
    helper.start()
    try:
        for k, start in enumerate(starts):
            m = min(chunk, config.samples - start)
            dc_input.draw(dc, m, config.truncate)
            ready.acquire()
            if failure:
                raise failure[0]
            lam = sets[k % 2][0]
            w = work[:m]
            np.subtract(1.0, dc[:m], out=w)
            w *= lam[:m]
            residual = w.sum(axis=1)
            spfm.add(1.0 - residual / arr.lambda_tot)
            if with_lfm:
                lat = sets[k % 2][1]
                d = det[:m]
                np.multiply(dc[:m], lam[:m], out=d)
                np.subtract(1.0, lat[:m], out=w)
                w *= d
                latent = w.sum(axis=1)
                detected = d.sum(axis=1) + (arr.lambda_tot - lam[:m].sum(axis=1))
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = 1.0 - latent / detected
                bad = detected <= 0.0
                lfm.add(vals[~bad] if bad.any() else vals)
            free.release()
    finally:
        stopping = True
        free.release()
        helper.join()

    def rate(drawn: list[_Input]) -> float:
        draws = config.samples * sum(inp.cols.size for inp in drawn)
        return sum(inp.clamped for inp in drawn) / draws if draws else 0.0

    spfm.flush()
    if lfm is not None:
        lfm.flush()
    inputs = [dc_input, *ahead]
    return _Samples(spfm, lfm, rate(inputs[:2]), rate(inputs))


def _verdict(
    metric: str,
    analytic: float,
    moments: _Moments,
    rate: float,
    config: McConfig,
    tolerance: float,
) -> McVerdict:
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
    s = _simulate(table_arrays(table), config, with_lfm=sigma_lfm is not None)
    spfm = _verdict("SPFM", sigma_spfm, s.spfm, s.spfm_rate, config, SPFM_TOLERANCE)
    if sigma_lfm is None:
        return spfm, None, lfm_note
    return spfm, _verdict("LFM", sigma_lfm, s.lfm, s.lfm_rate, config, LFM_TOLERANCE), None
