"""Monte Carlo verifier for the analytic error propagation.

Independently of the closed-form sigmas, the metric's spread can be
estimated by brute force: draw each uncertain input from a normal
distribution centered on its nominal value, recompute the metric per
sample, and take the sample standard deviation.  A verdict compares that
empirical sigma against the analytic one at a relative tolerance (3% for
SPFM; 5% for LFM, whose ratio form makes first-order propagation carry
genuine truncation error).

Conventions shared with the analytic model so the two routes agree: both
read the same model.table_arrays extraction (fault-simulation rows carry
sigma_DC = e/t), lambda_tot stays fixed at its nominal value while
individual rates are perturbed, and inputs are mutually independent.
With truncation enabled (the default), DC draws clamp to [0, 1] and rate
draws to [0, inf); the clamp rate is reported, and above 0.1% the verdict
carries a warning because boundary effects then bias the comparison.
Disable truncation for mathematical-fidelity checks.

Sampling uses numpy's PCG64 generator, seeded from the config, with a
fixed chunking scheme, so a given (table, config) reproduces bit-identical
verdicts across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FmedaTable, TableArrays, table_arrays
from .uncertainty import _propagate

RNG_ALGORITHM = "numpy-pcg64"
MIN_VERDICT_SAMPLES = 1000
TRUNCATION_WARN_RATE = 1e-3
_CHUNK = 65536  # fixed so chunking never affects the drawn stream

DEFAULT_SPFM_TOLERANCE = 0.03
DEFAULT_LFM_TOLERANCE = 0.05


@dataclass(frozen=True)
class McConfig:
    """Sampling configuration; identical configs give identical verdicts."""

    samples: int = 100_000
    seed: int = 42
    truncate: bool = True

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class McVerdict:
    """Empirical vs analytic sigma with the pass/fail comparison."""

    metric: str
    empirical_sigma: float
    analytic_sigma: float
    relative_gap: float
    tolerance: float
    passed: bool
    truncation_rate: float
    samples: int
    seed: int
    truncate: bool
    rng_algorithm: str = RNG_ALGORITHM
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "empirical_sigma": self.empirical_sigma,
            "analytic_sigma": self.analytic_sigma,
            "relative_gap": self.relative_gap,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "truncation_rate": self.truncation_rate,
            "samples": self.samples,
            "seed": self.seed,
            "truncate": self.truncate,
            "rng_algorithm": self.rng_algorithm,
            "warning": self.warning,
        }


def _simulate(arr: TableArrays, config: McConfig, metric: str) -> tuple[np.ndarray, float, int]:
    """Per-sample metric values, truncation rate, and dropped-sample count."""
    n_rows = arr.lam.size
    rng = np.random.default_rng(config.seed)

    random_draws_per_sample = int(np.count_nonzero(arr.sigma_dc > 0))
    random_draws_per_sample += int(np.count_nonzero(arr.sigma_lam > 0))
    if metric == "LFM":
        random_draws_per_sample += int(np.count_nonzero(arr.sigma_dc_lat > 0))

    values = np.empty(config.samples, dtype=np.float64)
    clamped = 0
    dropped = 0
    pos = 0
    while pos < config.samples:
        m = min(_CHUNK, config.samples - pos)
        dc = arr.dc + rng.standard_normal((m, n_rows)) * arr.sigma_dc
        lam = arr.lam + rng.standard_normal((m, n_rows)) * arr.sigma_lam
        if metric == "LFM":
            lat = arr.dc_lat + rng.standard_normal((m, n_rows)) * arr.sigma_dc_lat
        if config.truncate:
            out_dc = ((dc < 0.0) | (dc > 1.0)) & (arr.sigma_dc > 0)
            out_lam = (lam < 0.0) & (arr.sigma_lam > 0)
            clamped += int(out_dc.sum()) + int(out_lam.sum())
            np.clip(dc, 0.0, 1.0, out=dc)
            np.clip(lam, 0.0, None, out=lam)
            if metric == "LFM":
                out_lat = ((lat < 0.0) | (lat > 1.0)) & (arr.sigma_dc_lat > 0)
                clamped += int(out_lat.sum())
                np.clip(lat, 0.0, 1.0, out=lat)

        residual = ((1.0 - dc) * lam).sum(axis=1)
        if metric == "SPFM":
            vals = 1.0 - residual / arr.lambda_tot
        else:
            detected = arr.lambda_tot - residual
            latent = ((1.0 - lat) * dc * lam).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = 1.0 - latent / detected
            bad = detected <= 0.0
            if bad.any():
                dropped += int(bad.sum())
                vals = np.where(bad, np.nan, vals)
        values[pos:pos + m] = vals
        pos += m

    if random_draws_per_sample > 0 and config.truncate:
        rate = clamped / (config.samples * random_draws_per_sample)
    else:
        rate = 0.0
    return values, rate, dropped


def _verdict(
    metric: str,
    analytic: float,
    values: np.ndarray,
    rate: float,
    dropped: int,
    config: McConfig,
    tolerance: float,
) -> McVerdict:
    if config.samples < MIN_VERDICT_SAMPLES:
        raise ValueError(
            f"at least {MIN_VERDICT_SAMPLES} samples are required for a verdict, "
            f"got {config.samples}"
        )
    kept = values[~np.isnan(values)]
    if kept.size > 1 and float(kept.min()) != float(kept.max()):
        empirical = float(np.std(kept, ddof=1))
    else:
        # A constant stream has zero spread; np.std would report mean-rounding
        # noise at the ulp level instead of an exact 0.
        empirical = 0.0

    if analytic == 0.0:
        gap = 0.0 if empirical == 0.0 else math.inf
    else:
        gap = abs(empirical - analytic) / analytic

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


def mc_sigma_spfm(
    table: FmedaTable,
    config: McConfig = McConfig(),
    tolerance: float = DEFAULT_SPFM_TOLERANCE,
) -> McVerdict:
    """Compare the empirical SPFM spread against the analytic sigma."""
    arr = table_arrays(table)
    analytic = _propagate(arr).sigma_spfm_full
    values, rate, dropped = _simulate(arr, config, "SPFM")
    return _verdict("SPFM", analytic, values, rate, dropped, config, tolerance)


def mc_sigma_lfm(
    table: FmedaTable,
    config: McConfig = McConfig(),
    tolerance: float = DEFAULT_LFM_TOLERANCE,
) -> McVerdict:
    """Compare the empirical LFM spread against the analytic sigma.

    Raises UndefinedMetricError when the table has no detected pool at
    its nominal values.
    """
    arr = table_arrays(table)
    prop = _propagate(arr)
    prop.require_lfm()
    values, rate, dropped = _simulate(arr, config, "LFM")
    return _verdict("LFM", prop.sigma_lfm, values, rate, dropped, config, tolerance)
