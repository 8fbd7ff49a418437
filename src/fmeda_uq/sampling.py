"""Statistical sizing of fault-injection campaigns.

For a fault list of N faults, injecting a uniform random sample of n of
them estimates a proportion (e.g. the detected fraction) to within a
margin of error e at a chosen confidence level:

    n = ceil( N / (1 + e^2 * (N - 1) / (t^2 * p * (1 - p))) )

t is the standard-normal two-sided cut-off for the confidence level and
p the a-priori proportion estimate.  p = 0.5 maximizes n and is the
conservative default, sufficient whatever the true proportion turns out
to be.  Rounding is always up (never undersample) and n is capped at N.

The campaign's margin also yields a standard deviation usable by the
propagation module: the margin is read as a t-sigma half-width of the
estimator, so sigma_DC = e / t.  This is the bridge between statistical
fault simulation and the uncertainty analysis, and the single most
consequential interpretation in this package: a campaign quoted as
"e = 1% at 95%" contributes sigma_DC = 0.01/1.96 = 0.0051 per row.
margin_to_sigma lives in the model, because model.table_arrays applies it
to every fault-simulation row without an explicit sigma_dc, so analyze,
the public metric functions and the Monte Carlo oracle all see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import cutoff
from .model import margin_to_sigma  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class SampleSizePlan:
    """A sized campaign: inputs, the cut-off used, and the resulting n."""

    population: int
    proportion: float
    margin: float
    confidence_level: float
    cutoff: float
    sample_size: int


def sample_size(
    population: int,
    margin: float,
    confidence_level: float,
    proportion: float = 0.5,
) -> SampleSizePlan:
    """Number of faults to inject for the requested margin and confidence."""
    if not isinstance(population, int) or isinstance(population, bool):
        raise ValueError(f"population must be an integer, got {population!r}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must lie in (0, 1), got {margin!r}")
    if not 0.0 < proportion < 1.0:
        raise ValueError(f"proportion must lie in (0, 1), got {proportion!r}")
    t = cutoff(confidence_level)

    n_real = population / (
        1.0 + margin**2 * (population - 1) / (t**2 * proportion * (1.0 - proportion))
    )
    n = min(math.ceil(n_real), population)
    return SampleSizePlan(
        population=population,
        proportion=proportion,
        margin=margin,
        confidence_level=confidence_level,
        cutoff=t,
        sample_size=max(n, 1),
    )
