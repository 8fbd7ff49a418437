"""First-order propagation of input uncertainties into the safety metrics.

Every row's DC and failure rate carry a standard deviation.  Treating the
inputs as uncorrelated and the metric as locally linear, the variance of
SPFM follows from the squared partial derivatives:

    sigma_SPFM = (1/lambda_tot) * sqrt(  sum_i lambda_i^2  * sigma_DC_i^2
                                       + sum_i (1 - DC_i)^2 * sigma_lambda_i^2 )

lambda_tot is held fixed at its nominal value throughout: the propagation
model treats the total rate as a constant of the analysis, and rate
fluctuations of individual modes enter only through the numerator terms.
The Monte Carlo oracle in mc_oracle uses the same convention, so the two
routes are comparable.  sigma_LFM has no compact closed form; it is
assembled from the analytic partial derivatives of the LFM ratio.

One kernel, _propagate, computes every metric, sigma, variance term and
partial from a TableArrays.  It works on the normalized weights
w_i = lambda_i/lambda_tot and sigma_lambda_i/lambda_tot, so its results do
not depend on the scale of the rates, from subnormal to near-overflow
FIT values.  Its callers, analysis.analyze and mc_oracle.verify, each
extract the arrays once and run it once.

The kernel keeps one input Jacobian.  Each per-input array is (3, n): one
column per row of the table, and one row per kind of input, in the order
DC, latent DC, w.  The input sigmas, each metric's partials and the SPFM
variance terms (partial * sigma)^2 share that layout; SPFM does not
depend on the latent DCs, so its latent row is 0.  A propagation mode is
the set of SPFM term rows it sums (_MODE_ROWS): FULL the DC and w rows,
DC_ONLY the DC row, LAMBDA_ONLY the w row.  So
sigma_full^2 = sigma_dc_only^2 + sigma_lambda_only^2 holds exactly.

Cross-covariances between inputs are deliberately not modeled; the data
model carries no covariance inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import TableArrays, cutoff

class UndefinedMetricError(ValueError):
    """The metric's denominator is zero, so the ratio is undefined."""


class PropagationMode(str, enum.Enum):
    """Which uncertainty sources enter the SPFM variance."""

    FULL = "full"
    DC_ONLY = "dc_only"
    LAMBDA_ONLY = "lambda_only"


# The SPFM term rows each mode sums: row 0 DC, row 2 w.
_MODE_ROWS = {
    PropagationMode.FULL: slice(0, 3, 2),
    PropagationMode.DC_ONLY: slice(0, 1),
    PropagationMode.LAMBDA_ONLY: slice(2, 3),
}


@dataclass(frozen=True)
class Interval:
    """A [lo, hi] confidence interval, clamped to the metric's [0, 1] range."""

    lo: float
    hi: float
    clamped: bool = False


@dataclass(frozen=True)
class _Propagation:
    """Everything the kernel derives from one TableArrays.

    The arrays are (3, n), rows DC, latent DC and w; input_sigmas holds
    sigma_DC_i, sigma_DC_lat_i and sigma_lambda_i/lambda_tot.  Everything
    is dimensionless: divide a w partial by lambda_tot for a per-FIT one.
    spfm_terms is (spfm_partials * input_sigmas)^2; its latent row is 0,
    like the partials'.  The LFM fields are None when no row has
    DC_i * w_i > 0.
    """

    spfm: float
    lfm: float | None
    lfm_note: str | None   # why LFM is undefined
    input_sigmas: np.ndarray
    spfm_partials: np.ndarray
    spfm_terms: np.ndarray
    sigma_spfm_by_mode: dict[PropagationMode, float]
    lfm_partials: np.ndarray | None
    sigma_lfm: float | None


# Overflow shows up as a non-finite sigma, not as a warning; the callers that
# report a sigma reject it (model._require_finite_sigmas).
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _propagate(arr: TableArrays) -> _Propagation:
    """SPFM, LFM, their first-order sigmas and partials, lambda_tot fixed."""
    lambda_tot = arr.lambda_tot
    if not (math.isfinite(lambda_tot) and lambda_tot > 0.0):
        raise UndefinedMetricError("lambda_tot must be finite and > 0 to compute SPFM")
    w = arr.lam / lambda_tot
    sigmas = np.array((arr.sigma_dc, arr.sigma_dc_lat, arr.sigma_lam / lambda_tot))
    undetected = 1.0 - arr.dc

    # SPFM = 1 - sum((1 - DC_i) * w_i): dSPFM/dDC_i = w_i, dSPFM/dw_i = -(1 - DC_i).
    spfm_value = 1.0 - float(np.dot(undetected, w))
    spfm_partials = np.array((w, np.zeros(w.size), -undetected))
    terms = (spfm_partials * sigmas) ** 2
    variances = terms.sum(axis=1).tolist()

    lfm_value = s_lfm = lfm_partials = None
    lfm_note = ("LFM is undefined: every fault is residual "
                "(no detected pool: no row has DC*lambda > 0)")
    detected_w = arr.dc * w
    # With lambda_tot fixed the detected pool is 1 - sum((1-DC)*w); written
    # as sum(DC*w) plus the gap between lambda_tot and the row sum, which is
    # exactly 0 for the arrays of a table, so it is > 0 iff some DC_i*w_i is.
    gap = 1.0 - float(arr.lam.sum()) / lambda_tot
    detected = float(detected_w.sum()) + gap
    if (detected_w > 0.0).any() and detected > 0.0:
        latent = float(np.dot(1.0 - arr.dc_lat, detected_w))
        lfm_value = 1.0 - latent / detected
        # LFM = 1 - latent/detected; quotient rule, lambda_tot constant.
        # The dLFM/dDC numerator latent - (1-c_i)*detected (c = DC_lat) is
        # rewritten relative to c0, the first row's latent DC: the same
        # algebra, gap term included, but every term is exactly 0 when all
        # latent DCs are equal, where LFM does not depend on DC and the
        # direct form leaves rounding noise.
        # Dividing by detected twice, not by detected**2, and squaring the
        # products partial*sigma, keeps a tiny detected pool from
        # underflowing to 0/0 or overflowing to inf*0.
        c = arr.dc_lat - arr.dc_lat[0]
        numerator = (c * detected - float(np.dot(c, detected_w))
                     - (1.0 - float(arr.dc_lat[0])) * gap)
        lfm_partials = np.array((
            w * (numerator / detected),
            detected_w,
            -((1.0 - arr.dc_lat) * arr.dc + (latent / detected) * undetected),
        )) / detected
        lfm_note = None
        s_lfm = math.sqrt(float(sum(np.dot(t, t) for t in lfm_partials * sigmas)))

    return _Propagation(
        spfm=spfm_value,
        lfm=lfm_value,
        lfm_note=lfm_note,
        input_sigmas=sigmas,
        spfm_partials=spfm_partials,
        spfm_terms=terms,
        sigma_spfm_by_mode={mode: math.sqrt(sum(variances[rows]))
                            for mode, rows in _MODE_ROWS.items()},
        lfm_partials=lfm_partials,
        sigma_lfm=s_lfm,
    )


def confidence_interval(value: float, sigma: float, confidence_level: float) -> Interval:
    """value +/- k*sigma, clamped to [0, 1] with the clamp recorded."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    k = cutoff(confidence_level)
    lo = value - k * sigma
    hi = value + k * sigma
    clamped = lo < 0.0 or hi > 1.0
    return Interval(max(lo, 0.0), min(hi, 1.0), clamped)
