"""First-order propagation of input uncertainties into the safety metrics.

Every row's DC and failure rate carry a standard deviation.  Treating the
inputs as uncorrelated and the metric as locally linear, the variance of
SPFM follows from the squared partial derivatives:

    sigma_SPFM = (1/lambda_tot) * sqrt(  sum_i lambda_i^2  * sigma_DC_i^2
                                       + sum_i (1 - DC_i)^2 * sigma_lambda_i^2 )

The two sums can be kept separately: DC_ONLY drops the rate-uncertainty
sum, LAMBDA_ONLY drops the DC-uncertainty sum, and FULL keeps both, so
that sigma_full^2 = sigma_dc_only^2 + sigma_lambda_only^2 holds exactly.

lambda_tot is held fixed at its nominal value throughout: the propagation
model treats the total rate as a constant of the analysis, and rate
fluctuations of individual modes enter only through the numerator terms.
The Monte Carlo oracle in mc_oracle uses the same convention, so the two
routes are comparable.

sigma_LFM has no compact closed form; it is assembled from the analytic
partial derivatives of the LFM ratio (again with lambda_tot fixed), which
the kernel's result keeps for finite-difference cross-checking.

One kernel, _propagate, computes every metric, sigma, variance term and
partial from a TableArrays.  It works on the normalized weights
w_i = lambda_i/lambda_tot and sigma_lambda_i/lambda_tot, so its results do
not depend on the scale of the rates, from subnormal to near-overflow
FIT values.  Its callers, analysis.analyze and mc_oracle.verify, each
extract the arrays once and run it once.

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


def _by_mode(mode: PropagationMode, full: float, dc_only: float,
             lambda_only: float) -> float:
    """The sigma_SPFM variant a propagation mode selects."""
    return {
        PropagationMode.FULL: full,
        PropagationMode.DC_ONLY: dc_only,
        PropagationMode.LAMBDA_ONLY: lambda_only,
    }[mode]


@dataclass(frozen=True)
class Interval:
    """A [lo, hi] confidence interval, clamped to the metric's [0, 1] range."""

    lo: float
    hi: float
    clamped: bool = False


@dataclass(frozen=True)
class _Propagation:
    """Everything the kernel derives from one TableArrays.

    Variance terms and sigmas are dimensionless.  Rate partials are per
    unit of normalized weight w_i; divide by lambda_tot for per-FIT values.
    The LFM fields are None when no row has DC_i * w_i > 0.
    """

    spfm: float
    lfm: float | None
    lfm_note: str | None   # why LFM is undefined
    terms_dc: np.ndarray   # (w_i * sigma_DC_i)^2
    terms_lam: np.ndarray  # ((1 - DC_i) * sigma_lambda_i / lambda_tot)^2
    sigma_spfm_full: float
    sigma_spfm_dc_only: float
    sigma_spfm_lambda_only: float
    sigma_lfm: float | None
    spfm_partials: tuple[np.ndarray, np.ndarray]  # d/dDC, d/dw
    lfm_partials: tuple[np.ndarray, np.ndarray, np.ndarray] | None  # d/dDC, d/dDC_lat, d/dw


# Overflow shows up as a non-finite sigma, not as a warning; the callers that
# report a sigma reject it (model._require_finite_sigmas).
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _propagate(arr: TableArrays) -> _Propagation:
    """SPFM, LFM, their first-order sigmas and partials, lambda_tot fixed."""
    lambda_tot = arr.lambda_tot
    if not (math.isfinite(lambda_tot) and lambda_tot > 0.0):
        raise UndefinedMetricError("lambda_tot must be finite and > 0 to compute SPFM")
    w = arr.lam / lambda_tot
    sigma_w = arr.sigma_lam / lambda_tot
    undetected = 1.0 - arr.dc

    spfm_value = 1.0 - float(np.dot(undetected, w))
    terms_dc = (w * arr.sigma_dc) ** 2
    terms_lam = (undetected * sigma_w) ** 2
    var_dc = float(terms_dc.sum())
    var_lam = float(terms_lam.sum())

    lfm_value = s_lfm = lfm_grads = None
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
        d_dc = w * (numerator / detected) / detected
        d_dc_lat = detected_w / detected
        d_w = -((1.0 - arr.dc_lat) * arr.dc + (latent / detected) * undetected) / detected
        lfm_grads = (d_dc, d_dc_lat, d_w)
        lfm_note = None
        s_lfm = math.sqrt(float(sum(
            np.dot(t, t) for t in (d_dc * arr.sigma_dc, d_dc_lat * arr.sigma_dc_lat,
                                   d_w * sigma_w)
        )))

    return _Propagation(
        spfm=spfm_value,
        lfm=lfm_value,
        lfm_note=lfm_note,
        terms_dc=terms_dc,
        terms_lam=terms_lam,
        sigma_spfm_full=math.sqrt(var_dc + var_lam),
        sigma_spfm_dc_only=math.sqrt(var_dc),
        sigma_spfm_lambda_only=math.sqrt(var_lam),
        sigma_lfm=s_lfm,
        spfm_partials=(w, -undetected),
        lfm_partials=lfm_grads,
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
