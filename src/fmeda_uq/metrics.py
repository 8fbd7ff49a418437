"""The hardware architectural metrics and their ASIL verdicts.

SPFM (single point fault metric) is the fraction of the total failure
rate that does not remain as dangerous-undetected residual faults:

    SPFM = 1 - sum_i (1 - DC_i) * lambda_i / lambda_tot

LFM (latent fault metric) measures robustness against latent faults over
the pool that the single-point mechanisms already detect or control:

    LFM = 1 - sum_i (1 - DC_lat_i) * DC_i * lambda_i
              -----------------------------------------
              lambda_tot - sum_i (1 - DC_i) * lambda_i

LFM is undefined when no row has DC_i * lambda_i > 0 (no detected pool).
The values themselves come from the propagation kernel
(uncertainty._propagate) and are read off analysis.analyze's result;
this module judges them.

ASIL thresholds are the ISO 26262-5 values (ASIL A carries no
quantitative target).  A verdict is three-state: a metric can clear its
threshold robustly (value - k*sigma still clears), fragilely (the
nominal value clears but the k-sigma lower bound does not), or fail
outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PASS_ROBUST = "PassRobust"
PASS_FRAGILE = "PassFragile"
FAIL = "Fail"

# (spfm_min, lfm_min) per ASIL; A has no quantitative metric targets.
ASIL_THRESHOLDS: dict[str, tuple[float, float] | None] = {
    "A": None,
    "B": (0.90, 0.60),
    "C": (0.97, 0.80),
    "D": (0.99, 0.90),
}


@dataclass(frozen=True)
class AsilVerdict:
    """Per-metric and overall verdicts against one ASIL target."""

    target: str
    spfm: str
    lfm: str | None
    overall: str


def metric_verdict(value: float, sigma: float, k: float, threshold: float) -> str:
    """Three-state check of one metric against one threshold.

    A value or sigma that is not finite fails: it cannot support a pass.
    """
    if not (math.isfinite(value) and math.isfinite(sigma)) or value < threshold:
        return FAIL
    if value - k * sigma >= threshold:
        return PASS_ROBUST
    return PASS_FRAGILE


def asil_verdict(target: str, *, spfm: float, sigma_spfm: float,
                 lfm: float | None, sigma_lfm: float | None, k: float) -> AsilVerdict:
    """Judge metric values and their sigmas against an ASIL target.

    lfm is None when LFM is undefined; sigma_spfm is the sigma of whichever
    propagation mode should drive the verdict, and k the interval cut-off.
    """
    if target not in ASIL_THRESHOLDS:
        raise ValueError(f"unknown ASIL target {target!r}; "
                         f"expected one of {sorted(ASIL_THRESHOLDS)}")
    limits = ASIL_THRESHOLDS[target]
    if limits is None:
        # No quantitative targets at this level; nothing can fail.
        return AsilVerdict(target, PASS_ROBUST, PASS_ROBUST, PASS_ROBUST)
    spfm_min, lfm_min = limits
    v_spfm = metric_verdict(spfm, sigma_spfm, k, spfm_min)
    v_lfm = None
    if lfm is not None:
        v_lfm = metric_verdict(lfm, sigma_lfm, k, lfm_min)
    order = {PASS_ROBUST: 0, PASS_FRAGILE: 1, FAIL: 2}
    worst = max((v for v in (v_spfm, v_lfm) if v is not None), key=order.__getitem__)
    return AsilVerdict(target, v_spfm, v_lfm, worst)
