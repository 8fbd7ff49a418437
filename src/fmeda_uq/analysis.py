"""One-call assembly of the full analysis result.

analyze() is the one analytic entry point.  It runs the whole pipeline
on a validated table: nominal SPFM and LFM, the three propagation
variants of sigma_SPFM, sigma_LFM, confidence intervals, the
error-importance ranking with per-failure-mode totals, and the ASIL
verdict when a target applies.  It reads the table's arrays
through model.table_arrays (validated and extracted once per table, by
the parser when the table was parsed) and runs the propagation kernel
once; everything else is read off that one result.

The report is one document, AnalysisResult.to_dict(): the JSON report
is that document, and the markdown and CSV reports are views of it
(ingest.emit_result reads nothing else), so to_dict() is the only place
that names the result's fields.  Each report row, EII entry and EII total
is built once, as the JSON object the document carries (keys "part",
"failure_mode", "lambda_fm_fit", ...), and to_dict() shares it.  A row's
lambda_fm_fit, sigma_lambda_fm_fit and sigma_dc are read off the arrays:
a Distribution row's rate is derived from its FMD fraction, and a
sampled fault-injection campaign's DC gets sigma_dc = e/t unless it
states one.

LFM can be legitimately undefined (a table where every fault is residual
has no detected pool); the result then carries lfm=None with a note
instead of failing, so SPFM reporting still works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eii import NO_UNCERTAINTY_NOTE, _entries
from .ingest import FORMAT_VERSION
from .metrics import AsilVerdict, asil_verdict
from .model import FmedaTable, FmedaValidationError, Violation, cutoff, iter_rows, table_arrays
from .uncertainty import Interval, PropagationMode, _propagate, confidence_interval


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the emitters and the verdict need, in one bundle.

    rows, eii_entries and eii_totals hold the report document's own
    objects, which to_dict() shares rather than copies: read them, do not
    change them.
    """

    lambda_tot: float
    spfm: float
    lfm: float | None
    lfm_note: str | None
    sigma_spfm_full: float
    sigma_spfm_dc_only: float
    sigma_spfm_lambda_only: float
    sigma_lfm: float | None
    mode: PropagationMode
    confidence_level: float
    k: float
    interval_spfm: Interval
    interval_lfm: Interval | None
    eii_entries: tuple[dict, ...]
    eii_totals: tuple[dict, ...]
    eii_note: str | None
    verdict: AsilVerdict | None
    rows: tuple[dict, ...]
    stamp: dict | None = None

    @property
    def sigma_spfm(self) -> float:
        """The sigma selected by the propagation mode (drives the verdict)."""
        return getattr(self, f"sigma_spfm_{self.mode.value}")

    def to_dict(self) -> dict:
        doc = {
            "version": FORMAT_VERSION,
            "lambda_tot_fit": self.lambda_tot,
            "spfm": self.spfm,
            "lfm": self.lfm,
            "lfm_note": self.lfm_note,
            "sigma_spfm": {m.value: getattr(self, f"sigma_spfm_{m.value}")
                           for m in PropagationMode},
            "sigma_lfm": self.sigma_lfm,
            "mode": self.mode.value,
            "confidence_level": self.confidence_level,
            "k": self.k,
            "interval_spfm": _interval_doc(self.interval_spfm),
            "interval_lfm": (None if self.interval_lfm is None
                             else _interval_doc(self.interval_lfm)),
            "eii": list(self.eii_entries),
            "eii_totals": list(self.eii_totals),
            "eii_note": self.eii_note,
            "asil": None if self.verdict is None else {
                "target": self.verdict.target,
                "spfm": self.verdict.spfm,
                "lfm": self.verdict.lfm,
                "overall": self.verdict.overall,
            },
            "rows": list(self.rows),
        }
        if self.stamp is not None:
            doc["stamp"] = self.stamp
        return doc


def _interval_doc(interval: Interval) -> dict:
    return {"lo": interval.lo, "hi": interval.hi, "clamped": interval.clamped}


def _require_finite_sigmas(**sigmas: float | None) -> None:
    """Raise table.sigma_finite for each sigma that overflowed; None (no LFM) is skipped.

    validate() cannot see this: the sigmas exist only after propagation.
    """
    violations = [
        Violation("table", name, "table.sigma_finite", value,
                  "propagated sigma overflows the float range")
        for name, value in sigmas.items()
        if value is not None and not math.isfinite(value)
    ]
    if violations:
        raise FmedaValidationError(violations)


def analyze(
    table: FmedaTable,
    *,
    confidence_level: float = 0.95,
    mode: PropagationMode | str = PropagationMode.FULL,
    asil_target: str | None = None,
    stamp: dict | None = None,
) -> AnalysisResult:
    """Run the full analysis on a valid table.

    mode may be given by its value ("dc_only"); an unknown one raises
    ValueError.  asil_target overrides the table's own target; None
    falls back to it.
    """
    mode = PropagationMode(mode)
    arr = table_arrays(table)
    prop = _propagate(arr)
    sigma_spfm = prop.sigma_spfm_by_mode
    # The FULL sigma bounds the other two.
    _require_finite_sigmas(sigma_spfm=sigma_spfm[PropagationMode.FULL], sigma_lfm=prop.sigma_lfm)
    k = cutoff(confidence_level)
    interval_spfm = confidence_interval(prop.spfm, sigma_spfm[mode], confidence_level)

    interval_lfm: Interval | None = None
    if prop.lfm is not None:
        interval_lfm = confidence_interval(prop.lfm, prop.sigma_lfm, confidence_level)

    entries, percents, attributed = _entries(arr.ids, prop)
    eii_note = None if entries else NO_UNCERTAINTY_NOTE

    target = asil_target if asil_target is not None else table.asil_target
    verdict = None
    if target is not None:
        verdict = asil_verdict(target, spfm=prop.spfm, sigma_spfm=sigma_spfm[mode],
                               lfm=prop.lfm, sigma_lfm=prop.sigma_lfm, k=k)

    rows, totals = [], []
    for (part, sub, row), lam, sigma_lam, sigma_dc, (dc_pct, lam_pct), has_eii in zip(
            iter_rows(table), arr.lam.tolist(), arr.sigma_lam.tolist(), arr.sigma_dc.tolist(),
            percents.tolist(), attributed.tolist()):
        total_pct = dc_pct + lam_pct
        if has_eii:
            totals.append({"failure_mode": row.id, "percent": total_pct})
        rows.append({
            "part": part.name,
            "subpart": sub.name,
            "failure_mode": row.id,
            "name": row.name,
            "lambda_fm_fit": lam,
            "sigma_lambda_fm_fit": sigma_lam,
            "dc": row.dc,
            "sigma_dc": sigma_dc,
            "dc_latent": row.dc_latent,
            "sigma_dc_latent": row.sigma_dc_latent,
            "eii_dc_percent": dc_pct,
            "eii_lambda_percent": lam_pct,
            "eii_total_percent": total_pct,
        })

    return AnalysisResult(
        lambda_tot=arr.lambda_tot,
        spfm=prop.spfm,
        lfm=prop.lfm,
        lfm_note=prop.lfm_note,
        sigma_spfm_full=sigma_spfm[PropagationMode.FULL],
        sigma_spfm_dc_only=sigma_spfm[PropagationMode.DC_ONLY],
        sigma_spfm_lambda_only=sigma_spfm[PropagationMode.LAMBDA_ONLY],
        sigma_lfm=prop.sigma_lfm,
        mode=mode,
        confidence_level=confidence_level,
        k=k,
        interval_spfm=interval_spfm,
        interval_lfm=interval_lfm,
        eii_entries=tuple(entries),
        eii_totals=tuple(totals),
        eii_note=eii_note,
        verdict=verdict,
        rows=tuple(rows),
        stamp=stamp,
    )
