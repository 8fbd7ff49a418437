"""One-call assembly of the full analysis result.

analyze() is the one analytic entry point.  It runs the whole pipeline
on a validated table: nominal SPFM and LFM, the three propagation
variants of sigma_SPFM, sigma_LFM, confidence intervals, the
error-importance ranking with per-failure-mode totals, and the ASIL
verdict when a target applies.  It reads the table's arrays
through model.table_arrays (validated and extracted once per table, by
the parser when the table was parsed) and runs the propagation kernel
once; everything else is read off that one result.  A report row's
lambda_fm, sigma_lambda_fm and sigma_dc are read off those arrays: a
Distribution row's rate is derived from its FMD fraction, and a sampled
fault-injection campaign's DC gets sigma_dc = e/t unless it states one.

LFM can be legitimately undefined (a table where every fault is residual
has no detected pool); the result then carries lfm=None with a note
instead of failing, so SPFM reporting still works.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eii import EiiEntry, NO_UNCERTAINTY_NOTE, _entries
from .metrics import AsilVerdict, asil_verdict
from .model import FmedaTable, _require_finite_sigmas, cutoff, iter_rows, table_arrays
from .uncertainty import (
    Interval,
    PropagationMode,
    _by_mode,
    _propagate,
    confidence_interval,
)


@dataclass(frozen=True)
class ReportRow:
    """Per-failure-mode line of the report, inputs plus EII percentages."""

    part: str
    subpart: str
    failure_mode_id: str
    name: str
    lambda_fm: float
    sigma_lambda_fm: float
    dc: float
    sigma_dc: float
    dc_latent: float
    sigma_dc_latent: float
    eii_dc_percent: float
    eii_lambda_percent: float
    eii_total_percent: float


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the emitters and the verdict need, in one immutable bundle."""

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
    eii_entries: tuple[EiiEntry, ...]
    eii_totals: tuple[tuple[str, float], ...]
    eii_note: str | None
    asil_target: str | None
    verdict: AsilVerdict | None
    rows: tuple[ReportRow, ...]
    stamp: dict | None = None

    @property
    def sigma_spfm(self) -> float:
        """The sigma selected by the propagation mode (drives the verdict)."""
        return _by_mode(self.mode, self.sigma_spfm_full, self.sigma_spfm_dc_only,
                        self.sigma_spfm_lambda_only)

    def to_dict(self) -> dict:
        doc = {
            "version": "fmeda-uq/1",
            "lambda_tot_fit": self.lambda_tot,
            "spfm": self.spfm,
            "lfm": self.lfm,
            "lfm_note": self.lfm_note,
            "sigma_spfm": {
                "full": self.sigma_spfm_full,
                "dc_only": self.sigma_spfm_dc_only,
                "lambda_only": self.sigma_spfm_lambda_only,
            },
            "sigma_lfm": self.sigma_lfm,
            "mode": self.mode.value,
            "confidence_level": self.confidence_level,
            "k": self.k,
            "interval_spfm": {
                "lo": self.interval_spfm.lo,
                "hi": self.interval_spfm.hi,
                "clamped": self.interval_spfm.clamped,
            },
            "interval_lfm": None if self.interval_lfm is None else {
                "lo": self.interval_lfm.lo,
                "hi": self.interval_lfm.hi,
                "clamped": self.interval_lfm.clamped,
            },
            "eii": [
                {
                    "failure_mode": e.failure_mode_id,
                    "input": e.input,
                    "raw_eii": e.raw_eii,
                    "variance_share": e.variance_share,
                    "percent": e.percent,
                }
                for e in self.eii_entries
            ],
            "eii_totals": [
                {"failure_mode": fm_id, "percent": pct}
                for fm_id, pct in self.eii_totals
            ],
            "eii_note": self.eii_note,
            "asil": None if self.verdict is None else {
                "target": self.verdict.target,
                "spfm": self.verdict.spfm,
                "lfm": self.verdict.lfm,
                "overall": self.verdict.overall,
            },
            "rows": [
                {
                    "part": r.part,
                    "subpart": r.subpart,
                    "failure_mode": r.failure_mode_id,
                    "name": r.name,
                    "lambda_fm_fit": r.lambda_fm,
                    "sigma_lambda_fm_fit": r.sigma_lambda_fm,
                    "dc": r.dc,
                    "sigma_dc": r.sigma_dc,
                    "dc_latent": r.dc_latent,
                    "sigma_dc_latent": r.sigma_dc_latent,
                    "eii_dc_percent": r.eii_dc_percent,
                    "eii_lambda_percent": r.eii_lambda_percent,
                    "eii_total_percent": r.eii_total_percent,
                }
                for r in self.rows
            ],
        }
        if self.stamp is not None:
            doc["stamp"] = self.stamp
        return doc


def analyze(
    table: FmedaTable,
    *,
    confidence_level: float = 0.95,
    mode: PropagationMode = PropagationMode.FULL,
    asil_target: str | None = None,
    stamp: dict | None = None,
) -> AnalysisResult:
    """Run the full analysis on a valid table.

    asil_target overrides the table's own target; None falls back to it.
    """
    arr = table_arrays(table)
    prop = _propagate(arr)
    # sigma_spfm_full bounds the other two variants.
    _require_finite_sigmas(sigma_spfm=prop.sigma_spfm_full, sigma_lfm=prop.sigma_lfm)
    k = cutoff(confidence_level)
    selected = _by_mode(mode, prop.sigma_spfm_full, prop.sigma_spfm_dc_only,
                        prop.sigma_spfm_lambda_only)
    interval_spfm = confidence_interval(prop.spfm, selected, confidence_level)

    interval_lfm: Interval | None = None
    if prop.lfm is not None:
        interval_lfm = confidence_interval(prop.lfm, prop.sigma_lfm, confidence_level)

    entries, percents, attributed = _entries(arr.ids, prop)
    eii_note = None if entries else NO_UNCERTAINTY_NOTE

    target = asil_target if asil_target is not None else table.asil_target
    verdict = None
    if target is not None:
        verdict = asil_verdict(target, spfm=prop.spfm, sigma_spfm=selected,
                               lfm=prop.lfm, sigma_lfm=prop.sigma_lfm, k=k)

    rows, totals = [], []
    for (part, sub, row), lam, sigma_lam, sigma_dc, (dc_pct, lam_pct), has_eii in zip(
            iter_rows(table), arr.lam.tolist(), arr.sigma_lam.tolist(), arr.sigma_dc.tolist(),
            percents.tolist(), attributed.tolist()):
        total_pct = dc_pct + lam_pct
        if has_eii:
            totals.append((row.id, total_pct))
        rows.append(ReportRow(
            part=part.name,
            subpart=sub.name,
            failure_mode_id=row.id,
            name=row.name,
            lambda_fm=lam,
            sigma_lambda_fm=sigma_lam,
            dc=row.dc,
            sigma_dc=sigma_dc,
            dc_latent=row.dc_latent,
            sigma_dc_latent=row.sigma_dc_latent,
            eii_dc_percent=dc_pct,
            eii_lambda_percent=lam_pct,
            eii_total_percent=total_pct,
        ))

    return AnalysisResult(
        lambda_tot=arr.lambda_tot,
        spfm=prop.spfm,
        lfm=prop.lfm,
        lfm_note=prop.lfm_note,
        sigma_spfm_full=prop.sigma_spfm_full,
        sigma_spfm_dc_only=prop.sigma_spfm_dc_only,
        sigma_spfm_lambda_only=prop.sigma_spfm_lambda_only,
        sigma_lfm=prop.sigma_lfm,
        mode=mode,
        confidence_level=confidence_level,
        k=k,
        interval_spfm=interval_spfm,
        interval_lfm=interval_lfm,
        eii_entries=tuple(entries),
        eii_totals=tuple(totals),
        eii_note=eii_note,
        asil_target=target,
        verdict=verdict,
        rows=tuple(rows),
        stamp=stamp,
    )
