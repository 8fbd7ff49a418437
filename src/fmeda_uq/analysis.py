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
that names the result's fields.  Its three tables (the report rows, the
EII entries and the EII totals) are built as columns, an ingest.Columns
each, straight from the kernel's arrays and one pass over the rows; the
emitters write them from those columns.  Each table's JSON objects (keys
"part", "failure_mode", "lambda_fm_fit", ...) are built on first access
of AnalysisResult.rows, .eii_entries or .eii_totals, once, and to_dict()
shares them.  A row's numbers are read off the arrays, a column at a
time: lambda_fm_fit, sigma_lambda_fm_fit and sigma_dc because the walk
derives them (a Distribution row's rate is derived from its FMD fraction,
and a sampled fault-injection campaign's DC gets sigma_dc = e/t unless it
states one), and dc, dc_latent and sigma_dc_latent because the arrays
hold the rows' own values, as floats, so no row is visited for them.  Only the part,
subpart and row names are read off the table, once per subpart for the
first two.

LFM can be legitimately undefined (a table where every fault is residual
has no detected pool); the result then carries lfm=None with a note
instead of failing, so SPFM reporting still works.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .eii import NO_UNCERTAINTY_NOTE, _entries
from .ingest import FORMAT_VERSION, Columns
from .metrics import AsilVerdict, asil_verdict
from .model import FmedaTable, FmedaValidationError, Violation, cutoff, table_arrays
from .uncertainty import Interval, PropagationMode, _propagate, confidence_interval


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the emitters and the verdict need, in one bundle.

    The report's three tables are held as columns (row_columns,
    eii_columns, eii_total_columns).  rows, eii_entries and eii_totals
    are their JSON objects, built on first access; to_dict() shares them
    rather than copies them: read them, do not change them.
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
    eii_columns: Columns
    eii_total_columns: Columns
    eii_note: str | None
    verdict: AsilVerdict | None
    row_columns: Columns
    stamp: dict | None = None

    # Not fields: each tuple of dicts is built on first access and kept.
    rows = functools.cached_property(lambda self: self.row_columns.objects())
    eii_entries = functools.cached_property(lambda self: self.eii_columns.objects())
    eii_totals = functools.cached_property(lambda self: self.eii_total_columns.objects())

    @property
    def sigma_spfm(self) -> float:
        """The sigma selected by the propagation mode (drives the verdict)."""
        return getattr(self, f"sigma_spfm_{self.mode.value}")

    def to_dict(self, *, columns: bool = False) -> dict:
        """The report document.  Its rows, eii and eii_totals are lists of
        this result's own objects or, with columns=True, the Columns they
        are built from, which ingest writes without building them."""
        if columns:
            rows, eii, totals = self.row_columns, self.eii_columns, self.eii_total_columns
        else:
            rows, eii, totals = list(self.rows), list(self.eii_entries), list(self.eii_totals)
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
            "eii": eii,
            "eii_totals": totals,
            "eii_note": self.eii_note,
            "asil": None if self.verdict is None else {
                "target": self.verdict.target,
                "spfm": self.verdict.spfm,
                "lfm": self.verdict.lfm,
                "overall": self.verdict.overall,
            },
            "rows": rows,
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
    eii_note = None if entries["failure_mode"] else NO_UNCERTAINTY_NOTE

    target = asil_target if asil_target is not None else table.asil_target
    verdict = None
    if target is not None:
        verdict = asil_verdict(target, spfm=prop.spfm, sigma_spfm=sigma_spfm[mode],
                               lfm=prop.lfm, sigma_lfm=prop.sigma_lfm, k=k)

    parts, subparts, names = [], [], []
    for part in table.parts:
        for sub in part.subparts:
            fms = sub.failure_modes
            parts += [part.name] * len(fms)
            subparts += [sub.name] * len(fms)
            names += [row.name for row in fms]
    total = percents[:, 0] + percents[:, 1]
    rows = {
        "part": parts,
        "subpart": subparts,
        "failure_mode": arr.ids,
        "name": names,
        "lambda_fm_fit": arr.lam.tolist(),
        "sigma_lambda_fm_fit": arr.sigma_lam.tolist(),
        "dc": arr.dc.tolist(),
        "sigma_dc": arr.sigma_dc.tolist(),
        "dc_latent": arr.dc_lat.tolist(),
        "sigma_dc_latent": arr.sigma_dc_lat.tolist(),
        "eii_dc_percent": percents[:, 0].tolist(),
        "eii_lambda_percent": percents[:, 1].tolist(),
        "eii_total_percent": total.tolist(),
    }
    totals = {"failure_mode": list(itertools.compress(arr.ids, attributed.tolist())),
              "percent": total[attributed].tolist()}

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
        eii_columns=Columns(entries),
        eii_total_columns=Columns(totals),
        eii_note=eii_note,
        verdict=verdict,
        row_columns=Columns(rows),
        stamp=stamp,
    )
