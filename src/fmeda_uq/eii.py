"""Error Importance Identifier: which input uncertainty dominates sigma_SPFM.

Each uncertain input (a row's DC or its failure rate) contributes one
additive term to the SPFM variance.  Two views of that contribution are
reported side by side:

* raw_eii   = term / (lambda_tot^2 * sigma_SPFM)   - the identifier value
* variance_share = term / (lambda_tot^2 * sigma_SPFM^2)

where term is lambda_i^2*sigma_DC_i^2 for DC entries and
(1-DC_i)^2*sigma_lambda_i^2 for rate entries; the propagation kernel
returns term / lambda_tot^2 directly.  The shares partition the
variance, so they sum to 1 and back the percentage report columns; the
raw values divide by sigma_SPFM only once and do not sum to anything
meaningful, but rank identically (same numerators, positive constant
denominators).  analysis.analyze builds the entries and the
per-failure-mode totals from its one propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .uncertainty import _Propagation

INPUT_DC = "dc"
INPUT_LAMBDA = "lambda_fm"

NO_UNCERTAINTY_NOTE = "no uncertainty to attribute (sigma_SPFM is zero)"


@dataclass(frozen=True)
class EiiEntry:
    """One uncertain input's contribution to the SPFM uncertainty."""

    failure_mode_id: str
    input: str  # INPUT_DC or INPUT_LAMBDA
    row_index: int
    raw_eii: float
    variance_share: float
    percent: float


def _entries(ids: tuple[str, ...], prop: _Propagation) -> list[EiiEntry]:
    """Rank every nonzero-sigma input by its share of the SPFM variance.

    Entries come back sorted by descending variance_share, ties broken by
    table order (DC before rate within a row).  When sigma_SPFM is zero
    there is nothing to attribute and the list is empty; see
    NO_UNCERTAINTY_NOTE for the report wording.
    """
    s_full = prop.sigma_spfm_full
    if s_full == 0.0:
        return []
    total = float(prop.terms_dc.sum() + prop.terms_lam.sum())

    entries: list[EiiEntry] = []
    for i, fm_id in enumerate(ids):
        for input_kind, term in ((INPUT_DC, float(prop.terms_dc[i])),
                                 (INPUT_LAMBDA, float(prop.terms_lam[i]))):
            if term <= 0.0:
                continue
            share = term / total
            entries.append(
                EiiEntry(
                    failure_mode_id=fm_id,
                    input=input_kind,
                    row_index=i,
                    raw_eii=term / s_full,
                    variance_share=share,
                    percent=share * 100.0,
                )
            )
    entries.sort(key=lambda e: -e.variance_share)
    return entries


def total_per_failure_mode(entries: list[EiiEntry]) -> list[tuple[str, float]]:
    """Sum each failure mode's DC and rate percents, in table order."""
    totals: dict[str, tuple[int, float]] = {}
    for e in entries:
        idx, pct = totals.get(e.failure_mode_id, (e.row_index, 0.0))
        totals[e.failure_mode_id] = (idx, pct + e.percent)
    ordered = sorted(totals.items(), key=lambda kv: kv[1][0])
    return [(fm_id, pct) for fm_id, (_, pct) in ordered]
