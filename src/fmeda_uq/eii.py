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
denominators).  analysis.analyze takes the entries and each row's
percents from one _entries call on its one propagation, and reads the
report rows and the per-failure-mode totals off those percents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _entries(ids: tuple[str, ...], prop: _Propagation
             ) -> tuple[list[EiiEntry], np.ndarray, np.ndarray]:
    """Rank every nonzero-sigma input by its share of the SPFM variance.

    Returns the entries, sorted by descending variance_share with ties
    broken by table order (DC before rate within a row); each row's
    (DC, rate) percents as an (n, 2) array; and which rows have a
    positive term, so a row whose share underflows to 0.0 still counts.
    When sigma_SPFM is zero there is nothing to attribute: no entries,
    zero percents, no row; see NO_UNCERTAINTY_NOTE for the report wording.
    """
    terms = np.column_stack((prop.terms_dc, prop.terms_lam))
    s_full = prop.sigma_spfm_full
    if s_full == 0.0:
        return [], np.zeros_like(terms), np.zeros(len(ids), dtype=bool)
    share = terms / float(prop.terms_dc.sum() + prop.terms_lam.sum())
    flat_terms, flat_share = terms.ravel(), share.ravel()
    positive = np.flatnonzero(flat_terms > 0.0)
    order = positive[np.argsort(-flat_share[positive], kind="stable")]
    inputs = (INPUT_DC, INPUT_LAMBDA)
    entries = [
        EiiEntry(failure_mode_id=ids[k // 2], input=inputs[k % 2], row_index=k // 2,
                 raw_eii=term / s_full, variance_share=s, percent=s * 100.0)
        for k, term, s in zip(order.tolist(), flat_terms[order].tolist(),
                              flat_share[order].tolist())
    ]
    return entries, share * 100.0, (terms > 0.0).any(axis=1)
