"""Error Importance Identifier: which input uncertainty dominates sigma_SPFM.

Each uncertain input (a row's DC or its failure rate) contributes one
additive term to the SPFM variance.  Two views of that contribution are
reported side by side:

* raw_eii   = term / (lambda_tot^2 * sigma_SPFM)   - the identifier value
* variance_share = term / (lambda_tot^2 * sigma_SPFM^2)

where term is lambda_i^2*sigma_DC_i^2 for DC entries and
(1-DC_i)^2*sigma_lambda_i^2 for rate entries: term / lambda_tot^2 is an
entry of the DC or w row of the kernel's SPFM term array, the two rows
the FULL mode sums.  The shares partition the variance, so they sum to 1
and back the percentage report columns; the raw values divide by
sigma_SPFM only once and do not sum to anything meaningful, but rank
identically (same numerators, positive constant denominators).
analysis.analyze takes the entries, as columns, and each row's percents
from one _entries call on its one propagation, and reads the report rows
and the per-failure-mode totals ({"failure_mode", "percent"}) off those
percents.
"""

from __future__ import annotations

import numpy as np

from .uncertainty import _MODE_ROWS, PropagationMode, _Propagation

INPUT_DC = "dc"
INPUT_LAMBDA = "lambda_fm"

NO_UNCERTAINTY_NOTE = "no uncertainty to attribute (sigma_SPFM is zero)"


def _entries(ids: tuple[str, ...], prop: _Propagation
             ) -> tuple[dict, np.ndarray, np.ndarray]:
    """Rank every nonzero-sigma input by its share of the SPFM variance.

    Returns the entries as the columns of the report's JSON objects, in
    their key order ({"failure_mode", "input", "raw_eii",
    "variance_share", "percent"}: a list per key), sorted by descending
    variance_share with ties broken by table order (DC before rate within
    a row); each row's (DC, rate) percents as an (n, 2) array; and which
    rows have a positive term, so a row whose share underflows to 0.0
    still counts.  When sigma_SPFM is zero there is nothing to attribute:
    no entries, zero percents, no row; see NO_UNCERTAINTY_NOTE for the
    report wording.
    """
    terms = prop.spfm_terms[_MODE_ROWS[PropagationMode.FULL]]  # (2, n): DC and w rows
    s_full = prop.sigma_spfm_by_mode[PropagationMode.FULL]
    if s_full == 0.0:
        return dict.fromkeys(_ENTRY_KEYS, ()), np.zeros((len(ids), 2)), \
            np.zeros(len(ids), dtype=bool)
    flat_terms = terms.T.ravel()  # table row 0's DC and rate terms, then row 1's, ...
    flat_share = flat_terms / float(sum(terms.sum(axis=1)))  # the FULL variance
    positive = np.flatnonzero(flat_terms > 0.0)
    order = positive[np.argsort(-flat_share[positive], kind="stable")]
    shares = flat_share[order]
    # Each entry's id and input kind, gathered by numpy's indexing of object
    # arrays rather than looked up one entry at a time.
    entries = dict(zip(_ENTRY_KEYS, (
        np.array(ids, dtype=object)[order // 2].tolist(), _INPUTS[order % 2].tolist(),
        (flat_terms[order] / s_full).tolist(), shares.tolist(), (shares * 100.0).tolist())))
    return entries, (flat_share * 100.0).reshape(-1, 2), (terms > 0.0).any(axis=0)


_ENTRY_KEYS = ("failure_mode", "input", "raw_eii", "variance_share", "percent")
_INPUTS = np.array((INPUT_DC, INPUT_LAMBDA), dtype=object)  # a flat index's kind: k % 2
