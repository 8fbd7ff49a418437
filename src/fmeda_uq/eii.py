"""Error Importance Identifier: which input uncertainty dominates a sigma.

Each uncertain input (a row's DC, latent DC or failure rate) adds one
term to a metric's variance V: an entry of a (k, n) term array with a
column per table row and a row per kind of input, in the kernel's order
(_INPUTS).  _entries ranks the array's positive terms t in two views:

* raw_eii        = t / sqrt(V)   - the identifier value
* variance_share = t / V

The shares partition V, so they sum to 1 and back the percentage report
columns; the raw values rank identically (same numerators, one positive
denominator).  analysis.analyze hands over the SPFM terms, whose latent
row is 0 and adds nothing, so sqrt(V) is sigma_spfm_full; it reads its
entries, report-row percents and per-failure-mode totals
({"failure_mode", "percent"}) off that one call.
"""

from __future__ import annotations

import numpy as np

INPUT_DC = "dc"
INPUT_LAMBDA = "lambda_fm"

NO_UNCERTAINTY_NOTE = "no uncertainty to attribute (sigma_SPFM is zero)"


def _entries(ids: tuple[str, ...], terms: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
    """Rank the positive entries of the (k, n) variance-term array terms.

    Returns the entries as the columns of the report's JSON objects, in
    their key order ({"failure_mode", "input", "raw_eii",
    "variance_share", "percent"}: a list per key), sorted by descending
    variance_share with ties broken by table order (kinds in row order
    within a table row); each table row's percents as an (n, k) array;
    and which table rows have a positive term, so a row whose share
    underflows to 0.0 still counts.  When the terms sum to zero there is
    nothing to attribute: no entries, zero percents, no row; see
    NO_UNCERTAINTY_NOTE for the report wording.
    """
    k = len(terms)
    variance = float(sum(terms.sum(axis=1)))  # summed as the kernel sums its sigmas
    if variance == 0.0:
        return dict.fromkeys(_ENTRY_KEYS, ()), np.zeros((len(ids), k)), \
            np.zeros(len(ids), dtype=bool)
    flat_terms = terms.T.ravel()  # table row 0's terms, then row 1's, ...
    flat_share = flat_terms / variance
    positive = np.flatnonzero(flat_terms > 0.0)
    order = positive[np.argsort(-flat_share[positive], kind="stable")]
    shares = flat_share[order]
    # Each entry's id and input kind, gathered by numpy's indexing of object
    # arrays rather than looked up one entry at a time.
    entries = dict(zip(_ENTRY_KEYS, (
        np.array(ids, dtype=object)[order // k].tolist(), _INPUTS[order % k].tolist(),
        (flat_terms[order] / np.sqrt(variance)).tolist(), shares.tolist(),
        (shares * 100.0).tolist())))
    return entries, (flat_share * 100.0).reshape(-1, k), (terms > 0.0).any(axis=0)


_ENTRY_KEYS = ("failure_mode", "input", "raw_eii", "variance_share", "percent")
# The kind of each row of the kernel's term arrays: DC, latent DC, w.
_INPUTS = np.array((INPUT_DC, "dc_latent", INPUT_LAMBDA), dtype=object)
