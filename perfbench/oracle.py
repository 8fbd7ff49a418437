"""Plain-Python reference for everything the program reports.

No fmeda_uq import and no numpy: the reference works from the numbers the
generator wrote (gen.py tables), with math.fsum for every sum, and from
the definitions in the package documentation:

- Distribution rows: lambda = lambda_subpart * fraction, and the same for
  the fraction's sigma;
- faultsim rows with no sigma_dc: sigma_dc = e / t;
- SPFM = 1 - sum((1 - DC) lambda) / lambda_tot;
- LFM = 1 - sum((1 - DC_lat) DC lambda) / (lambda_tot - sum((1 - DC) lambda)),
  undefined when that denominator is not positive;
- first-order sigmas with lambda_tot held fixed, intervals value +/- k sigma
  clamped to [0, 1], EII shares of the SPFM variance, the three-state
  ASIL verdict and the CLI exit code.

sigma_LFM comes from partial derivatives derived here and is
cross-checked by central differences on this module's own LFM.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

from gen import THRESHOLDS, materialized

# Two-sided standard-normal cut-offs, rounded to 5 significant digits.
CUTOFFS = {cl: float(f"{NormalDist().inv_cdf(0.5 + cl / 2):.5g}") for cl in (0.90, 0.95, 0.99)}
MODES = {"full": "full", "dc-only": "dc_only", "lambda-only": "lambda_only"}
ROBUST, FRAGILE, FAIL = "PassRobust", "PassFragile", "Fail"
EXIT_CODES = {None: 0, ROBUST: 0, FRAGILE: 2, FAIL: 3}


class OracleError(AssertionError):
    """The reference disagrees with itself."""


def flat_rows(table: dict) -> list[dict]:
    """Rows in table order with canonical FIT values and derived sigma_dc."""
    out = []
    for part in table["parts"]:
        for sub in part["subparts"]:
            for r, (lam, slam) in zip(sub["rows"], materialized(sub)):
                sdc = r["sigma_dc"] or 0.0
                if r["source"][0] == "faultsim" and sdc == 0.0:
                    sdc = r["source"][1] / CUTOFFS[r["source"][2]]
                out.append({"part": part["name"], "subpart": sub["name"], "id": r["id"],
                            "lam": lam, "slam": slam, "dc": r["dc"], "sdc": sdc,
                            "lat": r["dc_latent"], "slat": r["sigma_dc_latent"]})
    return out


def _lfm(dc, lat, lam, lambda_tot):
    """LFM with lambda_tot held fixed; None when undefined."""
    den = lambda_tot - math.fsum((1.0 - d) * x for d, x in zip(dc, lam))
    if den <= 0.0:
        return None
    return 1.0 - math.fsum((1.0 - a) * d * x for a, d, x in zip(lat, dc, lam)) / den


def lfm_partials(dc, lat, lam, lambda_tot):
    """(dLFM/dDC_i, dLFM/dDC_lat_i, dLFM/dlambda_i), lambda_tot fixed.

    With N = sum((1-lat) dc lam) and D = lambda_tot - sum((1-dc) lam):
    dN/ddc = (1-lat) lam, dD/ddc = lam; dN/dlat = -dc lam;
    dN/dlam = (1-lat) dc, dD/dlam = -(1-dc).  LFM = 1 - N/D.
    """
    num = math.fsum((1.0 - a) * d * x for a, d, x in zip(lat, dc, lam))
    den = lambda_tot - math.fsum((1.0 - d) * x for d, x in zip(dc, lam))
    d_dc = [-((1.0 - a) * x * den - num * x) / den**2 for a, x in zip(lat, lam)]
    d_lat = [d * x / den for d, x in zip(dc, lam)]
    d_lam = [-((1.0 - a) * d * den + num * (1.0 - d)) / den**2 for a, d in zip(lat, dc)]
    return d_dc, d_lat, d_lam


def check_partials(dc, lat, lam, lambda_tot, partials, probes: int = 8) -> None:
    """Central differences of _lfm against the analytic partials, on up to
    `probes` rows spread over the table.

    In one input, LFM = 1 - N/D with N and D linear in it, so a central
    difference with step h is the derivative times 1/(1 - (h dD/dx / D)^2),
    exactly; on top of that come a few roundings of N/D, divided by h.
    """
    n = len(lam)
    den = lambda_tot - math.fsum((1.0 - d) * x for d, x in zip(dc, lam))
    eps = sys.float_info.epsilon
    for i in sorted({round(j * (n - 1) / max(probes - 1, 1)) for j in range(probes)}):
        # (input vector, step, dD/d input)
        for which, (vec, step, slope) in enumerate((
                (dc, 1e-4, lam[i]), (lat, 1e-4, 0.0), (lam, 1e-4 * lam[i], dc[i] - 1.0))):
            if step == 0.0:
                continue
            hi, lo = list(vec), list(vec)
            hi[i] += step
            lo[i] -= step
            args_hi = [dc, lat, lam]
            args_lo = [dc, lat, lam]
            args_hi[which], args_lo[which] = hi, lo
            fd = (_lfm(*args_hi, lambda_tot) - _lfm(*args_lo, lambda_tot)) / (hi[i] - lo[i])
            an = partials[which][i]
            curvature = 2.0 * (slope * step / den) ** 2
            rounding = 8.0 * eps * (lambda_tot / den) / step
            if abs(fd - an) > abs(an) * (curvature + 1e-7) + rounding:
                raise OracleError(f"LFM partial {which} of row {i}: analytic {an!r}, "
                                  f"central difference {fd!r}")


def _interval(value: float, sigma: float, k: float) -> dict:
    lo, hi = value - k * sigma, value + k * sigma
    return {"lo": max(lo, 0.0), "hi": min(hi, 1.0), "clamped": lo < 0.0 or hi > 1.0}


def _verdict(value: float, sigma: float, k: float, threshold: float) -> str:
    if value < threshold:
        return FAIL
    return ROBUST if value - k * sigma >= threshold else FRAGILE


def reference(table: dict, confidence: float = 0.95, mode: str = "full",
              target: str | None = None) -> dict:
    """Every number analyze reports for this table, in the JSON layout."""
    rows = flat_rows(table)
    lam = [r["lam"] for r in rows]
    dc = [r["dc"] for r in rows]
    lat = [r["lat"] for r in rows]
    lambda_tot = math.fsum(lam)
    residual = math.fsum((1.0 - d) * x for d, x in zip(dc, lam))
    spfm = 1.0 - residual / lambda_tot

    terms_dc = [(r["lam"] * r["sdc"]) ** 2 for r in rows]
    terms_lam = [((1.0 - r["dc"]) * r["slam"]) ** 2 for r in rows]
    var_dc, var_lam = math.fsum(terms_dc), math.fsum(terms_lam)
    var_total = math.fsum(terms_dc + terms_lam)
    sigma = {"full": math.sqrt(var_total) / lambda_tot,
             "dc_only": math.sqrt(var_dc) / lambda_tot,
             "lambda_only": math.sqrt(var_lam) / lambda_tot}
    k = CUTOFFS[confidence]
    selected = sigma[MODES[mode]]

    lfm = _lfm(dc, lat, lam, lambda_tot)
    sigma_lfm = interval_lfm = None
    if lfm is not None:
        partials = lfm_partials(dc, lat, lam, lambda_tot)
        check_partials(dc, lat, lam, lambda_tot, partials)
        sigmas = ([r["sdc"] for r in rows], [r["slat"] for r in rows],
                  [r["slam"] for r in rows])
        sigma_lfm = math.sqrt(math.fsum(
            (p * s) ** 2 for ps, ss in zip(partials, sigmas) for p, s in zip(ps, ss)))
        interval_lfm = _interval(lfm, sigma_lfm, k)

    eii = []
    if var_total > 0.0:
        raw_den = lambda_tot * math.sqrt(var_total)
        for i, r in enumerate(rows):
            for kind, term in (("dc", terms_dc[i]), ("lambda_fm", terms_lam[i])):
                if term > 0.0:
                    eii.append({"failure_mode": r["id"], "input": kind, "row": i,
                                "raw_eii": term / raw_den,
                                "variance_share": term / var_total,
                                "percent": 100.0 * term / var_total})
        eii.sort(key=lambda e: -e["variance_share"])
    by_row: dict[int, dict[str, float]] = {}
    for e in eii:
        by_row.setdefault(e["row"], {})[e["input"]] = e["percent"]

    asil = None
    if target is not None:
        limits = THRESHOLDS[target]
        if limits is None:
            asil = {"target": target, "spfm": ROBUST, "lfm": ROBUST, "overall": ROBUST}
        else:
            v_spfm = _verdict(spfm, selected, k, limits[0])
            v_lfm = None if lfm is None else _verdict(lfm, sigma_lfm, k, limits[1])
            order = (ROBUST, FRAGILE, FAIL)
            worst = max((v for v in (v_spfm, v_lfm) if v), key=order.index)
            asil = {"target": target, "spfm": v_spfm, "lfm": v_lfm, "overall": worst}

    return {
        "lambda_tot_fit": lambda_tot, "spfm": spfm, "lfm": lfm,
        "sigma_spfm": sigma, "sigma_lfm": sigma_lfm, "mode": MODES[mode],
        "confidence_level": confidence, "k": k,
        "interval_spfm": _interval(spfm, selected, k), "interval_lfm": interval_lfm,
        "eii": eii,
        "eii_totals": [{"failure_mode": rows[i]["id"], "percent": math.fsum(p.values())}
                       for i, p in sorted(by_row.items())],
        "asil": asil,
        "exit": EXIT_CODES[asil["overall"] if asil else None],
        "rows": [{
            "part": r["part"], "subpart": r["subpart"], "failure_mode": r["id"],
            "name": r["id"], "lambda_fm_fit": r["lam"], "sigma_lambda_fm_fit": r["slam"],
            "dc": r["dc"], "sigma_dc": r["sdc"], "dc_latent": r["lat"],
            "sigma_dc_latent": r["slat"],
            "eii_dc_percent": by_row.get(i, {}).get("dc", 0.0),
            "eii_lambda_percent": by_row.get(i, {}).get("lambda_fm", 0.0),
            "eii_total_percent": math.fsum(by_row.get(i, {}).values()),
        } for i, r in enumerate(rows)],
    }


def self_check() -> None:
    """The worked two-mode example: SPFM 0.945, sigma_SPFM sqrt(1.0025)/100,
    LFM 1 - 27.9/94.5, and its central-difference cross-check."""
    def row(rid, dc, sdc, lat):
        return {"id": rid, "lambda": 50.0, "sigma_lambda": 0.0, "fraction": None,
                "sigma_fmd": 0.0, "dc": dc, "sigma_dc": sdc, "dc_latent": lat,
                "sigma_dc_latent": 0.0, "source": ("expert",), "sms": ()}
    table = {"parts": [{"name": "CPU", "subparts": [{
        "name": "EXEC", "dist": False, "lambda_sub": None,
        "rows": [row("FM1", 0.9, 0.02, 0.6), row("FM2", 0.99, 0.001, 0.8)]}]}]}
    ref = reference(table, target="B")
    expected = {"spfm": 0.945, "sigma_spfm": math.sqrt(1.0025) / 100,
                "lfm": 1.0 - 27.9 / 94.5}
    got = {"spfm": ref["spfm"], "sigma_spfm": ref["sigma_spfm"]["full"], "lfm": ref["lfm"]}
    for key, want in expected.items():
        if not math.isclose(got[key], want, rel_tol=1e-12):
            raise OracleError(f"worked example: {key} {got[key]!r}, expected {want!r}")
    if ref["asil"]["overall"] != ROBUST or CUTOFFS[0.95] != 1.96:
        raise OracleError("worked example: verdict or cut-off is wrong")
