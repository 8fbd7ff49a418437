"""Seeded input generator for the benchmark workloads.

Plain Python only: it never imports fmeda_uq, so the tables it writes and
the numbers the oracle reads come from one independent source.  Every
value is rounded to 12 significant digits before it is used or written,
so the program reads back exactly the floats the oracle computes with.

The structure of every workload (row counts, subpart kinds, which rows
carry fault-simulation coverage or zero sigmas, ASIL targets, formats)
depends only on the workload, never on the seed; the seed chooses the
numbers.  Every seed therefore asks the program for the same amount of
work.
"""

from __future__ import annotations

import json
import math
import random

FORMAT_VERSION = "fmeda-uq/1"
CSV_COLUMNS = (
    "part", "subpart", "failure_mode", "lambda_fit", "sigma_lambda_fit",
    "fmd_fraction", "dc", "sigma_dc", "dc_latent", "sigma_dc_latent",
    "dc_source", "sm_list",
)
# ISO 26262-5 default (SPFM, LFM) targets; ASIL A has none.
THRESHOLDS = {"A": None, "B": (0.90, 0.60), "C": (0.97, 0.80), "D": (0.99, 0.90)}
FAULTSIM_LEVELS = (0.90, 0.95, 0.99)

SOC_PARTS, SOC_SUBPARTS, SOC_ROWS = 250, 4, 10      # 10,000 failure modes
PORTFOLIO_TABLES = 240
VERIFY_PARTS, VERIFY_SUBPARTS, VERIFY_ROWS = 20, 2, 5  # 200 failure modes
VERIFY_SAMPLES = 100_000
# Portfolio table kinds, in the order they cycle through the portfolio.
KINDS = ("robust", "fragile", "fail", "undefined_lfm", "zero_sigma", "asil_a")


def r12(x: float) -> float:
    """The float that a 12-significant-digit rendering of x reads back as."""
    return float(f"{x:.12g}")


def _row(rid, *, lam=None, sigma_lam=0.0, fraction=None, sigma_fmd=0.0, dc,
         sigma_dc, dc_latent, sigma_dc_latent, source=("expert",), sms=()):
    """One failure mode.  sigma_dc None means an empty cell (faultsim rows)."""
    return {
        "id": rid, "lambda": lam, "sigma_lambda": sigma_lam,
        "fraction": fraction, "sigma_fmd": sigma_fmd, "dc": dc,
        "sigma_dc": sigma_dc, "dc_latent": dc_latent,
        "sigma_dc_latent": sigma_dc_latent, "source": source, "sms": tuple(sms),
    }


def _fractions(rng: random.Random, n: int) -> list[float]:
    """n FMD fractions, each 12-digit, summing to 1 within 1e-11."""
    w = [rng.uniform(0.2, 1.0) for _ in range(n)]
    total = math.fsum(w)
    out = [r12(x / total) for x in w[:-1]]
    out.append(r12(1.0 - math.fsum(out)))
    return out


def _faultsim(rng: random.Random, margins) -> tuple:
    return ("faultsim", rng.choice(margins), rng.choice(FAULTSIM_LEVELS))


def materialized(sub: dict) -> list[tuple[float, float]]:
    """(lambda_fm, sigma_lambda_fm) per row, as the table format defines them.

    Distribution rows get lambda_subpart * fraction and
    lambda_subpart * sigma_fraction: one product of two floats, so any
    correct reader arrives at the same float.
    """
    if sub["dist"]:
        return [(sub["lambda_sub"] * r["fraction"], sub["lambda_sub"] * r["sigma_fmd"])
                for r in sub["rows"]]
    return [(r["lambda"], r["sigma_lambda"]) for r in sub["rows"]]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def soc_table(seed: int) -> dict:
    """One SoC-scale table: 10^4 failure modes over 250 parts.

    Every third subpart is a Distribution subpart declared through a
    subpart-rate row; every fifth row has a faultsim DC source with an
    empty sigma_dc; every latent sigma is nonzero.
    """
    rng = random.Random(seed * 7919 + 1)
    parts = []
    sub_index = row_index = 0
    for p in range(SOC_PARTS):
        subs = []
        for s in range(SOC_SUBPARTS):
            dist = sub_index % 3 == 0
            sub_index += 1
            fracs = _fractions(rng, SOC_ROWS) if dist else None
            rows = []
            for k in range(SOC_ROWS):
                faultsim = row_index % 5 == 0
                row_index += 1
                kw = dict(
                    dc=r12(rng.uniform(0.9, 0.9999)),
                    sigma_dc=None if faultsim else r12(rng.uniform(0.0005, 0.02)),
                    dc_latent=r12(rng.uniform(0.3, 0.99)),
                    sigma_dc_latent=r12(rng.uniform(0.005, 0.05)),
                    source=_faultsim(rng, (0.005, 0.01, 0.02)) if faultsim else ("expert",),
                    sms=("SM%d" % (k % 4), "SM%d" % (4 + s)) if k % 2 else (),
                )
                rid = f"P{p:03d}.S{s}.FM{k:02d}"
                if dist:
                    rows.append(_row(rid, fraction=fracs[k],
                                     sigma_fmd=r12(fracs[k] * rng.uniform(0.02, 0.2)), **kw))
                else:
                    lam = r12(math.exp(rng.uniform(math.log(0.1), math.log(50.0))))
                    rows.append(_row(rid, lam=lam,
                                     sigma_lam=r12(lam * rng.uniform(0.02, 0.2)), **kw))
            lam_sub = r12(rng.uniform(10.0, 500.0)) if dist else None
            subs.append({"name": f"S{s}", "dist": dist, "lambda_sub": lam_sub, "rows": rows})
        parts.append({"name": f"P{p:03d}", "subparts": subs})
    return {"parts": parts, "asil_target": None,
            "cli_asil": random.Random(seed).choice("BCD")}


def verify_table(seed: int) -> dict:
    """A 200-row table for the Monte Carlo check.

    Zero sigmas, fixed by row position: sigma_dc on every 10th row,
    sigma_lambda (an exact rate) on every 4th, sigma_dc_latent (an exact
    latent coverage) on every 3rd.  Every 4th subpart is a Distribution
    subpart.  Coverages stay five sigmas inside [0, 1] and rate sigmas
    below 5% of the rate, so truncation never biases the check.
    """
    rng = random.Random(seed * 7919 + 3)
    parts = []
    sub_index = row_index = 0
    for p in range(VERIFY_PARTS):
        subs = []
        for s in range(VERIFY_SUBPARTS):
            dist = sub_index % 4 == 0
            sub_index += 1
            fracs = _fractions(rng, VERIFY_ROWS) if dist else None
            rows = []
            for k in range(VERIFY_ROWS):
                i = row_index
                row_index += 1
                kw = dict(
                    dc=r12(rng.uniform(0.6, 0.95)),
                    sigma_dc=0.0 if i % 10 == 0 else r12(rng.uniform(0.002, 0.01)),
                    dc_latent=r12(rng.uniform(0.5, 0.95)),
                    sigma_dc_latent=0.0 if i % 3 == 0 else r12(rng.uniform(0.002, 0.01)),
                )
                rel = 0.0 if i % 4 == 0 else rng.uniform(0.01, 0.05)
                rid = f"V{p:02d}.{s}.{k}"
                if dist:
                    rows.append(_row(rid, fraction=fracs[k], sigma_fmd=r12(fracs[k] * rel), **kw))
                else:
                    lam = r12(rng.uniform(1.0, 100.0))
                    rows.append(_row(rid, lam=lam, sigma_lam=r12(lam * rel), **kw))
            lam_sub = r12(rng.uniform(50.0, 400.0)) if dist else None
            subs.append({"name": f"S{s}", "dist": dist, "lambda_sub": lam_sub, "rows": rows})
        parts.append({"name": f"V{p:02d}", "subparts": subs})
    return {"parts": parts, "asil_target": None}


def _portfolio_spec(i: int) -> dict:
    """Seed-independent shape of portfolio table i."""
    kind = KINDS[(i // 2) % len(KINDS)]
    fmt = "csv" if i % 2 == 0 else "json"
    if kind == "undefined_lfm":
        target = "AB"[(i // 12) % 2]
    elif kind == "asil_a":
        target = "A"
    elif kind == "zero_sigma":
        target = None if fmt == "csv" else "B"
    else:
        target = "BCD"[(i // 12) % 3]
    mode = "full"
    if kind in ("robust", "fail", "asil_a"):
        mode = ("full", "dc-only", "lambda-only")[(i // 12) % 3]
    return {
        "kind": kind, "format": fmt, "target": target, "mode": mode,
        "confidence": (0.90, 0.95, 0.99)[i % 3],
        "rows": 4 + (i * 37) % 57,          # 4 .. 60 rows
    }


def _portfolio_table(rng: random.Random, i: int, spec: dict) -> dict:
    kind = spec["kind"]
    n = spec["rows"]
    exact = kind == "zero_sigma"
    # Subparts of up to 6 rows; every third one is a Distribution subpart,
    # except in undefined-LFM tables, which keep integer rates so that the
    # residual equals lambda_tot exactly.
    sizes = [6] * (n // 6) + ([n % 6] if n % 6 else [])
    parts, subs = [], []
    k = 0
    for s, size in enumerate(sizes):
        dist = s % 3 == 2 and kind != "undefined_lfm"
        fracs = _fractions(rng, size) if dist else None
        rows = []
        for j in range(size):
            faultsim = not exact and k % 5 == 4
            margins = (0.001, 0.002) if kind == "robust" else (0.005, 0.01, 0.02)
            if kind == "robust":
                sdc = rng.uniform(0.0002, 0.001)
            elif kind == "fragile":
                sdc = rng.uniform(0.01, 0.03)
            else:
                sdc = rng.uniform(0.001, 0.02)
            if kind in ("robust", "fragile"):
                lat, slat = rng.uniform(0.92, 0.995), rng.uniform(0.001, 0.005)
            else:
                lat, slat = rng.uniform(0.3, 0.99), rng.uniform(0.005, 0.03)
            kw = dict(
                dc=0.0,  # set below once the rates are known
                sigma_dc=0.0 if exact else (None if faultsim else r12(sdc)),
                dc_latent=r12(lat),
                sigma_dc_latent=0.0 if exact else r12(slat),
                source=_faultsim(rng, margins) if faultsim else ("expert",),
                sms=("SM-A",) if j % 3 == 0 else (),
            )
            rel = 0.0 if exact else rng.uniform(0.02, 0.1)
            rid = f"T{i:03d}.FM{k:02d}"
            if dist:
                rows.append(_row(rid, fraction=fracs[j], sigma_fmd=r12(fracs[j] * rel), **kw))
            elif kind == "undefined_lfm":
                lam = float(rng.randint(1, 200))
                rows.append(_row(rid, lam=lam, sigma_lam=r12(lam * rel), **kw))
            else:
                lam = r12(rng.uniform(0.5, 80.0))
                rows.append(_row(rid, lam=lam, sigma_lam=r12(lam * rel), **kw))
            k += 1
        subs.append({"name": f"S{s}", "dist": dist,
                     "lambda_sub": r12(rng.uniform(20.0, 300.0)) if dist else None,
                     "rows": rows})
        if len(subs) == 2 or s == len(sizes) - 1:
            parts.append({"name": f"P{len(parts)}", "subparts": subs})
            subs = []
    table = {"parts": parts,
             "asil_target": spec["target"] if spec["format"] == "json" else None}
    _set_coverages(rng, table, kind, spec["target"])
    return table


def _set_coverages(rng: random.Random, table: dict, kind: str, target) -> None:
    """Choose DCs so that SPFM lands where the table's kind wants it.

    For robust, fragile and fail tables, (1 - DC_i) is scaled so that the
    rate-weighted residual gives a chosen SPFM just above, near or below
    the target's threshold.  Rounding to 12 digits moves SPFM by ~1e-12.
    """
    subs = [sub for part in table["parts"] for sub in part["subparts"]]
    rows = [r for sub in subs for r in sub["rows"]]
    if kind == "undefined_lfm":
        for r in rows:
            r["dc"] = 0.0
        return
    if kind not in ("robust", "fragile", "fail"):
        for r in rows:
            r["dc"] = r12(rng.uniform(0.5, 0.999))
        return
    thr = THRESHOLDS[target][0]
    if kind == "robust":
        s_star = min(thr + rng.uniform(0.004, 0.0085), 0.9985)
    elif kind == "fragile":
        s_star = thr + rng.uniform(0.0005, 0.002)
    else:
        s_star = thr - rng.uniform(0.005, 0.03)
    lams = [lam for sub in subs for lam, _ in materialized(sub)]
    u = [rng.uniform(0.5, 1.5) for _ in rows]
    scale = (1.0 - s_star) * math.fsum(lams) / math.fsum(a * b for a, b in zip(u, lams))
    for r, ui in zip(rows, u):
        r["dc"] = r12(1.0 - ui * scale)


def portfolio(seed: int) -> list[dict]:
    """240 small tables (4 to 60 rows), half CSV and half JSON."""
    rng = random.Random(seed * 7919 + 2)
    out = []
    for i in range(PORTFOLIO_TABLES):
        spec = _portfolio_spec(i)
        table = _portfolio_table(rng, i, spec)
        table.update(name=f"t{i:03d}", spec=spec)
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# Writers (independent of the program's emitters)
# ---------------------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


def _source_text(src: tuple) -> str:
    if src[0] == "faultsim":
        return f"faultsim:e={_num(src[1])}:cl={src[2]:.2f}"
    return "expert"


def write_csv(table: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for part in table["parts"]:
        for sub in part["subparts"]:
            head = [part["name"], sub["name"]]
            if sub["dist"]:
                lines.append(",".join(head + ["", _num(sub["lambda_sub"])] + [""] * 8))
            for r in sub["rows"]:
                if sub["dist"]:
                    rate = ["", _num(r["sigma_fmd"]), _num(r["fraction"])]
                else:
                    rate = [_num(r["lambda"]), _num(r["sigma_lambda"]), ""]
                sdc = "" if r["sigma_dc"] is None else _num(r["sigma_dc"])
                lines.append(",".join(head + [r["id"]] + rate + [
                    _num(r["dc"]), sdc, _num(r["dc_latent"]), _num(r["sigma_dc_latent"]),
                    _source_text(r["source"]), ";".join(r["sms"]),
                ]))
    return "\n".join(lines) + "\n"


def write_json(table: dict) -> str:
    doc: dict = {"version": FORMAT_VERSION}
    if table.get("asil_target") is not None:
        doc["asil_target"] = table["asil_target"]
    doc["parts"] = []
    for part in table["parts"]:
        subs = []
        for sub in part["subparts"]:
            sd: dict = {"name": sub["name"]}
            if sub["dist"]:
                sd["fmd_mode"] = "Distribution"
                sd["lambda_fit"] = sub["lambda_sub"]
            fms = []
            for r in sub["rows"]:
                fd = {"id": r["id"], "dc": r["dc"], "dc_source": _source_text(r["source"]),
                      "dc_latent": r["dc_latent"], "sigma_dc_latent": r["sigma_dc_latent"]}
                if r["sigma_dc"] is not None:
                    fd["sigma_dc"] = r["sigma_dc"]
                if sub["dist"]:
                    fd["fmd_fraction"] = r["fraction"]
                    fd["sigma_fmd"] = r["sigma_fmd"]
                else:
                    fd["lambda_fit"] = r["lambda"]
                    fd["sigma_lambda_fit"] = r["sigma_lambda"]
                if r["sms"]:
                    fd["safety_mechanisms"] = list(r["sms"])
                fms.append(fd)
            sd["failure_modes"] = fms
            subs.append(sd)
        doc["parts"].append({"name": part["name"], "subparts": subs})
    return json.dumps(doc, indent=1) + "\n"
