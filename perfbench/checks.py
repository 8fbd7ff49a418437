"""Checks of every document the program produced.

Each check returns a list of error strings; an empty list means the
document is right.  Numbers are compared with the reference in oracle.py
at the tolerance that 12-significant-digit rendering and a different
summation order allow; the markdown and CSV renderings must carry exactly
the numbers of the JSON rendering.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from gen import CSV_COLUMNS, FORMAT_VERSION
from oracle import EXIT_CODES, FAIL, FRAGILE, ROBUST, _verdict

REL_TOL = 1e-9
ABS_TOL = 1e-12
VERDICT_EPS = 1e-9  # a verdict this close to a threshold may go either way
SPFM_TOLERANCE, LFM_TOLERANCE = 0.03, 0.05
SAMPLING_Z = 5.0  # standard errors of a sample sigma allowed on top


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare(path: str, got, want, errors: list[str]) -> None:
    """Recursive field-by-field comparison; floats within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}, "
                          f"expected {sorted(want)}")
            return
        for key in want:
            compare(f"{path}.{key}", got[key], want[key], errors)
    elif isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            errors.append(f"{path}: {got!r} is not a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(f"{path}[{i}]", g, w, errors)
    elif isinstance(want, float) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not close(got, want):
            errors.append(f"{path}: {got!r}, expected {want!r}")
    elif got != want or type(got) is not type(want):
        errors.append(f"{path}: {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# analyze --format json
# ---------------------------------------------------------------------------


def _possible_verdicts(value: float, sigma: float, k: float, threshold: float) -> set[str]:
    return {_verdict(value + dv, sigma + ds, k, threshold)
            for dv in (-VERDICT_EPS, 0.0, VERDICT_EPS) for ds in (-VERDICT_EPS, 0.0, VERDICT_EPS)}


def _check_asil(doc: dict, ref: dict, thresholds, errors: list[str]) -> None:
    got, want = doc["asil"], ref["asil"]
    if want is None or thresholds is None:
        compare("asil", got, want, errors)
        return
    if not isinstance(got, dict) or set(got) != set(want) or got["target"] != want["target"]:
        errors.append(f"asil: {got!r}, expected {want!r}")
        return
    k = ref["k"]
    selected = ref["sigma_spfm"][ref["mode"]]
    if got["spfm"] not in _possible_verdicts(ref["spfm"], selected, k, thresholds[0]):
        errors.append(f"asil.spfm: {got['spfm']!r}, expected {want['spfm']!r}")
    if ref["lfm"] is None:
        if got["lfm"] is not None:
            errors.append(f"asil.lfm: {got['lfm']!r} for an undefined LFM")
    elif got["lfm"] not in _possible_verdicts(ref["lfm"], ref["sigma_lfm"], k, thresholds[1]):
        errors.append(f"asil.lfm: {got['lfm']!r}, expected {want['lfm']!r}")
    order = (ROBUST, FRAGILE, FAIL)
    verdicts = [v for v in (got["spfm"], got["lfm"]) if v in order]
    if verdicts and got["overall"] != max(verdicts, key=order.index):
        errors.append(f"asil.overall: {got['overall']!r} is not the worst of {verdicts}")


def check_analysis(text: str, exit_code: int, ref: dict, thresholds) -> tuple[list[str], dict]:
    """The JSON result against the reference, plus its own properties."""
    errors: list[str] = []
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"], {}
    want = {k: v for k, v in ref.items() if k not in ("eii", "exit", "asil")}
    want.update(version=FORMAT_VERSION)
    got = {k: v for k, v in doc.items()
           if k not in ("eii", "asil", "lfm_note", "eii_note")}
    compare("doc", got, want, errors)
    if set(doc) != set(want) | {"eii", "asil", "lfm_note", "eii_note"}:
        errors.append(f"doc keys: {sorted(doc)}")
        return errors, doc
    if (doc["lfm_note"] is None) != (ref["lfm"] is not None):
        errors.append(f"lfm_note {doc['lfm_note']!r} with lfm {ref['lfm']!r}")
    if (doc["eii_note"] is None) != bool(ref["eii"]):
        errors.append(f"eii_note {doc['eii_note']!r} with {len(ref['eii'])} EII entries")
    _check_asil(doc, ref, thresholds, errors)
    overall = doc["asil"]["overall"] if isinstance(doc["asil"], dict) else None
    if exit_code != EXIT_CODES.get(overall, -1):
        errors.append(f"exit code {exit_code} for verdict {overall!r}")

    # Properties of the document itself.
    s = doc["sigma_spfm"]
    if not close(s["full"] ** 2, s["dc_only"] ** 2 + s["lambda_only"] ** 2):
        errors.append(f"sigma_spfm: full^2 != dc_only^2 + lambda_only^2 ({s})")
    eii = doc["eii"]
    percents = [e["percent"] for e in eii]
    if eii and abs(math.fsum(percents) - 100.0) > 1e-7:
        errors.append(f"EII percents sum to {math.fsum(percents)!r}")
    if any(a < b for a, b in zip(percents, percents[1:])):
        errors.append("EII percents are not in descending order")

    # EII entries: the reference's set, with the reference's values, in an
    # order the reference's shares agree with.
    want_eii = {(e["failure_mode"], e["input"]): e for e in ref["eii"]}
    got_keys = [(e.get("failure_mode"), e.get("input")) for e in eii]
    if sorted(got_keys) != sorted(want_eii) or len(set(got_keys)) != len(got_keys):
        errors.append(f"EII entries: {len(got_keys)} reported, {len(want_eii)} expected")
        return errors, doc
    for i, e in enumerate(eii):
        w = want_eii[(e["failure_mode"], e["input"])]
        compare(f"eii[{i}]", e, {key: w[key] for key in
                                  ("failure_mode", "input", "raw_eii", "variance_share",
                                   "percent")}, errors)
    shares = [want_eii[key]["variance_share"] for key in got_keys]
    if any(a < b and not close(a, b) for a, b in zip(shares, shares[1:])):
        errors.append("EII order disagrees with the reference shares")
    return errors[:20], doc


# ---------------------------------------------------------------------------
# analyze --format markdown / csv against the JSON rendering
# ---------------------------------------------------------------------------


def _num(text: str) -> float:
    return float(text.strip())


def _interval_text(iv: dict) -> str:
    return f"[{iv['lo']!r}, {iv['hi']!r}]" + (" (clamped to [0, 1])" if iv["clamped"] else "")


def _same_number(label: str, text: str, value, errors: list[str]) -> None:
    try:
        ok = _num(text) == value
    except ValueError:
        ok = False
    if not ok:
        errors.append(f"{label}: {text!r}, JSON has {value!r}")


def _same_percent(label: str, text: str, value: float, errors: list[str]) -> None:
    try:
        ok = abs(_num(text) - value) <= 0.005 + 1e-9
    except ValueError:
        ok = False
    if not ok:
        errors.append(f"{label}: {text!r}, JSON has {value!r}")


def _row_cells(rows: list[list[str]], doc: dict, errors: list[str], where: str) -> None:
    if len(rows) != len(doc["rows"]):
        errors.append(f"{where}: {len(rows)} failure-mode rows, JSON has {len(doc['rows'])}")
        return
    for cells, r in zip(rows, doc["rows"]):
        label = f"{where} {r['failure_mode']}"
        if len(cells) != 10 or cells[:3] != [r["part"], r["subpart"], r["failure_mode"]]:
            errors.append(f"{label}: cells {cells[:3]}")
            continue
        for text, key in zip(cells[3:7], ("lambda_fm_fit", "sigma_lambda_fm_fit", "dc",
                                          "sigma_dc")):
            _same_number(f"{label} {key}", text, r[key], errors)
        for text, key in zip(cells[7:], ("eii_dc_percent", "eii_lambda_percent",
                                         "eii_total_percent")):
            _same_percent(f"{label} {key}", text, r[key], errors)


def check_markdown(text: str, doc: dict) -> list[str]:
    errors: list[str] = []
    rows, summary = [], {}
    for line in text.splitlines():
        if line.startswith("| ") and not line.startswith(("| part |", "| --- |")):
            rows.append([c.strip() for c in line.strip("|").split("|")])
        m = re.match(r"- ([^:]+): (.*)$", line)
        if m:
            summary[m.group(1)] = m.group(2)
    _row_cells(rows, doc, errors, "markdown")
    want = {
        "lambda_tot": f"{doc['lambda_tot_fit']!r} FIT",
        "SPFM": repr(doc["spfm"]),
        "sigma_SPFM (full)": repr(doc["sigma_spfm"]["full"]),
        "sigma_SPFM (DC-only)": repr(doc["sigma_spfm"]["dc_only"]),
        "sigma_SPFM (lambda-only)": repr(doc["sigma_spfm"]["lambda_only"]),
        "SPFM interval": _interval_text(doc["interval_spfm"]),
        "confidence level": f"{doc['confidence_level']:.2f} (k = {doc['k']!r})",
        "propagation mode": doc["mode"],
    }
    if doc["lfm"] is None:
        want["LFM"] = f"undefined ({doc['lfm_note']})"
    else:
        want.update({"LFM": repr(doc["lfm"]), "sigma_LFM": repr(doc["sigma_lfm"]),
                     "LFM interval": _interval_text(doc["interval_lfm"])})
    v = doc["asil"]
    if v is None:
        want["ASIL target"] = "none"
    else:
        lfm_part = f", LFM {v['lfm']}" if v["lfm"] is not None else ""
        want["ASIL target"] = f"{v['target']} -> SPFM {v['spfm']}{lfm_part}, overall {v['overall']}"
    if doc["eii_note"]:
        want["note"] = doc["eii_note"]
    for label, expected in want.items():
        got = summary.get(label)
        if got is None or _normalize(got) != _normalize(expected):
            errors.append(f"markdown '{label}': {got!r}, JSON gives {expected!r}")
    return errors[:20]


def _normalize(text: str) -> str:
    """Numbers in a summary line compared as floats, not as spellings."""
    return re.sub(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", lambda m: repr(float(m.group())), text)


def check_result_csv(text: str, doc: dict) -> list[str]:
    errors: list[str] = []
    records = list(csv.reader(io.StringIO(text)))
    try:
        blank = records.index([])
    except ValueError:
        return ["result CSV has no metric section"]
    _row_cells(records[1:blank], doc, errors, "csv")
    metrics = {r[0]: r[1] for r in records[blank + 2:] if len(r) == 2}
    numbers = {
        "lambda_tot_fit": doc["lambda_tot_fit"], "spfm": doc["spfm"],
        "sigma_spfm_full": doc["sigma_spfm"]["full"],
        "sigma_spfm_dc_only": doc["sigma_spfm"]["dc_only"],
        "sigma_spfm_lambda_only": doc["sigma_spfm"]["lambda_only"],
        "spfm_interval_lo": doc["interval_spfm"]["lo"],
        "spfm_interval_hi": doc["interval_spfm"]["hi"], "k": doc["k"],
        "confidence_level": doc["confidence_level"],
    }
    words = {"mode": doc["mode"]}
    if doc["lfm"] is None:
        words["lfm"] = "undefined"
    else:
        numbers.update(lfm=doc["lfm"], sigma_lfm=doc["sigma_lfm"],
                       lfm_interval_lo=doc["interval_lfm"]["lo"],
                       lfm_interval_hi=doc["interval_lfm"]["hi"])
    if doc["asil"] is not None:
        v = doc["asil"]
        words.update(asil_target=v["target"], verdict_spfm=v["spfm"],
                     verdict_lfm=v["lfm"] or "n/a", verdict_overall=v["overall"])
    if set(metrics) != set(numbers) | set(words):
        errors.append(f"csv metrics {sorted(metrics)}")
    for key, value in numbers.items():
        _same_number(f"csv {key}", metrics.get(key, ""), value, errors)
    for key, value in words.items():
        if metrics.get(key) != value:
            errors.append(f"csv {key}: {metrics.get(key)!r}, JSON has {value!r}")
    return errors[:20]


# ---------------------------------------------------------------------------
# Tables written by emit_json / emit_csv, against the generated table
# ---------------------------------------------------------------------------


def _source(text: str):
    if text == "expert":
        return ("expert",)
    m = re.fullmatch(r"faultsim:e=([^:]+):cl=([^:]+)", text)
    return ("faultsim", float(m.group(1)), float(m.group(2))) if m else ("bad", text)


def check_emitted_json(text: str, table: dict) -> list[str]:
    errors: list[str] = []
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"emit_json output is not strict JSON: {exc}"]
    want: dict = {"version": FORMAT_VERSION, "parts": []}
    if table["asil_target"] is not None:
        want["asil_target"] = table["asil_target"]
    for part in table["parts"]:
        subs = []
        for sub in part["subparts"]:
            sd: dict = {"name": sub["name"],
                        "fmd_mode": "Distribution" if sub["dist"] else "DirectLambda"}
            if sub["lambda_sub"] is not None:
                sd["lambda_fit"] = sub["lambda_sub"]
            sd["failure_modes"] = []
            for r in sub["rows"]:
                fd = {"id": r["id"], "dc": r["dc"], "sigma_dc": r["sigma_dc"] or 0.0,
                      "dc_latent": r["dc_latent"], "sigma_dc_latent": r["sigma_dc_latent"],
                      "dc_source": r["source"]}
                if sub["dist"]:
                    fd.update(fmd_fraction=r["fraction"], sigma_fmd=r["sigma_fmd"])
                else:
                    fd.update(lambda_fit=r["lambda"], sigma_lambda_fit=r["sigma_lambda"])
                if r["sms"]:
                    fd["safety_mechanisms"] = list(r["sms"])
                sd["failure_modes"].append(fd)
            subs.append(sd)
        want["parts"].append({"name": part["name"], "subparts": subs})
    for part in doc.get("parts", []) if isinstance(doc, dict) else []:
        for sub in part.get("subparts", []):
            for fd in sub.get("failure_modes", []):
                if isinstance(fd.get("dc_source"), str):
                    fd["dc_source"] = _source(fd["dc_source"])
    compare("emit_json", doc, want, errors)
    return errors[:20]


def check_emitted_csv(text: str, table: dict) -> list[str]:
    records = [r for r in csv.reader(io.StringIO(text)) if r]
    if not records or tuple(records[0]) != CSV_COLUMNS:
        return ["emit_csv header differs from the documented columns"]
    want = []
    for part in table["parts"]:
        for sub in part["subparts"]:
            if sub["lambda_sub"] is not None:
                want.append([part["name"], sub["name"], None, sub["lambda_sub"]] + [None] * 8)
            for r in sub["rows"]:
                if sub["dist"]:
                    rate = [None, r["sigma_fmd"], r["fraction"]]
                else:
                    rate = [r["lambda"], r["sigma_lambda"], None]
                want.append([part["name"], sub["name"], r["id"]] + rate + [
                    r["dc"], r["sigma_dc"] or 0.0, r["dc_latent"], r["sigma_dc_latent"],
                    r["source"], ";".join(r["sms"]) or None])
    got = []
    for rec in records[1:]:
        cells = [c or None for c in rec]
        for i in range(3, 10):
            if cells[i] is not None:
                try:
                    cells[i] = float(cells[i])
                except ValueError:
                    pass
        if cells[10] is not None:
            cells[10] = _source(cells[10])
        got.append(cells)
    errors: list[str] = []
    compare("emit_csv", got, want, errors)
    return errors[:20]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_verify(text: str, exit_code: int, ref: dict, samples: int, seed: int) -> list[str]:
    errors: list[str] = []
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != {"spfm", "lfm", "all_pass"}:
        return [f"verify keys: {doc!r}"[:200]]
    keys = {"metric", "empirical_sigma", "analytic_sigma", "relative_gap", "tolerance",
            "passed", "truncation_rate", "samples", "seed", "truncate", "rng_algorithm",
            "warning"}
    for name, metric, tolerance, sigma in (("spfm", "SPFM", SPFM_TOLERANCE,
                                            ref["sigma_spfm"]["full"]),
                                           ("lfm", "LFM", LFM_TOLERANCE, ref["sigma_lfm"])):
        v = doc[name]
        if not isinstance(v, dict) or set(v) != keys:
            errors.append(f"{name}: keys {v!r}"[:200])
            continue
        fixed = {"metric": metric, "tolerance": tolerance, "samples": samples, "seed": seed,
                 "truncate": True, "rng_algorithm": "numpy-pcg64"}
        for key, want in fixed.items():
            compare(f"{name}.{key}", v[key], want, errors)
        compare(f"{name}.analytic_sigma", v["analytic_sigma"], sigma, errors)
        gap = abs(v["empirical_sigma"] - v["analytic_sigma"]) / v["analytic_sigma"]
        compare(f"{name}.relative_gap", v["relative_gap"], gap, errors)
        if v["passed"] != (v["relative_gap"] <= v["tolerance"]):
            errors.append(f"{name}.passed {v['passed']} with gap {v['relative_gap']!r}")
        allowed = sigma * (tolerance + SAMPLING_Z / math.sqrt(2.0 * (samples - 1)))
        if abs(v["empirical_sigma"] - sigma) > allowed:
            errors.append(f"{name}.empirical_sigma {v['empirical_sigma']!r} is more than "
                          f"{allowed!r} from the reference {sigma!r}")
        if not 0.0 <= v["truncation_rate"] < 1.0 or \
                (v["warning"] is None) != (v["truncation_rate"] < 1e-3):
            errors.append(f"{name}: truncation_rate {v['truncation_rate']!r}, "
                          f"warning {v['warning']!r}")
    if not errors:
        all_pass = doc["spfm"]["passed"] and doc["lfm"]["passed"]
        if doc["all_pass"] is not all_pass or exit_code != (0 if all_pass else 4):
            errors.append(f"all_pass {doc['all_pass']!r}, exit {exit_code}")
    return errors
