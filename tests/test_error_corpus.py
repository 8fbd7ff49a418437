"""The exact validation and parse-error output of a fixed corpus of bad inputs.

tests/data/error_corpus.json holds, for every case below, what the
package reports: the str() of each Violation of a table, in order (with
its arrays when it is valid), or (str(err), line, column) of a
ParseError, or the validation messages of a parsed document.  The test
asserts that the package still reports exactly that, so a faster check
of well-formed rows cannot change a message, its order or an array.

Regenerate the file after a deliberate change of a message with

    PYTHONPATH=src python tests/test_error_corpus.py
"""

from __future__ import annotations

import json
import math
import random
from operator import attrgetter
from pathlib import Path

from fmeda_uq import (DcSource, FailureModeRow, FmedaTable, Part, Subpart, analyze, emit_csv,
                      emit_json, emit_result, validate)
from fmeda_uq.ingest import CSV_COLUMNS, FORMAT_VERSION, ParseError, parse_csv, parse_json
from fmeda_uq.model import FmedaValidationError, table_arrays

CORPUS = Path(__file__).parent / "data" / "error_corpus.json"

ROW_FIELDS = ("id", "name", "lambda_fm", "sigma_lambda_fm", "fmd_fraction", "sigma_fmd",
              "dc", "sigma_dc", "dc_latent", "sigma_dc_latent", "dc_source",
              "safety_mechanisms")
# Each row field is set in turn to each of these.
ODD_VALUES = (None, math.nan, math.inf, -math.inf, -1.0, 1.5, "0.5", True, 10 ** 399,
              0.0, -0.0, 1, 2.0, "")
FAULTSIM = DcSource.fault_simulation(0.01, 0.95)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _table_result(build) -> dict:
    try:
        table = build()
    except Exception as exc:  # a row field the constructor itself rejects
        return {"construct": type(exc).__name__}
    try:
        found = [str(v) for v in validate(table)]
    except Exception as exc:
        return {"raises": _error(exc)}
    result = {"violations": found}
    if not found:
        arrays = table_arrays(table)
        result["ids"] = [repr(i) for i in arrays.ids]
        result["arrays"] = [[x.hex() for x in column.tolist()] for column in (
            arrays.lam, arrays.sigma_lam, arrays.dc, arrays.sigma_dc, arrays.dc_lat,
            arrays.sigma_dc_lat)]
        result["lambda_tot"] = arrays.lambda_tot.hex()
    return result


def _sub(name, rows, lambda_subpart=None, fmd_mode=None) -> Subpart:
    return Subpart(name, lambda_subpart, fmd_mode,
                   tuple(FailureModeRow(**fields) for fields in rows))


def _one_part(rows, **sub) -> FmedaTable:
    return FmedaTable((Part("CPU", (_sub("EXEC", rows, **sub), Subpart("TAIL", None, None, (
        FailureModeRow("T1", lambda_fm=5.0, dc=0.5),)))),))


# The middle row of each base subpart is the one a case changes.
_BASES = {
    "direct": (dict(lambda_subpart=None), [
        dict(id="A", lambda_fm=10.0, sigma_lambda_fm=1.0, dc=0.9, sigma_dc=0.01),
        dict(id="B", lambda_fm=20.0, sigma_lambda_fm=2.0, dc=0.8, sigma_dc=0.02,
             dc_latent=0.5, sigma_dc_latent=0.05, safety_mechanisms=("SM1",)),
        dict(id="C", lambda_fm=30.0, dc=0.7),
    ]),
    "distribution": (dict(lambda_subpart=100.0), [
        dict(id="A", fmd_fraction=0.3, sigma_fmd=0.01, dc=0.9, sigma_dc=0.01),
        dict(id="B", fmd_fraction=0.5, sigma_fmd=0.02, dc=0.8, sigma_dc=0.02,
             dc_latent=0.5, sigma_dc_latent=0.05),
        dict(id="C", fmd_fraction=0.2, dc=0.7),
    ]),
    "faultsim": (dict(lambda_subpart=None), [
        dict(id="A", lambda_fm=10.0, dc=0.9, dc_source=FAULTSIM),
        dict(id="B", lambda_fm=20.0, dc=0.8, dc_latent=0.5, dc_source=FAULTSIM),
        dict(id="C", lambda_fm=30.0, dc=0.7, sigma_dc=0.03, dc_source=FAULTSIM),
    ]),
}


def _field_cases():
    for base, (sub, rows) in _BASES.items():
        yield f"{base}/clean", lambda sub=sub, rows=rows: _one_part(rows, **sub)
        for field in ROW_FIELDS:
            for i, value in enumerate(ODD_VALUES):
                changed = [dict(rows[0]), dict(rows[1], **{field: value}), dict(rows[2])]
                yield (f"{base}/{field}/{i}",
                       lambda sub=sub, changed=changed: _one_part(changed, **sub))


def _row(rid, **fields):
    return dict(dict(id=rid, lambda_fm=10.0, dc=0.9), **fields)


def _parts(*parts):
    """FmedaTable from (part name, [(subpart name, rows, lambda_subpart), ...])."""
    return FmedaTable(tuple(
        Part(name, tuple(_sub(s, rows, lam) for s, rows, lam in subs)) for name, subs in parts))


def _id_cases():
    yield "id/empty", lambda: _one_part([_row("A"), _row(""), _row("")])
    yield "id/dup_in_subpart", lambda: _one_part([_row("A"), _row("A"), _row("A")])
    yield "id/dup_across_subparts", lambda: _parts(
        ("P", [("S1", [_row("A"), _row("B")], None), ("S2", [_row("B"), _row("A")], None)]))
    yield "id/dup_across_parts", lambda: _parts(
        ("P", [("S1", [_row("A")], None)]), ("Q", [("S1", [_row("A")], None)]),
        ("R", [("S9", [_row("A")], None)]))
    yield "id/dup_of_bad_row", lambda: _parts(
        ("P", [("S1", [_row("A", dc=1.5)], None), ("S2", [_row("A")], None)]))
    yield "id/bad_dup_of_clean_row", lambda: _parts(
        ("P", [("S1", [_row("A")], None), ("S2", [_row("A", dc=math.nan)], None)]))
    yield "id/int_then_bool", lambda: _one_part([_row(1), _row(True), _row(1.0)])
    yield "id/str_then_int", lambda: _one_part([_row("1"), _row(1)])


def _source_cases():
    sources = {
        "margin_0": DcSource.fault_simulation(0.0, 0.95),
        "margin_1": DcSource.fault_simulation(1.0, 0.95),
        "margin_half": DcSource.fault_simulation(0.5, 0.99),
        "margin_negative": DcSource.fault_simulation(-0.1, 0.95),
        "margin_nan": DcSource.fault_simulation(math.nan, 0.95),
        "margin_inf": DcSource.fault_simulation(math.inf, 0.95),
        "margin_none": DcSource("faultsim", None, 0.95),
        "margin_str": DcSource.fault_simulation("0.1", 0.95),
        "margin_int": DcSource.fault_simulation(1, 0.95),
        "margin_huge_int": DcSource.fault_simulation(10 ** 399, 0.95),
        "level_half": DcSource.fault_simulation(0.01, 0.5),
        "level_none": DcSource.fault_simulation(0.01, None),
        "level_90": DcSource.fault_simulation(0.02, 0.90),
        "level_99": DcSource.fault_simulation(0.02, 0.99),
        "margin_0_level_half": DcSource.fault_simulation(0.0, 0.5),
        "kind_unknown": DcSource("bogus", 0.01, 0.95),
        "kind_expert_with_margin": DcSource("expert", 0.3, 0.5),
        "expert_equal_not_same": DcSource(),
    }
    for name, src in sources.items():
        for sigma_dc in (0.0, 0.02):
            yield (f"source/{name}/sigma_dc_{sigma_dc}",
                   lambda src=src, s=sigma_dc: _one_part(
                       [_row("A"), _row("B", dc_source=src, sigma_dc=s)]))


def _distribution_cases():
    def dist(rows, lam=100.0, mode=None):
        return lambda: _one_part(rows, lambda_subpart=lam, fmd_mode=mode)

    yield "dist/own_rate", dist([_row("A", fmd_fraction=0.5), dict(
        id="B", fmd_fraction=0.5, dc=0.9)])
    yield "dist/own_sigma_rate", dist([dict(id="A", fmd_fraction=0.5, dc=0.9,
                                            sigma_lambda_fm=1.0),
                                       dict(id="B", fmd_fraction=0.5, dc=0.9)])
    yield "dist/own_rate_nan", dist([dict(id="A", fmd_fraction=0.5, dc=0.9,
                                          lambda_fm=math.nan, sigma_lambda_fm=math.nan),
                                     dict(id="B", fmd_fraction=0.5, dc=0.9)])
    yield "dist/missing_fraction", dist([dict(id="A", fmd_fraction=0.5, dc=0.9),
                                         dict(id="B", dc=0.9)], mode="Distribution")
    yield "dist/sum_not_one", dist([dict(id="A", fmd_fraction=0.5, dc=0.9),
                                    dict(id="B", fmd_fraction=0.4, dc=0.9)])
    yield "dist/no_lambda_subpart", dist([dict(id="A", fmd_fraction=1.0, dc=0.9)], lam=None)
    yield "dist/sigma_overflow", dist([dict(id="A", fmd_fraction=1.0, dc=0.9,
                                            sigma_fmd=1e300)], lam=1e300)
    yield "dist/fraction_in_direct", dist([_row("A", fmd_fraction=0.5)], lam=None,
                                          mode="DirectLambda")
    yield "dist/mode_unknown", dist([_row("A")], lam=None, mode="Bogus")
    yield "dist/mode_unknown_with_fraction", dist([dict(id="A", fmd_fraction=1.0, dc=0.9)],
                                                  mode="Bogus")
    # A Distribution subpart without rows: its fractions sum to 0, not 1.
    for lam in (50.0, 0.0, None):
        yield f"dist/no_rows/{lam}", dist([], lam=lam, mode="Distribution")


def _subpart_rate_cases():
    for i, value in enumerate((-1.0, math.nan, math.inf, -math.inf, "100", True, 10 ** 400,
                               None, 0.0, 100, 60.0, 59.0)):
        yield f"subpart_rate/direct/{i}", lambda v=value: _one_part(
            [_row("A", lambda_fm=20.0), _row("B", lambda_fm=40.0)], lambda_subpart=v)
        yield f"subpart_rate/distribution/{i}", lambda v=value: _one_part(
            [dict(id="A", fmd_fraction=0.25, sigma_fmd=0.1, dc=0.9),
             dict(id="B", fmd_fraction=0.75, dc=0.8)], lambda_subpart=v)


def _table_level_cases():
    yield "table/asil_unknown", lambda: FmedaTable(_one_part([_row("A")]).parts, "E")
    yield "table/asil_b", lambda: FmedaTable(_one_part([_row("A")]).parts, "B")
    yield "table/total_zero", lambda: _one_part([_row("A", lambda_fm=0.0)])
    yield "table/total_overflow", lambda: _one_part(
        [_row("A", lambda_fm=1e308), _row("B", lambda_fm=1e308)])
    yield "table/negative_total", lambda: FmedaTable((Part("P", (Subpart("S", None, None, (
        FailureModeRow("A", lambda_fm=-1.0, dc=0.9),)),)),))
    yield "table/empty", lambda: FmedaTable(())


def _structure_cases():
    """Objects of the wrong type where a part, subpart or row belongs, names
    and ids that a CSV file would not read back as themselves, and safety
    mechanisms that are not strs."""
    good = _one_part([_row("A")])
    part, sub = good.parts[0], good.parts[0].subparts[0]
    yield "structure/part_str", lambda: FmedaTable(("x",))
    yield "structure/part_none_after_a_part", lambda: FmedaTable((part, None))
    yield "structure/subpart_str", lambda: FmedaTable((Part("P", ("x",)),))
    yield "structure/subpart_int_after_a_subpart", lambda: FmedaTable((Part("P", (sub, 5)),))
    for mode, lam, row in (("DirectLambda", None, _row("A")),
                           ("Distribution", 100.0, dict(id="A", fmd_fraction=1.0, dc=0.9))):
        for name, odd in (("none", None), ("str", "B"), ("dict", {"id": "B"})):
            yield (f"structure/{mode}/row_{name}",
                   lambda mode=mode, lam=lam, row=row, odd=odd: FmedaTable((Part("P", (
                       Subpart("S", lam, mode, (FailureModeRow(**row), odd)),)),)))
    for level in ("part", "subpart"):
        for name, value in (("int", 7), ("none", None), ("empty", ""), ("float", 1.5),
                            ("huge_int", 10 ** 5000), ("space", " "), ("padded", " P"),
                            ("tab_padded", "P\t"), ("inner_space", "P 1")):
            def build(level=level, value=value):
                rows = (FailureModeRow("A", lambda_fm=10.0, dc=0.9),)
                if level == "part":
                    return FmedaTable((Part(value, (Subpart("S", None, None, rows),)),))
                return FmedaTable((Part("P", (Subpart(value, None, None, rows),)),))
            yield f"names/{level}_{name}", build
    yield "names/row_huge_int_id", lambda: _one_part([_row("A"), _row(10 ** 5000)])
    for name, rid in (("space", " "), ("padded", " B"), ("padded_like_a", "A "),
                      ("nbsp_padded", "B\xa0"), ("inner_space", "B 1")):
        yield f"names/row_id_{name}", lambda rid=rid: _one_part([_row("A"), _row(rid)])
    rows = [("S", [_row("A")], None), ("S", [_row("B")], None)]
    yield "names/subpart_repeated", lambda: _parts(("P", rows))
    yield "names/subpart_repeated_with_rates", lambda: _parts(
        ("P", [("S", [_row("A")], 10.0), ("S", [_row("B")], 10.0)]))
    yield "names/part_repeated", lambda: _parts(("P", rows[:1]), ("P", rows[1:]))
    yield "names/subpart_in_two_parts", lambda: _parts(("P", rows[:1]), ("Q", rows[1:]))
    for name, sms in (("int", (1,)), ("none", (None,)), ("str_then_float", ("SM1", 2.0)),
                      ("bytes", (b"SM1",)), ("empty_str", ("",))):
        yield f"safety_mechanisms/{name}", lambda sms=sms: _one_part(
            [_row("A"), _row("B", safety_mechanisms=sms)])
    # Text that UTF-8 cannot encode (a lone surrogate, as a JSON "\ud800"
    # escape gives), and text that it can, outside the BMP too.
    for tag, text in (("lone_surrogate", "X\ud800"), ("lone_low_surrogate", "\udc80X"),
                      ("astral", "X\U0001f600\u00e9")):
        yield f"utf8/part_{tag}", lambda text=text: _parts((text, [("S", [_row("A")], None)]))
        yield f"utf8/subpart_{tag}", lambda text=text: _parts(("P", [(text, [_row("A")], None)]))
        yield f"utf8/row_id_{tag}", lambda text=text: _one_part([_row("A"), _row(text)])
        yield f"utf8/row_name_{tag}", lambda text=text: _one_part(
            [_row("A"), _row("B", name=text)])
        yield f"utf8/safety_mechanisms_{tag}", lambda text=text: _one_part(
            [_row("A"), _row("B", safety_mechanisms=("SM1", text))])
    yield "utf8/every_text", lambda: _parts(("P\ud800", [("S\ud800", [
        _row("A\ud800", name="N\ud800", safety_mechanisms=("SM\ud800",), dc=2.0)], None)]))


# The CSV reader's default field limit, csv.field_size_limit(): a cell of
# this many characters is read back, one more is not.
CELL_LIMIT = 131_072


def _cell_cases():
    """Names and safety-mechanism cells at and just past the CSV field limit.

    A row id at the limit validates, and the corpus would then hold it in
    full; test_every_table_that_validates_is_written_and_read_back writes
    and reads back one instead.
    """
    for size, tag in ((CELL_LIMIT, "at_limit"), (CELL_LIMIT + 1, "over_limit")):
        long = "N" * size
        yield f"cells/part_name_{tag}", lambda long=long: _parts((long, [("S", [_row("A")], None)]))
        yield f"cells/subpart_name_{tag}", lambda long=long: _parts(
            ("P", [("S", [_row("A")], None), (long, [_row("B")], 10.0)]))
        half = size // 2
        yield f"cells/safety_mechanisms_{tag}", lambda long=long, half=half: _one_part(
            [_row("A"), _row("B", safety_mechanisms=(long[:half], long[half + 1:]))])
    long = "N" * (CELL_LIMIT + 1)
    yield "cells/row_id_over_limit", lambda: _one_part([_row("A"), _row(long)])
    yield "cells/row_id_over_limit_and_bad_dc", lambda: _one_part([_row("A"), _row(long, dc=2.0)])
    yield "cells/one_safety_mechanism_over_limit", lambda: _one_part(
        [_row("A", safety_mechanisms=(long,))])
    yield "cells/every_cell_over_limit", lambda: _parts((long, [(long, [
        _row(long, safety_mechanisms=("SM", long)), _row("B", dc=2.0)], None)]))


def _mixed_cases():
    """Seeded tables of several subparts whose rows mix clean and odd values."""
    rng = random.Random(16)
    for n in range(40):
        subs = []
        for s in range(3):
            dist = rng.random() < 0.4
            rows = []
            for r in range(4):
                fields = (dict(id=f"R{rng.randrange(12)}", fmd_fraction=0.25, sigma_fmd=0.01,
                               dc=0.9, sigma_dc=0.01) if dist else
                          dict(id=f"R{rng.randrange(12)}", lambda_fm=10.0 + r,
                               sigma_lambda_fm=0.5, dc=0.9, sigma_dc=0.01, dc_latent=0.3))
                if rng.random() < 0.3:
                    fields["dc_source"] = rng.choice((FAULTSIM, DcSource.fault_simulation(
                        0.0, 0.5), DcSource("bogus")))
                for _ in range(rng.randrange(3)):
                    field = rng.choice(ROW_FIELDS[2:10])
                    fields[field] = rng.choice(ODD_VALUES[:7] + (0.0, 0.4, 10 ** 399))
                rows.append(fields)
            subs.append((f"S{s}", rows, 100.0 if dist else None))
        yield f"mixed/{n}", lambda subs=subs: _parts(("P", subs))


def table_cases():
    yield from _field_cases()
    yield from _id_cases()
    yield from _source_cases()
    yield from _distribution_cases()
    yield from _subpart_rate_cases()
    yield from _table_level_cases()
    yield from _structure_cases()
    yield from _cell_cases()
    yield from _mixed_cases()


# ---------------------------------------------------------------------------
# Documents: the row mistakes of both formats
# ---------------------------------------------------------------------------

_GOOD_ROW = {"id": "FM1", "lambda_fit": 10.0, "sigma_lambda_fit": 1.0, "dc": 0.9,
             "sigma_dc": 0.01, "dc_latent": 0.5, "sigma_dc_latent": 0.02,
             "dc_source": "expert", "safety_mechanisms": ["SM1", "SM2"], "name": "first"}


def _json_doc(row_text: str) -> str:
    good = json.dumps(dict(_GOOD_ROW, id="FM0"))
    return (f'{{"version": "{FORMAT_VERSION}", "parts": [{{"name": "P", "subparts": ['
            f'{{"name": "S", "failure_modes": [{good}, {row_text}]}}]}}]}}')


def _json_cases():
    rows = {
        "clean": _GOOD_ROW,
        "int_value": dict(_GOOD_ROW, dc=1),
        "int_rate": dict(_GOOD_ROW, lambda_fit=10),
        "bool_value": dict(_GOOD_ROW, dc=True),
        "bool_rate": dict(_GOOD_ROW, lambda_fit=False),
        "str_value": dict(_GOOD_ROW, dc="0.9"),
        "null_value": dict(_GOOD_ROW, sigma_dc=None),
        "missing_dc": {k: v for k, v in _GOOD_ROW.items() if k != "dc"},
        "missing_dc_source": {k: v for k, v in _GOOD_ROW.items() if k != "dc_source"},
        "missing_id": {k: v for k, v in _GOOD_ROW.items() if k != "id"},
        "missing_rate": {k: v for k, v in _GOOD_ROW.items()
                         if k not in ("lambda_fit", "sigma_lambda_fit")},
        "both_rates": dict(_GOOD_ROW, fmd_fraction=0.5),
        "sigma_without_rate": dict({k: v for k, v in _GOOD_ROW.items() if k != "lambda_fit"},
                                   fmd_fraction=0.5),
        "sigma_fmd_without_fraction": dict(_GOOD_ROW, sigma_fmd=0.1),
        "unknown_key": dict(_GOOD_ROW, colour="red"),
        "two_unknown_keys": dict(_GOOD_ROW, zeta=1, alpha=2),
        "id_int": dict(_GOOD_ROW, id=5),
        "name_int": dict(_GOOD_ROW, name=5),
        "sm_not_list": dict(_GOOD_ROW, safety_mechanisms="SM1"),
        "sm_int_member": dict(_GOOD_ROW, safety_mechanisms=["SM1", 2]),
        "sm_empty": dict(_GOOD_ROW, safety_mechanisms=[]),
        "dc_source_bad": dict(_GOOD_ROW, dc_source="faultsim:e=0.1"),
        "dc_source_nan": dict(_GOOD_ROW, dc_source="faultsim:e=nan:cl=0.95"),
        "dc_source_faultsim": dict(_GOOD_ROW, dc_source="faultsim:e=0.01:cl=0.95",
                                   sigma_dc=0.0),
        "dc_source_int": dict(_GOOD_ROW, dc_source=1),
        "dc_out_of_range": dict(_GOOD_ROW, dc=1.5),
        "negative_sigma": dict(_GOOD_ROW, sigma_dc=-0.01),
        "duplicate_id": dict(_GOOD_ROW, id="FM0"),
        "empty_id": dict(_GOOD_ROW, id=""),
        "id_lone_surrogate": dict(_GOOD_ROW, id="FM\ud800"),
        "name_lone_surrogate": dict(_GOOD_ROW, name="first\udfff"),
        "sm_lone_surrogate": dict(_GOOD_ROW, safety_mechanisms=["SM1", "\ud800"]),
        "id_surrogate_pair": dict(_GOOD_ROW, id="FM\U0001f600"),
    }
    for name, row in rows.items():
        yield f"json/{name}", _json_doc(json.dumps(row))
    good = json.dumps(_GOOD_ROW)
    for name, literal in (("nan", "NaN"), ("inf", "Infinity"), ("big", "1e400"),
                          ("huge_int", "9" * 400)):
        yield f"json/dc_{name}", _json_doc(good.replace('"dc": 0.9', f'"dc": {literal}'))
    yield "json/row_not_object", _json_doc("[1, 2]")
    yield "json/row_null", _json_doc("null")
    yield "json/fraction_rows", (
        f'{{"version": "{FORMAT_VERSION}", "parts": [{{"name": "P", "subparts": ['
        '{"name": "S", "lambda_fit": 100.0, "failure_modes": ['
        '{"id": "A", "fmd_fraction": 0.25, "sigma_fmd": 0.01, "dc": 0.9, "dc_source": "expert"},'
        '{"id": "B", "fmd_fraction": 0.75, "dc": 0.8, "dc_source": "expert",'
        ' "lambda_fit": 5.0}]}]}]}')


# The structure of a JSON document.  Each case edits a copy of a valid
# document whose edited part, subpart and row all sit at index 1, so every
# index of a key path shows.
def _structure_doc() -> dict:
    return {"version": FORMAT_VERSION, "asil_target": "B", "parts": [
        {"name": "P0", "subparts": [
            {"name": "D", "fmd_mode": "Distribution", "lambda_fit": 100.0, "failure_modes": [
                {"id": "D1", "fmd_fraction": 0.4, "sigma_fmd": 0.01, "dc": 0.9,
                 "dc_source": "expert"},
                {"id": "D2", "fmd_fraction": 0.6, "dc": 0.8,
                 "dc_source": "faultsim:e=0.01:cl=0.95"}]}]},
        {"name": "P1", "subparts": [
            {"name": "S0", "failure_modes": [
                {"id": "A", "lambda_fit": 10.0, "dc": 0.9, "dc_source": "expert"}]},
            {"name": "S1", "fmd_mode": "DirectLambda", "lambda_fit": 50.0, "failure_modes": [
                {"id": "C", "lambda_fit": 30.0, "dc": 0.7, "dc_source": "expert"},
                dict(_GOOD_ROW, id="B", lambda_fit=20.0)]}]}]}


# Each level's edited object, as a path of keys and indices from the document.
_LEVELS = {
    "document": (),
    "part": ("parts", 1),
    "subpart": ("parts", 1, "subparts", 1),
    "row": ("parts", 1, "subparts", 1, "failure_modes", 1),
}
_LEVEL_KEYS = {
    "document": ("version", "asil_target", "parts"),
    "part": ("name", "subparts"),
    "subpart": ("name", "fmd_mode", "lambda_fit", "failure_modes"),
    "row": ("id", "name", "lambda_fit", "sigma_lambda_fit", "fmd_fraction", "sigma_fmd", "dc",
            "sigma_dc", "dc_latent", "sigma_dc_latent", "dc_source", "safety_mechanisms"),
}
# Each key is set in turn to each of these, or deleted; the first nine
# also replace the whole document, part, subpart or row.
STRUCTURE_VALUES = (None, True, 0, 1.5, 10 ** 400, "x", "", [], [1], {}, {"a": 1})
_DELETE = object()


def _object(doc, path):
    """The object at path in doc, or None where an earlier edit replaced it."""
    obj = doc
    for step in path:
        if isinstance(obj, dict) and step in obj \
                or isinstance(obj, list) and type(step) is int and step < len(obj):
            obj = obj[step]
        else:
            return None
    return obj


def _edited(edits) -> str:
    """The structure document's text after edits, each (path, key, value).

    An edit sets the key of the object at path to value, or deletes it; one
    whose object an earlier edit replaced is skipped.
    """
    doc = _structure_doc()
    for path, key, value in edits:
        obj = _object(doc, path)
        if not isinstance(obj, dict):
            continue
        if value is _DELETE:
            obj.pop(key, None)
        else:
            obj[key] = value
    return json.dumps(doc)


def _replaced(path, value) -> str:
    """The structure document's text with the object at path replaced by value."""
    if not path:
        return json.dumps(value)
    doc = _structure_doc()
    _object(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


_SAME = object()


def _repeated(path, key, value=_SAME) -> str:
    """The structure document's text with key written twice in the object at
    path: the second time right after the first, with the same value, or
    with value when one is given.  A key the object lacks is added first."""
    doc = _structure_doc()
    obj = _object(doc, path)
    obj.setdefault(key, value)
    items = list(obj.items())
    at = [k for k, _ in items].index(key) + 1
    items.insert(at, ("\0", obj[key] if value is _SAME else value))
    obj.clear()
    obj.update(items)
    return json.dumps(doc).replace(json.dumps("\0"), json.dumps(key))


def _repeated_key_cases():
    """A key written twice in one object, at every level."""
    for level, path in _LEVELS.items():
        obj = _object(_structure_doc(), path)
        for key in _LEVEL_KEYS[level]:
            if key in obj:
                yield f"json_structure/{level}/{key}/repeated", _repeated(path, key)
        yield f"json_structure/{level}/unknown_key/repeated", _repeated(path, "zz", 1)
    doc = _structure_doc()
    yield "json_structure/document/parts/repeated_other", _repeated(
        (), "parts", [dict(doc["parts"][1], name="Q")])
    yield "json_structure/part/name/repeated_other", _repeated(_LEVELS["part"], "name", "Q")
    yield "json_structure/subpart/lambda_fit/repeated_other", _repeated(
        _LEVELS["subpart"], "lambda_fit", 60.0)
    yield "json_structure/row/dc/repeated_other", _repeated(_LEVELS["row"], "dc", 0.5)


def _json_structure_cases():
    yield "json_structure/clean", _edited(())
    yield from _repeated_key_cases()
    for level, path in _LEVELS.items():
        for key in _LEVEL_KEYS[level]:
            for i, value in enumerate(STRUCTURE_VALUES):
                yield f"json_structure/{level}/{key}/{i}", _edited([(path, key, value)])
            yield f"json_structure/{level}/{key}/delete", _edited([(path, key, _DELETE)])
        yield f"json_structure/{level}/unknown_key", _edited([(path, "zz", 1)])
        yield f"json_structure/{level}/unknown_keys", _edited(
            [(path, "zz", 1), (path, "colour", "red")])
        for i, value in enumerate(STRUCTURE_VALUES[:9]):
            yield f"json_structure/{level}/not_object/{i}", _replaced(path, value)
    rng = random.Random(19)
    values = STRUCTURE_VALUES + (_DELETE, 0.5, "expert", ["SM"])
    for n in range(80):
        # The first half edits any level, the second only the row.
        levels = list(_LEVELS) if n < 40 else ["row"]
        edits = []
        for _ in range(rng.randrange(1, 4)):
            level = rng.choice(levels)
            key = rng.choice(_LEVEL_KEYS[level] + ("zz",))
            edits.append((_LEVELS[level], key, rng.choice(values)))
        yield f"json_structure/mix/{n}", _edited(edits)


_CSV_HEADER = ",".join(CSV_COLUMNS)
_CSV_GOOD = "P,S,FM0,10,1,,0.9,0.01,0.5,0.02,expert,SM1;SM2"


def _csv_cases():
    rows = {
        "clean": "P,S,FM1,20,2,,0.8,0.01,0.5,,expert,",
        "int_text": "P,S,FM1,20,2,,1,0,0,0,expert,",
        "bool_text": "P,S,FM1,20,2,,True,0.01,0.5,,expert,",
        "missing_dc": "P,S,FM1,20,2,,,0.01,0.5,,expert,",
        "missing_dc_source": "P,S,FM1,20,2,,0.8,0.01,0.5,,,",
        "both_rates": "P,S,FM1,20,2,0.5,0.8,0.01,0.5,,expert,",
        "no_rate": "P,S,FM1,,,,0.8,0.01,0.5,,expert,",
        "sigma_without_rate": "P,S,FM1,,2,,0.8,0.01,0.5,,expert,",
        "nan_cell": "P,S,FM1,20,2,,nan,0.01,0.5,,expert,",
        "inf_cell": "P,S,FM1,20,inf,,0.8,0.01,0.5,,expert,",
        "big_cell": "P,S,FM1,1e400,2,,0.8,0.01,0.5,,expert,",
        "word_cell": "P,S,FM1,20,2,,high,0.01,0.5,,expert,",
        "empty_part": ",S,FM1,20,2,,0.8,0.01,0.5,,expert,",
        "empty_subpart": "P,,FM1,20,2,,0.8,0.01,0.5,,expert,",
        "short_record": "P,S,FM1,20,2,,0.8,0.01,0.5,,expert",
        "long_record": "P,S,FM1,20,2,,0.8,0.01,0.5,,expert,,",
        "rate_row_extra_cell": "P,S,,20,2,,,,,,,",
        "rate_row_without_rate": "P,S,,,,,,,,,,",
        "rate_row_duplicate": "P,T,,20,,,,,,,,\nP,T,,20,,,,,,,,",
        "dc_source_bad": "P,S,FM1,20,2,,0.8,0.01,0.5,,faultsim:e=x:cl=0.95,",
        "dc_source_faultsim": "P,S,FM1,20,2,,0.8,,0.5,,faultsim:e=0.01:cl=0.95,ECC",
        "dc_out_of_range": "P,S,FM1,20,2,,1.5,0.01,0.5,,expert,",
        "duplicate_id": "P,T,FM0,20,2,,0.8,0.01,0.5,,expert,",
        "fraction_rows": "P,T,,100,,,,,,,,\nP,T,A,,0.01,0.25,0.9,,,,expert,\n"
                         "P,T,B,,,0.75,0.8,,,,expert,",
        "fraction_sum": "P,T,,100,,,,,,,,\nP,T,A,,,0.25,0.9,,,,expert,\n"
                        "P,T,B,,,0.7,0.8,,,,expert,",
        "subpart_rate_mismatch": "P,S,,11,,,,,,,,",
        # Text that no UTF-8 file holds, as a caller may still pass it.
        "id_lone_surrogate": "P,S,FM\ud800,20,2,,0.8,0.01,0.5,,expert,",
        "part_lone_surrogate": "P\ud800,S,FM1,20,2,,0.8,0.01,0.5,,expert,",
        # A cell repeated over rows: one faultsim cell and then a bad
        # variant of it, one margin spelled two ways, and one sm_list cell,
        # once with spaces around its ";".
        "dc_source_repeated_then_bad": "\n".join(
            [f"P,S,FM{i},20,2,,0.8,,0.5,,faultsim:e=0.01:cl=0.95,ECC" for i in range(1, 5)]
            + ["P,S,FM5,20,2,,0.8,,0.5,,faultsim:e=x:cl=0.95,ECC"]),
        "dc_source_two_spellings": "P,S,FM1,20,2,,0.8,,0.5,,faultsim:e=0.01:cl=0.95,\n"
                                   "P,S,FM2,20,2,,0.8,,0.5,,faultsim:e=0.010:cl=0.95,",
        "sm_list_repeated": "\n".join(
            [f"P,S,FM{i},20,2,,0.8,0.01,0.5,,expert,SM1;SM2" for i in range(1, 5)]
            + ["P,S,FM5,20,2,,0.8,0.01,0.5,,expert,SM1 ; SM2"]),
    }
    for name, row in rows.items():
        yield f"csv/{name}", f"{_CSV_HEADER}\n{_CSV_GOOD}\n{row}\n"


def document_cases():
    for name, text in _json_cases():
        yield name, parse_json, text
    for name, text in _json_structure_cases():
        yield name, parse_json, text
    for name, text in _csv_cases():
        yield name, parse_csv, text
    long = "N" * (CELL_LIMIT + 1)
    yield ("json_structure/part/name/over_limit", parse_json,
           _edited([(_LEVELS["part"], "name", long)]))
    yield "csv/part_over_limit", parse_csv, f"{_CSV_HEADER}\n{_CSV_GOOD}\n{long}{_CSV_GOOD[1:]}\n"


def _document_result(parse, text: str) -> dict:
    try:
        table = parse(text)
    except ParseError as err:
        return {"parse_error": [str(err), err.line, err.column]}
    except FmedaValidationError as err:
        return {"violations": [str(v) for v in err.violations]}
    return {"table": repr(table)}


def corpus() -> dict:
    out = {name: _table_result(build) for name, build in table_cases()}
    for name, parse, text in document_cases():
        out[name] = _document_result(parse, text)
    return out


def corpus_text(cases: dict) -> str:
    """The corpus file: one case a line, sorted by name."""
    lines = [f"{json.dumps(name)}: {json.dumps(cases[name])}" for name in sorted(cases)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_error_output_matches_the_pinned_corpus():
    pinned = json.loads(CORPUS.read_text(encoding="utf-8"))
    now = corpus()
    assert sorted(now) == sorted(pinned)
    for name in pinned:
        assert now[name] == pinned[name], name


def _outline(table: FmedaTable, row=attrgetter("id")) -> list:
    """Each part's name with each subpart's name and row(r) of its rows,
    without what a CSV file has no line for: a subpart with no row and no
    rate, and then a part with no subpart."""
    parts = [(p.name, [(s.name, [row(r) for r in s.failure_modes]) for s in p.subparts
                       if s.failure_modes or s.lambda_subpart is not None])
             for p in table.parts]
    return [(name, subs) for name, subs in parts if subs]


def _valid_tables():
    """(name, table) of every corpus table and document that validates."""
    for name, build in table_cases():
        try:
            table = build()
        except Exception:  # a row field the constructor itself rejects
            continue
        if not validate(table):
            yield name, table
    for name, parse, text in document_cases():
        try:
            yield name, parse(text)
        except (ParseError, FmedaValidationError):
            pass
    # Every CSV cell that holds a name, an id or text at the field limit.
    long = "N" * CELL_LIMIT
    yield "every_cell_at_limit", _parts((long, [(long, [
        _row(long, name=long, safety_mechanisms=(long[:9], long[10:])), _row("B")], None)]))


def test_every_table_that_validates_is_written_and_read_back():
    # validate() never raises, and what it accepts every emitter writes,
    # as text that UTF-8 encodes, and both readers read back with the same
    # part and subpart names and row ids; JSON also with the same row names
    # and safety mechanisms, which CSV does not hold as they are (it has no
    # row name column, and splits the safety mechanisms' cell at ";" and
    # strips each).  analyze itself may still reject a propagated sigma
    # that overflows.
    valid = 0
    for name, table in _valid_tables():
        valid += 1
        row = attrgetter("id", "name", "safety_mechanisms")
        json_text, csv_text = emit_json(table), emit_csv(table)
        assert _outline(parse_json(json_text), row) == _outline(table, row), name
        assert _outline(parse_csv(csv_text)) == _outline(table), name
        csv_text.encode("utf-8")
        try:
            result = analyze(table)
        except FmedaValidationError as err:
            assert {v.rule for v in err.violations} == {"table.sigma_finite"}, name
            continue
        for fmt in ("json", "markdown", "csv"):
            assert emit_result(result, fmt).encode("utf-8"), name
    assert valid > 100


if __name__ == "__main__":
    CORPUS.write_text(corpus_text(corpus()), encoding="utf-8")
