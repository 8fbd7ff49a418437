"""Parsing and emission of FMEDA tables and analysis results.

Two table formats share one data model:

* CSV, flat: one row per failure mode with part/subpart as repeated label
  columns (see CSV_COLUMNS).  A row with an empty failure_mode cell and a
  lambda_fit value declares the enclosing subpart's rate, which is how
  Distribution subparts carry lambda_subpart in the flat layout.  For
  fraction rows the sigma_lambda_fit cell holds the fraction's sigma.
* JSON, nested: parts -> subparts -> failure_modes, versioned documents.

Both spell a failure-mode row with the same keys: _row takes a parsed
row's values by position and builds every parsed row, so both formats
reject the same row mistakes, and _row_doc writes every emitted row.

Parsing stops at the first malformed value, and its ParseError names it
by line and column (CSV) or key path (JSON); unknown columns and keys,
and a key written twice in one JSON object, are rejected, not ignored, so
authoring mistakes surface at once.  Each JSON value is checked once, and
each row read in one pass.  Each CSV record is read in one step: its
numbers are converted in one pass and checked for finiteness by their
sum, and only a record that fails that is scanned cell by cell for the
first bad one.  In both formats each distinct dc_source text (and in CSV
each sm_list cell) is parsed once per document, and the line number or
key path is built only for the error.  Empty cells are allowed only
where a default is defined (sigmas and dc_latent default to 0, sm_list
to the empty list); everything else must be explicit.

Emission is deterministic: floats are serialized with 12 significant
digits, JSON keys are sorted, and no timestamps are embedded, so equal
inputs produce byte-identical documents.  Report percentages render at
2 decimals.  The JSON writer writes an object key by key, in sorted
key order, and an array member by member, except a Columns: the caller
that builds an array of same-key objects (analysis.analyze, for the
report's three tables) hands it over as one, and _object_texts writes
it a column at a time.  Each float column is one C-level %.12g (fmt12's
format); only a column whose text fails _float_token's test, which finds
the few tokens that are not yet JSON, is mapped through _float_token.

An analysis result has one document, AnalysisResult.to_dict().  The
JSON report is that document; the markdown and CSV reports are views of
it, written from two tables here: _COLUMNS for the failure-mode table
and _summary for the summary lines.  No emitter reads an AnalysisResult
attribute, so only to_dict() names the result's fields.  emit_result
asks for the document with its three tables as Columns, so writing a
report builds none of their dicts; they are built on first access of
AnalysisResult.rows, .eii_entries or .eii_totals.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re

from .model import (
    DISTRIBUTION,
    DcSource,
    EXPERT_JUDGMENT,
    FailureModeRow,
    FmedaTable,
    Part,
    Subpart,
    table_arrays,
)

CSV_COLUMNS = (
    "part", "subpart", "failure_mode", "lambda_fit", "sigma_lambda_fit",
    "fmd_fraction", "dc", "sigma_dc", "dc_latent", "sigma_dc_latent",
    "dc_source", "sm_list",
)
# The numeric cells, at positions 3 to 9; each column is named by the row key
# it holds, except that a fraction row's sigma_lambda_fit cell holds its
# sigma_fmd.
_CSV_NUMBERS = CSV_COLUMNS[3:10]
FORMAT_VERSION = "fmeda-uq/1"


class ParseError(ValueError):
    """A malformed document, with 1-based line / key-path context."""

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        self.line = line
        self.column = column
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if column is not None:
            ctx.append(f"column {column!r}")
        prefix = ", ".join(ctx)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def fmt12(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{float(x):.12g}"


_encode_str = json.encoder.encode_basestring_ascii


def _float_token(x: float, token: str | None = None) -> str:
    """The JSON token of float(fmt12(x)), as json.dumps writes it; token
    is x's %.12g text, made here when not given.

    That text is the token when it has a "." and holds neither "e+1"
    nor "e-3"; every other float is repr(float(token)), and nan and the
    infinities raise ValueError.  A text without a "." may be an integral
    value, to which repr adds ".0"; "e+1" covers the exponents 12-15,
    where repr stays positional, and "e-3" the subnormals, whose 12
    digits can be more than the shortest.  The other exponents these
    catch read back from repr unchanged.
    """
    if token is None:
        token = f"{x:.12g}"  # fmt12(x); x is already a float
    if "." in token and "e+1" not in token and "e-3" not in token:
        return token
    if "n" in token:  # nan, inf, -inf
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(float(token))


def _json_text(obj, newline: str = "\n", end: str = "") -> str:
    """JSON text of obj, laid out as json.dumps(sort_keys=True, indent=2).

    Each float x is written as float(fmt12(x)).  NaN and infinities raise
    ValueError, as allow_nan=False does, and a key that is not a str
    raises TypeError; newline carries the indent of the enclosing
    container.  end is joined after the closing bracket of an object or
    array (not after a scalar): the emitters pass a document's final
    newline, so the finished text is not copied once more to append it.

    An object is written key by key: its sorted keys, each with the text
    of its value.  A list or tuple is written member by member, and a
    Columns (the report's rows, EII entries and EII totals) a column at a
    time by _object_texts, which gives the text of the list of its
    objects.  Each container joins its own pieces once, brackets included,
    so the pieces of one report row are freed once the row's text is built
    and a large member's text is not copied again by its container.
    """
    if isinstance(obj, float):
        return _float_token(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}" + end
        inner = newline + "  "
        pieces = []
        for key, head in zip(*_heads(tuple(obj), inner)):
            pieces += (head, _json_text(obj[key], inner))
        pieces.append(newline + "}" + end)
        return "".join(pieces)
    if isinstance(obj, (list, tuple, Columns)):
        if not len(obj):
            return "[]" + end
        inner = newline + "  "
        if type(obj) is Columns:
            items = _object_texts(obj, inner)
        else:
            items = [_json_text(item, inner) for item in obj]
        items[0] = "[" + inner + items[0]
        items[-1] += newline + "]" + end
        return ("," + inner).join(items)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _heads(keys: tuple, inner: str) -> tuple[tuple, tuple[str, ...]]:
    """The sorted keys of a non-empty dict, given as tuple(dict), and the
    text before each value: the separator, the indent and the key.  Built
    once per key order and indent, so rows whose optional keys differ
    share theirs too."""
    keys = sorted(keys)
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    heads = ["," + inner + _encode_str(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return tuple(keys), tuple(heads)


# _object_texts formats this many objects at a time.
_BLOCK = 256


class Columns:
    """An array of objects that all have the same keys, held as one column
    per key: columns maps each key, in the objects' key order, to the
    sequence of its values, one per object.

    The JSON writer writes it as the array of those objects straight from
    the columns (_object_texts); objects() builds the dicts.  Read the
    columns, do not change them.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __eq__(self, other) -> bool:
        return type(other) is Columns and self.objects() == other.objects()

    def objects(self) -> tuple[dict, ...]:
        keys = tuple(self.columns)
        return tuple([dict(zip(keys, values)) for values in zip(*self.columns.values())])


def _object_texts(objs: Columns, newline: str) -> list[str]:
    """The text of each object of objs, a column at a time, _BLOCK
    objects at a time.

    An all-float column is formatted by one %.12g over the whole column,
    and only a column whose text fails _float_token's test is mapped
    through it, token by token.  An all-str column is mapped through the
    JSON string encoder, and any other column through _json_text.  Each
    object's text is one join of the heads, its tokens and the tail:
    joined rather than %-formatted, since % over-allocates each text and
    then shrinks it, and the holes that leaves raised the peak RSS of a
    10^4-row report.
    """
    inner = newline + "  "
    tail = newline + "}"
    keys, heads = _heads(tuple(objs.columns), inner)
    texts = []
    for start in range(0, len(objs), _BLOCK):
        columns = []
        for head, key in zip(heads, keys):
            column = tuple(objs.columns[key][start:start + _BLOCK])
            types = set(map(type, column))
            if types == {float}:
                text = ("%.12g," * len(column))[:-1] % column
                tokens = text.split(",")
                if text.count(".") != len(column) or "e+1" in text or "e-3" in text:
                    tokens = map(_float_token, column, tokens)
            elif types == {str}:
                tokens = map(_encode_str, column)
            else:
                tokens = [_json_text(v, inner) for v in column]
            columns += (itertools.repeat(head), tokens)
        columns.append(itertools.repeat(tail))
        texts += map("".join, zip(*columns))
    return texts


def _parse_float(cell: str, line: int | None, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"not a number: {cell!r}", line=line, column=column) from None
    if value - value != 0.0:  # inf or nan
        raise ParseError(f"not a finite number: {cell!r}", line=line, column=column)
    return value


def _parse_dc_source(text: str, where) -> DcSource:
    if text == "expert":
        return EXPERT_JUDGMENT
    fields = text.split(":")
    if len(fields) == 3 and fields[0] == "faultsim" and fields[1].startswith("e=") \
            and fields[2].startswith("cl="):
        try:
            e, cl = float(fields[1][2:]), float(fields[2][3:])
        except ValueError:
            pass
        else:
            if math.isfinite(e) and math.isfinite(cl):
                return DcSource.fault_simulation(e, cl)
    raise ParseError(
        f"dc_source must be 'expert' or 'faultsim:e=<float>:cl=<level>', got {text!r}",
        **where("dc_source"),
    )


def _encode_dc_source(src: DcSource) -> str:
    if src.is_fault_simulation:
        return f"faultsim:e={fmt12(src.margin_e)}:cl={src.confidence_level:.2f}"
    return "expert"


# ---------------------------------------------------------------------------
# The failure-mode row, as both formats spell it
# ---------------------------------------------------------------------------

# Each numeric row key of the files and the FailureModeRow field it sets.
# The other row keys are id, name, dc_source and safety_mechanisms.
_NUMBER_KEYS = {
    "lambda_fit": "lambda_fm",
    "sigma_lambda_fit": "sigma_lambda_fm",
    "fmd_fraction": "fmd_fraction",
    "sigma_fmd": "sigma_fmd",
    "dc": "dc",
    "sigma_dc": "sigma_dc",
    "dc_latent": "dc_latent",
    "sigma_dc_latent": "sigma_dc_latent",
}


def _row(fm_id, name, lambda_fit, sigma_lambda_fit, fmd_fraction, sigma_fmd, dc, sigma_dc,
         dc_latent, sigma_dc_latent, dc_source, safety_mechanisms, where,
         sources: dict) -> FailureModeRow:
    """Make the FailureModeRow of a parsed row: the row rules of both formats.

    The row's values come in FailureModeRow's field order, None for a key
    the file does not set: a float per numeric key, a str for id, name and
    dc_source, and a tuple or list of str for safety_mechanisms.  sources
    maps each dc_source text the document has already used to its DcSource,
    so each distinct text is parsed once per document.  where(key) gives the
    ParseError context of a key (line and column, or key path); it is called
    only on an error.
    """
    if (lambda_fit is None) == (fmd_fraction is None):
        raise ParseError("exactly one of lambda_fit and fmd_fraction must be set",
                         **where("lambda_fit"))
    if sigma_lambda_fit is not None and lambda_fit is None:
        raise ParseError("sigma_lambda_fit requires lambda_fit", **where("sigma_lambda_fit"))
    if sigma_fmd is not None and fmd_fraction is None:
        raise ParseError("sigma_fmd requires fmd_fraction", **where("sigma_fmd"))
    if dc is None:
        raise ParseError("dc must be set", **where("dc"))
    if dc_source is None:
        raise ParseError("dc_source must be set", **where("dc_source"))
    source = sources.get(dc_source)
    if source is None:
        source = sources[dc_source] = _parse_dc_source(dc_source, where)
    return FailureModeRow(
        fm_id, name or "", lambda_fit, 0.0 if sigma_lambda_fit is None else sigma_lambda_fit,
        fmd_fraction, 0.0 if sigma_fmd is None else sigma_fmd, dc,
        0.0 if sigma_dc is None else sigma_dc, 0.0 if dc_latent is None else dc_latent,
        0.0 if sigma_dc_latent is None else sigma_dc_latent, source, safety_mechanisms or (),
    )


def _row_doc(row: FailureModeRow, dist: bool) -> dict:
    """The one writer of a row's keys: its JSON object, floats unformatted."""
    other = ("lambda_fit", "sigma_lambda_fit") if dist else ("fmd_fraction", "sigma_fmd")
    doc = {key: getattr(row, field) for key, field in _NUMBER_KEYS.items() if key not in other}
    doc["id"] = row.id
    if row.name != row.id:
        doc["name"] = row.name
    doc["dc_source"] = _encode_dc_source(row.dc_source)
    if row.safety_mechanisms:
        doc["safety_mechanisms"] = list(row.safety_mechanisms)
    return doc


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> FmedaTable:
    """Parse the flat CSV layout into a validated table.

    Raises ParseError on the first malformed cell (with 1-based line and
    column), or FmedaValidationError aggregating every broken invariant.

    Each failure-mode record is read in one step: its seven numbers are
    converted at once and tested for finiteness by their sum, and only a
    record that fails that (or a sum that overflows) is scanned cell by
    cell for the first bad one.  Each distinct dc_source and sm_list text
    is parsed once per document, and its rows share the result.  The line
    number is read only for an error.
    """
    reader = csv.reader(io.StringIO(text))

    def where(key: str) -> dict:
        return {"line": reader.line_num, "column": key}

    sources: dict[str, DcSource] = {}
    mechanisms: dict[str, tuple[str, ...]] = {"": ()}
    subparts: dict[tuple[str, str], list] = {}  # (part, subpart): [rate, rows]
    n_rows = 0
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("no data rows")
        header = [h.strip() for h in header]
        if header != list(CSV_COLUMNS):
            unknown = [h for h in header if h not in CSV_COLUMNS]
            missing = [c for c in CSV_COLUMNS if c not in header]
            problems = []
            if unknown:
                problems.append(f"unknown columns {unknown}")
            if missing:
                problems.append(f"missing columns {missing}")
            if not problems:
                problems.append("columns out of order")
            raise ParseError(
                "; ".join(problems) + f"; expected exactly {list(CSV_COLUMNS)}", line=1
            )

        for record in reader:
            cells = list(map(str.strip, record))
            if not any(cells):
                continue
            if len(cells) != len(CSV_COLUMNS):
                raise ParseError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}",
                                 line=reader.line_num)
            # The seven numeric cells' names hold their texts until `numbers` below.
            (part, subpart, fm_id, lam, sigma, fraction, dc, sigma_dc, dc_latent,
             sigma_dc_latent, dc_source, sm_list) = cells
            if not part or not subpart:
                raise ParseError("cell must not be empty", **where("subpart" if part else "part"))
            acc = subparts.get((part, subpart))
            if acc is None:
                acc = subparts[part, subpart] = [None, []]

            if not fm_id:
                # Subpart-rate declaration row: lambda_fit only, everything else empty.
                if not lam:
                    raise ParseError("row without a failure_mode must declare the subpart rate",
                                     **where("lambda_fit"))
                for column, cell in zip(CSV_COLUMNS[4:], cells[4:]):
                    if cell:
                        raise ParseError("subpart-rate row must leave this cell empty",
                                         **where(column))
                if acc[0] is not None:
                    raise ParseError(f"duplicate subpart rate for {part}/{subpart}",
                                     **where("lambda_fit"))
                acc[0] = _parse_float(lam, reader.line_num, "lambda_fit")
                continue

            n_rows += 1
            # Inline, not a comprehension, which costs a call per record.
            try:
                numbers = (float(lam) if lam else None, float(sigma) if sigma else None,
                           float(fraction) if fraction else None, float(dc) if dc else None,
                           float(sigma_dc) if sigma_dc else None,
                           float(dc_latent) if dc_latent else None,
                           float(sigma_dc_latent) if sigma_dc_latent else None)
                total = sum(filter(None, numbers))  # empty cells (None) and zeros left out
            except ValueError:
                total = math.nan
            if total - total != 0.0:  # a bad cell, or finite cells whose sum overflows
                numbers = [_parse_float(cell, reader.line_num, key) if cell else None
                           for key, cell in zip(_CSV_NUMBERS, cells[3:10])]
            lam, sigma, fraction, dc, sigma_dc, dc_latent, sigma_dc_latent = numbers
            sigma_fmd = None
            if fraction is not None:  # a fraction row's sigma_lambda_fit cell holds its sigma_fmd
                sigma, sigma_fmd = None, sigma
            sms = mechanisms.get(sm_list)
            if sms is None:
                sms = mechanisms[sm_list] = tuple(
                    [s for s in map(str.strip, sm_list.split(";")) if s])
            acc[1].append(_row(fm_id, None, lam, sigma, fraction, sigma_fmd, dc, sigma_dc,
                               dc_latent, sigma_dc_latent, dc_source or None, sms, where,
                               sources))
    except csv.Error as exc:  # a cell beyond csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None

    if n_rows == 0:
        raise ParseError("no data rows")

    parts: dict[str, list[Subpart]] = {}
    for (pname, sname), (rate, rows) in subparts.items():
        parts.setdefault(pname, []).append(Subpart(sname, rate, None, tuple(rows)))
    table = FmedaTable(tuple([Part(pname, tuple(subs)) for pname, subs in parts.items()]))
    table_arrays(table)  # validates, and caches the arrays for analyze
    return table


def _csv_text(rows) -> str:
    """The CSV document of rows(), an iterable of cell lists, with "\n" line ends.

    csv.writer quotes a cell only for the characters of its line
    terminator, so a lone "\r" in a name would go out unquoted and end the
    record early on reading.  A document holding one is written again with
    every cell quoted; any other is left as it is.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows())
    text = buf.getvalue()
    if "\r" in text:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows())
        text = buf.getvalue()
    return text


def emit_csv(table: FmedaTable) -> str:
    """Serialize a valid table to the flat CSV layout."""
    table_arrays(table)

    def rows():
        yield CSV_COLUMNS
        for part in table.parts:
            for sub in part.subparts:
                if sub.lambda_subpart is not None:
                    yield ([part.name, sub.name, "", fmt12(sub.lambda_subpart)]
                           + [""] * (len(CSV_COLUMNS) - 4))
                dist = sub.fmd_mode == DISTRIBUTION
                for row in sub.failure_modes:
                    doc = _row_doc(row, dist)
                    if dist:
                        doc["sigma_lambda_fit"] = doc.pop("sigma_fmd")
                    yield ([part.name, sub.name, doc["id"]]
                           + [fmt12(doc[key]) if key in doc else "" for key in _CSV_NUMBERS]
                           + [doc["dc_source"], ";".join(doc.get("safety_mechanisms", ()))])

    return _csv_text(rows)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _at(indices: tuple, key: str | None) -> dict:
    """The ParseError context of key (None: the object itself) in the JSON
    object at indices: () for the document, (i,) for part i, (i, j) for its
    subpart j, (i, j, k) for that subpart's row k.  Bound to an object's
    indices, it is the where(key) that the checks below and _row take; they
    call it only to build a ParseError.
    """
    path = "$" + "".join(map("{}[{}]".format, (".parts", ".subparts", ".failure_modes"), indices))
    return {"column": path if key is None else f"{path}.{key}"}


def _expect_keys(obj, where, keys: set[str], required: set[str]) -> None:
    if type(obj) is dict and keys >= obj.keys() >= required:
        return
    if not isinstance(obj, dict):
        path = where(None)["column"]
        raise ParseError(f"expected an object at {path}, got {type(obj).__name__}")
    repeated = obj.get(_REPEATED)
    if repeated is not None:
        raise ParseError(f"repeated key {repeated!r}", **where(repeated))
    unknown = min(obj.keys() - keys, default=None)
    if unknown is not None:
        raise ParseError(f"unknown key {unknown!r}", **where(unknown))
    raise ParseError(f"missing required key {min(required - obj.keys())!r}", **where(None))


def _expect_str(value, where, key: str) -> str:
    if type(value) is not str:
        raise ParseError(f"expected a string, got {type(value).__name__}", **where(key))
    return value


def _expect_number(value, where, key: str) -> float:
    if type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
    elif type(value) is not float:
        raise ParseError(f"expected a number, got {type(value).__name__}", **where(key))
    if value - value != 0.0:  # inf or nan
        raise ParseError("expected a finite number", **where(key))
    return value


def _expect_list(value, where, key: str) -> list:
    if type(value) is not list:
        raise ParseError(f"expected an array, got {type(value).__name__}", **where(key))
    return value


_REPEATED = object()  # _unique_keys' mark: not a str, so never a JSON key


def _unique_keys(pairs: list) -> dict:
    """A JSON object; without this hook json.loads keeps a repeated key's last value.

    An object that repeats a key holds the first such key under _REPEATED,
    and _expect_keys reports it at its path when the walk reaches the object.
    """
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        obj[_REPEATED] = next(k for k in keys if keys.count(k) > 1)
    return obj


def parse_json(text: str) -> FmedaTable:
    """Parse the nested JSON document into a validated table."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None

    doc_where = functools.partial(_at, ())
    _expect_keys(doc, doc_where, {"version", "parts", "asil_target"}, {"version", "parts"})
    version = _expect_str(doc["version"], doc_where, "version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}; "
                         f"expected {FORMAT_VERSION!r}", **doc_where("version"))
    asil = _expect_str(doc["asil_target"], doc_where, "asil_target") if "asil_target" in doc \
        else None

    parts = []
    sources: dict[str, DcSource] = {}
    for i, pd in enumerate(_expect_list(doc["parts"], doc_where, "parts")):
        part_where = functools.partial(_at, (i,))
        _expect_keys(pd, part_where, _PART_KEYS, _PART_KEYS)
        subs = []
        for j, sd in enumerate(_expect_list(pd["subparts"], part_where, "subparts")):
            where = functools.partial(_at, (i, j))
            _expect_keys(sd, where, _SUBPART_KEYS, _SUBPART_REQUIRED)
            lam_sub = _expect_number(sd["lambda_fit"], where, "lambda_fit") \
                if "lambda_fit" in sd else None
            mode = _expect_str(sd["fmd_mode"], where, "fmd_mode") if "fmd_mode" in sd else None
            rows = tuple([_parse_json_row(fd, functools.partial(_at, (i, j, k)), sources)
                          for k, fd in enumerate(
                              _expect_list(sd["failure_modes"], where, "failure_modes"))])
            subs.append(Subpart(_expect_str(sd["name"], where, "name"), lam_sub, mode, rows))
        parts.append(Part(_expect_str(pd["name"], part_where, "name"), tuple(subs)))

    table = FmedaTable(tuple(parts), asil)
    table_arrays(table)  # validates, and caches the arrays for analyze
    return table


_PART_KEYS = {"name", "subparts"}
_SUBPART_KEYS = {"name", "failure_modes", "lambda_fit", "fmd_mode"}
_SUBPART_REQUIRED = {"name", "failure_modes"}
_ROW_KEYS = {"id", "name", "dc_source", "safety_mechanisms", *_NUMBER_KEYS}


def _parse_json_row(fd, where, sources: dict) -> FailureModeRow:
    """The row at where(None), read in one pass.

    A value that is what its key needs (a finite float, a str, a list of
    str) is taken as it is.  At the first other value the row's keys are
    checked and the object copied once; from then on an int is converted to
    a float, and the first bad value raises the ParseError that names it.
    """
    if type(fd) is not dict or "id" not in fd:  # _expect_keys raises on such a row
        _expect_keys(fd, where, _ROW_KEYS, {"id"})
    fields = fd
    for key, value in fd.items():
        t = type(value)
        if t is float and value - value == 0.0 and key in _NUMBER_KEYS \
                or t is str and key in {"id", "name", "dc_source"} \
                or t is list and key == "safety_mechanisms" \
                and all([type(s) is str for s in value]):
            continue
        if fields is fd:  # the row's first other value
            _expect_keys(fd, where, _ROW_KEYS, {"id"})
            fields = dict(fd)
        if key in _NUMBER_KEYS:
            fields[key] = _expect_number(value, where, key)
        elif key != "safety_mechanisms":
            _expect_str(value, where, key)  # raises: a str of these keys was taken above
        else:  # raises on the first member that is not a str
            for n, s in enumerate(_expect_list(value, where, key)):
                _expect_str(s, where, f"{key}[{n}]")
    get = fields.get
    return _row(get("id"), get("name"), get("lambda_fit"), get("sigma_lambda_fit"),
                get("fmd_fraction"), get("sigma_fmd"), get("dc"), get("sigma_dc"),
                get("dc_latent"), get("sigma_dc_latent"), get("dc_source"),
                get("safety_mechanisms"), where, sources)


def emit_json(table: FmedaTable) -> str:
    """Serialize a valid table to the nested JSON document."""
    table_arrays(table)
    doc: dict = {"version": FORMAT_VERSION}
    if table.asil_target is not None:
        doc["asil_target"] = table.asil_target
    doc["parts"] = []
    for part in table.parts:
        subs = []
        for sub in part.subparts:
            sd: dict = {"name": sub.name, "fmd_mode": sub.fmd_mode}
            if sub.lambda_subpart is not None:
                sd["lambda_fit"] = sub.lambda_subpart
            dist = sub.fmd_mode == DISTRIBUTION
            sd["failure_modes"] = [_row_doc(row, dist) for row in sub.failure_modes]
            subs.append(sd)
        doc["parts"].append({"name": part.name, "subparts": subs})
    return _json_text(doc, end="\n")


# ---------------------------------------------------------------------------
# Analysis-result emission
# ---------------------------------------------------------------------------


def emit_result(result, format: str = "json") -> str:
    """Render an AnalysisResult's report document as json, markdown or csv.

    The document is to_dict(columns=True): its rows, EII entries and EII
    totals are written from their Columns, so none of their dicts is built.
    """
    if format not in ("json", "markdown", "csv"):
        raise ValueError(f"unknown result format {format!r}; expected json, markdown or csv")
    doc = result.to_dict(columns=True)
    if format == "json":
        return _json_text(doc, end="\n")
    return _result_markdown(doc) if format == "markdown" else _result_csv(doc)


# The report's failure-mode table: (row key, markdown header, CSV header,
# cell format).  The name columns come first and have no format: CSV writes
# a name as it is, and markdown escapes it with _md_cell.
_COLUMNS = (
    ("part", "part", "part", None),
    ("subpart", "subpart", "subpart", None),
    ("failure_mode", "failure mode", "failure_mode", None),
    ("lambda_fm_fit", "lambda_fm [FIT]", "lambda_fit", "%.12g"),
    ("sigma_lambda_fm_fit", "sigma_lambda_fm [FIT]", "sigma_lambda_fit", "%.12g"),
    ("dc", "DC", "dc", "%.12g"),
    ("sigma_dc", "sigma_DC", "sigma_dc", "%.12g"),
    ("eii_dc_percent", "EII from sigma_DC [%]", "eii_dc_percent", "%.2f"),
    ("eii_lambda_percent", "EII from sigma_lambda_fm [%]", "eii_lambda_percent", "%.2f"),
    ("eii_total_percent", "total EII [%]", "eii_total_percent", "%.2f"),
)
# Each format writes a row through one template built here from the table.
_MD_ROW = "| " + " | ".join([fmt or "%s" for *_, fmt in _COLUMNS]) + " |"
_CSV_NUMBERS_ROW = ",".join([fmt for *_, fmt in _COLUMNS if fmt])


def _summary(doc: dict):
    """Each summary line: its markdown label and text, and the CSV (metric,
    value) rows of the same values; the EII note, the stamp and an absent
    ASIL target are markdown only.  A new summary field is one document
    key in AnalysisResult.to_dict and one entry here.
    """
    def number(label, metric, x, unit=""):
        text = fmt12(x)
        return label, text + unit, [(metric, text)]

    def interval(label, metric, iv):
        lo, hi = fmt12(iv["lo"]), fmt12(iv["hi"])
        text = f"[{lo}, {hi}]" + (" (clamped to [0, 1])" if iv["clamped"] else "")
        return label, text, [(metric + "_lo", lo), (metric + "_hi", hi)]

    sigma = doc["sigma_spfm"]
    yield number("lambda_tot", "lambda_tot_fit", doc["lambda_tot_fit"], " FIT")
    yield number("SPFM", "spfm", doc["spfm"])
    yield number("sigma_SPFM (full)", "sigma_spfm_full", sigma["full"])
    yield number("sigma_SPFM (DC-only)", "sigma_spfm_dc_only", sigma["dc_only"])
    yield number("sigma_SPFM (lambda-only)", "sigma_spfm_lambda_only", sigma["lambda_only"])
    yield interval("SPFM interval", "spfm_interval", doc["interval_spfm"])
    if doc["lfm"] is None:
        yield "LFM", f"undefined ({doc['lfm_note']})", [("lfm", "undefined")]
    else:
        yield number("LFM", "lfm", doc["lfm"])
        yield number("sigma_LFM", "sigma_lfm", doc["sigma_lfm"])
        yield interval("LFM interval", "lfm_interval", doc["interval_lfm"])
    level, k = f"{doc['confidence_level']:.2f}", fmt12(doc["k"])
    yield "confidence level", f"{level} (k = {k})", [("confidence_level", level), ("k", k)]
    yield "propagation mode", doc["mode"], [("mode", doc["mode"])]
    asil = doc["asil"]
    if asil is None:
        yield "ASIL target", "none", []
    else:
        lfm = "" if asil["lfm"] is None else f", LFM {asil['lfm']}"
        text = f"{asil['target']} -> SPFM {asil['spfm']}{lfm}, overall {asil['overall']}"
        yield "ASIL target", text, [
            ("asil_target", asil["target"]), ("verdict_spfm", asil["spfm"]),
            ("verdict_lfm", asil["lfm"] or "n/a"), ("verdict_overall", asil["overall"])]
    if doc["eii_note"]:
        yield "note", doc["eii_note"], []
    stamp = doc.get("stamp")
    if stamp:
        yield "generated by", f"{stamp.get('tool', '')} at {stamp.get('created', '')}", []


# A backslash and a pipe are escaped, so a name cannot add a table cell;
# each line break (as str.splitlines reads one) becomes <br>, so a name
# cannot split its row.  Names without any of these are returned as they are.
_MD_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_MD_CELL = str.maketrans({"\\": "\\\\", "|": "\\|", **dict.fromkeys(_MD_BREAKS, "<br>")})
_MD_SPECIAL = re.compile("[\\\\|" + _MD_BREAKS + "]")


def _md_cell(text: str) -> str:
    if _MD_SPECIAL.search(text) is None:
        return text
    return text.replace("\r\n", "\n").translate(_MD_CELL)


def _result_markdown(doc: dict) -> str:
    lines = ["# FMEDA uncertainty analysis", "", "## Failure modes", "",
             "| " + " | ".join([header for _, header, _, _ in _COLUMNS]) + " |",
             "|" + " --- |" * len(_COLUMNS)]
    columns = doc["rows"].columns
    lines += map(_MD_ROW.__mod__, zip(*[columns[key] if fmt else map(_md_cell, columns[key])
                                        for key, *_, fmt in _COLUMNS]))
    lines += ["", "## Summary", ""]
    lines += [f"- {label}: {text}" for label, text, _ in _summary(doc)]
    return "\n".join(lines) + "\n"


def _result_csv(doc: dict) -> str:
    def rows():
        yield [header for _, _, header, _ in _COLUMNS]
        columns = doc["rows"].columns
        names = zip(*[columns[key] for key, *_, fmt in _COLUMNS if fmt is None])
        numbers = zip(*[columns[key] for key, *_, fmt in _COLUMNS if fmt])
        for cells, values in zip(names, numbers):
            yield [*cells, *(_CSV_NUMBERS_ROW % values).split(",")]
        yield []
        yield ["metric", "value"]
        for *_, metric_rows in _summary(doc):
            yield from metric_rows

    return _csv_text(rows)
