"""Domain model for hierarchical FMEDA failure-mode tables.

Hierarchy: FmedaTable -> Part -> Subpart -> FailureModeRow.  Failure
rates are expressed in FIT (failures per 1e9 device-hours); diagnostic
coverages are dimensionless fractions in [0, 1].

A subpart carries its failure modes in one of two forms:

* DirectLambda: every row states lambda_fm (and sigma_lambda_fm) in FIT.
* Distribution: every row states an FMD fraction of the subpart rate,
  with an optional sigma on that fraction, and no FIT rate of its own.
  Its rate lambda_subpart * fmd_fraction and sigma lambda_subpart *
  sigma_fmd are derived when the table is validated and exist only in
  table_arrays(table).lam / .sigma_lam; the row's lambda_fm stays None.

The table-wide rate lambda_tot is always derived as the sum of all row
rates, never user-supplied, so it cannot disagree with the rows.

All types are immutable after construction and keep what they were
given.  One walk over the rows checks every invariant and, for a valid
table, extracts the row-aligned arrays: validate() returns its Violation
records (data, not exceptions), and table_arrays() raises
FmedaValidationError carrying them or returns (and caches) the arrays.
Propagated sigmas are not checked here: analysis.analyze, which is also
the analytic side of mc_oracle.verify, rejects one that overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

# Authored FMD fractions must sum to 1 within this absolute tolerance.
FMD_SUM_TOL = 1e-9
# A declared subpart rate must match the row sum within this relative slack.
LAMBDA_MATCH_RTOL = 1e-9
# The CSV reader's field limit, csv.field_size_limit()'s default: a longer
# part or subpart name, row id or safety-mechanism cell would be written
# but not read back.  The reader leaves that process-wide limit as it is.
_CELL_MAX = 131_072
_CELL_RULE = f"must be at most {_CELL_MAX} characters, the CSV reader's field limit"
_UTF8_RULE = "must be text that UTF-8 can encode, with no lone surrogate"

DIRECT_LAMBDA = "DirectLambda"
DISTRIBUTION = "Distribution"

EXPERT = "expert"
FAULT_SIMULATION = "faultsim"

# Two-sided standard-normal cut-offs, 5 significant digits.
NORMAL_CUTOFFS: dict[float, float] = {
    0.90: 1.6449,
    0.95: 1.9600,
    0.99: 2.5758,
}
FAULTSIM_CONFIDENCE_LEVELS = tuple(NORMAL_CUTOFFS)

# ISO 26262-5 (spfm_min, lfm_min) per ASIL; A has no quantitative targets.
ASIL_THRESHOLDS: dict[str, tuple[float, float] | None] = {
    "A": None,
    "B": (0.90, 0.60),
    "C": (0.97, 0.80),
    "D": (0.99, 0.90),
}
ASIL_LEVELS = tuple(ASIL_THRESHOLDS)


def cutoff(confidence_level: float) -> float:
    """Standard-normal two-sided cut-off for one of the supported levels."""
    try:
        return NORMAL_CUTOFFS[confidence_level]
    except KeyError:
        raise ValueError(
            f"unsupported confidence level {confidence_level!r}; "
            f"expected one of {sorted(NORMAL_CUTOFFS)}"
        ) from None


def margin_to_sigma(margin: float, confidence_level: float) -> float:
    """Standard deviation implied by a campaign margin: sigma = e / t."""
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin!r}")
    return margin / cutoff(confidence_level)


class FmedaValidationError(ValueError):
    """Raised when an operation requires a valid table but violations exist."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"table has {len(self.violations)} violation(s): {lines}")


@dataclass(frozen=True)
class Violation:
    """One broken invariant: where it happened, which rule, what was observed."""

    location: str
    field: str
    rule: str
    observed: object
    message: str

    def __str__(self) -> str:
        return (f"[{self.rule}] {self.location}.{self.field}: {self.message} "
                f"(observed {_repr(self.observed)})")


def _repr(x: object) -> str:
    """repr(x), or a description of an int too long for one."""
    try:
        return repr(x)
    except ValueError:  # an int beyond sys.get_int_max_str_digits()
        return f"an int of {x.bit_length()} bits"


@dataclass(frozen=True)
class DcSource:
    """Provenance of a row's diagnostic coverage estimate.

    kind is "expert" for judgment-based values, or "faultsim" for values
    measured by a statistical fault-injection campaign, in which case the
    campaign's margin of error and confidence level are recorded.
    """

    kind: str = EXPERT
    margin_e: float | None = None
    confidence_level: float | None = None

    @classmethod
    def fault_simulation(cls, margin_e: float, confidence_level: float) -> "DcSource":
        return cls(FAULT_SIMULATION, margin_e, confidence_level)

    @property
    def is_fault_simulation(self) -> bool:
        return self.kind == FAULT_SIMULATION


EXPERT_JUDGMENT = DcSource()


@dataclass(frozen=True)
class FailureModeRow:
    """One failure mode: rate, coverages, and their standard deviations.

    A DirectLambda row states lambda_fm / sigma_lambda_fm in FIT.  A row of
    a Distribution subpart states fmd_fraction / sigma_fmd instead and
    leaves lambda_fm None and sigma_lambda_fm 0; its FIT values are in
    table_arrays(table).lam / .sigma_lam and in analyze's report rows.
    """

    id: str
    name: str = ""
    lambda_fm: float | None = None
    sigma_lambda_fm: float = 0.0
    fmd_fraction: float | None = None
    sigma_fmd: float = 0.0
    dc: float = 0.0
    sigma_dc: float = 0.0
    dc_latent: float = 0.0
    sigma_dc_latent: float = 0.0
    dc_source: DcSource = EXPERT_JUDGMENT
    safety_mechanisms: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "safety_mechanisms", tuple(self.safety_mechanisms))
        if not self.name:
            object.__setattr__(self, "name", self.id)


@dataclass(frozen=True)
class Subpart:
    """A named group of failure modes, optionally with its own rate in FIT.

    fmd_mode may be given explicitly; when None it is inferred from the
    rows (Distribution iff any row carries an FMD fraction).  The rows are
    kept as given: a Distribution row's rate is derived by validation.
    """

    name: str
    lambda_subpart: float | None = None
    fmd_mode: str | None = None
    failure_modes: tuple[FailureModeRow, ...] = ()

    def __post_init__(self):
        rows = tuple(self.failure_modes)
        if self.fmd_mode is None:
            has_fraction = any(r.fmd_fraction is not None for r in rows)
            object.__setattr__(self, "fmd_mode", DISTRIBUTION if has_fraction else DIRECT_LAMBDA)
        object.__setattr__(self, "failure_modes", rows)


@dataclass(frozen=True)
class Part:
    """A named hardware part holding one or more subparts."""

    name: str
    subparts: tuple[Subpart, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "subparts", tuple(self.subparts))


@dataclass(frozen=True)
class FmedaTable:
    """The full analysis input: parts of subparts of failure modes."""

    parts: tuple[Part, ...] = ()
    asil_target: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def __getstate__(self):
        # A copy or an unpickled table validates afresh: the cached arrays
        # (table_arrays) are not part of the state.
        state = dict(self.__dict__)
        state.pop("_arrays", None)
        return state

    @property
    def lambda_tot(self) -> float:
        """Total failure rate in FIT, derived as the sum of all row rates.

        Requires a valid table; the value is table_arrays(self).lambda_tot.
        """
        return table_arrays(self).lambda_tot


def iter_rows(table: FmedaTable) -> Iterator[tuple[Part, Subpart, FailureModeRow]]:
    """Yield (part, subpart, row) triples in table order."""
    for part in table.parts:
        for sub in part.subparts:
            for row in sub.failure_modes:
                yield part, sub, row


# ---------------------------------------------------------------------------
# Validation and array extraction: one walk over the rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableArrays:
    """Row-aligned numeric view of a table (float64), plus row identity.

    lam and sigma_lam hold each row's FIT rate and sigma: the row's own for
    DirectLambda, lambda_subpart times fmd_fraction and sigma_fmd for
    Distribution.  sigma_dc already carries the fault-simulation sigma e/t
    for rows whose DC came from a sampled campaign without an explicit
    sigma_dc.  lambda_tot is the only total rate of the package: lam.sum().
    """

    ids: tuple[str, ...]
    lam: np.ndarray
    sigma_lam: np.ndarray
    dc: np.ndarray
    sigma_dc: np.ndarray
    dc_lat: np.ndarray
    sigma_dc_lat: np.ndarray
    lambda_tot: float


def validate(table: FmedaTable) -> list[Violation]:
    """Check every structural invariant; return all violations found.

    Returns an empty list iff the table is analyzable.  Never raises and
    never mutates: violations are data for the caller to report.
    """
    return _walk(table)[0]


def table_arrays(table: FmedaTable) -> TableArrays:
    """The validated per-row vectors of a table, in table order.

    Raises FmedaValidationError when validate() reports anything.  The
    result is cached on the (frozen) table, outside its dataclass fields,
    and returned by every later call, so a table is validated and
    extracted once however many operations read it.  Its arrays are
    read-only for that reason.
    """
    cached = getattr(table, "_arrays", None)
    if cached is not None:
        return cached
    violations, arrays = _walk(table)
    if violations:
        raise FmedaValidationError(violations)
    object.__setattr__(table, "_arrays", arrays)
    return arrays


def _finite(x: object) -> bool:
    """True iff x is a finite int or float.  None is not a number, nor is a
    bool, which neither parser reads as one."""
    if type(x) is float:
        return x - x == 0.0  # inf - inf and nan - nan are nan
    try:
        return isinstance(x, (int, float)) and type(x) is not bool and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


# The row numbers whose None means "not given"; every other one must be a number.
_OPTIONAL = ("lambda_fm", "fmd_fraction")


def _rate_sum(rates: np.ndarray) -> float:
    """lambda_tot: the one sum of the row rates (numpy's pairwise sum).

    The walk judges and TableArrays holds this very float, so a table
    passes validation iff its lambda_tot is positive and finite.  An
    overflow to inf is a violation, not a warning.
    """
    with np.errstate(over="ignore"):
        return float(np.add.reduce(rates))  # what rates.sum() computes


_INF = math.inf


def _walk(table: FmedaTable) -> tuple[list[Violation], TableArrays | None]:
    """Check every row once and collect its numbers: (violations, arrays).

    A Distribution row's rate and sigma (lambda_subpart times fmd_fraction
    and sigma_fmd) and a fault-simulation row's sigma_dc = e/t are derived
    here, once, from inputs that passed their checks.  arrays is None
    unless there are no violations.

    A row whose numbers are all floats within their ranges, whose id is a
    new non-empty str, whose name and safety mechanisms are strs, whose
    texts UTF-8 can encode (str.isascii() passes nearly all of them at
    once) and whose source is EXPERT_JUDGMENT or a valid fault-simulation
    campaign breaks no rule: one chain of comparisons accepts it, and only
    its values are kept.  Every other row goes through _row_rules, the only
    producer of row Violations.  A part, subpart or row of the wrong type
    is a Violation, and so is a part or subpart name, a row id or a
    safety-mechanism cell that a CSV cell would not read back as itself
    (see _name), and a name, id or safety mechanism that UTF-8 cannot
    encode (text.utf8), so every valid table can be written in both file
    formats, and its reports to a UTF-8 stream, and read back.
    """
    out: list[Violation] = []
    # Every id in table order, mapped to the location of the subpart that
    # first used it; the row's location is that plus "/" and the id.
    seen_ids: dict = {}

    def bad(loc: str, fld: str, rule: str, obs: object, msg: str) -> None:
        out.append(Violation(loc, fld, rule, obs, msg))

    if table.asil_target is not None and table.asil_target not in ASIL_LEVELS:
        bad("table", "asil_target", "asil.unknown", table.asil_target,
            f"ASIL target must be one of {ASIL_LEVELS}")

    lambda_known = True
    values = []  # the six columns of TableArrays, row after row

    part_names: set = set()
    for i, part in enumerate(table.parts):
        if not isinstance(part, Part):
            bad("table", f"parts[{i}]", "table.part_type", part, "each part must be a Part")
            lambda_known = False
            continue
        part_loc = _name(part.name, "part", "", part_names, bad)
        sub_names: set = set()
        for j, sub in enumerate(part.subparts):
            if not isinstance(sub, Subpart):
                bad(part_loc, f"subparts[{j}]", "part.subpart_type", sub,
                    "each subpart must be a Subpart")
                lambda_known = False
                continue
            sub_loc = part_loc + "/" + _name(sub.name, "subpart", part_loc + "/", sub_names, bad)
            dist = sub.fmd_mode == DISTRIBUTION

            if sub.fmd_mode not in (DIRECT_LAMBDA, DISTRIBUTION):
                bad(sub_loc, "fmd_mode", "fmd.mode_unknown", sub.fmd_mode,
                    "fmd_mode must be DirectLambda or Distribution")
                dist = False
            if sub.lambda_subpart is None:
                if dist:
                    bad(sub_loc, "lambda_subpart", "fmd.lambda_subpart_missing", None,
                        "Distribution mode needs lambda_subpart to derive row rates")
            elif not _finite(sub.lambda_subpart):
                bad(sub_loc, "lambda_subpart", "value.finite", sub.lambda_subpart,
                    "subpart rate must be finite")
            elif sub.lambda_subpart < 0:
                bad(sub_loc, "lambda_subpart", "lambda_subpart.nonneg",
                    sub.lambda_subpart, "subpart rate must be >= 0")
            scale = sub.lambda_subpart if dist and _finite(sub.lambda_subpart) else None

            fmd_sum = 0.0
            fmd_complete = dist
            row_sum = 0.0
            row_sum_known = True

            for k, row in enumerate(sub.failure_modes):
                if not isinstance(row, FailureModeRow):
                    bad(sub_loc, f"failure_modes[{k}]", "subpart.row_type", row,
                        "each failure mode must be a FailureModeRow")
                    fmd_complete = row_sum_known = lambda_known = False
                    continue
                rate, sigma_rate, frac, s_fmd = \
                    row.lambda_fm, row.sigma_lambda_fm, row.fmd_fraction, row.sigma_fmd
                dc, sigma_dc, lat, s_lat = row.dc, row.sigma_dc, row.dc_latent, row.sigma_dc_latent
                rid, src, sms = row.id, row.dc_source, row.safety_mechanisms
                # The cheap check; a Distribution row's rate is derived first.
                if dist:
                    clean = (scale is not None and rate is None and type(frac) is float
                             and 0.0 <= frac <= 1.0 and type(s_fmd) is float
                             and type(sigma_rate) is float and sigma_rate == 0.0)
                    if clean:
                        rate, sigma_rate = scale * frac, scale * s_fmd
                else:
                    clean = (frac is None and type(rate) is float
                             and type(sigma_rate) is float and type(s_fmd) is float)
                if (clean and 0.0 <= rate < _INF and 0.0 <= sigma_rate < _INF
                        and 0.0 <= s_fmd < _INF
                        and type(dc) is float and 0.0 <= dc <= 1.0
                        and type(sigma_dc) is float and 0.0 <= sigma_dc < _INF
                        and type(lat) is float and 0.0 <= lat <= 1.0
                        and type(s_lat) is float and 0.0 <= s_lat < _INF
                        and type(rid) is str and rid and rid not in seen_ids
                        and rid == rid.strip() and len(rid) <= _CELL_MAX
                        and (rid.isascii() or _utf8(rid))
                        and type(row.name) is str and (row.name.isascii() or _utf8(row.name))
                        and (not sms or (all([type(s) is str for s in sms])
                                         and len(cell := ";".join(sms)) <= _CELL_MAX
                                         and (cell.isascii() or _utf8(cell))))
                        and (src is EXPERT_JUDGMENT or (
                            type(src) is DcSource and src.kind == FAULT_SIMULATION
                            and type(src.margin_e) is float and 0.0 < src.margin_e < 1.0
                            and src.confidence_level in FAULTSIM_CONFIDENCE_LEVELS))):
                    seen_ids[rid] = sub_loc
                    if sigma_dc == 0.0 and src is not EXPERT_JUDGMENT:
                        sigma_dc = margin_to_sigma(src.margin_e, src.confidence_level)
                    if dist:
                        fmd_sum += frac
                    row_sum += rate
                else:
                    rate, sigma_rate, sigma_dc = _row_rules(row, sub_loc, dist, scale,
                                                            seen_ids, bad)
                    if dist:
                        if row.fmd_fraction is None:
                            fmd_complete = False
                        else:
                            fmd_sum += row.fmd_fraction if _finite(row.fmd_fraction) else 0.0
                    if rate is None or not _finite(rate):
                        row_sum_known = False
                        lambda_known = False
                    else:
                        row_sum += rate
                values.extend((rate, sigma_rate, dc, sigma_dc, lat, s_lat))

            if dist and fmd_complete and abs(fmd_sum - 1.0) > FMD_SUM_TOL:
                bad(sub_loc, "fmd_fraction", "fmd.sum", fmd_sum,
                    f"FMD fractions must sum to 1 within {FMD_SUM_TOL}")

            if not dist and sub.lambda_subpart is not None and row_sum_known \
                    and _finite(sub.lambda_subpart):
                tol = LAMBDA_MATCH_RTOL * max(abs(sub.lambda_subpart), abs(row_sum))
                if abs(sub.lambda_subpart - row_sum) > tol:
                    bad(sub_loc, "lambda_subpart", "subpart.lambda_mismatch",
                        sub.lambda_subpart,
                        f"declared subpart rate differs from row sum {row_sum!r}")

    columns = None
    if lambda_known:  # every rate is a finite number
        if out:
            rates = np.asarray(values[::6], dtype=np.float64)
        else:  # every value is a finite number: a contiguous row per column
            columns = np.fromiter(values, np.float64, len(values)).reshape(-1, 6).T.copy()
            rates = columns[0]
        total = _rate_sum(rates)
        if total <= 0.0:
            bad("table", "lambda_tot", "table.lambda_tot_positive", total,
                "total failure rate must be > 0 for an analyzable table")
        elif not math.isfinite(total):
            bad("table", "lambda_tot", "table.lambda_tot_finite", total,
                "total failure rate overflows the float range")
    if out:
        return out, None
    columns.flags.writeable = False
    return out, TableArrays(tuple(seen_ids), *columns, lambda_tot=total)


def _utf8(text: str) -> bool:
    """True iff UTF-8 can encode text: it holds no lone surrogate, such as
    a JSON string's "\\ud800" escape gives."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _step(x: object) -> str:
    """x as a step of a location: a str as itself, cut to its first 16
    characters and "[...]" past the cell limit; anything else, and a str
    that UTF-8 cannot encode, by its repr."""
    if not isinstance(x, str):
        return _repr(x)
    step = x if len(x) <= _CELL_MAX else x[:16] + "[...]"
    return step if _utf8(step) else _repr(step)


def _name(name: object, what: str, prefix: str, seen: set, bad) -> str:
    """A part's or subpart's name as a step of a location.

    The CSV reader strips every cell and groups rows by part and subpart
    name, so a name must be a non-empty str with no whitespace at either
    end (else name.str, and the location shows its repr), fit in a CSV
    field (else cell.length, and the location shows its start), be text
    that UTF-8 can encode (else text.utf8, and the location shows its
    repr) and be new among the names in seen (else name.duplicate), each
    a Violation at prefix.  Row ids follow the same rules in _row_rules.
    """
    if not (isinstance(name, str) and name and name == name.strip()):
        step = _repr(name)
        bad(prefix + step, "name", "name.str", name,
            f"{what} name must be a non-empty str with no whitespace at either end")
    elif len(name) > _CELL_MAX:
        step = _step(name)
        bad(prefix + step, "name", "cell.length", len(name), f"{what} name {_CELL_RULE}")
    elif not _utf8(name):
        step = _step(name)
        bad(prefix + step, "name", "text.utf8", name, f"{what} name {_UTF8_RULE}")
    else:
        step = name
        if name in seen:
            bad(prefix + name, "name", "name.duplicate", name,
                f"{what} name already used in this {'table' if what == 'part' else 'part'}")
        seen.add(name)
    return step


def _row_rules(row: FailureModeRow, sub_loc: str, dist: bool, scale, seen_ids: dict,
               bad) -> tuple[object, object, object]:
    """Check one row of the subpart at sub_loc against every row rule:
    (rate, sigma_rate, sigma_dc).

    Reports each broken rule through bad(), in a fixed order, and records
    a new id that passes the id rules in seen_ids; such an id is its own
    step of the row's location.  scale is the subpart rate of a
    Distribution row when it is a finite number, else None; the rate is
    None when it cannot be derived (a violation names the cause).
    """
    loc = f"{sub_loc}/{_step(row.id)}"
    if not row.id:
        bad(loc, "id", "id.nonempty", row.id, "row id must not be empty")
    elif not isinstance(row.id, str) or row.id != row.id.strip():
        bad(loc, "id", "id.str", row.id, "row id must be a str with no whitespace at either end")
    elif len(row.id) > _CELL_MAX:
        bad(loc, "id", "cell.length", len(row.id), f"row id {_CELL_RULE}")
    elif not _utf8(row.id):
        bad(loc, "id", "text.utf8", row.id, f"row id {_UTF8_RULE}")
    elif row.id in seen_ids:
        bad(loc, "id", "table.duplicate_id", row.id,
            f"id already used at {seen_ids[row.id]}/{row.id}")
    else:
        seen_ids[row.id] = sub_loc
    if not isinstance(row.name, str) and row.name is not row.id:  # a name "" is the id
        bad(loc, "name", "name.str", row.name, "row name must be a str")
    elif isinstance(row.name, str) and row.name != row.id and not _utf8(row.name):
        bad(loc, "name", "text.utf8", row.name, f"row name {_UTF8_RULE}")
    if not all([isinstance(s, str) for s in row.safety_mechanisms]):
        bad(loc, "safety_mechanisms", "safety_mechanisms.str", row.safety_mechanisms,
            "each safety mechanism must be a str")
    elif len(cell := ";".join(row.safety_mechanisms)) > _CELL_MAX:
        bad(loc, "safety_mechanisms", "cell.length", len(cell),
            f"the safety mechanisms joined by ';' {_CELL_RULE}")
    elif not _utf8(cell):
        bad(loc, "safety_mechanisms", "text.utf8", row.safety_mechanisms,
            f"each safety mechanism {_UTF8_RULE}")

    if not dist:
        rate, sigma_rate = row.lambda_fm, row.sigma_lambda_fm
    elif scale is None or row.fmd_fraction is None or not _finite(row.fmd_fraction):
        rate, sigma_rate = None, 0.0  # not derived; a violation names the cause
    else:
        rate = scale * row.fmd_fraction
        sigma_rate = scale * row.sigma_fmd if _finite(row.sigma_fmd) else 0.0
    numbers = (("lambda_fm", rate), ("sigma_lambda_fm", sigma_rate),
               ("fmd_fraction", row.fmd_fraction), ("sigma_fmd", row.sigma_fmd),
               ("dc", row.dc), ("sigma_dc", row.sigma_dc),
               ("dc_latent", row.dc_latent), ("sigma_dc_latent", row.sigma_dc_latent))
    for fld, v in numbers:
        # A missing rate or fraction has its own rules below.
        if not _finite(v) and (v is not None or fld not in _OPTIONAL):
            bad(loc, fld, "value.finite", v, "value must be finite")

    if _finite(row.dc) and not 0.0 <= row.dc <= 1.0:
        bad(loc, "dc", "dc.range", row.dc, "DC must lie in [0, 1]")
    if _finite(row.dc_latent) and not 0.0 <= row.dc_latent <= 1.0:
        bad(loc, "dc_latent", "dc_latent.range", row.dc_latent,
            "latent DC must lie in [0, 1]")
    for fld, v in numbers[1::2]:  # the four sigmas
        if _finite(v) and v < 0:
            bad(loc, fld, f"{fld}.nonneg", v, "sigma must be >= 0")

    src = row.dc_source
    sigma_dc = row.sigma_dc
    if not isinstance(src, DcSource):
        bad(loc, "dc_source", "dc_source.kind", src,
            "dc_source must be a DcSource of kind expert or faultsim")
    elif src.kind not in (EXPERT, FAULT_SIMULATION):
        bad(loc, "dc_source", "dc_source.kind", src.kind,
            "dc_source kind must be expert or faultsim")
    elif src.is_fault_simulation:
        margin_ok = src.margin_e is not None and _finite(src.margin_e) \
            and 0.0 < src.margin_e < 1.0
        level_ok = src.confidence_level in FAULTSIM_CONFIDENCE_LEVELS
        if not margin_ok:
            bad(loc, "dc_source", "dc_source.margin_range", src.margin_e,
                "fault-simulation margin must lie in (0, 1)")
        if not level_ok:
            bad(loc, "dc_source", "dc_source.confidence_level",
                src.confidence_level,
                f"confidence level must be one of {FAULTSIM_CONFIDENCE_LEVELS}")
        if margin_ok and level_ok and sigma_dc == 0.0:
            sigma_dc = margin_to_sigma(src.margin_e, src.confidence_level)

    if dist:
        if row.fmd_fraction is None:
            bad(loc, "fmd_fraction", "fmd.mode_consistency", None,
                "Distribution subpart rows must carry an FMD fraction")
        else:
            if _finite(row.fmd_fraction) and not 0.0 <= row.fmd_fraction <= 1.0:
                bad(loc, "fmd_fraction", "fmd.fraction_range",
                    row.fmd_fraction, "FMD fraction must lie in [0, 1]")
            if row.lambda_fm is not None:
                bad(loc, "lambda_fm", "fmd.mode_consistency", row.lambda_fm,
                    "Distribution subpart rows take their rate from the FMD fraction")
            if row.sigma_lambda_fm != 0.0:
                bad(loc, "sigma_lambda_fm", "fmd.mode_consistency", row.sigma_lambda_fm,
                    "Distribution subpart rows take their sigma from sigma_fmd")
    else:
        if row.fmd_fraction is not None:
            bad(loc, "fmd_fraction", "fmd.mode_consistency",
                row.fmd_fraction,
                "DirectLambda subpart rows must not carry an FMD fraction")
        if row.lambda_fm is None:
            bad(loc, "lambda_fm", "lambda.missing", None,
                "DirectLambda rows must state lambda_fm")

    if rate is not None and _finite(rate) and rate < 0:
        bad(loc, "lambda_fm", "lambda_fm.nonneg", rate, "failure rate must be >= 0")
    return rate, sigma_rate, sigma_dc

