"""Command-line front-end: analyze, sample-size, verify.

Standard output carries exclusively the requested document; every
diagnostic goes to standard error.  Exit codes encode the outcome so CI
pipelines can gate on them:

  analyze      0 PassRobust or no ASIL target, 2 PassFragile, 3 Fail,
               1 input error
  sample-size  0 ok, 1 invalid parameters
  verify       0 both oracles pass, 4 oracle mismatch, 1 input error

Usage errors from the argument parser also exit 1 (exit 2 is reserved
for the fragile verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import analyze
from .ingest import ParseError, emit_result, parse_csv, parse_json
from .mc_oracle import McConfig, verify
from .metrics import FAIL, PASS_FRAGILE
from .model import ASIL_LEVELS, NORMAL_CUTOFFS, FmedaValidationError
from .sampling import sample_size
from .uncertainty import PropagationMode

_MODES = {mode.value.replace("_", "-"): mode for mode in PropagationMode}


class _Parser(argparse.ArgumentParser):
    # Argument errors are input errors (exit 1); argparse's default exit
    # code 2 would collide with the PassFragile verdict.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused.

    parse_args keeps no state between calls: each returns a new Namespace.
    """
    parser = _Parser(prog="fmeda-uq", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fmeda-uq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="compute metrics, sigmas, EII and verdict")
    p.add_argument("--input", required=True, help="table file (.csv or .json)")
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.add_argument("--confidence", type=float, choices=tuple(NORMAL_CUTOFFS), default=0.95)
    p.add_argument("--mode", choices=sorted(_MODES), default="full",
                   help="which sigma drives intervals and the verdict")
    p.add_argument("--asil", choices=ASIL_LEVELS, default=None,
                   help="override the table's ASIL target")
    p.add_argument("--stamp", action="store_true",
                   help="embed tool name and UTC timestamp in the output")

    p = sub.add_parser("sample-size", help="size a statistical fault-injection campaign")
    p.add_argument("--population", required=True, type=int)
    p.add_argument("--margin", required=True, type=float)
    p.add_argument("--confidence", required=True, type=float)
    p.add_argument("--proportion", type=float, default=0.5)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="Monte Carlo check of the analytic sigmas")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--no-truncate", action="store_true",
                   help="do not clamp draws to physical bounds")
    return parser


def _load_table(path_text: str):
    path = Path(path_text)
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_csv(text)


def _report_input_error(exc: Exception) -> int:
    if isinstance(exc, FmedaValidationError):
        print(f"input invalid: {len(exc.violations)} violation(s)", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
    else:
        print(f"input error: {exc}", file=sys.stderr)
    return 1


def _cmd_analyze(args) -> int:
    stamp = None
    if args.stamp:
        stamp = {
            "tool": f"fmeda-uq {__version__}",
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
    try:
        table = _load_table(args.input)
        result = analyze(
            table,
            confidence_level=args.confidence,
            mode=_MODES[args.mode],
            asil_target=args.asil,
            stamp=stamp,
        )
        document = emit_result(result, args.format)
    except (ParseError, FmedaValidationError) as exc:
        return _report_input_error(exc)
    sys.stdout.write(document)
    if result.verdict is None:
        return 0
    if result.verdict.overall == FAIL:
        return 3
    if result.verdict.overall == PASS_FRAGILE:
        return 2
    return 0


def _cmd_sample_size(args) -> int:
    try:
        plan = sample_size(args.population, args.margin, args.confidence,
                           args.proportion)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(json.dumps(asdict(plan), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join([f"{name.replace('_', ' ') + ':':18}{value}\n"
                                  for name, value in asdict(plan).items()]))
    return 0


def _cmd_verify(args) -> int:
    try:
        # The config first: samples or seed out of range stop before the read.
        config = McConfig(samples=args.samples, seed=args.seed,
                          truncate=not args.no_truncate)
        table = _load_table(args.input)
        spfm_verdict, lfm_verdict, lfm_note = verify(table, config)
    except ValueError as exc:  # McConfig's range checks, ParseError, FmedaValidationError
        return _report_input_error(exc)
    except MemoryError:  # a wide table's chunk buffers hold at least one sample's row
        return _report_input_error(ValueError(
            f"verify with --samples {args.samples}: the sampler's buffers for this "
            f"table do not fit in memory"))

    if lfm_verdict is None:
        # No detected pool: nothing to verify on the LFM side.
        print(f"note: LFM not verified: {lfm_note}", file=sys.stderr)
    all_pass = spfm_verdict.passed and (lfm_verdict is None or lfm_verdict.passed)
    doc = {"spfm": spfm_verdict.to_dict(),
           "lfm": None if lfm_verdict is None else lfm_verdict.to_dict(),
           "all_pass": all_pass}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return 0 if all_pass else 4


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "sample-size":
        return _cmd_sample_size(args)
    return _cmd_verify(args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
