"""One SHA-256 per family of the documents the package writes for the benchmark inputs.

    PYTHONPATH=src python tests/output_digest.py

The inputs come from perfbench/gen.py, read as it is: soc_table 1-3 (CSV)
and the 240 tables of portfolio(7), each in the format and at the
confidence level its spec names.  Three families of documents are
hashed, each into its own digest line:

* analyze: each table analyzed in every propagation mode with every ASIL
  target of None, A, B and D, each result written as json, markdown and
  csv (8,748 documents);
* writers: each table written back by emit_json and emit_csv (486);
* verify: the verdicts of verify_table 1-3 at the workload's sample count
  and seed (3).

Run it at two commits: a refactor that changes no output prints the same
lines at both, and a change to one family moves only that family's line.
It exits 1 when a line is not in EXPECTED, the lines of the committed
outputs; a change that moves an output on purpose updates EXPECTED with
it.  The file is not a test module, so pytest does not collect it.  It
takes about 25 seconds on one core.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from fmeda_uq import (  # noqa: E402
    McConfig,
    PropagationMode,
    analyze,
    emit_csv,
    emit_json,
    emit_result,
    parse_csv,
    parse_json,
    verify,
)

EXPECTED = (
    "471e5a4e17faa7815d12287bcfa787900b060d73e73a023f4152d1bf8fc9e7ca  8748 analyze documents",
    "9583848114cf6685c8f810846858e50d6fbaa8a4468d05020c64cb7965f31fab  486 writers documents",
    "d78c5f2b56243f8b7f8f65e37460c9b7a3de1159b7763ad4130939cbd2d1dc12  3 verify documents",
)
TARGETS = (None, "A", "B", "D")
FORMATS = ("json", "markdown", "csv")


def _tables():
    """(name, parsed table, confidence level) of every analyzed input."""
    for seed in (1, 2, 3):
        yield f"soc{seed}", parse_csv(gen.write_csv(gen.soc_table(seed))), 0.95
    for table in gen.portfolio(7):
        spec = table["spec"]
        if spec["format"] == "json":
            parsed = parse_json(gen.write_json(table))
        else:
            parsed = parse_csv(gen.write_csv(table))
        yield table["name"], parsed, spec["confidence"]


def _documents():
    """(family, name, text) of every document, in a fixed order."""
    for name, table, confidence in _tables():
        for mode in PropagationMode:
            for target in TARGETS:
                result = analyze(table, confidence_level=confidence, mode=mode,
                                 asil_target=target)
                for fmt in FORMATS:
                    yield "analyze", f"{name}/{mode.value}/{target}/{fmt}", \
                        emit_result(result, fmt)
        yield "writers", f"{name}/json", emit_json(table)
        yield "writers", f"{name}/csv", emit_csv(table)
    for seed in (1, 2, 3):
        table = parse_json(gen.write_json(gen.verify_table(seed)))
        verdicts = verify(table, McConfig(samples=gen.VERIFY_SAMPLES, seed=seed))
        yield "verify", f"verify{seed}", f"{verdicts!r}\n"


def main() -> int:
    digests = {family: hashlib.sha256() for family in ("analyze", "writers", "verify")}
    counts = dict.fromkeys(digests, 0)
    for family, name, text in _documents():
        digests[family].update(f"{name}\n".encode())
        digests[family].update(text.encode())
        counts[family] += 1
    status = 0
    for family, digest in digests.items():
        line = f"{digest.hexdigest()}  {counts[family]} {family} documents"
        print(line)
        if line not in EXPECTED:
            print(f"not in EXPECTED: {line}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
