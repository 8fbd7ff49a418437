"""One SHA-256 over every report the package writes for the benchmark inputs.

    PYTHONPATH=src python tests/output_digest.py

The inputs come from perfbench/gen.py, read as it is: soc_table 1-3 (CSV)
and the 240 tables of portfolio(7), each in the format and at the
confidence level its spec names.  Each table is parsed and analyzed in
every propagation mode with every ASIL target of None, A, B and D, and
each result is written as json, markdown and csv: 8,748 documents.  Then
verify runs on verify_table 1-3 at the workload's sample count and seed.
Every document goes into the digest in a fixed order.

Run it at two commits: a refactor that changes no output prints the same
digest at both.  It exits 1 when the digest is not EXPECTED, the digest
of the committed outputs; a change that moves an output on purpose
updates EXPECTED with it.  The file is not a test module, so pytest does
not collect it.  It takes about 25 seconds on one core.
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
    emit_result,
    parse_csv,
    parse_json,
    verify,
)

EXPECTED = "13a1005fcece39385bcd90cea90ed378248835ab926ba8302fcf63ddb6aef556  8751 documents"
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


def main() -> int:
    digest = hashlib.sha256()
    documents = 0
    for name, table, confidence in _tables():
        for mode in PropagationMode:
            for target in TARGETS:
                result = analyze(table, confidence_level=confidence, mode=mode,
                                 asil_target=target)
                for fmt in FORMATS:
                    digest.update(f"{name}/{mode.value}/{target}/{fmt}\n".encode())
                    digest.update(emit_result(result, fmt).encode())
                    documents += 1
    for seed in (1, 2, 3):
        table = parse_json(gen.write_json(gen.verify_table(seed)))
        verdicts = verify(table, McConfig(samples=gen.VERIFY_SAMPLES, seed=seed))
        digest.update(f"verify{seed}\n{verdicts!r}\n".encode())
        documents += 1
    line = f"{digest.hexdigest()}  {documents} documents"
    print(line)
    if line != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
