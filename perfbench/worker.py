"""One benchmark process: set up one workload, then run its operations.

    python3 perfbench/worker.py --workload W --seed N --dir OUT
                                [--seconds S --mode plain|trace|mem]

Set-up imports fmeda_uq.cli, generates the workload's inputs from the
seed and writes them under OUT, then prints READY on standard output so
the parent can time it.  Without --mode the process stops there.

With a mode, it runs one untimed warm-up operation and then timed
operations, one after another, until S seconds have passed (mem: exactly
one more operation).  Every operation goes through fmeda_uq.cli.main in
this process with stdout and stderr captured; portfolio_gate also writes
each table through the public emitters and reads it back.  The documents
of the first operation that succeeds are saved for the parent to check,
and every operation's documents are hashed, so the parent can check that
they all agree.

  plain  op times and peak RSS, no wrappers
  trace  the same loop with tracer.SpanTracer installed; spans are saved
  mem    tracemalloc on, tracer.MemoryTracer installed, one measured op
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fmeda_uq.cli  # noqa: E402  (the set-up being timed starts here)

import gen  # noqa: E402
import tracer  # noqa: E402

FAILED_EXIT_CODES = (1, 4)  # input error, oracle mismatch


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Set-up: inputs, and the operation of each workload
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, out: str):
    """Write the workload's inputs under out; return its operation."""
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs, exist_ok=True)
    if workload == "analyze_soc":
        table = gen.soc_table(seed)
        path = os.path.join(inputs, "soc.csv")
        _write(path, gen.write_csv(table))
        argv = ["analyze", "--input", path, "--asil", table["cli_asil"], "--format", "json"]
        return lambda: ([("soc", "json") + call(argv)], [])
    if workload == "mc_verify":
        path = os.path.join(inputs, "verify.json")
        _write(path, gen.write_json(gen.verify_table(seed)))
        argv = ["verify", "--input", path, "--samples", str(gen.VERIFY_SAMPLES),
                "--seed", str(seed)]
        return lambda: ([("verify", "json") + call(argv)], [])
    if workload == "portfolio_gate":
        emitted = os.path.join(out, "emitted")
        os.makedirs(emitted, exist_ok=True)
        jobs = []
        for table in gen.portfolio(seed):
            spec = table["spec"]
            path = os.path.join(inputs, f"{table['name']}.{spec['format']}")
            _write(path, gen.write_json(table) if spec["format"] == "json"
                   else gen.write_csv(table))
            argv = ["analyze", "--input", path, "--confidence", f"{spec['confidence']:.2f}",
                    "--mode", spec["mode"]]
            if spec["format"] == "csv" and spec["target"] is not None:
                argv += ["--asil", spec["target"]]
            jobs.append((table["name"], spec["format"], path, argv,
                         os.path.join(emitted, table["name"])))
        return lambda: portfolio_sweep(jobs)
    raise SystemExit(f"unknown workload {workload!r}")


def call(argv: list[str]) -> tuple[int, str, str]:
    """fmeda_uq.cli.main(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fmeda_uq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def portfolio_sweep(jobs):
    """Analyze every table in three formats and round-trip it through the
    public emitters and parsers.  Returns the documents and, for checking
    after the timer stops, (table, json read-back, csv read-back)."""
    ingest = fmeda_uq.ingest
    docs, roundtrips = [], []
    for name, fmt, path, argv, stem in jobs:
        for out_fmt in ("json", "markdown", "csv"):
            docs.append((name, out_fmt) + call(argv + ["--format", out_fmt]))
        text = _read(path)
        table = ingest.parse_json(text) if fmt == "json" else ingest.parse_csv(text)
        _write(stem + ".emit.json", ingest.emit_json(table))
        _write(stem + ".emit.csv", ingest.emit_csv(table))
        roundtrips.append((name, table, ingest.parse_json(_read(stem + ".emit.json")),
                           ingest.parse_csv(_read(stem + ".emit.csv"))))
    return docs, roundtrips


def roundtrip_errors(roundtrips) -> list[str]:
    """parse(emit(table)) must equal the table; the CSV layout carries no
    ASIL target, so only its parts are compared."""
    errors = []
    for name, table, back_json, back_csv in roundtrips:
        if back_json != table:
            errors.append(f"{name}: parse_json(emit_json(table)) differs from the table")
        if back_csv.parts != table.parts:
            errors.append(f"{name}: parse_csv(emit_csv(table)) differs from the table")
    return errors


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------


def run(op, seconds: float, mode: str, out: str) -> dict:
    spans = mem = None
    absent: list[str] = []
    if mode == "trace":
        spans = tracer.SpanTracer()
        absent = tracer.install(spans.wrapper)

    op_ms, hashes, errors = [], [], []
    attempted = failed = 0

    def one(index: int, timed: bool):
        nonlocal attempted, failed
        if spans is not None:
            spans.op = index
        attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            docs, roundtrips = op()
        except Exception:  # the program refused the operation
            failed += 1
            traceback.print_exc()
            return
        if timed:
            op_ms.append((time.perf_counter() - start) * 1e3)
        if any(code in FAILED_EXIT_CODES for _, _, code, _, _ in docs):
            failed += 1
            return
        errors.extend(roundtrip_errors(roundtrips))
        digest = hashlib.sha256()
        for record in docs:
            digest.update(json.dumps(record).encode())
        for name, _, _, _ in roundtrips:
            stem = os.path.join(out, "emitted", name)
            digest.update(_read(stem + ".emit.json").encode())
            digest.update(_read(stem + ".emit.csv").encode())
        hashes.append(digest.hexdigest())
        if len(hashes) == 1:
            with open(os.path.join(out, "docs.jsonl"), "w") as fh:
                for name, fmt, code, stdout, stderr in docs:
                    fh.write(json.dumps({"name": name, "format": fmt, "exit": code,
                                         "stdout": stdout, "stderr": stderr}) + "\n")

    one(0, timed=False)
    if mode == "mem":
        mem = tracer.MemoryTracer()
        absent = tracer.install(mem.wrapper)
        tracemalloc.start()
        one(1, timed=True)
    else:
        start = time.perf_counter()
        index = 1
        while time.perf_counter() - start < seconds:
            one(index, timed=True)
            index += 1

    result = {
        "mode": mode, "op_ms": op_ms, "attempted": attempted, "failed": failed,
        "hashes": hashes, "errors": errors, "absent": absent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spans is not None:
        spans.write_spans(os.path.join(out, "spans.jsonl"))
    if mem is not None:
        result["peak_alloc_bytes"] = mem.peaks
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("plain", "trace", "mem"))
    args = ap.parse_args()
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(fmeda_uq.cli.__file__).startswith(src):
        sys.exit(f"fmeda_uq was imported from {fmeda_uq.cli.__file__}, not from {src}")
    op = setup(args.workload, args.seed, args.dir)
    print("READY", flush=True)
    if args.mode is None:
        return 0
    result = run(op, args.seconds, args.mode, args.dir)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
