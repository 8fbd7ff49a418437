"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload analyze_soc|portfolio_gate|mc_verify
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout: fmeda_uq is imported from ./src.  Every
process the benchmark starts runs one workload with one thread of work
(BLAS/OpenMP pools pinned to one thread) and is waited for.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median over SETUP_SAMPLES + 1 fresh interpreters of the time
               from launch until fmeda_uq.cli is imported and the inputs
               are written;
  op_p50_ms    median wall time of one timed operation (S seconds of
               operations after one untimed warm-up);
  peak_rss_mb  peak resident set of the process that ran the operations.

--trace 1 prints the per-layer metrics: S/2 seconds untraced, S/2 seconds
with every layer function wrapped (spans), and one operation under
tracemalloc for the allocation peaks.

Every document the program produced is checked against the independent
reference (oracle.py, checks.py) before anything is printed; a wrong
number makes "correct" false and the exit code 1.  Outputs of the last
run are left in perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("analyze_soc", "portfolio_gate", "mc_verify")
SETUP_SAMPLES = 6          # set-up-only launches, plus the measured process
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150        # beyond --seconds, for warm-up and the last op
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: the program was wrong)."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ONE_THREAD:
        env[name] = "1"
    return env


def launch(args: argparse.Namespace, out: str, mode: str | None = None,
           seconds: float = 0.0) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until READY, its result or None)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--dir", out]
    if mode is not None:
        argv += ["--mode", mode, "--seconds", repr(seconds)]
    limit = SETUP_TIMEOUT_S if mode is None else seconds + RUN_TIMEOUT_S
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != b"READY" or code != 0:
        raise BenchError(f"worker {mode or 'setup'} exited with {code} "
                         f"(ready line {ready[:80]!r})")
    if mode is None:
        return setup_s, None
    with open(os.path.join(out, "result.json")) as fh:
        return setup_s, json.load(fh)


# ---------------------------------------------------------------------------
# Checking the documents
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _docs(out: str) -> dict:
    path = os.path.join(out, "docs.jsonl")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return {(d["name"], d["format"]): d for d in map(json.loads, fh)}


def check_inputs(out: str, expected: dict[str, str]) -> list[str]:
    """The worker wrote exactly what this process generates for the seed."""
    return [f"input {name} differs from the generator's"
            for name, text in expected.items()
            if _read(os.path.join(out, "inputs", name)) != text]


def check_outputs(workload: str, seed: int, out: str) -> list[str]:
    """Every document of the first successful operation against the reference."""
    docs = _docs(out)
    if not docs:
        return []  # every operation failed; nothing to check
    if workload == "analyze_soc":
        table = gen.soc_table(seed)
        errors = check_inputs(out, {"soc.csv": gen.write_csv(table)})
        d = docs[("soc", "json")]
        ref = oracle.reference(table, target=table["cli_asil"])
        found, _ = checks.check_analysis(d["stdout"], d["exit"], ref,
                                         gen.THRESHOLDS[table["cli_asil"]])
        return errors + found
    if workload == "mc_verify":
        table = gen.verify_table(seed)
        errors = check_inputs(out, {"verify.json": gen.write_json(table)})
        d = docs[("verify", "json")]
        ref = oracle.reference(table)
        return errors + checks.check_verify(d["stdout"], d["exit"], ref,
                                            gen.VERIFY_SAMPLES, seed)
    errors = []
    for table in gen.portfolio(seed):
        spec, name = table["spec"], table["name"]
        text = gen.write_json(table) if spec["format"] == "json" else gen.write_csv(table)
        errors += check_inputs(out, {f"{name}.{spec['format']}": text})
        ref = oracle.reference(table, spec["confidence"], spec["mode"], spec["target"])
        d = docs[(name, "json")]
        found, doc = checks.check_analysis(d["stdout"], d["exit"], ref,
                                           gen.THRESHOLDS.get(spec["target"]))
        if not found:
            for fmt, check in (("markdown", checks.check_markdown),
                               ("csv", checks.check_result_csv)):
                found += check(docs[(name, fmt)]["stdout"], doc)
                if docs[(name, fmt)]["exit"] != d["exit"]:
                    found.append(f"{fmt} exit {docs[(name, fmt)]['exit']} != {d['exit']}")
        stem = os.path.join(out, "emitted", name)
        found += checks.check_emitted_json(_read(stem + ".emit.json"), table)
        found += checks.check_emitted_csv(_read(stem + ".emit.csv"), table)
        errors += [f"{name}: {e}" for e in found]
    return errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def per_layer(spans_path: str, peaks: dict, overhead_pct: float, names) -> dict:
    """Per-operation layer figures from the spans of the timed operations."""
    calls: dict[str, int] = {}
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    counters: dict[str, float] = {}
    child_ms: dict[int, float] = {}
    ops = set()
    with open(spans_path) as fh:
        for rec in map(json.loads, fh):
            if rec["op"] == 0:  # warm-up
                continue
            ops.add(rec["op"])
            if "counter" in rec:
                counters[rec["counter"]] = counters.get(rec["counter"], 0) + rec["amount"]
                continue
            ms = (rec["end"] - rec["start"]) * 1e3
            name = rec["name"]
            calls[name] = calls.get(name, 0) + 1
            total_ms[name] = total_ms.get(name, 0.0) + ms
            # Children end, and are written, before their parent.
            self_ms[name] = self_ms.get(name, 0.0) + ms - child_ms.pop(rec["id"], 0.0)
            if rec["parent"] is not None:
                child_ms[rec["parent"]] = child_ms.get(rec["parent"], 0.0) + ms
    n = max(len(ops), 1)
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            value = overhead_pct
        elif name.endswith(".peak_alloc_mb"):
            value = peaks.get(name[:-len(".peak_alloc_mb")], 0) / 2**20
        elif name.endswith(".self_ms"):
            value = self_ms.get(name[:-len(".self_ms")], 0.0) / n
        elif name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0) / n
        elif name.endswith(".ms"):
            value = total_ms.get(name[:-len(".ms")], 0.0) / n
        else:
            value = counters.get(name, 0) / n
        out[name] = value
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fmeda_uq", "cli.py")):
        print(f"no fmeda_uq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    oracle.self_check()

    base = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(base, ignore_errors=True)
    results = []
    try:
        if args.trace == 0:
            setup = [launch(args, os.path.join(base, f"setup{i}"))[0]
                     for i in range(SETUP_SAMPLES)]
            for i in range(SETUP_SAMPLES):
                shutil.rmtree(os.path.join(base, f"setup{i}"))
            setup_s, plain = launch(args, os.path.join(base, "plain"), "plain", args.seconds)
            setup.append(setup_s)
            results.append(("plain", plain))
        else:
            half = args.seconds / 2
            results.append(("plain", launch(args, os.path.join(base, "plain"), "plain", half)[1]))
            results.append(("trace", launch(args, os.path.join(base, "trace"), "trace", half)[1]))
            results.append(("mem", launch(args, os.path.join(base, "mem"), "mem")[1]))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    try:
        errors = check_outputs(args.workload, args.seed, os.path.join(base, "plain"))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        errors = [f"malformed document: {exc!r}"]
    hashes = {h for _, r in results for h in r["hashes"]}
    if len(hashes) > 1:
        errors.append(f"{len(hashes)} different sets of documents for one input")
    for mode, r in results:
        errors += [f"{mode}: {e}" for e in r["errors"]]
        if r["absent"]:
            print(f"{mode}: layer functions absent: {', '.join(r['absent'])}", file=sys.stderr)
    for e in errors[:50]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    plain = results[0][1]
    if not plain["op_ms"]:
        print("no operation completed", file=sys.stderr)
        return 3
    p50 = statistics.median(plain["op_ms"])
    if args.trace == 0:
        values = {"setup_s": statistics.median(setup), "op_p50_ms": p50,
                  "peak_rss_mb": plain["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    else:
        traced = results[1][1]
        overhead = 100.0 * (statistics.median(traced["op_ms"]) - p50) / p50
        values = per_layer(os.path.join(base, "trace", "spans.jsonl"),
                           results[2][1].get("peak_alloc_bytes", {}), overhead,
                           [m["name"] for m in spec["per_layer"]])
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            errors.append(f"metric {name} is {m['value']!r}")

    n_ops = {mode: len(r["op_ms"]) for mode, r in results}
    print(f"{args.workload} seed {args.seed}: timed ops {n_ops}, "
          f"{len(errors)} check failure(s)")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
