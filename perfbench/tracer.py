"""Timing and allocation wrappers around the program's layer functions.

The wrappers are installed from outside the program: each listed function
is replaced, in every loaded fmeda_uq module that binds it, by a wrapper
that records a span (name, start, end, parent span, operation id).  So a
call that analyze makes into its own module's binding of validate is seen
as well as a call from the benchmark.  Spans stay in memory until
write_spans() at the end of the run.

A function that no longer exists under its listed name is reported as
absent and skipped; the run goes on without it.

MemoryTracer is the same idea for a separate memory pass: with
tracemalloc running, each wrapped call reports the peak of memory traced
during the call above what was traced when it started.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (module, function) pairs whose calls are recorded, as <module>.<function>.
LAYERS = (
    ("cli", "main"),
    ("ingest", "parse_csv"),
    ("ingest", "parse_json"),
    ("ingest", "emit_result"),
    ("ingest", "emit_json"),
    ("ingest", "emit_csv"),
    ("model", "validate"),
    ("model", "table_arrays"),
    ("analysis", "analyze"),
    ("sampling", "apply_faultsim_sigmas"),
    ("metrics", "spfm"),
    ("metrics", "lfm"),
    ("metrics", "asil_verdict"),
    ("uncertainty", "sigma_spfm"),
    ("uncertainty", "sigma_lfm"),
    ("eii", "eii_table"),
    ("mc_oracle", "mc_sigma_spfm"),
    ("mc_oracle", "mc_sigma_lfm"),
)
PACKAGE = "fmeda_uq"


def _label(base: str, args, kwargs) -> str:
    """emit_result spans are split by output format."""
    if base == "ingest.emit_result":
        fmt = kwargs.get("format", args[1] if len(args) > 1 else "json")
        return f"{base}.{fmt}"
    return base


def install(make_wrapper) -> list[str]:
    """Wrap every LAYERS function at each module binding it; return absentees."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    absent = []
    for mod_name, func_name in LAYERS:
        home = sys.modules.get(f"{PACKAGE}.{mod_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if not callable(original):
            absent.append(f"{mod_name}.{func_name}")
            continue
        wrapper = functools.wraps(original)(make_wrapper(f"{mod_name}.{func_name}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return absent


class SpanTracer:
    """Records one span per wrapped call, plus a few per-layer counters."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple] = []     # (id, parent, op, name, start, end)
        self.counters: list[tuple] = []  # (op, name, amount)
        self._stack: list[int] = []

    def wrapper(self, base: str, original):
        spans, counters, stack = self.spans, self.counters, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, _label(base, args, kwargs), start, end))
            if base in ("ingest.parse_csv", "ingest.parse_json"):
                counters.append((self.op, "ingest.input_bytes", len(args[0].encode())))
            elif base == "ingest.emit_result":
                counters.append((self.op, "ingest.emit_result.bytes", len(result.encode())))
            elif base == "eii.eii_table":
                counters.append((self.op, "eii.eii_table.entries", len(result)))
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """One JSON object per line: spans, then counters."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
            for op, name, amount in self.counters:
                fh.write(json.dumps({"op": op, "counter": name, "amount": amount}) + "\n")


class MemoryTracer:
    """Peak traced allocation per wrapped call, in bytes above its start."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [traced at entry, highest peak seen]

    def wrapper(self, base: str, original):
        peaks, stack = self.peaks, self._stack

        def measured(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            stack.append([current, 0])
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                entry, child_peak = stack.pop()
                top = max(tracemalloc.get_traced_memory()[1], child_peak)
                name = _label(base, args, kwargs)
                peaks[name] = max(peaks.get(name, 0), top - entry)
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)

        return measured
