"""Layer-by-layer timings at 10, 1k, 10k and 100k failure modes.

Each layer of the pipeline is timed on its own: the two readers, the
validation walk and the array extraction, the propagation kernel,
analysis.analyze (which runs the kernel and the EII ranking and builds
the report's columns), the EII ranking, the three report writers and one
Monte Carlo chunk; and the two commands, analyze and verify, as a whole.  The tables are the
benchmark's own SoC tables (perfbench/gen.py, read as it is): the first
failure modes of soc_table(1) for the smaller sizes, and soc_table 1 to 10
side by side, their part names and row ids prefixed, for 10^5.

Outside Tier-1 (pytest's testpaths is tests/); run it from the root of a
checkout with pytest-benchmark installed:

    PYTHONPATH=src python -m pytest bench/test_layers.py
    PYTHONPATH=src python -m pytest bench/test_layers.py --benchmark-json=layers.json
    PYTHONPATH=src python -m pytest bench/test_layers.py --benchmark-disable  # each once

Every layer runs a fixed number of rounds per size, after one warm-up
round, with the cyclic garbage collector on, as the program runs.  The
tables of one size are built once and dropped before the next size.
"""

from __future__ import annotations

import contextlib
import copy
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from fmeda_uq import analysis, cli, eii, ingest, mc_oracle, model, uncertainty  # noqa: E402

SIZES = (10, 1_000, 10_000, 100_000)
ROUNDS = {10: 100, 1_000: 20, 10_000: 5, 100_000: 3}
_PER_PART = gen.SOC_SUBPARTS * gen.SOC_ROWS
_PER_TABLE = gen.SOC_PARTS * _PER_PART


def _soc_rows(n: int) -> dict:
    """A gen table of n failure modes, n a multiple of gen.SOC_ROWS."""
    if n > _PER_TABLE:
        parts = []
        for seed in range(1, n // _PER_TABLE + 1):
            for part in gen.soc_table(seed)["parts"]:
                parts.append({"name": f"T{seed}.{part['name']}", "subparts": [
                    {**sub, "rows": [{**row, "id": f"T{seed}.{row['id']}"} for row in sub["rows"]]}
                    for sub in part["subparts"]]})
        return {"parts": parts}
    soc = gen.soc_table(1)["parts"]
    parts = soc[:n // _PER_PART]
    if n % _PER_PART:  # the next part, cut to its first subparts
        part = soc[len(parts)]
        parts.append({**part, "subparts": part["subparts"][:n % _PER_PART // gen.SOC_ROWS]})
    return {"parts": parts}


@dataclass
class Layers:
    """One size's inputs, and each layer's input built by the layer before."""

    rows: int
    csv_text: str
    json_text: str
    csv_path: str
    table: model.FmedaTable
    arrays: model.TableArrays
    propagation: uncertainty._Propagation
    result: analysis.AnalysisResult


@pytest.fixture(scope="module", params=SIZES, ids=[f"rows{n}" for n in SIZES])
def layers(request, tmp_path_factory) -> Layers:
    n = request.param
    table = _soc_rows(n)
    csv_text = gen.write_csv(table)
    path = tmp_path_factory.mktemp(f"rows{n}") / "table.csv"
    path.write_text(csv_text, encoding="utf-8")
    parsed = ingest.parse_csv(csv_text)
    arrays = model.table_arrays(parsed)
    assert arrays.ids[0] and len(arrays.ids) == n
    return Layers(n, csv_text, gen.write_json(table), str(path), parsed, arrays,
                  uncertainty._propagate(arrays), analysis.analyze(parsed))


def _time(benchmark, layers: Layers, target, *args, setup=None):
    if setup is not None:
        return benchmark.pedantic(target, setup=setup, rounds=ROUNDS[layers.rows],
                                  warmup_rounds=1)
    return benchmark.pedantic(target, args, rounds=ROUNDS[layers.rows], warmup_rounds=1)


def test_parse_csv(benchmark, layers):
    assert _time(benchmark, layers, ingest.parse_csv, layers.csv_text) == layers.table


def test_parse_json(benchmark, layers):
    assert _time(benchmark, layers, ingest.parse_json, layers.json_text) == layers.table


def test_validate(benchmark, layers):
    # validate walks the table every call; it never reads the cached arrays.
    assert _time(benchmark, layers, model.validate, layers.table) == []


def test_table_arrays(benchmark, layers):
    # A copy drops the cached arrays, so each round validates and extracts.
    arrays = _time(benchmark, layers, model.table_arrays,
                   setup=lambda: ((copy.copy(layers.table),), {}))
    assert arrays.ids == layers.arrays.ids


def test_propagate(benchmark, layers):
    prop = _time(benchmark, layers, uncertainty._propagate, layers.arrays)
    assert prop.spfm == layers.result.spfm


def test_analyze(benchmark, layers):
    result = _time(benchmark, layers, analysis.analyze, layers.table)
    assert result.row_columns == layers.result.row_columns


def test_eii_entries(benchmark, layers):
    entries, _, _ = _time(benchmark, layers, eii._entries, layers.arrays.ids,
                          layers.propagation.spfm_terms)
    assert len(entries["failure_mode"]) == len(layers.result.eii_columns)


@pytest.mark.parametrize("fmt", ["json", "markdown", "csv"])
def test_emit_result(benchmark, layers, fmt):
    assert _time(benchmark, layers, ingest.emit_result, layers.result, fmt)


def test_mc_shard(benchmark, layers):
    # One chunk of samples: as many as one half's buffer holds at this size.
    chunk = max(1, mc_oracle._BUFFER_ELEMENTS // (2 * layers.rows))
    spfm, lfm, _ = _time(benchmark, layers, mc_oracle._shard, layers.arrays, chunk,
                         np.random.SeedSequence(1), True, threading.Event())
    assert spfm is not None and lfm is not None


# verify may exit 4 here: at 1000 samples its fixed tolerance is tighter
# than the sampling error, and these tables have coverages near 1 whose
# draws it clamps (ROADMAP items 4 and 5).  Either way the whole command ran.
@pytest.mark.parametrize("argv, codes", [(["analyze"], {0}),
                                         (["verify", "--samples", "1000"], {0, 4})],
                         ids=["analyze", "verify"])
def test_cli(benchmark, layers, argv, codes):
    def main():
        with open(os.devnull, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            return cli.main([*argv, "--input", layers.csv_path])
    assert _time(benchmark, layers, main) in codes
