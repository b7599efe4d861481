"""Tests of the benchmark's own instruments.

    PYTHONPATH=src python -m pytest bench/test_trace_counts.py -q

The traced-pass tests start fresh interpreters and take about 70 s
together; they are not part of the repository's test suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTED = ("calls", "cells", "max_cells", "elim_ops", "distinct")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.ROOT / "src")
    return env


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_exactly_between_traced_passes(workload):
    seed = 7
    first = run._launch(workload, seed, True, _env())
    second = run._launch(workload, seed, True, _env())
    assert first["wrong"] == second["wrong"] == 0
    counts = {k: v for k, v in first["layers"].items() if k.rsplit(".", 1)[-1] in COUNTED}
    assert counts == {k: second["layers"][k] for k in counts}
    assert sum(counts.values()) > 0


def test_tracer_patches_copied_bindings_and_restores_them():
    import weightcalc.cli as cli
    from weightcalc.homology import linalg, resolution, taylor

    originals = (resolution.nullspace_mod, taylor.rank_mod, cli.minimal_resolution)
    tracer = Tracer()
    tracer.install()
    try:
        assert resolution.nullspace_mod.__wrapped__ is linalg.nullspace_mod.__wrapped__
        assert taylor.rank_mod.__wrapped__ is originals[1]
        assert cli.minimal_resolution is resolution.minimal_resolution
        assert taylor.rank_mod([[1, 2], [2, 4]], 29) == 1
    finally:
        tracer.uninstall()
    assert (resolution.nullspace_mod, taylor.rank_mod, cli.minimal_resolution) == originals
    layers, _ = tracer.summary()
    assert layers["homology.linalg.calls"] == 1
    assert layers["homology.linalg.cells"] == 4
    assert layers["homology.linalg.elim_ops"] == 4


def test_pool_passes_the_gates_and_every_config_is_frozen():
    for p, entries in wl.POOL.items():
        assert all(9 <= r <= p - 12 for entry in entries for r in entry)
    assert 13 in wl.POOL[29][0]
    expected = wl.load_expected()
    assert {wl.config_key(c) for c in wl.every_config()} == set(expected)
    for seed in (0, 1, 2):
        keys = [wl.config_key(c) for c in wl.grid_configs(seed)]
        assert len(set(keys)) == 32 and set(keys) <= set(expected)
