"""Frozen report digests: the benchmark's f <= 2 verify reports must
reproduce byte for byte, timings aside.

The configs, the frozen digests and the comparison come from the
benchmark's `bench/workloads.py` and `bench/expected.json`, which are
only read here.
"""

import importlib.util
from pathlib import Path

import pytest

from weightcalc.cli import SUITES, RunConfig, run

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
)
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)

CONFIGS = {"verify-f2": wl.verify_config(0)}
for cfg in wl.grid_configs(0):
    if cfg["f"] <= 2:
        CONFIGS[f"grid-f{cfg['f']}-p{cfg['p']}-jrho{''.join(map(str, cfg['j_rho']))}"] = cfg


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_report_matches_frozen_digest(cfg):
    suites = tuple(SUITES) if cfg["suites"] == "all" else cfg["suites"]
    config = RunConfig(cfg["f"], cfg["p"], frozenset(cfg["j_rho"]), cfg["r"], suites)
    doc = run(config).as_dict(with_timings=False)
    _, wrong, notes = wl.check_report(wl.load_expected(), wl.config_key(cfg), doc)
    assert wrong == 0, notes
