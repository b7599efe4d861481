"""The weightcalc benchmark.

    python3 bench/run.py --workload verify-f2|deformed-f2|grid \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Every pass of a workload runs in a fresh,
single-threaded interpreter (see one_pass.py) and its outputs are checked
against oracles that are not the timed code path (see workloads.py).
Passes repeat while the next one still fits in `--seconds` of pass
time, at least once.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: set-up time, wall time and peak memory, each the
median over the run.  With `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones from the traced passes
(see tracer.py), plus the tracing overhead.  Exits 2 without a result
when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import DISTINCT, INCLUSIVE, LAYERS, LINALG  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up takes about 0.1 s and drifts with the machine over seconds, so a
# run launches bare imports in batches spread over the run (one before the
# first pass and one after each pass, at least SETUP_BATCHES in all) and
# reports the median of these and the passes' own set-ups.
SETUP_BATCH = 10
SETUP_BATCHES = 8
PASS_TIMEOUT_S = 120


def _launch(workload: str, seed: int, trace: bool, env: dict, trace_file: Path | None = None) -> dict:
    args = [sys.executable, str(BENCH_DIR / "one_pass.py"), workload, str(seed), str(int(trace))]
    launched = time.monotonic()
    args.append(repr(launched))
    if trace_file is not None:
        args.append(str(trace_file))
    proc = subprocess.run(
        args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in ("cells", "max_cells", "elim_ops"):
        units[f"{LINALG}.{name}"] = "count"
    for name in DISTINCT:
        units[f"{name}.calls"] = "count"
        units[f"{name}.distinct"] = "count"
    for name in INCLUSIVE:
        units[f"{name}.s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weightcalc" / "cli.py").is_file():
        print(f"error: no weightcalc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    trace = bool(args.trace)

    setups: list[float] = []

    def setup_batch() -> None:
        if not trace:  # set-up is an end-to-end metric only
            setups.extend(_launch("setup", args.seed, False, env)["setup_s"] for _ in range(SETUP_BATCH))

    out_dir = ROOT / ".bench_out"
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json" if trace else None
    if trace_file is not None:
        out_dir.mkdir(exist_ok=True)
    _launch("setup", args.seed, False, env)  # compiles bytecode; not measured
    setup_batch()
    plain: list[dict] = []
    traced: list[dict] = []
    spent = 0.0
    while True:
        step = time.monotonic()
        plain.append(_launch(args.workload, args.seed, False, env))
        if trace:
            traced.append(_launch(args.workload, args.seed, True, env, trace_file))
        last = time.monotonic() - step
        spent += last
        setup_batch()
        if spent + last > args.seconds:
            break
    while not trace and len(setups) < SETUP_BATCH * SETUP_BATCHES:
        setup_batch()
    passes = plain + traced
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["wrong"] for p in passes)
    for note in sorted({n for p in passes for n in p["notes"]}):
        print(f"wrong output: {note}", file=sys.stderr)

    wall_s = statistics.median(p["wall_s"] for p in plain)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        }
    else:
        units = _per_layer_units()
        first = traced[0]["layers"]
        metrics = {}
        for name, unit in units.items():
            if name == "trace.overhead_frac":
                value = statistics.median(p["wall_s"] for p in traced) / wall_s - 1
            elif unit == "s":
                value = statistics.median(p["layers"][name] for p in traced)
            else:
                value = first[name]
                if any(p["layers"][name] != value for p in traced):
                    print(f"warning: {name} differs between traced passes", file=sys.stderr)
            metrics[name] = (value, unit)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes" + ("" if trace else f", {len(setups)} set-ups"))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"wrong_frac {failed / max(attempted, 1):.6g} of {attempted} checked outputs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
