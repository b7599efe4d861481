"""One pass of one workload in a fresh interpreter, so that the program's
`lru_cache`s start cold, as they do for a CLI user.

    python bench/one_pass.py WORKLOAD SEED TRACE LAUNCHED [TRACE_FILE]

LAUNCHED is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there until `weightcalc.cli` and its
layers are imported.  WORKLOAD `setup` stops after the import.  Prints
one JSON line: set-up and wall time, peak memory, outputs checked and
wrong, and with TRACE 1 the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_cli_json(cli, argv: list[str]) -> tuple[float, dict | None, str]:
    """Run the CLI in-process; (wall, parsed stdout or None, error)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            cli.main(argv)
    except Exception as exc:  # a raising run counts as wrong outputs
        return time.perf_counter() - start, None, repr(exc)
    wall = time.perf_counter() - start
    try:
        return wall, json.loads(out.getvalue()), ""
    except ValueError:
        return wall, None, "no JSON on stdout"


def _run_verify(cli, wl, seed: int) -> tuple[float, int, int, list[str]]:
    cfg = wl.verify_config(seed)
    key = wl.config_key(cfg)
    expected = wl.load_expected()
    wall, doc, error = run_cli_json(cli, wl.verify_argv(cfg))
    if doc is None:
        size = wl.expected_outputs(expected, key)
        return wall, size, size, [f"{key}: {error}"]
    return (wall, *wl.check_report(expected, key, doc))


def _run_deformed(cli, wl, seed: int) -> tuple[float, int, int, list[str]]:
    wall, doc, error = run_cli_json(cli, list(wl.DEFORMED_ARGV))
    if doc is None:
        size = sum(map(len, wl.kunneth(wl.DEFORMED_TAGS))) + 2
        return wall, size, size, [error]
    return (wall, *wl.check_betti(doc))


def _run_grid(cli, wl, seed: int) -> tuple[float, int, int, list[str]]:
    configs = wl.grid_configs(seed)
    docs: list[dict | Exception] = []
    start = time.perf_counter()
    for cfg in configs:
        try:
            report = cli.run(
                cli.RunConfig(
                    f=cfg["f"], p=cfg["p"], j_rho=frozenset(cfg["j_rho"]), r=cfg["r"],
                    suites=cfg["suites"],
                )
            )
            docs.append(report.as_dict(with_timings=False))
        except Exception as exc:  # a raising config counts as wrong outputs
            docs.append(exc)
    wall = time.perf_counter() - start
    expected = wl.load_expected()
    attempted = wrong = 0
    notes: list[str] = []
    for cfg, doc in zip(configs, docs):
        key = wl.config_key(cfg)
        if isinstance(doc, Exception):
            size = wl.expected_outputs(expected, key)
            attempted, wrong = attempted + size, wrong + size
            notes.append(f"{key}: raised {doc!r}")
            continue
        a, w, n = wl.check_report(expected, key, doc)
        attempted, wrong = attempted + a, wrong + w
        notes += n
    return wall, attempted, wrong, notes


RUNNERS = {"verify-f2": _run_verify, "deformed-f2": _run_deformed, "grid": _run_grid}


def main(argv: list[str]) -> int:
    workload, seed, trace, launched = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    import weightcalc.cli as cli

    setup_s = time.monotonic() - launched
    result: dict = {"setup_s": setup_s}
    if workload != "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import workloads as wl

        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall, attempted, wrong, notes = RUNNERS[workload](cli, wl, seed)
        if tracer is not None:
            tracer.uninstall()
            result["layers"], functions = tracer.summary()
            if len(argv) > 4:
                Path(argv[4]).write_text(
                    json.dumps({"layers": result["layers"], "functions": functions}, indent=1)
                )
        result.update(
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=attempted,
            wrong=wrong,
            notes=notes[:20],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
