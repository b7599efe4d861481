"""Freeze the expected verify reports for every config any seed can draw.

    PYTHONPATH=src python bench/freeze.py

Run it only on a commit whose verdicts are trusted: the benchmark counts
every later difference from this file as a wrong output.  It records,
per config, the status of each check and the SHA-256 of the report with
timings removed.  Verdicts are frozen as observed, failures included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from one_pass import run_cli_json  # noqa: E402

import weightcalc.cli as cli  # noqa: E402


def main() -> int:
    expected = {}
    for cfg in wl.every_config():
        key = wl.config_key(cfg)
        if cfg["suites"] == "all":
            _, doc, error = run_cli_json(cli, wl.verify_argv(cfg))
            if doc is None:
                raise SystemExit(f"{key}: {error}")
        else:
            doc = cli.run(
                cli.RunConfig(
                    f=cfg["f"], p=cfg["p"], j_rho=frozenset(cfg["j_rho"]), r=cfg["r"],
                    suites=cfg["suites"],
                )
            ).as_dict(with_timings=False)
        digest, statuses = wl.report_digest(doc)
        expected[key] = {"sha256": digest, "statuses": wl.pack_statuses(statuses)}
        counts = doc["summary"]
        print(f"{key}: pass {counts['pass']} fail {counts['fail']} inconclusive {counts['inconclusive']}")
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
