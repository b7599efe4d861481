"""Command line entry point and the JSON verification report.

The `verify` subcommand runs named check suites (`weightcalc.suites`)
against one parameter configuration and writes a machine-readable
report.  The remaining subcommands are small inspection helpers around
the library.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

from weightcalc.cycles import cycle_of
from weightcalc.homology.resolution import (
    minimal_resolution,
    module_generators,
    verify_resolution,
)
from weightcalc.monomial import MonomialIdeal, hilbert_function, ideal_a, ideal_a1
from weightcalc.suites import SUITES, Check, suite_genericity
from weightcalc.weights import (
    LambdaTuple,
    Params,
    enumerate_d,
    enumerate_dss,
    enumerate_p,
    enumerate_pss,
    from_symbols,
    require_prime,
)


class ConfigError(Exception):
    """Invalid configuration: unknown suite, bad parameters, failed gate."""


@dataclass(frozen=True)
class RunConfig:
    """One verification run: parameters plus requested suites."""

    f: int
    p: int
    j_rho: frozenset[int]
    r: tuple[int, ...]
    suites: tuple[str, ...]
    max_degree: int | None = None

    def as_dict(self) -> dict:
        return {
            "f": self.f,
            "p": self.p,
            "j_rho": sorted(self.j_rho),
            "r": list(self.r),
            "suites": list(self.suites),
            "max_degree": self.max_degree,
            # suites run in sequence; the key stays so report bytes do not change
            "jobs": 1,
        }


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[Check, ...]

    def as_dict(self) -> dict:
        return {"name": self.name, "checks": [c.as_dict() for c in self.checks]}


@dataclass(frozen=True)
class Report:
    config: RunConfig
    suites: tuple[SuiteResult, ...]
    timings: dict[str, float]

    def counts(self) -> dict[str, int]:
        tally = Counter(
            c.status for suite in self.suites for c in suite.checks
        )
        return {
            "pass": tally.get("pass", 0),
            "fail": tally.get("fail", 0),
            "inconclusive": tally.get("inconclusive", 0),
        }

    @property
    def exit_code(self) -> int:
        counts = self.counts()
        if counts["fail"]:
            return 1
        if counts["inconclusive"]:
            return 3
        return 0

    def as_dict(self, with_timings: bool = True) -> dict:
        counts = self.counts()
        doc = {
            "config": self.config.as_dict(),
            "suites": [s.as_dict() for s in self.suites],
            "summary": {
                "checks": sum(counts.values()),
                **counts,
                "exit_code": self.exit_code,
            },
        }
        if with_timings:
            doc["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return doc

    def to_json(self, with_timings: bool = True) -> str:
        return json.dumps(self.as_dict(with_timings), indent=2) + "\n"


def run(config: RunConfig) -> Report:
    names = list(config.suites)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suite(s) {', '.join(unknown)}; available: {', '.join(SUITES)}"
        )
    try:
        params = Params(config.f, config.p, config.j_rho, config.r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name in names:
        level = suite_genericity(name, config.f)
        if not params.validate_genericity(level):
            raise ConfigError(
                f"suite {name!r} requires {level}-genericity: "
                f"{level} <= r_j <= {config.p - 3 - level} fails for r = {config.r}"
            )
    if "split" in names and config.j_rho != frozenset(range(config.f)):
        raise ConfigError(
            "suite 'split' applies in the split regime only (all indices marked)"
        )
    timings: dict[str, float] = {}
    results: list[SuiteResult] = []
    for name in names:
        start = time.perf_counter()
        try:
            checks = SUITES[name](params, config.max_degree)
        except Exception as exc:
            # an exception escaping a suite is a failed check, not a crash
            details = f"{type(exc).__name__}: {exc}"
            checks = [Check(f"{name}.uncaught.0", "the suite completes", "fail", details)]
        timings[name] = time.perf_counter() - start
        results.append(SuiteResult(name, tuple(checks)))
    return Report(config=config, suites=tuple(results), timings=timings)


# ------------------------------------------------------------- commands


def _parse_jrho(text: str) -> frozenset[int]:
    text = text.strip().lower()
    if text in ("", "none"):
        return frozenset()
    try:
        vals = frozenset(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse marked indices from {text!r}") from exc
    return vals


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse integer list from {text!r}") from exc


def _base_params(args) -> Params:
    j_rho = _parse_jrho(args.jrho)
    try:
        return Params(args.f, args.p, j_rho, _parse_ints(args.r))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(doc: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _cmd_enumerate(args) -> int:
    params = _base_params(args)
    fams = {
        "full": enumerate_pss(params),
        "restricted": enumerate_p(params),
        "diagonal": enumerate_dss(params),
        "marked-diagonal": enumerate_d(params),
    }
    doc = {
        name: {"count": len(fam), "tuples": [str(lam) for lam in fam]}
        for name, fam in fams.items()
    }
    lines = []
    for name, fam in fams.items():
        lines.append(f"{name}: {len(fam)}")
        lines.extend(f"  {lam}" for lam in fam)
    _emit(doc, "\n".join(lines), args.format)
    return 0


def _lambda_of(args, params: Params) -> LambdaTuple:
    lam = from_symbols(*args.lam.split(","))
    if lam.f != params.f:
        raise ConfigError(f"tuple has {lam.f} entries, expected {params.f}")
    return lam


def _ideal_of(args, lam: LambdaTuple, params: Params) -> MonomialIdeal:
    if args.i0 is None:
        return ideal_a(lam, params)
    return ideal_a1(lam, args.i0, params)


def _cmd_ideal(args) -> int:
    params = _base_params(args)
    lam = _lambda_of(args, params)
    ideal = _ideal_of(args, lam, params)
    doc = {
        "lam": str(lam),
        "i0": args.i0,
        "ideal": str(ideal),
        "generators": [list(g.signed) for g in ideal.gens],
    }
    _emit(doc, f"{lam}  ->  {ideal}", args.format)
    return 0


def _cmd_cycle(args) -> int:
    params = _base_params(args)
    lam = _lambda_of(args, params)
    ideal = _ideal_of(args, lam, params)
    cyc = cycle_of(ideal)
    doc = {
        "lam": str(lam),
        "i0": args.i0,
        "ideal": str(ideal),
        "multiplicities": list(cyc.mults),
        "total": cyc.total,
    }
    text = f"{lam}  ->  {ideal}\nmultiplicities by prime mask: {list(cyc.mults)}\ntotal: {cyc.total}"
    _emit(doc, text, args.format)
    return 0


def _cmd_hilbert(args) -> int:
    params = _base_params(args)
    lam = _lambda_of(args, params)
    ideal = _ideal_of(args, lam, params)
    dmax = args.max_degree
    dims = hilbert_function(ideal, dmax)
    doc = {"lam": str(lam), "i0": args.i0, "ideal": str(ideal), "dims": list(dims)}
    _emit(doc, f"{lam}  ->  {ideal}\ndims through degree {dmax}: {list(dims)}", args.format)
    return 0


def _cmd_tor(args) -> int:
    tags = tuple(t.strip().upper() for t in args.tags.split(","))
    for t in tags:
        if t not in ("Y", "Z", "YZ"):
            raise ConfigError(f"unknown type tag {t!r}; expected Y, Z, or YZ")
    require_prime(args.p)
    f = len(tags)
    imax = (3 if args.full else 2) * f
    dmax = args.max_degree
    if dmax is None:
        # the cube-deformed quotients end in degree t = 2f, and every
        # generator lies at or below t + 4f (`Resolution.complete`); a
        # larger t leaves `complete` null rather than cutting the table
        dmax = 6 * f if args.full else 2 * imax + 2
    gens = module_generators(tags, args.full, args.p)
    res = minimal_resolution(gens, imax, dmax, args.p, f)
    table = res.betti()
    complete = res.complete(imax)
    doc = {
        "tags": list(tags),
        "cube_deformed": args.full,
        "rows": [[[e, list(c)] for e, c in row] for row in table.rows],
        "dims": list(table.dims()),
        "complete": complete,
        "verified": verify_resolution(res),
    }
    lines = [f"tags = {tags}, cube-deformed = {args.full}"]
    for i, row in enumerate(table.rows):
        lines.append(f"  step {i}: " + ", ".join(f"({e}; {c})" for e, c in row))
    lines.append(f"dims: {list(table.dims())}  complete: {complete}")
    _emit(doc, "\n".join(lines), args.format)
    return 0


def _cmd_verify(args) -> int:
    j_rho = _parse_jrho(args.jrho)
    if args.suite != "all":
        suites = tuple(s.strip() for s in args.suite.split(","))
    else:
        # `split` applies only when every index is marked
        split = j_rho == frozenset(range(args.f))
        suites = tuple(n for n in SUITES if split or n != "split")
    config = RunConfig(
        f=args.f,
        p=args.p,
        j_rho=j_rho,
        r=_parse_ints(args.r),
        suites=suites,
        max_degree=args.max_degree,
    )
    report = run(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        for suite in report.suites:
            for check in suite.checks:
                print(f"[{check.status:>12}] {check.id}  {check.details}")
        counts = report.counts()
        print(
            f"pass {counts['pass']}  fail {counts['fail']}  "
            f"inconclusive {counts['inconclusive']}"
        )
    return report.exit_code


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f", type=int, required=True, help="number of embedding indices")
    parser.add_argument("--p", type=int, required=True, help="the prime")
    parser.add_argument(
        "--jrho", required=True, help="marked indices, comma separated; 'none' for empty"
    )
    parser.add_argument("--r", required=True, help="residues, comma separated, one per index")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightcalc",
        description="exact verification suites for weight-tuple combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list the four tuple families")
    _add_param_args(p_enum)
    p_enum.add_argument("--format", choices=("json", "text"), default="text")
    p_enum.set_defaults(fn=_cmd_enumerate)

    for name, fn, extra in (
        ("ideal", _cmd_ideal, False),
        ("cycle", _cmd_cycle, False),
        ("hilbert", _cmd_hilbert, True),
    ):
        p_cmd = sub.add_parser(name, help=f"inspect the {name} of one tuple")
        _add_param_args(p_cmd)
        p_cmd.add_argument("--lam", required=True, help="tuple symbols, e.g. x,p-1-x")
        p_cmd.add_argument("--i0", type=int, default=None, help="threshold level")
        if extra:
            p_cmd.add_argument("--max-degree", type=int, default=6)
        p_cmd.add_argument("--format", choices=("json", "text"), default="text")
        p_cmd.set_defaults(fn=fn)

    p_tor = sub.add_parser("tor", help="compute one graded Betti table")
    p_tor.add_argument("--tags", required=True, help="type tags, e.g. Y,YZ")
    p_tor.add_argument("--p", type=int, default=29)
    p_tor.add_argument("--full", action="store_true", help="include the cube deformation")
    p_tor.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="degree window; 'complete' means no further generator up to this degree, "
        "and is null for a finite quotient whose degree bound lies beyond the window",
    )
    p_tor.add_argument("--format", choices=("json", "text"), default="text")
    p_tor.set_defaults(fn=_cmd_tor)

    p_verify = sub.add_parser("verify", help="run check suites and write a report")
    _add_param_args(p_verify)
    p_verify.add_argument(
        "--suite",
        default="all",
        help="comma separated suite names, or 'all': every suite, and 'split' only "
        "when every index is marked",
    )
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_degree = getattr(args, "max_degree", None)
        if max_degree is not None and max_degree < 0:
            raise ConfigError(f"--max-degree must be nonnegative, got {max_degree}")
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
