"""Command line entry point and the JSON verification report.

The `verify` subcommand runs named check suites against one parameter
configuration and writes a machine-readable report.  Every check
carries a stable id, a one-line claim description, and a status of
pass, fail, or inconclusive; inconclusive never counts as pass.  The
remaining subcommands are small inspection helpers around the library.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from weightcalc.characters import (
    collision_scan,
    diff_of_lambda,
    digit_unique,
    expected_shift_hits,
    kvec_diff,
)
from weightcalc.cycles import (
    cycle_additivity_check,
    cycle_of,
    mult_add_check,
    total_mult_formula,
)
from weightcalc.homology.resolution import (
    dual_degree_bound_check,
    expected_table,
    minimal_resolution,
    module_generators,
    resolution_tables,
    tor_grlambda,
    verify_resolution,
    wedge_table,
)
from weightcalc.homology.taylor import grade_and_cm, is_cm, shellability_check
from weightcalc.monomial import (
    Monomial,
    MonomialIdeal,
    graded_characters,
    hilbert_function,
    ideal_a,
    ideal_a1,
    ideal_ijd,
    ideal_in,
    total_dimension,
)
from weightcalc.repmodel import (
    chain_model,
    nonsplit_lattice,
    split_sigma_model,
    subquot_char_identity,
)
from weightcalc.weights import (
    LambdaTuple,
    Params,
    TTag,
    enumerate_d,
    enumerate_dss,
    enumerate_p,
    enumerate_pss,
    from_symbols,
    j_set,
    require_prime,
    t_type,
    transfer_matrix_count,
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
    jobs: int = 1
    out: str | None = None

    def as_dict(self) -> dict:
        return {
            "f": self.f,
            "p": self.p,
            "j_rho": sorted(self.j_rho),
            "r": list(self.r),
            "suites": list(self.suites),
            "max_degree": self.max_degree,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    status: str
    details: str

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "details": self.details,
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


class _Recorder:
    """Collects checks for one suite and hands out stable ids."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.checks: list[Check] = []
        self._counters: dict[str, int] = {}

    def add(self, tag: str, anchor: str, ok: bool | None, details: str = "") -> None:
        idx = self._counters.get(tag, 0)
        self._counters[tag] = idx + 1
        status = "inconclusive" if ok is None else ("pass" if ok else "fail")
        self.checks.append(
            Check(id=f"{self.module}.{tag}.{idx}", anchor=anchor, status=status, details=details)
        )


def _subsets(items) -> list[frozenset[int]]:
    items = sorted(items)
    return [
        frozenset(c)
        for k in range(len(items) + 1)
        for c in itertools.combinations(items, k)
    ]


# ---------------------------------------------------------------- suites


def _suite_enumeration(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("weights")
    f = params.f
    pss = enumerate_pss(params)
    rec.add(
        "family-count",
        "the full family has 3**f + 1 members, matching the transfer-matrix count",
        len(pss) == 3**f + 1 == transfer_matrix_count(f),
        f"|family| = {len(pss)}",
    )
    dss = enumerate_dss(params)
    jsets = [j_set(lam) for lam in dss]
    rec.add(
        "diagonal-count",
        "the diagonal family has exactly one member per index subset",
        len(dss) == 2**f and len(set(jsets)) == 2**f,
        f"|diagonal family| = {len(dss)}",
    )
    d = enumerate_d(params)
    rec.add(
        "marked-diagonal-count",
        "the filtered diagonal family has one member per marked subset",
        len(d) == 2 ** len(params.j_rho)
        and {j_set(lam) for lam in d} == set(_subsets(params.j_rho)),
        f"|filtered| = {len(d)} for {len(params.j_rho)} marked indices",
    )
    p = enumerate_p(params)
    outside = [lam for lam in pss if lam not in p]
    rec.add(
        "family-filter",
        "members outside the restricted family carry a gated symbol at an unmarked index",
        all(
            any(
                s in (2, 3) and j not in params.j_rho
                for j, s in enumerate(lam.entries)
            )
            for lam in outside
        ),
        f"|restricted| = {len(p)}, excluded = {len(outside)}",
    )
    return rec.checks


def _abs_bounded_vectors(f: int, bound: int, entry_range: int):
    rng = range(-entry_range, entry_range + 1)
    for vec in itertools.product(rng, repeat=f):
        if sum(abs(e) for e in vec) <= bound:
            yield vec


def _suite_characters(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("characters")
    f = params.f
    budget = 3 if f <= 3 else 2
    bad = 0
    total = 0
    for a in _abs_bounded_vectors(f, budget, 1):
        wa = sum(abs(e) for e in a)
        for b in _abs_bounded_vectors(f, wa, budget):
            total += 1
            if not digit_unique(a, b, params.p):
                bad += 1
    rec.add(
        "digit-unique",
        "small signed digit vectors are congruent mod p**f - 1 only when equal",
        bad == 0,
        f"{total} pairs with weight <= {budget}, {bad} counterexamples",
    )
    m = 4 if f <= 2 else 1
    scan = collision_scan(params, m)
    rec.add(
        "collision-scan",
        "every residue collision fits the one-step sign classification",
        not scan.violations,
        f"m = {m}: {len(scan.hits)} hits, {len(scan.violations)} violations, "
        f"{len(scan.ambiguous_identity)} ambiguous identities",
    )
    found = {(h.lam.entries, h.mu.entries, h.ivec) for h in scan.hits}
    expected = expected_shift_hits(params)
    rec.add(
        "shift-hits",
        "every index-shift pair appears among the scan hits",
        expected <= found,
        f"{len(expected)} shift pairs expected",
    )
    return rec.checks


def _suite_cycles(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("cycles")
    f = params.f
    for d in range(1, f + 1):
        mismatches = 0
        cases = 0
        for assign in itertools.product((0, 1, 2), repeat=f):
            J1 = frozenset(j for j, a in enumerate(assign) if a == 1)
            J2 = frozenset(j for j, a in enumerate(assign) if a == 2)
            free = [j for j, a in enumerate(assign) if a == 0]
            for tags_free in itertools.product((TTag.Y, TTag.Z, TTag.YZ), repeat=len(free)):
                tags = [TTag.YZ] * f
                for j, t in zip(free, tags_free):
                    tags[j] = t
                gens = []
                for j, t in enumerate(tags):
                    if j in J1 or j in J2:
                        continue
                    if t is TTag.Y:
                        gens.append(Monomial.y(j, f))
                    elif t is TTag.Z:
                        gens.append(Monomial.z(j, f))
                ideal = ideal_ijd(J1, J2, d, f) + MonomialIdeal(f, tuple(gens))
                cases += 1
                if cycle_of(ideal).total != total_mult_formula(J1, J2, d, tuple(tags), f):
                    mismatches += 1
        rec.add(
            "closed-form",
            "the closed-form total multiplicity matches the localization count",
            mismatches == 0,
            f"d = {d}: {cases} configurations, {mismatches} mismatches",
        )
    for lam in enumerate_p(params):
        for i0 in range(-1, f + 1):
            left, right, whole = mult_add_check(lam, i0, params)
            rec.add(
                "mult-additivity",
                "the threshold multiplicity and its mirrored star part sum to the whole",
                left + right == whole,
                f"lam = {lam}, i0 = {i0}: {left} + {right} vs {whole}",
            )
    for i0 in range(-1, f + 1):
        ok = all(
            cycle_additivity_check(ideal_a1(lam, i0, params), ideal_a(lam, params))
            for lam in enumerate_p(params)
        )
        rec.add(
            "additivity",
            "cycles add along the nested pair of type and threshold ideals",
            ok,
            f"i0 = {i0}",
        )
    return rec.checks


def _suite_cm(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("homology")
    f = params.f
    nv = 2 * f
    bad = []
    for tags in itertools.product((TTag.Y, TTag.Z, TTag.YZ), repeat=f):
        gens = []
        for j, t in enumerate(tags):
            if t is TTag.Y:
                gens.append(Monomial.y(j, f))
            elif t is TTag.Z:
                gens.append(Monomial.z(j, f))
        exps = MonomialIdeal(f, tuple(gens)).lift_exponents()
        v = grade_and_cm(exps, nv, prime=params.p)
        if v.is_cm is not True or v.grade != f:
            bad.append(tags)
    rec.add(
        "pure-pattern",
        "every one-variable-per-index quotient is Cohen-Macaulay of grade f",
        not bad,
        f"{3**f} patterns checked" + (f", failing: {bad}" if bad else ""),
    )
    for d in range(1, f + 1):
        ideal = ideal_ijd(frozenset(), frozenset(range(f)), d, f)
        v = grade_and_cm(ideal.lift_exponents(), nv, prime=params.p)
        rec.add(
            "product-ideal",
            "the degree-d product quotient is Cohen-Macaulay of grade f",
            v.is_cm is True and v.grade == f,
            f"d = {d}: grade {v.grade}",
        )
    for J1 in _subsets(range(f)):
        J2 = frozenset(range(f)) - J1
        for d in range(1, f + 1):
            ideal = ideal_ijd(J1, J2, d, f)
            v = grade_and_cm(ideal.lift_exponents(), nv, prime=params.p)
            rec.add(
                "split-product",
                "two-sided product quotients stay Cohen-Macaulay of grade f",
                v.is_cm is True and v.grade == f,
                f"J1 = {sorted(J1)}, d = {d}",
            )
    for d in range(2, f + 2):
        ok = all(
            shellability_check(J1, frozenset(range(f)) - J1, d, f).shellable
            for J1 in _subsets(range(f))
        )
        rec.add(
            "shellability",
            "the offender-count facet order shells every product complex",
            ok,
            f"d = {d}: {2**f} partitions",
        )
    control = [(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)]
    rec.add(
        "negative-control",
        "the engineered mixed-grade ideal is correctly rejected",
        is_cm(control, 4, prime=params.p) is False,
        "three quadrics through one variable",
    )
    return rec.checks


def _suite_resolutions(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("homology")
    for t in ("Y", "Z", "YZ"):
        for full in (False, True):
            try:
                chk = resolution_tables(t, full, p=params.p)
                ok = chk.match
                details = "" if ok else f"diff: {chk.diff}"
            except AssertionError as exc:
                ok = False
                details = str(exc)
            rec.add(
                "factor-table",
                "the computed minimal resolution matches the frozen factor table",
                ok,
                f"tag = {t}, cube-deformed = {full}. {details}".strip(),
            )
    if params.f <= 2:
        for tags in itertools.product(("Y", "Z", "YZ"), repeat=params.f):
            d = dual_degree_bound_check(tags, p=params.p)
            ok = None if d.inconclusive else d.ok
            rec.add(
                "dual-top-shift",
                "the dual of the undeformed quotient concentrates in the predicted shift window",
                ok,
                f"tags = {tags}: top shifts {d.top_shifts}, expected {d.expected_shift}",
            )
    return rec.checks


def _suite_tor(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("homology")
    f = params.f
    mod = params.q_minus_one
    if f > 2:
        rec.add(
            "graded-tor",
            "noncommutative resolutions are certified for f <= 2 only",
            None,
            f"f = {f} exceeds the certified range",
        )
        return rec.checks
    family = enumerate_p(params)
    patterns = [tuple(t.value for t in t_type(lam, params)) for lam in family]
    res = tor_grlambda(patterns, imax=2 * f, p=params.p, dmax=config.max_degree)
    if res.inconclusive:
        rec.add(
            "tor-dims",
            "total Tor dimensions are binomial multiples of the family size",
            None,
            res.reason,
        )
    else:
        dims = res.total_dims()
        expected_dims = tuple(
            math.comb(2 * f, i) * len(family) for i in range(2 * f + 1)
        )
        rec.add(
            "tor-dims",
            "total Tor dimensions are binomial multiples of the family size",
            dims == expected_dims,
            f"computed {dims}, expected {expected_dims}",
        )
        for i in range(2 * f + 1):
            got = []
            for lam, table in zip(family, res.tables):
                base = (-diff_of_lambda(lam, params).value) % mod
                for _, char in table.row(i):
                    got.append((base + kvec_diff(char, params)) % mod)
            want = []
            for lam in family:
                want.extend(
                    [(-diff_of_lambda(lam, params).value) % mod]
                    * math.comb(2 * f, i)
                )
            rec.add(
                "tor-characters",
                "Tor characters regroup into binomial copies of the inverse family characters",
                sorted(got) == sorted(want),
                f"i = {i}: {len(got)} characters",
            )
        rec.add(
            "tor-support",
            "Tor degrees stay inside the doubled window",
            all(
                i <= e <= 2 * i
                for table in res.tables
                for i, row in enumerate(table.rows)
                for e, _ in row
                if i
            ),
            "window [i, 2i] per homological index",
        )
        for tags in sorted(set(patterns)):
            table = next(
                t for pat, t in zip(patterns, res.tables) if pat == tags
            )
            wt = wedge_table(table.row(1), 2 * f, f)
            rec.add(
                "tor-wedge",
                "undeformed Tor rows are exterior powers of the first row",
                table.rows == wt.rows,
                f"tags = {tags}",
            )
            big = (
                resolution_tables(tags[0], True, p=params.p).computed
                if f == 1
                else expected_table(tags, True)
            )
            ok = True
            for i in range(2 * f + 1):
                small_row = Counter(table.row(i))
                big_row = Counter(big.row(i))
                if any(small_row[k] > big_row[k] for k in small_row):
                    ok = False
            rec.add(
                "tor-inclusion",
                "the undeformed Tor table embeds into the cube-deformed one row by row",
                ok,
                f"tags = {tags}"
                + ("" if f == 1 else " (deformed side composed from verified factors)"),
            )
    for n in range(1, f + 2):
        if not params.validate_genericity(2 * n - 1):
            rec.add(
                "tau-dimension",
                "truncated quotient dimensions follow the product count",
                None,
                f"n = {n} needs {2 * n - 1}-genericity",
            )
            continue
        ok = True
        details = []
        pooled: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for lam in family:
            tags = t_type(lam, params)
            c = sum(1 for t in tags if t is TTag.YZ)
            s = f - c
            ideal = ideal_in(n, f) + ideal_a(lam, params)
            count = total_dimension(ideal)
            if count != n**s * (2 * n - 1) ** c:
                ok = False
                details.append(f"{lam}: {count}")
            chars = graded_characters(lam, ideal, n - 1, params)
            for layer in chars.degrees:
                pooled.extend((value, lam.entries, kv) for kv, value in layer)
        rec.add(
            "tau-dimension",
            "truncated quotient dimensions follow the product count",
            ok,
            f"n = {n}: {len(family)} summands" + (f"; mismatches {details}" if details else ""),
        )
        # residue-level projection: a collision forced by equal base
        # residues of distinct summands (same monomial character) is a
        # determinant-twist ambiguity the residues cannot separate, not
        # a counterexample; everything else falsifies
        groups: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for value, entries, kv in pooled:
            groups.setdefault(value, []).append((entries, kv))
        forced = 0
        bad = []
        for value, group in groups.items():
            if len(group) == 1:
                continue
            kvecs = {kv for _, kv in group}
            members = {entries for entries, _ in group}
            if len(kvecs) == 1 and len(members) == len(group):
                forced += 1
            else:
                bad.append(value)
        rec.add(
            "tau-multifree",
            "low-degree characters of the truncated sum are pairwise distinct",
            not bad,
            f"n = {n}: {len(pooled)} characters through degree {n - 1}, "
            f"{forced} collisions forced by equal base residues"
            + (f"; unexplained at {sorted(bad)}" if bad else ""),
        )
    return rec.checks


def _suite_lattice(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("repmodel")
    f = params.f
    for i0 in range(-1, f + 1):
        state = nonsplit_lattice(i0, params)
        expected = sum(math.comb(f, i) for i in range(i0 + 1))
        rec.add(
            "functor-dim",
            "the invariant-functor dimension is the partial binomial sum",
            state.functor_dim == expected and (i0 < f or expected == 2**f),
            f"i0 = {i0}: dim {state.functor_dim}",
        )
        rec.add(
            "forbidden-disjoint",
            "forbidden characters avoid the predicted character set",
            not set(state.forbidden) & set(state.characters),
            f"i0 = {i0}: {len(state.forbidden)} forbidden",
        )
    for i0 in range(-1, f + 1):
        for i0p in range(i0 + 1, f + 1):
            chk = subquot_char_identity(i0, i0p, params)
            rec.add(
                "subquot-characters",
                "generator characters of the threshold quotient match the layer characters",
                chk.holds and chk.scan_consistent,
                f"({i0}, {i0p}): {len(chk.left)} characters",
            )
    return rec.checks


def _suite_split(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("repmodel")
    f = params.f
    level_sets = _subsets(range(f + 1)) if f <= 3 else [
        frozenset(),
        frozenset(range(f + 1)),
        frozenset(range(0, f + 1, 2)),
        frozenset({0}),
        frozenset({f}),
    ]
    ok_dual = all(
        split_sigma_model(
            split_sigma_model(sig, params).sigma_dual, params
        ).sigma_dual
        == sig
        for sig in level_sets
    )
    rec.add(
        "duality",
        "the reflected-complement map on level sets is an involution",
        ok_dual,
        f"{len(level_sets)} level sets",
    )
    ok_balance = all(
        split_sigma_model(sig, params).balanced for sig in level_sets
    )
    rec.add(
        "balance",
        "the two halves of the split sum exhaust the family",
        ok_balance,
        f"{len(level_sets)} level sets",
    )
    m = split_sigma_model(frozenset(), params)
    rec.add(
        "zero-model",
        "the empty level set gives the zero model",
        m.chars == () and m.functor_dim == 0,
        "",
    )
    return rec.checks


def _suite_chain(params: Params, config: RunConfig) -> list[Check]:
    rec = _Recorder("repmodel")
    f = params.f
    full = chain_model(tuple(range(-1, f + 1)), params)
    rec.add(
        "maximal-chain",
        "the maximal chain is valid with one step per level",
        full.valid and full.length == f + 1 and full.within_bound,
        f"length {full.length}",
    )
    rec.add(
        "step-disjoint",
        "per-step character sets of the maximal chain are pairwise disjoint",
        full.steps_disjoint,
        f"{len(full.step_chars)} steps",
    )
    two = chain_model((-1, f), params)
    rec.add(
        "two-point-chain",
        "the two-point chain is a single-step model",
        two.valid and two.length == 1,
        "",
    )
    rec.add(
        "rejects-non-monotone",
        "a non-monotone chain is reported invalid",
        not chain_model((0, 0), params).valid,
        "",
    )
    return rec.checks


SUITES = {
    "enumeration": _suite_enumeration,
    "characters": _suite_characters,
    "cycles": _suite_cycles,
    "cm": _suite_cm,
    "resolutions": _suite_resolutions,
    "tor": _suite_tor,
    "lattice": _suite_lattice,
    "split": _suite_split,
    "chain": _suite_chain,
}


def suite_genericity(name: str, f: int) -> int:
    """Required genericity level; from the hypotheses of the statements
    each suite exercises."""
    levels = {
        "enumeration": 0,
        "characters": 5,
        "cycles": max(9, 2 * f + 1),
        "cm": 0,
        "resolutions": 0,
        "tor": 9,
        "lattice": max(9, 2 * f + 1),
        "split": max(9, 2 * f + 1),
        "chain": max(9, 2 * f + 1),
    }
    return levels[name]


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
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            futures = [
                (name, pool.submit(_timed_suite, name, params, config))
                for name in names
            ]
            for name, fut in futures:
                checks, seconds = fut.result()
                results.append(SuiteResult(name, tuple(checks)))
                timings[name] = seconds
    else:
        for name in names:
            checks, seconds = _timed_suite(name, params, config)
            results.append(SuiteResult(name, tuple(checks)))
            timings[name] = seconds
    return Report(config=config, suites=tuple(results), timings=timings)


def _timed_suite(name: str, params: Params, config: RunConfig):
    start = time.perf_counter()
    checks = SUITES[name](params, config)
    return checks, time.perf_counter() - start


# ------------------------------------------------------------- commands


def _parse_jrho(text: str, f: int) -> frozenset[int]:
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
    j_rho = _parse_jrho(args.jrho, args.f)
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
        "generators": [list(g.signed()) for g in ideal.gens],
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
    dmax = args.max_degree if args.max_degree is not None else 6
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
        dmax = 3 * imax + 1 if args.full else 2 * imax + 2
    gens = module_generators(tags, args.full, 3, args.p)
    res = minimal_resolution(gens, imax, dmax, args.p, f=f, probe_completion=True)
    table = res.betti()
    doc = {
        "tags": list(tags),
        "cube_deformed": args.full,
        "rows": [[[e, list(c)] for e, c in row] for row in table.rows],
        "dims": list(table.dims()),
        "complete": res.next_kernel_empty,
        "verified": verify_resolution(res),
    }
    lines = [f"tags = {tags}, cube-deformed = {args.full}"]
    for i, row in enumerate(table.rows):
        lines.append(f"  step {i}: " + ", ".join(f"({e}; {c})" for e, c in row))
    lines.append(f"dims: {list(table.dims())}  complete: {res.next_kernel_empty}")
    _emit(doc, "\n".join(lines), args.format)
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(
        s.strip() for s in args.suite.split(",")
    ) if args.suite != "all" else tuple(SUITES)
    config = RunConfig(
        f=args.f,
        p=args.p,
        j_rho=_parse_jrho(args.jrho, args.f),
        r=_parse_ints(args.r),
        suites=suites,
        max_degree=args.max_degree,
        jobs=args.jobs,
        out=args.out,
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
            p_cmd.add_argument("--max-degree", type=int, default=None)
        p_cmd.add_argument("--format", choices=("json", "text"), default="text")
        p_cmd.set_defaults(fn=fn)

    p_tor = sub.add_parser("tor", help="compute one graded Betti table")
    p_tor.add_argument("--tags", required=True, help="type tags, e.g. Y,YZ")
    p_tor.add_argument("--p", type=int, default=29)
    p_tor.add_argument("--full", action="store_true", help="include the cube deformation")
    p_tor.add_argument("--max-degree", type=int, default=None)
    p_tor.add_argument("--format", choices=("json", "text"), default="text")
    p_tor.set_defaults(fn=_cmd_tor)

    p_verify = sub.add_parser("verify", help="run check suites and write a report")
    _add_param_args(p_verify)
    p_verify.add_argument(
        "--suite", default="all", help="comma separated suite names, or 'all'"
    )
    p_verify.add_argument("--max-degree", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
