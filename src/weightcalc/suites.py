"""The verify suites and the checks they share with the acceptance gate.

A suite runs against one parameter configuration and returns its
checks.  Every check carries a stable id, a one-line claim description,
and a status of pass, fail, or inconclusive; inconclusive never counts
as pass.  Where the acceptance gate runs a suite's loop over a wider
grid, that loop is a `check_*` function with explicit grid arguments,
so each check is defined once.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

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
    BettiTable,
    expected_table,
    module_resolution,
    wedge_table,
)
from weightcalc.homology.taylor import CmVerdict, grade_and_cm, shellability_check
from weightcalc.monomial import (
    graded_characters,
    ideal_a,
    ideal_a1,
    ideal_ijd,
    ideal_in,
    signed_vectors,
    total_dimension,
    type_ideal,
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
    j_set,
    subsets,
    t_type,
    transfer_matrix_count,
)

TAGS = (TTag.Y, TTag.Z, TTag.YZ)


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


class Recorder:
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


# ------------------------------------------------------- shared checks


def check_families(rec: Recorder, params: Params) -> None:
    """Sizes of the four tuple families, and the filter that separates
    the full family from the restricted one."""
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
        and {j_set(lam) for lam in d} == set(subsets(params.j_rho)),
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


def check_lattice_states(rec: Recorder, params: Params) -> None:
    """Invariant-functor dimension and forbidden characters of the
    non-split lattice state at every threshold level."""
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


def check_digit_unique(rec: Recorder, f: int, p: int, budget: int) -> int:
    """Digit uniqueness for every a in {-1, 0, 1}**f of weight at most
    budget against every b of weight at most that of a; returns the
    number of pairs."""
    bad = 0
    total = 0
    for a in itertools.product((-1, 0, 1), repeat=f):
        wa = sum(abs(e) for e in a)
        if wa > budget:
            continue
        for b in signed_vectors(f, wa):
            total += 1
            if not digit_unique(a, b, p):
                bad += 1
    rec.add(
        "digit-unique",
        "small signed digit vectors are congruent mod p**f - 1 only when equal",
        bad == 0,
        f"{total} pairs with weight <= {budget}, {bad} counterexamples",
    )
    return total


def check_collision_scan(rec: Recorder, params: Params, m: int) -> None:
    """The collision scan with steps up to m: every hit classified, and
    every index-shift pair among the hits."""
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


# The count reads only (f, d), never the prime, residues or marked
# indices, so it is made once per process; `grid` needs 10 entries.
@lru_cache(maxsize=64)
def _closed_form_counts(f: int, d: int) -> tuple[int, int]:
    """(configurations, mismatches) of the closed-form check."""
    mismatches = 0
    cases = 0
    for assign in itertools.product((0, 1, 2), repeat=f):
        J1 = frozenset(j for j, a in enumerate(assign) if a == 1)
        J2 = frozenset(j for j, a in enumerate(assign) if a == 2)
        free = [j for j, a in enumerate(assign) if a == 0]
        for tags_free in itertools.product(TAGS, repeat=len(free)):
            tags = [TTag.YZ] * f
            for j, t in zip(free, tags_free):
                tags[j] = t
            ideal = ideal_ijd(J1, J2, d, f) + type_ideal(tags)
            cases += 1
            if cycle_of(ideal).total != total_mult_formula(J1, J2, d, tuple(tags), f):
                mismatches += 1
    return cases, mismatches


def check_closed_form(rec: Recorder, f: int, d: int) -> int:
    """The closed-form total multiplicity at product degree d, over every
    placement of the indices in J1, J2, or outside both with any type;
    returns the number of configurations."""
    cases, mismatches = _closed_form_counts(f, d)
    rec.add(
        "closed-form",
        "the closed-form total multiplicity matches the localization count",
        mismatches == 0,
        f"d = {d}: {cases} configurations, {mismatches} mismatches",
    )
    return cases


def check_additivity(rec: Recorder, params: Params) -> int:
    """Multiplicity and cycle additivity along the threshold ideals of
    every family member; returns the number of (member, level) pairs."""
    f = params.f
    family = enumerate_p(params)
    for lam in family:
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
            for lam in family
        )
        rec.add(
            "additivity",
            "cycles add along the nested pair of type and threshold ideals",
            ok,
            f"i0 = {i0}",
        )
    return len(family) * (f + 2)


def _cm_status(v: CmVerdict, grade: int) -> bool:
    """Whether the quotient is Cohen-Macaulay of the given grade."""
    return v.is_cm is True and v.codim == grade


def check_pure_patterns(rec: Recorder, f: int, p: int) -> None:
    """Cohen-Macaulayness of all 3**f one-variable-per-index quotients."""
    bad = []
    for tags in itertools.product(TAGS, repeat=f):
        v = grade_and_cm(type_ideal(tags).lift_exponents(), 2 * f, prime=p)
        if not _cm_status(v, f):
            bad.append(tags)
    rec.add(
        "pure-pattern",
        "every one-variable-per-index quotient is Cohen-Macaulay of grade f",
        not bad,
        f"{3**f} patterns checked" + (f", failing: {bad}" if bad else ""),
    )


# Like `_closed_form_counts`, the verdict reads only (f, d); the oracle
# `shellability_check` itself stays uncached.
@lru_cache(maxsize=64)
def _shellable(f: int, d: int) -> bool:
    """Whether the offender-count order shells all 2**f partitions."""
    return all(
        shellability_check(J1, frozenset(range(f)) - J1, d, f).shellable
        for J1 in subsets(range(f))
    )


def check_shellability(rec: Recorder, f: int, d: int) -> None:
    """Shelling of the degree-d product complex for all 2**f partitions."""
    rec.add(
        "shellability",
        "the offender-count facet order shells every product complex",
        _shellable(f, d),
        f"d = {d}: {2**f} partitions",
    )


def check_factor_tables(
    rec: Recorder, p: int
) -> dict[tuple[tuple[str, ...], bool], BettiTable]:
    """Every single-factor resolution, with and without cubes, against its
    reference table and through the exactness recheck; returns the
    computed tables by (tags, cube-deformed)."""
    tables = {}
    for t in ("Y", "Z", "YZ"):
        for full in (False, True):
            tor = module_resolution((t,), full, p)
            computed, expected = tor.table, expected_table((t,), full)
            tables[((t,), full)] = computed
            problems = []
            if computed.rows != expected.rows or tor.complete is not True:
                problems.append(f"diff: {computed.diff(expected)}")
            if not tor.verified:
                problems.append("the resolution failed its exactness recheck")
            rec.add(
                "factor-table",
                "the computed minimal resolution matches the frozen factor table",
                not problems,
                f"tag = {t}, cube-deformed = {full}. {'; '.join(problems)}".strip(),
            )
    return tables


def check_dual_shifts(rec: Recorder, f: int, p: int) -> None:
    """The top term of every undeformed f-index quotient's resolution
    against the predicted shift: a single summand of degree 3 per plain
    factor plus 4 per product factor, always between 3f and 4f."""
    for tags in itertools.product(("Y", "Z", "YZ"), repeat=f):
        tor = module_resolution(tags, False, p)
        top = tor.table.row(2 * f)
        expected = 3 * f + tags.count("YZ")
        rec.add(
            "dual-top-shift",
            "the dual of the undeformed quotient concentrates in the predicted shift window",
            None
            if tor.complete is not True
            else [e for e, _ in top] == [expected],
            f"tags = {tags}: top shifts {top}, expected {expected}",
        )


def check_tor_family(
    rec: Recorder,
    params: Params,
    family: tuple[LambdaTuple, ...],
    tables: tuple[BettiTable, ...],
) -> None:
    """Dimension, character, and support checks on the Tor tables of the
    family's undeformed quotients, one table per member in family order."""
    f = params.f
    mod = params.q_minus_one
    bases = [(-diff_of_lambda(lam, params).value) % mod for lam in family]
    top = max(len(t.rows) for t in tables)
    dims = tuple(sum(len(t.row(i)) for t in tables) for i in range(top))
    expected_dims = tuple(math.comb(2 * f, i) * len(family) for i in range(2 * f + 1))
    rec.add(
        "tor-dims",
        "total Tor dimensions are binomial multiples of the family size",
        dims == expected_dims,
        f"computed {dims}, expected {expected_dims}",
    )
    for i in range(2 * f + 1):
        got = [
            (base + kvec_diff(char, params)) % mod
            for base, table in zip(bases, tables)
            for _, char in table.row(i)
        ]
        want = [base for base in bases for _ in range(math.comb(2 * f, i))]
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
            for table in tables
            for i, row in enumerate(table.rows)
            for e, _ in row
            if i
        ),
        "window [i, 2i] per homological index",
    )


def check_tor_pattern(
    rec: Recorder, tags: tuple[str, ...], table: BettiTable, big: BettiTable, note: str = ""
) -> None:
    """The undeformed Tor table of one pattern against the exterior powers
    of its first row and against the cube-deformed table `big`."""
    f = len(tags)
    rec.add(
        "tor-wedge",
        "undeformed Tor rows are exterior powers of the first row",
        table.rows == wedge_table(table.row(1), 2 * f, f).rows,
        f"tags = {tags}",
    )
    rec.add(
        "tor-inclusion",
        "the undeformed Tor table embeds into the cube-deformed one row by row",
        not any(Counter(table.row(i)) - Counter(big.row(i)) for i in range(2 * f + 1)),
        f"tags = {tags}{note}",
    )


def check_truncation(
    rec: Recorder, params: Params, family: tuple[LambdaTuple, ...], n: int
) -> None:
    """Dimensions and pooled low-degree characters of the level-n
    truncated quotients of the family; needs (2n - 1)-generic residues."""
    f = params.f
    details = []
    pooled: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    for lam in family:
        c = sum(1 for t in t_type(lam, params) if t is TTag.YZ)
        ideal = ideal_in(n, f) + ideal_a(lam, params)
        count = total_dimension(ideal)
        if count != n ** (f - c) * (2 * n - 1) ** c:
            details.append(f"{lam}: {count}")
        chars = graded_characters(lam, ideal, n - 1, params)
        for layer in chars.degrees:
            pooled.extend((value, lam.entries, kv) for kv, value in layer)
    rec.add(
        "tau-dimension",
        "truncated quotient dimensions follow the product count",
        not details,
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


def check_subquotients(rec: Recorder, params: Params) -> int:
    """The subquotient character identity for every pair of threshold
    levels; returns the number of pairs."""
    pairs = 0
    for i0 in range(-1, params.f + 1):
        for i0p in range(i0 + 1, params.f + 1):
            chk = subquot_char_identity(i0, i0p, params)
            rec.add(
                "subquot-characters",
                "generator characters of the threshold quotient match the layer characters",
                chk.holds and chk.scan_consistent,
                f"({i0}, {i0p}): {len(chk.left)} characters",
            )
            pairs += 1
    return pairs


def check_maximal_chain(rec: Recorder, params: Params) -> None:
    """Validity, length, and disjoint steps of the maximal chain."""
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


def check_level_sets(rec: Recorder, params: Params, level_sets) -> None:
    """Duality and balance of the split model on the given level sets."""
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
    rec.add(
        "balance",
        "the two halves of the split sum exhaust the family",
        all(split_sigma_model(sig, params).balanced for sig in level_sets),
        f"{len(level_sets)} level sets",
    )


# ---------------------------------------------------------------- suites


def _suite_enumeration(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("weights")
    check_families(rec, params)
    return rec.checks


def _suite_characters(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("characters")
    f = params.f
    check_digit_unique(rec, f, params.p, 3 if f <= 3 else 2)
    check_collision_scan(rec, params, 4 if f <= 2 else 1)
    return rec.checks


def _suite_cycles(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("cycles")
    f = params.f
    for d in range(1, f + 1):
        check_closed_form(rec, f, d)
    check_additivity(rec, params)
    return rec.checks


def _suite_cm(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("homology")
    f = params.f
    nv = 2 * f
    check_pure_patterns(rec, f, params.p)

    def certify(J1: frozenset[int], d: int):
        ideal = ideal_ijd(J1, frozenset(range(f)) - J1, d, f)
        return grade_and_cm(ideal.lift_exponents(), nv, prime=params.p)

    for d in range(1, f + 1):
        v = certify(frozenset(), d)
        rec.add(
            "product-ideal",
            "the degree-d product quotient is Cohen-Macaulay of grade f",
            _cm_status(v, f),
            f"d = {d}: grade {v.codim}",
        )
    for J1 in subsets(range(f)):
        for d in range(1, f + 1):
            v = certify(J1, d)
            rec.add(
                "split-product",
                "two-sided product quotients stay Cohen-Macaulay of grade f",
                _cm_status(v, f),
                f"J1 = {sorted(J1)}, d = {d}",
            )
    for d in range(2, f + 2):
        check_shellability(rec, f, d)
    control = grade_and_cm([(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)], 4, prime=params.p)
    rec.add(
        "negative-control",
        "the engineered mixed-grade ideal is correctly rejected",
        control.is_cm is False,
        "three quadrics through one variable",
    )
    return rec.checks


def _suite_resolutions(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("homology")
    check_factor_tables(rec, params.p)
    if params.f <= 2:
        check_dual_shifts(rec, params.f, params.p)
    return rec.checks


def _suite_tor(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("homology")
    f = params.f
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
    tables = tuple(
        module_resolution(tags, False, params.p, max_degree).table for tags in patterns
    )
    reasons = []
    if max_degree is not None and max_degree < 4 * f:
        reasons.append(f"window {max_degree} cannot certify generators up to degree {4 * f}")
    # in-window completeness leans on the generator support bound [i, 2i]
    # up to index 2f, re-checked on every computed row
    for table in tables:
        for i, row in enumerate(table.rows):
            bad = [e for e, _ in row if not i <= e <= 2 * i]
            if i and bad:
                reasons.append(f"support bound broken at i={i}, shifts {bad}")
    if reasons:
        rec.add(
            "tor-dims",
            "total Tor dimensions are binomial multiples of the family size",
            None,
            "; ".join(reasons),
        )
    else:
        check_tor_family(rec, params, family, tables)
        for tags in sorted(set(patterns)):
            table = tables[patterns.index(tags)]
            if f == 1:
                big, note = module_resolution(tags, True, params.p).table, ""
            else:
                big = expected_table(tags, True)
                note = " (deformed side composed from verified factors)"
            check_tor_pattern(rec, tags, table, big, note)
    for n in range(1, f + 2):
        if params.validate_genericity(2 * n - 1):
            check_truncation(rec, params, family, n)
        else:
            rec.add(
                "tau-dimension",
                "truncated quotient dimensions follow the product count",
                None,
                f"n = {n} needs {2 * n - 1}-genericity",
            )
    return rec.checks


def _suite_lattice(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("repmodel")
    check_lattice_states(rec, params)
    check_subquotients(rec, params)
    return rec.checks


def _suite_split(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("repmodel")
    f = params.f
    level_sets = subsets(range(f + 1)) if f <= 3 else [
        frozenset(),
        frozenset(range(f + 1)),
        frozenset(range(0, f + 1, 2)),
        frozenset({0}),
        frozenset({f}),
    ]
    check_level_sets(rec, params, level_sets)
    m = split_sigma_model(frozenset(), params)
    rec.add(
        "zero-model",
        "the empty level set gives the zero model",
        m.chars == () and m.functor_dim == 0,
        "",
    )
    return rec.checks


def _suite_chain(params: Params, max_degree: int | None) -> list[Check]:
    rec = Recorder("repmodel")
    f = params.f
    check_maximal_chain(rec, params)
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


# Each suite maps (params, max_degree) to its checks; only `tor` reads
# max_degree, the window of its resolutions.
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
