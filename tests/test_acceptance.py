"""Acceptance gate: one test per criterion, one pass/fail line each.

Every check is exact; homological certifications carry explicit
completeness windows and an inconclusive run never counts as a pass.
Scales: combinatorics up to f = 4 (f = 5 where stated), noncommutative
homology up to f = 2.  Where a criterion repeats a verify suite's check,
it calls the suite's `check_*` loop from `weightcalc.suites` with its
own, wider grid; the brute-force oracles stay written out here.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import weightcalc
from weightcalc.characters import twisted_char
from weightcalc.homology.taylor import grade_and_cm
from weightcalc.monomial import ideal_ijd, type_ideal
from weightcalc.suites import (
    Recorder,
    check_additivity,
    check_closed_form,
    check_collision_scan,
    check_digit_unique,
    check_dual_shifts,
    check_factor_tables,
    check_families,
    check_lattice_states,
    check_level_sets,
    check_maximal_chain,
    check_negative_control,
    check_pure_patterns,
    check_shellability,
    check_subquotients,
    check_tor_family,
    check_tor_pattern,
    check_truncation,
)
from weightcalc.weights import (
    Params,
    TTag,
    enumerate_p,
    enumerate_pss,
    subsets,
    t_type,
)

# residues kept pairwise clean (distinct base characters) and generic
# enough for every hypothesis exercised below
R_CLEAN = {1: (6,), 2: (6, 16), 3: (6, 16, 7), 4: (6, 16, 7, 17), 5: (6, 16, 7, 17, 5)}


def _line(num: int, name: str, ok: bool, details: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"criterion {num} ({name}): {details}"


def _failures(rec: Recorder) -> list[str]:
    return [f"{c.id}: {c.details}" for c in rec.checks if c.status != "pass"]


def _params(f: int, j_rho=None, p: int = 29) -> Params:
    if j_rho is None:
        j_rho = frozenset(range(f))
    return Params(f, p, frozenset(j_rho), R_CLEAN[f])


def test_criterion_1_enumeration():
    rec = Recorder("weights")
    for f in range(1, 6):
        for j_rho in subsets(range(f)) if f <= 4 else [frozenset(), frozenset(range(f))]:
            check_families(rec, _params(f, j_rho))
    problems = _failures(rec)
    # brute-force oracle: re-derive the adjacency rule from scratch and
    # count cyclic tuples over the six symbols
    after_positive = {0, 2, 4}
    after_negative = {1, 3, 5}
    for f, want in ((1, 4), (2, 10)):
        count = 0
        for tup in itertools.product(range(6), repeat=f):
            ok = True
            for j in range(f):
                nxt = tup[(j + 1) % f]
                allowed = after_positive if tup[j] <= 2 else after_negative
                if nxt not in allowed:
                    ok = False
            count += ok
        if count != want or len(enumerate_pss(_params(f))) != want:
            problems.append(f"f={f}: full family size {count} vs {want}")
    _line(
        1,
        "enumeration",
        not problems,
        problems[0] if problems else "families and defect-set bijection pinned for f <= 5",
    )


def test_criterion_2_character_engine():
    rec = Recorder("characters")
    pairs = sum(check_digit_unique(rec, f, p, 3) for f in (1, 2, 3) for p in (29, 61))
    for f in (1, 2):
        check_collision_scan(rec, _params(f), 4)
    problems = _failures(rec)
    _line(
        2,
        "character engine",
        not problems,
        problems[0]
        if problems
        else f"{pairs} digit pairs exhausted; scans at m=4 clean with all shift pairs found",
    )


def test_criterion_3_cycles():
    rec = Recorder("cycles")
    formula_cases = sum(
        check_closed_form(rec, f, d) for f in range(1, 5) for d in range(1, f + 1)
    )
    add_cases = sum(
        check_additivity(rec, _params(f, j_rho))
        for f in range(1, 5)
        for j_rho in subsets(range(f))
    )
    problems = _failures(rec)
    _line(
        3,
        "cycles",
        not problems,
        problems[0]
        if problems
        else f"{formula_cases} closed-form configurations and {add_cases} nested pairs, all exact",
    )


def test_criterion_4_commutative_cm():
    rec = Recorder("homology")
    problems = []
    certs = 0
    for f in (1, 2, 3):
        nv = 2 * f
        # one branch variable per index
        check_pure_patterns(rec, f, 29)
        certs += 3**f
        # degree-d products over every two-sided split, plus free types
        for assign in itertools.product((0, 1, 2, 3, 4), repeat=f):
            J1 = frozenset(j for j, a in enumerate(assign) if a == 1)
            J2 = frozenset(j for j, a in enumerate(assign) if a == 2)
            tags = [{3: TTag.Y, 4: TTag.Z}.get(a, TTag.YZ) for a in assign]
            for d in range(1, max(1, len(J1 | J2)) + 1):
                ideal = ideal_ijd(J1, J2, d, f) + type_ideal(tags)
                certs += 1
                v = grade_and_cm(ideal.lift_exponents(), nv)
                if v.is_cm is not True or v.codim != f:
                    problems.append(
                        f"product quotient f={f} J1={sorted(J1)} J2={sorted(J2)} d={d}"
                    )
        for d in range(2, f + 2):
            check_shellability(rec, f, d)
            certs += 2**f
    check_negative_control(rec, 29)
    problems += _failures(rec)
    _line(
        4,
        "commutative CM",
        not problems,
        problems[0] if problems else f"{certs} certified windows, all Cohen-Macaulay of grade f",
    )


def test_criterion_5_noncommutative_tor():
    p = 29
    rec = Recorder("homology")
    # index swaps and the y <-> z twists carry each table from its class
    # representative and keep exactness, so the recheck is made once per
    # class and covers every pattern of the class
    patterns = [pat for f in (1, 2) for pat in itertools.product(("Y", "Z", "YZ"), repeat=f)]
    tables = check_factor_tables(rec, p, patterns)
    for f in (1, 2):
        params = _params(f, p=p)
        family = enumerate_p(params)
        boxed = tuple(
            tables[(tuple(t.value for t in t_type(lam, params)), False)] for lam in family
        )
        check_tor_family(rec, params, family, boxed)
        for pat in itertools.product(("Y", "Z", "YZ"), repeat=f):
            check_tor_pattern(rec, pat, tables[(pat, False)], tables[(pat, True)])
        check_dual_shifts(rec, f, p)
    problems = _failures(rec)
    _line(
        5,
        "noncommutative Tor",
        not problems,
        problems[0]
        if problems
        else f"all {len(tables)} tables exact (deformed included), characters, wedge, "
        "inclusion, dual shifts",
    )


def test_criterion_6_truncated_quotients():
    rec = Recorder("homology")
    problems = []
    counts = 0
    for f in range(1, 5):
        # the largest truncation level n = f + 1 requires (2f+1)-generic
        # residues; the constant vector keeps the base characters clean
        params = Params(f, 29, frozenset(range(f)), (2 * f + 1,) * f)
        family = enumerate_p(params)
        # distinct base characters leave no collision forced, so the
        # multifree checks below pass only when no collision occurs
        diffs = [twisted_char(lam, (0,) * f, params) for lam in family]
        if len(set(diffs)) != len(diffs):
            problems.append(f"f={f}: base characters not distinct for the clean residues")
        for n in range(1, f + 2):
            assert params.validate_genericity(2 * n - 1)
            check_truncation(rec, params, family, n)
            counts += len(family)
    problems += _failures(rec)
    _line(
        6,
        "truncated quotients",
        not problems,
        problems[0]
        if problems
        else f"{counts} product counts exact; low-degree characters pairwise distinct",
    )


def test_criterion_7_structural_predictions():
    rec = Recorder("repmodel")
    sub_pairs = 0
    for f in range(1, 5):
        for j_rho in subsets(range(f)):
            params = _params(f, j_rho)
            check_lattice_states(rec, params)
            sub_pairs += check_subquotients(rec, params)
            check_maximal_chain(rec, params)
        check_level_sets(rec, _params(f), subsets(range(f + 1)))
    problems = _failures(rec)
    _line(
        7,
        "structural predictions",
        not problems,
        problems[0]
        if problems
        else f"{sub_pairs} subquotient identities, lattice dims, duality, chains all exact",
    )


def test_criterion_8_determinism():
    src = Path(weightcalc.__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "weightcalc.cli", "verify", "--f", "1", "--p", "29"]
    argv += ["--jrho", "0", "--r", "13", "--format", "json"]
    docs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        doc.pop("timings")
        docs.append(doc)
    ok = docs[0] == docs[1]
    _line(
        8,
        "determinism",
        ok,
        "reports identical across hash seeds 0 and 1 modulo timings"
        if ok
        else "reports diverged between hash seeds 0 and 1",
    )
