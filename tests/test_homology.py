"""Tests for the commutative and noncommutative homological engines."""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weightcalc.homology.linalg import RowSpan, nullspace_mod, rank_mod, span_and_kernel
from weightcalc.homology.pbw import (
    PbwElement,
    key_char,
    key_degree,
)
from weightcalc.homology.taylor import (
    CmVerdict,
    grade_and_cm,
    shellability_check,
)
from weightcalc.homology import resolution as reso
from weightcalc.homology import taylor
from weightcalc.monomial import (
    Monomial,
    MonomialIdeal,
    ideal_ijd,
    minimal_exponents,
    type_ideal,
)
from weightcalc.weights import TTag

from reference import cm_by_taylor, hilbert_euler_check, taylor_primal_check, taylor_tor


def lifted(f: int, monos) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of an ideal in the doubled polynomial ring,
    with the per-index product relations added."""
    return MonomialIdeal(f, tuple(monos)).lift_exponents()


LARGE_P = 4294967291  # the largest prime below 2**32


def _dense_rref(mat, p):
    """Oracle: dense Gauss-Jordan elimination on lists of ints, sharing no
    code with the sparse kernel; returns the nonzero rows of the RREF."""
    m = [[x % p for x in row] for row in mat]
    ncols = len(m[0]) if m else 0
    top = 0
    for c in range(ncols):
        piv = next((i for i in range(top, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        inv = pow(m[top][c], p - 2, p)
        m[top] = [x * inv % p for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                g = m[i][c]
                m[i] = [(x - g * y) % p for x, y in zip(m[i], m[top])]
        top += 1
    return m[:top]


@st.composite
def _matrices(draw):
    """A dense matrix whose later rows are often combinations of earlier
    ones, so that ranks fall short of full at large p too."""
    p = draw(st.sampled_from([2, 5, 29, 61, LARGE_P]))
    cols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(cols)])
    return draw(st.permutations(rows)), cols, p


@st.composite
def _vector_lists(draw):
    """Dense vectors of one length, among them zero vectors, repeats and
    combinations of earlier ones."""
    p = draw(st.sampled_from([5, 29, LARGE_P]))
    dim = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    vecs: list[list[int]] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero":
            vecs.append([0] * dim)
        elif kind == "repeat" and vecs:
            vecs.append(list(draw(st.sampled_from(vecs))))
        elif kind == "combination" and vecs:
            coeffs = draw(st.lists(entry, min_size=len(vecs), max_size=len(vecs)))
            vecs.append([sum(a * v[c] for a, v in zip(coeffs, vecs)) % p for c in range(dim)])
        else:
            vecs.append(draw(st.lists(entry, min_size=dim, max_size=dim)))
    return vecs, dim, p


class TestLinalg:
    def test_rref_rank_one(self):
        span = RowSpan(5, [[2, 4], [1, 2]])
        assert span.rows == {0: {0: 1, 1: 2}}
        first = span.rows[0]
        assert span.add({1: 3}) == {1: 1}
        # echelon form: the stored row keeps its entry in the new pivot column
        assert span.rows == {0: {0: 1, 1: 2}, 1: {1: 1}}
        assert span.rows[0] is first
        assert span.reduce([3, 4]) == {}
        assert span.add([7, 0]) is None

    def test_rank_degenerate(self):
        assert rank_mod([[0, 0, 0]] * 3, 7) == 0
        assert rank_mod([], 7) == 0
        assert rank_mod([{}, {2: 14}], 7) == 0
        assert rank_mod([[int(i == j) for j in range(4)] for i in range(4)], 2) == 4

    def test_nullspace_empty_matrix(self):
        assert nullspace_mod([], 3, 5) == [{0: 1}, {1: 1}, {2: 1}]
        assert nullspace_mod([{}], 0, 5) == []

    @settings(max_examples=150, deadline=None)
    @given(_matrices(), st.data())
    def test_rref_matches_dense_oracle(self, case, data):
        rows, cols, p = case
        oracle = _dense_rref(rows, p)
        pivots = [next(c for c, x in enumerate(row) if x) for row in oracle]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        for given_rows in (rows, sparse):
            span = RowSpan(p)
            stored: dict[int, tuple[dict, dict]] = {}
            for row in given_rows:
                span.add(row)
                # a stored row is never replaced or rewritten
                assert all(
                    span.rows[c] is r and r == copy for c, (r, copy) in stored.items()
                )
                stored = {c: (r, dict(r)) for c, r in span.rows.items()}
            assert sorted(span.rows) == pivots
            assert all(min(r) == c and r[c] == 1 for c, r in span.rows.items())
        assert rank_mod(rows, p) == len(oracle)
        # the remainder is the oracle's canonical one: zero on every pivot
        v = data.draw(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols))
        rem = list(v)
        for pc, row in zip(pivots, oracle):
            g = rem[pc]
            rem = [(x - g * y) % p for x, y in zip(rem, row)]
        assert span.reduce(v) == {c: x for c, x in enumerate(rem) if x}

    @settings(max_examples=150, deadline=None)
    @given(_vector_lists())
    def test_span_and_kernel_matches_dense_null_basis(self, case):
        vecs, dim, p = case
        span, deps = span_and_kernel([{c: x for c, x in enumerate(v) if x} for v in vecs], p)
        # null basis of the matrix whose columns are the vectors, read off
        # its RREF: 1 at each free column, minus the RREF entries above it
        oracle = _dense_rref([[v[r] for v in vecs] for r in range(dim)], p)
        pivots = [next(c for c, x in enumerate(row) if x) for row in oracle]
        expected = []
        for j in range(len(vecs)):
            if j not in pivots:
                dep = {j: 1}
                for pc, row in zip(pivots, oracle):
                    if row[j]:
                        dep[pc] = -row[j] % p
                expected.append(dep)
        assert deps == expected
        assert span.rank == len(pivots)

    @settings(max_examples=100, deadline=None)
    @given(_matrices())
    def test_nullspace_is_right_kernel(self, case):
        rows, cols, p = case
        basis = nullspace_mod(rows, cols, p)
        for v in basis:
            assert v and all(0 < x < p for x in v.values())
            for row in rows:
                assert sum(row[c] * x for c, x in v.items()) % p == 0
        assert len(_dense_rref(rows, p)) + len(basis) == cols
        dense = [[v.get(c, 0) for c in range(cols)] for v in basis]
        assert len(_dense_rref(dense, p)) == len(basis)


def _y(f=1, p=29, j=0, n=1):
    return PbwElement.gen_y(j, f, p, n)


def _z(f=1, p=29, j=0, n=1):
    return PbwElement.gen_z(j, f, p, n)


def _h(f=1, p=29, j=0):
    return PbwElement.gen_h(j, f, p)


def _rewrite_word(word, p):
    """Free-word straightening oracle for a single index: rewrite every
    zy into yz minus h until no such pair remains."""
    states = {tuple(word): 1}
    done: dict[tuple[int, int, int], int] = {}
    while states:
        nxt: dict[tuple, int] = {}
        for wrd, c in states.items():
            for i in range(len(wrd) - 1):
                if wrd[i] == "z" and wrd[i + 1] == "y":
                    a = wrd[:i] + ("y", "z") + wrd[i + 2 :]
                    b = wrd[:i] + ("h",) + wrd[i + 2 :]
                    nxt[a] = (nxt.get(a, 0) + c) % p
                    nxt[b] = (nxt.get(b, 0) - c) % p
                    break
                if wrd[i] == "h" and wrd[i + 1] != "h":
                    a = wrd[: i] + (wrd[i + 1], "h") + wrd[i + 2 :]
                    nxt[a] = (nxt.get(a, 0) + c) % p
                    break
            else:
                key = (wrd.count("y"), wrd.count("z"), wrd.count("h"))
                done[key] = (done.get(key, 0) + c) % p
        states = {k: v for k, v in nxt.items() if v}
    return {k: v for k, v in done.items() if v}


class TestPbw:
    def test_straightening_relation(self):
        p = 29
        prod = _z() * _y()
        assert prod.terms == {((1, 1, 0),): 1, ((0, 0, 1),): p - 1}

    def test_h_is_central(self):
        for other in (_y(), _z(), _y() * _z()):
            assert _h() * other == other * _h()

    def test_associativity_spot(self):
        assert (_z() * _y()) * _y() == _z() * (_y() * _y())

    def test_degree_and_char_multiplicative(self):
        prod = _z(n=2) * _y(n=3)
        assert prod.degree == 5
        assert prod.char == (1,)

    def test_distinct_indices_commute(self):
        y0 = _y(f=2, j=0)
        z1 = _z(f=2, j=1)
        assert y0 * z1 == z1 * y0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(["y", "z", "h"]), min_size=0, max_size=6))
    def test_word_oracle(self, word):
        p = 29
        acc = PbwElement.one(1, p)
        for letter in word:
            acc = acc * {"y": _y(), "z": _z(), "h": _h()}[letter]
        got = {key[0]: c for key, c in acc.terms.items()}
        assert got == _rewrite_word(word, p)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        p = 29
        key = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
        elem = st.lists(
            st.tuples(key, st.integers(1, p - 1)), min_size=1, max_size=3
        ).map(
            lambda items: sum(
                (
                    PbwElement(1, p, {(k,): c})
                    for k, c in items
                ),
                PbwElement.zero(1, p),
            )
        )
        u, v, w = data.draw(elem), data.draw(elem), data.draw(elem)
        assert (u * v) * w == u * (v * w)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_associativity_two_indices(self, data):
        p = data.draw(st.sampled_from([5, 29]))
        local = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1))
        mono = st.tuples(local, local).map(lambda key: PbwElement(len(key), p, {key: 1}))
        u, v, w = data.draw(mono), data.draw(mono), data.draw(mono)
        assert (u * v) * w == u * (v * w)

    def test_local_products_shared_across_primes(self):
        from weightcalc.homology import pbw

        def resolve(p):
            gens = reso.module_generators(("YZ", "Z"), False, p)
            reso.minimal_resolution(gens, 4, 10, p, 2)

        pbw._local_product.cache_clear()
        resolve(61)
        size = pbw._local_product.cache_info().currsize
        resolve(67)
        assert size and pbw._local_product.cache_info().currsize == size


ALL_TAGS = ("Y", "Z", "YZ")


def _type_monos(tags):
    f = len(tags)
    out = []
    for j, t in enumerate(tags):
        if t == "Y":
            out.append(Monomial.y(j, f))
        elif t == "Z":
            out.append(Monomial.z(j, f))
    return out


def _act(gens, perm, flips, f: int) -> list[tuple[int, ...]]:
    """Image of exponent vectors in 2f variables under the pair symmetry
    that sends pair j = (y_j, z_j) to pair perm[j], swapping its two
    variables where flips[j] is set."""
    out = []
    for g in gens:
        new = [0] * (2 * f)
        for j in range(f):
            y, z = (g[f + j], g[j]) if flips[j] else (g[j], g[f + j])
            new[perm[j]], new[f + perm[j]] = y, z
        out.append(tuple(new))
    return out


def _pair_group(f: int):
    """Every (perm, flips) element of the pair symmetry group."""
    return [
        (perm, flips)
        for perm in itertools.permutations(range(f))
        for flips in itertools.product((False, True), repeat=f)
    ]


@st.composite
def _pair_ideals(draw):
    """(f, generators, group element): a monomial ideal in 2f variables
    that holds the product y_j z_j for some pairs only."""
    f = draw(st.integers(1, 3))
    nv = 2 * f
    # small exponents make pairs with equal profiles, the ties to break
    top = draw(st.integers(1, 2))
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * nv), max_size=5))
    for j in range(f):
        if draw(st.booleans()):
            gens.append(tuple(int(v in (j, f + j)) for v in range(nv)))
    perm = tuple(draw(st.permutations(range(f))))
    flips = tuple(draw(st.lists(st.booleans(), min_size=f, max_size=f)))
    return f, gens, (perm, flips)


def _criterion_4_ideals(f: int):
    """Exponents of the criterion-4 product quotients: degree-d products
    over every two-sided split, with a free type at the other indices."""
    for assign in itertools.product(range(5), repeat=f):
        J1 = frozenset(j for j, a in enumerate(assign) if a == 1)
        J2 = frozenset(j for j, a in enumerate(assign) if a == 2)
        tags = [{3: TTag.Y, 4: TTag.Z}.get(a, TTag.YZ) for a in assign]
        for d in range(1, max(1, len(J1 | J2)) + 1):
            yield (ideal_ijd(J1, J2, d, f) + type_ideal(tags)).lift_exponents()


class TestTaylorExt:
    """Cohen-Macaulay verdicts, against the Taylor-complex oracle."""

    def test_koszul_regular_sequence(self):
        for f in (1, 2):
            nv = 2 * f
            gens = [tuple(1 if i == k else 0 for i in range(nv)) for k in range(nv)]
            assert grade_and_cm(gens, nv) == CmVerdict(True, nv, False)
            assert max(taylor_tor(gens, nv)[(1,) * nv]) == nv

    def test_principal_ideal_degrees(self):
        # Tor_0 in degree 0, Tor_1 in the generator's degree, and nothing else
        for gens, nv in (([(2,)], 1), ([(1, 1)], 2)):
            assert taylor_tor(gens, nv) == {(0,) * nv: {0: 1}, gens[0]: {1: 1}}
            assert grade_and_cm(gens, nv) == CmVerdict(True, 1, False)

    def test_zero_ideal_is_the_free_module(self):
        assert taylor_tor([], 2) == {(0, 0): {0: 1}}
        assert grade_and_cm([], 2) == CmVerdict(True, 0, False)

    def test_unit_ideal_flagged_separately(self):
        assert grade_and_cm([(0, 0)], 2) == CmVerdict(None, None, True)

    def test_many_generators_are_decided(self):
        # m^16 in two variables: 17 generators, Cohen-Macaulay of height 2
        gens = [(i, 16 - i) for i in range(17)]
        assert grade_and_cm(gens, 2) == CmVerdict(True, 2, False)

    def test_large_exponents_are_decided(self):
        assert grade_and_cm([(60, 60, 60)], 3) == CmVerdict(True, 1, False)

    def test_pair_quotients_are_cm_all_tag_patterns(self):
        # one surviving variable or the product relation per index
        for f in (1, 2):
            for tags in itertools.product(ALL_TAGS, repeat=f):
                v = grade_and_cm(lifted(f, _type_monos(tags)), 2 * f)
                assert v == CmVerdict(True, f, False), tags

    def test_degree_d_products_are_cm(self):
        for f in (1, 2, 3):
            for d in range(1, f + 1):
                ideal = ideal_ijd(frozenset(), frozenset(range(f)), d, f)
                v = grade_and_cm(ideal.lift_exponents(), 2 * f)
                assert v == CmVerdict(True, f, False), (f, d)

    def test_mixed_product_family_is_cm(self):
        # two product indices plus an unconstrained one with its own tag
        for d in (1, 2):
            ideal = ideal_ijd(frozenset({0}), frozenset({1}), d, 2)
            v = grade_and_cm(ideal.lift_exponents(), 4)
            assert v == CmVerdict(True, 2, False)
        for t2 in ALL_TAGS:
            monos = list(ideal_ijd(frozenset({0}), frozenset({1}), 2, 3).gens)
            monos += _type_monos(("YZ", "YZ", t2))
            v = grade_and_cm(lifted(3, monos), 6)
            assert v == CmVerdict(True, 3, False), t2

    def test_non_pure_control_fails(self):
        gens = [(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)]
        assert grade_and_cm(gens, 4) == CmVerdict(False, 1, False)
        # pd 3: Tor_3 at the lcm of all three generators
        assert max(i for dims in taylor_tor(gens, 4).values() for i in dims) == 3
        # two planes through one point: pd 3, one more than the height
        planes = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        assert max(i for dims in taylor_tor(planes, 4).values() for i in dims) == 3
        assert grade_and_cm(planes, 4) == CmVerdict(False, 2, False)

    def test_primal_exactness(self):
        cases = [
            ([(1, 1), (2, 0)], 2),
            ([(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)], 4),
            (lifted(2, _type_monos(("Y", "YZ"))), 4),
        ]
        for gens, nv in cases:
            assert taylor_primal_check(gens, nv)

    def test_hilbert_euler(self):
        assert hilbert_euler_check([(1, 1), (2, 0)], 2, 7)
        assert hilbert_euler_check([(1, 0, 1, 0), (1, 1, 0, 0)], 4, 5)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda nv: st.lists(st.tuples(*[st.integers(0, 3)] * nv), max_size=7).map(
                lambda gens: (nv, [g for g in gens if any(g)])
            )
        ),
        st.sampled_from([2, 29]),
    )
    def test_random_ideals_certify_consistently(self, case, prime):
        nv, gens = case
        assert grade_and_cm(gens, nv, prime).is_cm == cm_by_taylor(gens, nv, prime)

    def test_suite_ideals_agree_with_the_taylor_oracle(self, monkeypatch):
        # every ideal the cm suite certifies at f <= 4, the negative control
        # among them, and the criterion-4 product quotients
        from weightcalc import suites
        from weightcalc.cli import RunConfig, run

        def canonical(gens, nv):
            return taylor._canonical_gens(taylor._normalize_gens(gens, nv), nv), nv

        seen = set()
        real = suites.grade_and_cm

        def record(gens, nvars, prime=29):
            seen.add(canonical(gens, nvars))
            return real(gens, nvars, prime)

        monkeypatch.setattr(suites, "grade_and_cm", record)
        for f in (1, 2, 3, 4):
            r = tuple(13 + 3 * j for j in range(f))
            run(RunConfig(f=f, p=61, j_rho=frozenset(), r=r, suites=("cm",)))
            seen.update(canonical(gens, 2 * f) for gens in _criterion_4_ideals(f))
        assert canonical([(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)], 4) in seen
        for gens, nv in seen:
            for prime in (2, 29):
                assert grade_and_cm(gens, nv, prime).is_cm == cm_by_taylor(gens, nv, prime)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cone_certificate_is_sound(self, data):
        # facets through one vertex make a cone: every reduced homology
        # group the engine ranks must vanish
        nv = data.draw(st.integers(1, 5))
        apex = 1 << data.draw(st.integers(0, nv - 1))
        facets = data.draw(st.lists(st.integers(0, (1 << nv) - 1), min_size=1, max_size=5))
        facets = [s | apex for s in facets]
        for k in range(1, nv + 1):
            lower, mid, upper = (taylor._faces(facets, n) for n in (k - 1, k, k + 1))
            ranks = taylor._boundary_rank(lower, mid, 29) + taylor._boundary_rank(mid, upper, 29)
            assert len(mid) == ranks, (facets, k)

    def test_pattern_memo_keys_on_the_prime(self, monkeypatch):
        # (y0 y1, z0 z1) ranks two disjoint edges at the lcm of both; a rank
        # function that reads the prime shows what the key holds
        monkeypatch.setattr(
            taylor, "rank_mod", lambda rows, p: 0 if p == 5 else rank_mod(rows, p)
        )
        taylor._is_cm.cache_clear()
        try:
            at = {p: grade_and_cm([(1, 1, 0, 0), (0, 0, 1, 1)], 4, p).is_cm for p in (29, 5)}
        finally:
            taylor._is_cm.cache_clear()
        assert at == {29: True, 5: False}

    def test_no_generators_keep_the_direct_side(self):
        # r = 0: the zero ideal, whose quotient is the ring itself, free and
        # Cohen-Macaulay of height 0 at every prime
        for nv in (1, 2, 3):
            assert taylor_tor([], nv) == {(0,) * nv: {0: 1}}
            for prime in (5, 29, LARGE_P):
                assert grade_and_cm([], nv, prime) == CmVerdict(True, 0, False)

    @settings(max_examples=60, deadline=None)
    @given(_pair_ideals(), st.sampled_from([5, 29]))
    def test_symmetric_ideals_share_exact_summaries(self, case, prime):
        f, gens, g = case
        nv = 2 * f
        moved = _act(gens, *g, f)
        # the memo holds I's class, and g.I is served from it
        grade_and_cm(gens, nv, prime)
        own = taylor._normalize_gens(moved, nv)
        codim = taylor._codim.__wrapped__(own, nv)
        expected = (
            CmVerdict(None, None, True)
            if codim is None
            else CmVerdict(taylor._is_cm.__wrapped__(own, nv, codim, prime), codim, False)
        )
        assert grade_and_cm(moved, nv, prime) == expected

    @settings(max_examples=60, deadline=None)
    @given(_pair_ideals())
    # three pairs with one profile, told apart only by which two meet
    @example((3, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], ((2, 1, 0), (False,) * 3)))
    # two pairs whose profiles equal their swaps: y0 y1, z0 z1 against
    # z0 y1, y0 z1
    @example((2, [(1, 1, 0, 0), (0, 0, 1, 1)], ((0, 1), (True, False))))
    def test_canonical_form_is_an_image_shared_by_the_class(self, case):
        f, gens, g = case
        nv = 2 * f
        canon = taylor._canonical_gens(taylor._normalize_gens(gens, nv), nv)
        moved = taylor._normalize_gens(_act(gens, *g, f), nv)
        assert taylor._canonical_gens(moved, nv) == canon
        # some group element maps the ideal onto its canonical form
        assert any(
            taylor._normalize_gens(_act(gens, *h, f), nv) == canon
            for h in _pair_group(f)
        )

    def test_f4_cm_suite_certifies_once_per_class(self, monkeypatch):
        from weightcalc import suites
        from weightcalc.cli import RunConfig, run

        seen = set()
        real = suites.grade_and_cm

        def record(gens, nvars, prime=29):
            seen.add((taylor._normalize_gens(gens, nvars), nvars, prime))
            return real(gens, nvars, prime)

        monkeypatch.setattr(suites, "grade_and_cm", record)
        config = RunConfig(
            f=4, p=61, j_rho=frozenset(), r=(13, 16, 19, 22), suites=("cm",)
        )
        taylor._is_cm.cache_clear()
        try:
            run(config)
            misses = taylor._is_cm.cache_info().misses
        finally:
            taylor._is_cm.cache_clear()
        # classes by brute force over the whole group, away from the memo
        classes = {
            (
                min(
                    minimal_exponents(_act(gens, *h, nv // 2))
                    for h in _pair_group(nv // 2)
                ),
                nv,
                prime,
            )
            for gens, nv, prime in seen
        }
        assert misses <= len(classes) < len(seen)


class TestCodim:
    def test_frozen_values(self):
        assert grade_and_cm([(1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1)], 4).codim == 1
        assert grade_and_cm([(1, 0), (0, 1)], 2).codim == 2
        assert grade_and_cm([], 3).codim == 0
        assert grade_and_cm([(0, 0, 0)], 3).codim is None

    @settings(max_examples=60, deadline=None)
    @given(_pair_ideals())
    def test_symmetric_ideals_share_one_height(self, case):
        f, gens, g = case
        nv = 2 * f
        moved = _act(gens, *g, f)
        # the memo holds I's class, and g.I is served from it
        grade_and_cm(gens, nv)
        own = taylor._normalize_gens(moved, nv)
        assert grade_and_cm(moved, nv).codim == taylor._codim.__wrapped__(own, nv)


class TestShellability:
    def test_two_indices_products(self):
        r = shellability_check(frozenset(), frozenset({0, 1}), 2, 2)
        assert r.shellable
        assert r.facets == ((1, 1), (1, -1), (-1, 1))

    def test_three_indices_products(self):
        r = shellability_check(frozenset(), frozenset(range(3)), 2, 3)
        assert r.shellable
        assert len(r.facets) == 4
        assert r.facets[0] == (1, 1, 1)

    def test_degree_above_index_count_keeps_all_facets(self):
        r = shellability_check(frozenset(), frozenset(range(3)), 4, 3)
        assert r.shellable
        assert len(r.facets) == 8

    def test_all_partitions_shell(self):
        for f in (1, 2, 3):
            idx = frozenset(range(f))
            for size in range(f + 1):
                for J1 in map(frozenset, itertools.combinations(range(f), size)):
                    for d in range(2, f + 2):
                        r = shellability_check(J1, idx - J1, d, f)
                        assert r.shellable, (f, J1, d, r.failure)
                        counts = [
                            sum(
                                1
                                for j in range(f)
                                if (j in J1) == (x[j] == 1)
                            )
                            for x in r.facets
                        ]
                        assert counts == sorted(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            shellability_check({0}, {0, 1}, 2, 2)
        with pytest.raises(ValueError):
            shellability_check({0}, set(), 2, 2)
        with pytest.raises(ValueError):
            shellability_check(set(), {0, 1}, 1, 2)


class TestSliceBases:
    def test_single_index_counts(self):
        for e in range(7):
            for w in range(-e, e + 1):
                keys = reso.slice_keys(1, e, (w,))
                expect = (e - abs(w)) // 2 + 1 if (e - w) % 2 == 0 else 0
                assert len(keys) == expect
                for key in keys:
                    assert key_degree(key) == e
                    assert key_char(key) == (w,)

    def test_two_index_counts_are_convolutions(self):
        for e in range(6):
            for w0 in range(-3, 4):
                for w1 in range(-3, 4):
                    direct = len(reso.slice_keys(2, e, (w0, w1)))
                    conv = sum(
                        len(reso.slice_keys(1, e0, (w0,)))
                        * len(reso.slice_keys(1, e - e0, (w1,)))
                        for e0 in range(e + 1)
                    )
                    assert direct == conv


def _in_left_ideal(el, gens):
    """Whether a homogeneous element lies in the span of the algebra
    multiples of the generators, ranked on its own slice.  The multiples
    are `PbwElement` products, their rows keyed by monomial."""
    f, p, deg, w = el.f, el.p, el.degree, el.char
    rows = [
        (PbwElement(f, p, {m: 1}) * g).terms
        for g in gens
        for m in reso.slice_keys(f, deg - g.degree, tuple(a - b for a, b in zip(w, g.char)))
    ]
    return rank_mod(rows + [el.terms], p) == rank_mod(rows, p)


def _assembly_matches(target, found, slices, dmax, f, p):
    """Every column `_PackedMap.columns` assembles, on each slice in turn
    with one map, equals the coordinates of the `PbwElement` products
    m * v on the slice basis of the target shifts, keyed by (summand,
    monomial)."""
    packed = reso._PackedMap(dmax, f, p)
    for deg, w in slices:
        index = packed.index(target, deg, w)
        cols = packed.columns(found, deg, w, index)
        basis = [
            (s, m)
            for s, (e, u) in enumerate(target)
            for m in reso.slice_keys(f, deg - e, tuple(a - b for a, b in zip(w, u)))
        ]
        pos = {bm: i for i, bm in enumerate(basis)}
        expected = []
        for (ge, gu), vec in found:
            for m in reso.slice_keys(f, deg - ge, tuple(a - b for a, b in zip(w, gu))):
                mono = PbwElement(f, p, {m: 1})
                expected.append(
                    {
                        pos[(s, key)]: c
                        for s, el in enumerate(vec)
                        for key, c in (mono * el).terms.items()
                    }
                )
        if len(index) != len(basis) or cols != expected:
            return False
    return True


@st.composite
def _assembly_cases(draw):
    """Target shifts, homogeneous generator vectors between them and the
    slices to assemble, within a window of degree dmax.  Each generator
    has a term on a drawn summand, and each slice holds a multiple of a
    drawn generator."""
    f = draw(st.integers(1, 2))
    p = draw(st.sampled_from([29, 61]))
    dmax = draw(st.integers(1, 6))
    top = min(3, dmax)
    local = st.tuples(st.integers(0, top), st.integers(0, top), st.integers(0, top // 2))
    # a monomial of degree at most dmax, the unit in place of a larger one
    unit = ((0, 0, 0),) * f
    monomial = st.tuples(*[local] * f).map(
        lambda key: key if key_degree(key) <= dmax else unit
    )
    char = st.tuples(*[st.integers(-2, 2)] * f)
    target = tuple(
        draw(st.lists(st.tuples(st.integers(0, 2), char), min_size=1, max_size=3))
    )
    found = []
    for _ in range(draw(st.integers(1, 3))):
        e0, u0 = draw(st.sampled_from(target))
        k0 = draw(monomial)
        ge = e0 + key_degree(k0)
        gu = tuple(a + b for a, b in zip(u0, key_char(k0)))
        vec = []
        for e, u in target:
            keys = reso.slice_keys(f, ge - e, tuple(a - b for a, b in zip(gu, u)))
            terms = draw(
                st.dictionaries(st.sampled_from(keys), st.integers(1, p - 1), max_size=3)
                if keys
                else st.just({})
            )
            vec.append(PbwElement(f, p, terms or ({k0: 1} if (e, u) == (e0, u0) else {})))
        found.append(((ge, gu), tuple(vec)))
    slices = []
    for _ in range(draw(st.integers(1, 3))):
        (ge, gu), _ = draw(st.sampled_from(found))
        m = draw(monomial)
        if ge + key_degree(m) <= dmax:
            slices.append((ge + key_degree(m), tuple(a + b for a, b in zip(gu, key_char(m)))))
    return target, found, slices, dmax, f, p


class TestPackedAssembly:
    @settings(max_examples=150, deadline=None)
    @given(_assembly_cases())
    def test_columns_are_pbw_products(self, case):
        assert _assembly_matches(*case)

    @pytest.mark.parametrize("dmax", [1, 2, 5])
    @pytest.mark.parametrize("p", [29, 61])
    def test_exponent_at_the_window_top(self, dmax, p):
        # y^(dmax - 1) * y = y^dmax, an exponent equal to dmax, on the
        # summand of degree 0, beside a summand of degree dmax whose basis
        # is the unit; with radix dmax instead of dmax + 1 the two pack to
        # one int at dmax = 1
        target = ((0, (0,)), (dmax, (dmax,)))
        found = [((1, (1,)), (_y(p=p), PbwElement.zero(1, p)))]
        found.append(((dmax, (dmax,)), (_y(p=p, n=dmax), PbwElement.one(1, p).scale(3))))
        assert _assembly_matches(target, found, [(dmax, (dmax,))], dmax, 1, p)
        # the same at the second index of two, with an h-power multiplier
        target = ((0, (0, 0)),)
        found = [((1, (0, 1)), (_y(f=2, p=p, j=1),))]
        slices = [(dmax, (0, dmax)), (dmax, (0, dmax - 2))]
        assert _assembly_matches(target, found, slices, dmax, 2, p)


class TestModuleGenerators:
    def test_cube_power_absorbed_on_matching_branch(self):
        gens = reso.module_generators(("Y",), True, 29)
        res = reso.minimal_resolution(gens, 1, 3, 29, 1)
        assert list(res.shifts[1]) == [(1, (1,)), (2, (0,)), (3, (-3,))]

    def test_product_tag_keeps_both_cubes(self):
        gens = reso.module_generators(("YZ",), True, 29)
        res = reso.minimal_resolution(gens, 1, 3, 29, 1)
        assert sorted(res.shifts[1]) == [(2, (0,)), (2, (0,)), (3, (-3,)), (3, (3,))]

    def test_presentation_drops_multiples(self):
        elems = [_y(), _y(n=3), _h(), _z(n=3)]
        res = reso.minimal_resolution(elems, 1, 3, 29, 1)
        assert res.shifts[1] == ((1, (1,)), (2, (0,)), (3, (-3,)))
        assert [vec[0] for vec in res.maps[0]] == [elems[0], elems[2], elems[3]]

    def test_generator_of_another_algebra_rejected(self):
        # built at p = 29 but resolved at p = 61
        with pytest.raises(ValueError, match="p=29, not f=1, p=61"):
            reso.minimal_resolution([_z() * _y()], 2, 6, 61, 1)
        # one index where the algebra has two
        with pytest.raises(ValueError, match="f=1, p=29, not f=2, p=29"):
            reso.minimal_resolution([_y(), _y(f=2, j=1)], 2, 6, 29, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_redundant_generators_leave_the_resolution(self, data):
        # a module's presentation plus duplicates, scalar multiples and
        # left multiples by basis monomials of its generators, shuffled
        p = 29
        f = data.draw(st.integers(1, 2))
        tags = tuple(data.draw(st.lists(st.sampled_from(ALL_TAGS), min_size=f, max_size=f)))
        with_in = data.draw(st.booleans())
        imax, dmax = (3, 8) if f == 1 else (2, data.draw(st.integers(2, 4)))
        gens = reso.module_generators(tags, with_in, p)
        local = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
        extra = st.one_of(
            st.sampled_from(gens),
            st.builds(PbwElement.scale, st.sampled_from(gens), st.integers(1, p - 1)),
            st.builds(
                lambda key, g: PbwElement(len(key), p, {key: 1}) * g,
                st.tuples(*[local] * f),
                st.sampled_from(gens),
            ),
        )
        elems = data.draw(st.permutations(gens + data.draw(st.lists(extra, max_size=4))))
        res = reso.minimal_resolution(elems, imax, dmax, p, f)
        assert reso.verify_resolution(res)
        assert res.betti() == reso.minimal_resolution(gens, imax, dmax, p, f).betti()
        kept = [vec[0] for vec in res.maps[0]]
        assert all(any(g is e for e in elems) for g in kept)

        # minimality, checked on the slices directly: every element in the
        # window lies in the span of the multiples of the kept generators,
        # and no kept generator in the span of the multiples of the others
        assert all(_in_left_ideal(e, kept) for e in elems if e.degree <= dmax)
        assert not any(
            _in_left_ideal(g, kept[:k] + kept[k + 1 :]) for k, g in enumerate(kept)
        )

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError):
            reso.minimal_resolution([PbwElement.one(1, 29)], 2, 6, 29, 1)


class TestFactorTables:
    def test_all_factor_tables_match(self):
        for t in ALL_TAGS:
            for full in (False, True):
                tor = reso.module_resolution((t,), full, 29)
                computed, expected = tor.table, reso.expected_table((t,), full)
                assert computed.rows == expected.rows, (t, full, computed.diff(expected))
                assert tor.complete is True, (t, full)

    def test_surviving_z_quotient_dims(self):
        assert reso.module_resolution(("Z",), False, 29).table.dims() == (1, 2, 1)

    def test_small_window_is_inconclusive(self):
        from weightcalc.suites import _suite_tor
        from weightcalc.weights import Params

        # window 2 misses the degree-3 top generator, so the tor suite
        # must not certify the f = 1 tables from it
        assert reso.module_resolution(("Z",), False, 29, 2).table.dims() == (1, 2)
        checks = _suite_tor(Params(1, 29, frozenset({0}), (13,)), 2)
        (dims,) = [c for c in checks if c.id.startswith("homology.tor-dims.")]
        assert dims.status == "inconclusive"
        assert dims.details.startswith("window 2 ")

    def test_window_table_is_the_default_table_cut(self, monkeypatch):
        # a window W gives the default window's table with the shifts
        # above W dropped, then the trailing empty rows
        p = 29
        calls = []
        inner = reso.minimal_resolution

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(reso, "minimal_resolution", counted)
        for f in (1, 2):
            patterns = list(itertools.product(ALL_TAGS, repeat=f))
            defaults = {tags: reso.module_resolution(tags, False, p) for tags in patterns}
            # the default window, given explicitly, reads the same memo entries
            calls.clear()
            for tags in patterns:
                reso.module_resolution(tags, False, p, 4 * f + 2)
            assert not calls, f
            # window by window, so that a window's classes stay in the memo
            # for every pattern of the class
            for dmax in range(4 * f + 6):
                for tags in patterns:
                    table = reso.module_resolution(tags, False, p, dmax).table
                    rows = [
                        tuple(sh for sh in row if sh[0] <= dmax)
                        for row in defaults[tags].table.rows
                    ]
                    while rows and not rows[-1]:
                        rows.pop()
                    assert table == reso.BettiTable(f, tuple(rows)), (tags, dmax)

    def test_undeformed_tables_are_exterior_powers(self):
        for t in ALL_TAGS:
            table = reso.module_resolution((t,), False, 29).table
            wedge = reso.wedge_table(table.rows[1], 2, 1)
            assert table.rows == wedge.rows

    def test_cube_quotient_breaks_the_exterior_pattern(self):
        # an extra second syzygy appears, so the wedge of row 1 overshoots
        table = reso.module_resolution(("YZ",), True, 29).table
        wedge = reso.wedge_table(table.rows[1], 3, 1)
        assert table.rows[2] != wedge.rows[2]

    def test_undeformed_tor_embeds_in_cube_quotient_tor(self):
        for t in ALL_TAGS:
            small = reso.module_resolution((t,), False, 29).table
            big = reso.module_resolution((t,), True, 29).table
            for i in range(3):
                a, b = Counter(small.row(i)), Counter(big.row(i))
                assert all(a[k] <= b[k] for k in a), (t, i)

    def test_support_window(self):
        for t in ALL_TAGS:
            table = reso.module_resolution((t,), False, 29).table
            for i, row in enumerate(table.rows):
                assert all(i <= e <= 2 * i or i == 0 for e, _ in row)

    def test_top_term_bounds(self):
        for tags, shift in [
            (("Z",), 3),
            (("Y",), 3),
            (("YZ",), 4),
            (("Y", "Y"), 6),
            (("Z", "YZ"), 7),
            (("YZ", "YZ"), 8),
        ]:
            tor = reso.module_resolution(tags, False, 29)
            f = len(tags)
            assert tor.complete is True, tags
            assert [e for e, _ in tor.table.row(2 * f)] == [shift], tags
            assert 3 * f <= shift <= 4 * f


class TestTwoIndexResolutions:
    def test_undeformed_two_index_table_matches_product(self):
        p = 29
        gens = reso.module_generators(("YZ", "Z"), False, p)
        res = reso.minimal_resolution(gens, 4, 10, p, 2)
        assert reso.verify_resolution(res)
        assert res.next_kernel_empty is True
        assert res.betti().rows == reso.expected_table(("YZ", "Z"), False).rows

    def test_kunneth_dims(self):
        t = reso.kunneth_table(
            [
                reso.expected_factor_table("Y", False),
                reso.expected_factor_table("Z", False),
            ]
        )
        assert t.dims() == (1, 4, 6, 4, 1)

    @pytest.mark.parametrize(
        "tags, with_in, imax, dmax, dims, complete",
        [
            (("Y",), False, 1, 6, (1, 2), False),
            (("Y",), False, 2, 5, (1, 2, 1), True),
            (("Y",), False, 0, 4, (1,), None),
            (("Y",), False, 3, 9, (1, 2, 1), True),
            (("Y",), True, 1, 6, (1, 3), False),
            # the level-3 generator sits at degree 6, outside the window
            (("Y",), True, 2, 5, (1, 3, 3), True),
            (("Y",), True, 0, 4, (1,), None),
            (("Y",), True, 3, 9, (1, 3, 3, 1), True),
            (("YZ", "Z"), False, 1, 6, (1, 4), False),
            (("YZ", "Z"), False, 2, 5, (1, 4, 6), False),
            (("YZ", "Z"), False, 0, 4, (1,), None),
            (("YZ", "Z"), False, 6, 10, (1, 4, 6, 4, 1), True),
            # level 3 has a generator at (4, (1, -1)), found before the
            # level-2 generator at (4, (1, 3))
            (("Y", "Z"), True, 3, 5, (1, 6, 14, 6), True),
        ],
    )
    def test_window_and_probe(self, tags, with_in, imax, dmax, dims, complete):
        # early stop at an empty level, the completion probe, and vectors
        # with one component per generator of the level below
        p = 29
        gens = reso.module_generators(tags, with_in, p)
        res = reso.minimal_resolution(gens, imax, dmax, p, len(tags))
        assert res.betti().dims() == dims
        assert res.next_kernel_empty is complete
        for i, vecs in enumerate(res.maps):
            assert all(len(vec) == len(res.shifts[i]) for vec in vecs)

    def test_tor_dim_identity_binomial(self):
        # undeformed quotient Tor dimensions depend only on the index count
        import math

        dims = [reso.module_resolution((t,), False, 29).table.dims() for t in ALL_TAGS]
        assert tuple(map(sum, zip(*dims))) == tuple(3 * math.comb(2, i) for i in range(3))


def _resolved(tags, with_in, p=29):
    """The pattern's own resolution, in the default window of
    `module_resolution`."""
    f = len(tags)
    gens = reso.module_generators(tags, with_in, p)
    imax, dmax = (3 * f, 6 * f) if with_in else (2 * f, 4 * f + 2)
    return reso.minimal_resolution(gens, imax, dmax, p, f)


class TestSymmetryClasses:
    def test_class_representative(self):
        assert reso._symmetry_class(("Z",)) == (("Y",), (0,), frozenset({0}))
        # index 0 of (YZ, Z) reads index 1 of the representative (Y, YZ)
        assert reso._symmetry_class(("YZ", "Z")) == (("Y", "YZ"), (1, 0), frozenset({1}))
        classes = {
            reso._symmetry_class(tags)[0] for tags in itertools.product(ALL_TAGS, repeat=2)
        }
        assert classes == {("Y", "Y"), ("Y", "YZ"), ("YZ", "YZ")}

    def test_transported_resolutions_equal_direct_ones(self):
        # every f <= 2 pattern resolved on its own against the table carried
        # from its class representative; the plain and f = 1
        # representatives are rechecked, and the cube-deformed f = 2 ones
        # by acceptance criterion 5
        p = 29
        for f in (1, 2):
            for tags in itertools.product(ALL_TAGS, repeat=f):
                for with_in in (False, True):
                    tor = reso.module_resolution(tags, with_in, p)
                    direct = _resolved(tags, with_in, p)
                    assert tor.table == direct.betti(), (tags, with_in)
                    imax = 3 * f if with_in else 2 * f
                    assert tor.complete == direct.complete(imax), (tags, with_in)
                    if not with_in or f == 1:
                        assert tor.verified, (tags, with_in)


# Tor of the trivial module A/(y, z) at f = 1 is the homology of the
# three-dimensional Heisenberg algebra: y and z in H_1, y∧h and z∧h in
# H_2, y∧z∧h in H_3, with (degree, y-minus-z weight) shifts.
TRIVIAL_F1_ROWS = (
    ((0, (0,)),),
    ((1, (-1,)), (1, (1,))),
    ((3, (-1,)), (3, (1,))),
    ((4, (0,)),),
)
# dims at f = 1 and at f = 2, the homology of heis^2 (Kunneth of 1, 2, 2, 1)
TRIVIAL_DIMS = {1: (1, 2, 2, 1), 2: (1, 4, 8, 10, 8, 4, 1)}


class TestDegreeBound:
    @pytest.mark.parametrize("f", [1, 2])
    def test_trivial_module_bound_is_tight(self, f):
        # the top generator sits at degree 4f, the Chevalley-Eilenberg
        # bound t + D_3f with t = 0
        p = 29
        gens = [g for j in range(f) for g in (_y(f, p, j), _z(f, p, j))]
        res = reso.minimal_resolution(gens, 3 * f, 4 * f, p, f)
        assert reso.verify_resolution(res)
        assert res.top_degree == 0
        assert res.complete(3 * f) is True
        assert res.betti().dims() == TRIVIAL_DIMS[f]
        if f == 1:
            assert res.betti().rows == TRIVIAL_F1_ROWS
        cut = reso.minimal_resolution(gens, 3 * f, 4 * f - 1, p, f)
        assert cut.betti().dims() == res.betti().dims()[:-1]
        assert cut.top_degree == 0
        assert cut.complete(3 * f) is None

    @pytest.mark.parametrize("f", [1, 2])
    def test_top_degree_of_tag_patterns(self, f):
        # the cube-deformed quotient keeps z^k, y^k (k < 3) or both per
        # index, so its top degree is 2f; the plain one is infinite.  Level
        # 0 alone measures the quotient, so one level suffices, in a window
        # that ends past degree 2f + 1, the first the deformed one lacks.
        for tags in itertools.product(ALL_TAGS, repeat=f):
            for with_in, top in ((True, 2 * f), (False, None)):
                gens = reso.module_generators(tags, with_in, 29)
                assert reso.minimal_resolution(gens, 1, 2 * f + 2, 29, f).top_degree == top

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(ALL_TAGS),
        st.integers(2, 4),
        st.integers(2, 4),
        st.sampled_from([29, 61]),
    )
    def test_finite_presentations_recheck_past_the_bound(self, tag, a, b, p):
        # modulo the central h the quotient is F[y, z] / (tag, y^a, z^b):
        # z-powers below b, y-powers below a, or both
        gens = reso.module_generators((tag,), False, p) + [_y(p=p, n=a), _z(p=p, n=b)]
        top = {"Y": b - 1, "Z": a - 1, "YZ": max(a, b) - 1}[tag]
        # top degrees of the exterior powers of span(y, z, h); level 4 is
        # empty, so level 3 bounds every generator
        wedge_top = (0, 2, 3, 4)
        res = reso.minimal_resolution(gens, 3, top + wedge_top[3] + 2, p, 1)
        assert res.top_degree == top
        assert all(e <= top + wedge_top[i] for i, row in enumerate(res.shifts) for e, _ in row)
        assert reso.verify_resolution(res)
        assert res.complete(3) is True


class TestVerification:
    def test_verify_accepts_computed(self):
        assert reso.verify_resolution(_resolved(("YZ",), True))

    def test_verify_rejects_tampering(self):
        res = _resolved(("Y",), False)
        # shifting a presentation generator by a unit breaks the composition
        bad_gen = (res.maps[0][0][0] + PbwElement.one(res.f, res.p),)
        bad_maps = ((bad_gen,) + res.maps[0][1:],) + res.maps[1:]
        broken = dataclasses.replace(res, maps=bad_maps)
        assert not reso.verify_resolution(broken)

    def test_verify_rejects_unit_component(self):
        # add a split summand A(-3) -> A(-3) with identity map: the complex
        # stays exact and composes to zero, but it is no longer minimal
        res = _resolved(("Y",), False)
        zero, one = PbwElement.zero(res.f, res.p), PbwElement.one(res.f, res.p)
        shift = (3, (1,))
        shifts = (res.shifts[0], res.shifts[1] + (shift,), res.shifts[2] + (shift,))
        lower = res.maps[0] + ((zero,),)
        upper = tuple(vec + (zero,) for vec in res.maps[1]) + ((zero, zero, one),)
        broken = dataclasses.replace(res, shifts=shifts, maps=(lower, upper))
        assert not reso.verify_resolution(broken)

    @pytest.mark.parametrize("k", [0, 1])
    def test_verify_rejects_short_vectors(self, k):
        # a level-2 vector missing its trailing (zero) component
        res = _resolved(("YZ",), True)
        vecs = list(res.maps[1])
        assert not vecs[k][-1].terms
        vecs[k] = vecs[k][:-1]
        broken = dataclasses.replace(
            res, maps=(res.maps[0], tuple(vecs)) + res.maps[2:]
        )
        assert not reso.verify_resolution(broken)

    @pytest.mark.parametrize(
        "tags, with_in", [(("YZ",), True), (("Y",), True), (("Y", "Z"), False)]
    )
    def test_verify_rejects_a_dropped_top_generator(self, tags, with_in):
        # the rest still composes to zero and stays homogeneous and minimal,
        # so only the slice ranks see the kernel the generator covered
        res = _resolved(tags, with_in)
        top = len(res.maps) - 1
        for k in range(len(res.shifts[-1])):
            shifts = res.shifts[:-1] + (res.shifts[-1][:k] + res.shifts[-1][k + 1 :],)
            maps = res.maps[:top] + (res.maps[top][:k] + res.maps[top][k + 1 :],)
            broken = dataclasses.replace(res, shifts=shifts, maps=maps)
            assert not reso.verify_resolution(broken), (tags, with_in, k)

    def test_verify_rejects_an_inhomogeneous_map(self):
        # a top generator's shift moves down four degrees and its vector
        # stays: it still composes to zero and has no component between
        # equal shifts, but a multiple of it no longer lies in the slice
        # that reads it
        res = _resolved(("YZ",), True)
        (e, u), *rest = res.shifts[-1]
        shifts = res.shifts[:-1] + (((e - 4, u), *rest),)
        assert not reso.verify_resolution(dataclasses.replace(res, shifts=shifts))

    def test_euler_of_slices(self):
        # alternating sums of slice dimensions recover the quotient: the
        # undeformed Y-pattern quotient is spanned by the z-powers
        res = _resolved(("Y",), False)
        for deg in range(7):
            for w in range(-deg, deg + 1):
                total = 0
                for i, shifts in enumerate(res.shifts):
                    dim = sum(
                        len(reso.slice_keys(1, deg - e, (w - u[0],)))
                        for e, u in shifts
                    )
                    total += dim if i % 2 == 0 else -dim
                assert total == (1 if w == -deg else 0)
