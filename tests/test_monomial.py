"""Tests for monomial ideals in the y_j z_j = 0 quotient ring."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcalc.monomial import (
    Monomial,
    MonomialIdeal,
    a1_index_sets,
    graded_characters,
    hilbert_function,
    ideal_a,
    ideal_a1,
    ideal_ijd,
    ideal_in,
    standard_monomials,
    total_dimension,
    unit_ideal,
)
from weightcalc.characters import diff_of_lambda
from weightcalc.weights import (
    Params,
    TTag,
    enumerate_p,
    from_symbols,
    j_set,
    subsets,
    t_type,
)

from reference import hilbert_function_pair


def mk(f: int, j_rho=(), p: int = 29, r=None) -> Params:
    if r is None:
        r = tuple(9 + j for j in range(f))
    return Params(f=f, p=p, j_rho=frozenset(j_rho), r=tuple(r))


class TestMonomial:
    def test_signed_round_trip(self):
        for signed in itertools.product(range(-3, 4), repeat=2):
            m = Monomial(signed)
            assert m.degree == sum(abs(e) for e in signed)
            lifted = m.lifted()
            assert tuple(a - b for a, b in zip(lifted[:2], lifted[2:])) == signed
            assert not any(a and b for a, b in zip(lifted[:2], lifted[2:]))

    def test_constructors(self):
        assert Monomial.one(2).degree == 0
        assert Monomial.y(0, 2).signed == (1, 0)
        assert Monomial.z(1, 2, n=3).signed == (0, -3)

    def test_divides(self):
        y = Monomial.y(0, 1)
        y2 = Monomial.y(0, 1, n=2)
        z = Monomial.z(0, 1)
        assert y.divides(y2) and not y2.divides(y)
        # opposite branches never divide each other
        assert not y.divides(z) and not z.divides(y)
        assert Monomial.one(1).divides(z)
        # against the exponent order in the free polynomial ring
        vecs = [Monomial(v) for v in itertools.product(range(-2, 3), repeat=2)]
        for a in vecs:
            for b in vecs:
                lifted_le = all(x <= w for x, w in zip(a.lifted(), b.lifted()))
                assert a.divides(b) == lifted_le

    def test_str(self):
        assert str(Monomial.one(1)) == "1"
        assert str(Monomial((2, -1))) == "y0^2*z1"


class TestMonomialIdeal:
    def test_minimalization(self):
        gens = (Monomial.y(0, 1), Monomial.y(0, 1, n=3), Monomial.y(0, 1))
        ideal = MonomialIdeal(1, gens)
        assert ideal.gens == (Monomial.y(0, 1),)

    def test_minimalization_preserves_membership(self):
        # membership decided against the raw list must survive pruning
        raw = [
            Monomial(v)
            for v in [(1, 0), (2, -0), (0, -2), (1, -1), (0, -3)]
        ]
        ideal = MonomialIdeal(2, tuple(raw))
        for signed in itertools.product(range(-3, 4), repeat=2):
            m = Monomial(signed)
            assert ideal.contains(m) == any(g.divides(m) for g in raw)

    def test_unit_zero(self):
        assert unit_ideal(2).is_unit
        assert MonomialIdeal(2, ()).is_zero
        assert not unit_ideal(2).is_zero
        # a unit ideal swallows every other generator
        assert (unit_ideal(1) + MonomialIdeal(1, (Monomial.y(0, 1),))).gens == (
            Monomial.one(1),
        )

    def test_add_and_contains_ideal(self):
        a = MonomialIdeal(2, (Monomial.y(0, 2),))
        b = MonomialIdeal(2, (Monomial.z(1, 2),))
        s = a + b
        assert s.contains_ideal(a) and s.contains_ideal(b)
        assert not a.contains_ideal(b)

    def test_add_rejects_mismatch(self):
        with pytest.raises(ValueError):
            unit_ideal(1) + unit_ideal(2)

    def test_lift_exponents_zero_ideal(self):
        assert MonomialIdeal(1, ()).lift_exponents() == ((1, 1),)

    def test_lift_exponents_absorbs_products(self):
        # z_0 divides y_0 z_0, so only the linear generator remains at index 0
        lifted = MonomialIdeal(1, (Monomial.z(0, 1),)).lift_exponents()
        assert lifted == ((0, 1),)

    def test_lift_exponents_f2(self):
        # y_0^2 does not absorb y_0 z_0, so both survive alongside y_1 z_1
        lifted = MonomialIdeal(2, (Monomial.y(0, 2, n=2),)).lift_exponents()
        assert set(lifted) == {(2, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)}


class TestIdealA:
    def test_marked_x_gives_z(self):
        params = mk(1, j_rho={0})
        ideal = ideal_a(from_symbols("x"), params)
        assert ideal.gens == (Monomial.z(0, 1),)

    def test_unmarked_x_gives_zero(self):
        params = mk(1)
        assert ideal_a(from_symbols("x"), params).is_zero

    def test_all_yz_gives_zero(self):
        # x+1 must be followed by a negative-slope entry, p-2-x by a
        # positive one, so this is the valid all-YZ pattern at f=2
        params = mk(2)
        assert ideal_a(from_symbols("x+1", "p-2-x"), params).is_zero

    def test_matches_tags_everywhere(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    ideal = ideal_a(lam, params)
                    tags = t_type(lam, params)
                    expected = []
                    for j, tag in enumerate(tags):
                        if tag is TTag.Y:
                            expected.append(Monomial.y(j, f))
                        elif tag is TTag.Z:
                            expected.append(Monomial.z(j, f))
                    assert set(ideal.gens) == set(expected)


class TestIdealIJD:
    def test_nonpositive_degree_is_unit(self):
        assert ideal_ijd({0}, {1}, 0, 2).is_unit
        assert ideal_ijd(set(), set(), -2, 1).is_unit

    def test_too_large_degree_is_zero(self):
        assert ideal_ijd({0}, set(), 2, 2).is_zero

    def test_pure_z_example(self):
        ideal = ideal_ijd(set(), {0, 1}, 1, 2)
        assert set(ideal.gens) == {Monomial.z(0, 2), Monomial.z(1, 2)}

    def test_mixed_top_degree_example(self):
        ideal = ideal_ijd({0}, {1}, 2, 2)
        assert ideal.gens == (Monomial((1, -1)),)

    def test_generator_count(self):
        import math

        for f in (2, 3, 4):
            idxs = list(range(f))
            for k1 in range(f + 1):
                J1 = set(idxs[:k1])
                J2 = set(idxs[k1:])
                for d in range(1, f + 1):
                    ideal = ideal_ijd(J1, J2, d, f)
                    expected = sum(
                        math.comb(len(J1), a) * math.comb(len(J2), d - a)
                        for a in range(d + 1)
                    )
                    assert len(ideal.gens) == expected

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            ideal_ijd({0}, {0}, 1, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ideal_ijd({2}, set(), 1, 2)

    def test_plain_sets_give_the_frozen_ideal(self):
        # the memo keys on frozensets; plain sets still come in
        for J1, J2, d in (({0}, {1, 2}, 2), (set(), {0, 1}, 1), ({2}, set(), 3)):
            ideal = ideal_ijd(set(J1), set(J2), d, 3)
            assert ideal == ideal_ijd(frozenset(J1), frozenset(J2), d, 3)
            assert ideal == ideal_ijd(list(J1), tuple(J2), d, 3)


class TestIdealIn:
    def test_gens(self):
        ideal = ideal_in(2, 2)
        assert len(ideal.gens) == 4
        assert ideal.contains(Monomial.y(0, 2, n=2))
        assert not ideal.contains(Monomial.y(0, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ideal_in(0, 1)


class TestIdealA1:
    def test_requires_membership(self):
        # x+2 at an unmarked index fails the restricted-family filter
        params = mk(1)
        with pytest.raises(ValueError):
            ideal_a1(from_symbols("x+2"), 0, params)

    def test_requires_i0_range(self):
        params = mk(1)
        with pytest.raises(ValueError):
            ideal_a1(from_symbols("x"), 2, params)

    def test_frozen_example(self):
        params = mk(1)
        ideal = ideal_a1(from_symbols("p-1-x"), 0, params)
        assert ideal.gens == (Monomial.y(0, 1),)

    def test_unit_iff_below_jset(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    for i0 in range(-1, f + 1):
                        ideal = ideal_a1(lam, i0, params)
                        assert ideal.is_unit == (i0 < len(j_set(lam)))

    def test_collapses_to_type_ideal(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    J1, J2 = a1_index_sets(lam, params)
                    for i0 in range(-1, f + 1):
                        d = i0 + 1 - len(j_set(lam))
                        ideal = ideal_a1(lam, i0, params)
                        if len(J1) + len(J2) < d:
                            assert ideal == ideal_a(lam, params)
                        elif d > 0:
                            assert ideal != ideal_a(lam, params) or not (J1 or J2)

    def test_decreasing_in_level(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    prev = ideal_a1(lam, -1, params)
                    for i0 in range(0, f + 1):
                        cur = ideal_a1(lam, i0, params)
                        assert prev.contains_ideal(cur)
                        prev = cur

    def test_prime_and_residues_share_one_ideal(self):
        # the ideal reads j_rho alone, so a second prime is a memo hit
        lam = from_symbols("p-1-x", "p-1-x")
        here = ideal_a1(lam, 1, mk(2, j_rho={0}, p=29, r=(9, 10)))
        there = ideal_a1(lam, 1, mk(2, j_rho={0}, p=61, r=(13, 16)))
        assert here is there
        assert here != ideal_a1(lam, 1, mk(2, p=61, r=(13, 16)))

    def test_validation_runs_after_a_memo_hit(self):
        params = mk(1)
        ideal_a1(from_symbols("x"), 1, params)
        with pytest.raises(ValueError, match="i0 must lie"):
            ideal_a1(from_symbols("x"), 2, params)
        # x+2 is a member once index 0 is marked, and an outsider when not
        ideal_a1(from_symbols("x+2"), 0, mk(1, j_rho={0}))
        with pytest.raises(ValueError, match="restricted parameter family"):
            ideal_a1(from_symbols("x+2"), 0, params)

    def test_index_sets(self):
        params = mk(2, j_rho={0})
        lam = from_symbols("p-2-x", "p-1-x")
        J1, J2 = a1_index_sets(lam, params)
        assert J1 == {1} and J2 == frozenset()


def conv_oracle(ideal: MonomialIdeal, dmax: int) -> tuple[int, ...]:
    """Per-index convolution of degree counts.

    Only valid when every generator is supported at a single index, so
    the quotient splits as a tensor product over indices.
    """
    f = ideal.f
    for g in ideal.gens:
        assert sum(1 for e in g.signed if e) <= 1, "oracle needs split generators"
    per_index = []
    for j in range(f):
        local = [g for g in ideal.gens if all(g.signed[i] == 0 for i in range(f) if i != j)]
        counts = [0] * (dmax + 1)
        for e in range(-dmax, dmax + 1):
            m = Monomial(tuple(e if i == j else 0 for i in range(f)))
            if not any(g.divides(m) for g in local):
                counts[abs(e)] += 1
        per_index.append(counts)
    out = [0] * (dmax + 1)
    for degs in itertools.product(range(dmax + 1), repeat=f):
        if sum(degs) <= dmax:
            prod = 1
            for j, d in enumerate(degs):
                prod *= per_index[j][d]
            out[sum(degs)] += prod
    return tuple(out)


class TestHilbert:
    def test_full_ring_f1(self):
        assert hilbert_function(MonomialIdeal(1, ()), 5) == (1, 2, 2, 2, 2, 2)

    def test_single_line_f1(self):
        ideal = MonomialIdeal(1, (Monomial.z(0, 1),))
        assert hilbert_function(ideal, 5) == (1, 1, 1, 1, 1, 1)

    def test_full_ring_f2(self):
        assert hilbert_function(MonomialIdeal(2, ()), 3) == (1, 4, 8, 12)

    def test_unit_quotient_vanishes(self):
        assert hilbert_function(unit_ideal(2), 3) == (0, 0, 0, 0)

    def test_against_convolution_oracle(self):
        for f in (1, 2):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    for n in (1, 2, 3):
                        ideal = ideal_in(n, f) + ideal_a(lam, params)
                        assert hilbert_function(ideal, 2 * n) == conv_oracle(
                            ideal, 2 * n
                        )

    def test_total_dimension_product_formula(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    tags = t_type(lam, params)
                    c = sum(1 for t in tags if t is TTag.YZ)
                    s = f - c
                    for n in (1, 2, 3):
                        ideal = ideal_in(n, f) + ideal_a(lam, params)
                        assert total_dimension(ideal) == n**s * (2 * n - 1) ** c

    def test_infinite_quotient_needs_bound(self):
        with pytest.raises(ValueError):
            standard_monomials(MonomialIdeal(1, ()))

    def test_pair_requires_nesting(self):
        big = MonomialIdeal(1, (Monomial.y(0, 1),))
        small = MonomialIdeal(1, (Monomial.z(0, 1),))
        with pytest.raises(ValueError):
            hilbert_function_pair(big, small, 3)

    def test_pair_frozen(self):
        big = MonomialIdeal(1, (Monomial.y(0, 1),))
        small = MonomialIdeal(1, (Monomial.y(0, 1, n=2),))
        assert hilbert_function_pair(big, small, 3) == (0, 1, 0, 0)

    def test_pair_additivity(self):
        for f in (1, 2):
            params = mk(f, j_rho=frozenset(range(f)))
            for lam in enumerate_p(params):
                base = ideal_a1(lam, f, params)
                extended = ideal_in(3, f) + base
                # quotient by the smaller ideal splits degreewise into the
                # quotient by the larger one plus the sandwich module
                left = hilbert_function(base, 4)
                right_quot = hilbert_function(extended, 4)
                mid = hilbert_function_pair(extended, base, 4)
                assert left == tuple(a + b for a, b in zip(right_quot, mid))


class TestGradedCharacters:
    def test_degree_zero_is_inverse_base(self):
        params = mk(1, j_rho={0})
        lam = from_symbols("x")
        gc = graded_characters(lam, ideal_a(lam, params), 2, params)
        base = (-diff_of_lambda(lam, params).value) % params.q_minus_one
        assert gc.degrees[0] == (((0,), base),)

    def test_degree_one_z_type(self):
        # a single Z index leaves only y_0 in degree one, whose
        # character shifts the base by the elementary exponent 2
        params = mk(1, j_rho={0})
        lam = from_symbols("x")
        assert t_type(lam, params) == (TTag.Z,)
        gc = graded_characters(lam, ideal_a(lam, params), 1, params)
        base = gc.base_value
        assert gc.degrees[1] == (((1,), (base + 2) % params.q_minus_one),)

    def test_degree_one_y_type(self):
        params = mk(1, j_rho={0})
        lam = from_symbols("x+2")
        assert t_type(lam, params) == (TTag.Y,)
        gc = graded_characters(lam, ideal_a(lam, params), 1, params)
        assert [v for _, v in gc.degrees[1]] == [(gc.base_value - 2) % params.q_minus_one]

    def test_degree_one_yz_type(self):
        params = mk(1)
        lam = from_symbols("x")
        gc = graded_characters(lam, ideal_a(lam, params), 1, params)
        expected = sorted(
            [(gc.base_value + 2) % params.q_minus_one, (gc.base_value - 2) % params.q_minus_one]
        )
        assert sorted([v for _, v in gc.degrees[1]]) == expected

    def test_multiplicity_free_below_power(self):
        # residues chosen away from the degenerate middle of the window
        n = 3
        for f, r in ((1, (6,)), (2, (6, 16))):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho, r=r)
                params.require_genericity(2 * n - 1)
                for lam in enumerate_p(params):
                    gc = graded_characters(lam, ideal_a(lam, params), n - 1, params)
                    values = [v for layer in gc.degrees for _, v in layer]
                    assert len(values) == len(set(values))

    def test_layer_sizes_match_hilbert(self):
        params = mk(2, j_rho={1})
        for lam in enumerate_p(params):
            ideal = ideal_a(lam, params)
            gc = graded_characters(lam, ideal, 3, params)
            hf = hilbert_function(ideal, 3)
            assert tuple(len(layer) for layer in gc.degrees) == hf


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=5,
    )
)
def test_minimal_gens_form_antichain(signed_pairs):
    ideal = MonomialIdeal(2, tuple(Monomial(v) for v in signed_pairs))
    for g in ideal.gens:
        for h in ideal.gens:
            if g != h:
                assert not g.divides(h)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_divisibility_matches_signed_order(f, a, b):
    m1 = Monomial((a,) + (0,) * (f - 1))
    m2 = Monomial((b,) + (0,) * (f - 1))
    same_branch = a * b > 0 or a == 0
    assert m1.divides(m2) == (same_branch and abs(a) <= abs(b))
