"""Tests for characteristic cycle bookkeeping."""

from __future__ import annotations

import itertools

import pytest

from weightcalc.cycles import (
    CycleVector,
    cycle_additivity_check,
    cycle_of,
    cycle_of_subquotient,
    mult_add_check,
    survives_at,
    total_mult_formula,
)
from weightcalc.monomial import (
    Monomial,
    MonomialIdeal,
    ideal_a,
    ideal_a1,
    ideal_ijd,
    unit_ideal,
)
from weightcalc.weights import (
    Params,
    TTag,
    enumerate_p,
    from_symbols,
    star_involution,
    subsets,
    t_type,
)


def mk(f: int, j_rho=(), p: int = 29, r=None) -> Params:
    if r is None:
        r = tuple(9 + j for j in range(f))
    return Params(f=f, p=p, j_rho=frozenset(j_rho), r=tuple(r))


class TestCycleVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CycleVector(2, (1, 0, 1))
        with pytest.raises(ValueError):
            CycleVector(1, (1, -1))

    def test_add(self):
        a = CycleVector(1, (1, 0))
        b = CycleVector(1, (0, 1))
        assert (a + b).mults == (1, 1)
        with pytest.raises(ValueError):
            a + CycleVector(2, (0, 0, 0, 0))

    def test_support(self):
        v = CycleVector(2, (0, 1, 0, 1))
        assert v.support() == [frozenset({0}), frozenset({0, 1})]


class TestSurvival:
    def test_y_needs_bit(self):
        assert survives_at(Monomial.y(0, 1), 0b1)
        assert not survives_at(Monomial.y(0, 1), 0b0)

    def test_z_needs_clear_bit(self):
        assert survives_at(Monomial.z(0, 1), 0b0)
        assert not survives_at(Monomial.z(0, 1), 0b1)

    def test_unit_survives_everywhere(self):
        for mask in range(4):
            assert survives_at(Monomial.one(2), mask)


class TestCycleOf:
    def test_full_ring(self):
        for f in (1, 2, 3):
            v = cycle_of(MonomialIdeal(f, ()))
            assert v.mults == (1,) * 2**f
            assert v.total == 2**f

    def test_unit_quotient(self):
        assert cycle_of(unit_ideal(2)).total == 0

    def test_single_z(self):
        v = cycle_of(MonomialIdeal(1, (Monomial.z(0, 1),)))
        # z_0 dies exactly where y_0 survives
        assert v.mults == (0, 1)
        assert v.total == 1

    def test_type_ideal_support(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    tags = t_type(lam, params)
                    v = cycle_of(ideal_a(lam, params))
                    c = sum(1 for t in tags if t is TTag.YZ)
                    assert v.total == 2**c
                    for S in v.support():
                        # Z kills z_j, so j must sit on the y branch
                        for j, t in enumerate(tags):
                            if t is TTag.Z:
                                assert j in S
                            elif t is TTag.Y:
                                assert j not in S

    def test_powers_do_not_change_support(self):
        one = MonomialIdeal(2, (Monomial.y(0, 2), Monomial.z(1, 2)))
        squared = MonomialIdeal(2, (Monomial.y(0, 2, n=2), Monomial.z(1, 2, n=3)))
        assert cycle_of(one) == cycle_of(squared)


class TestTotalMultFormula:
    def test_frozen_example(self):
        tags = (TTag.YZ, TTag.YZ)
        assert total_mult_formula({0}, {1}, 1, tags, 2) == 1

    def test_unit_level(self):
        assert total_mult_formula({0}, set(), 0, (TTag.YZ,), 1) == 0

    def test_rejects_typed_product_index(self):
        with pytest.raises(ValueError):
            total_mult_formula({0}, set(), 1, (TTag.Y,), 1)

    def test_rejects_overlap(self):
        tags = (TTag.YZ, TTag.YZ)
        with pytest.raises(ValueError):
            total_mult_formula({0}, {0}, 1, tags, 2)

    def test_against_brute_force(self):
        # every split of indices into product sets, typed rest, all levels
        for f in (1, 2, 3, 4):
            idxs = range(f)
            for J in subsets(idxs):
                rest = [j for j in idxs if j not in J]
                for k1 in range(len(J) + 1):
                    Js = sorted(J)
                    J1, J2 = frozenset(Js[:k1]), frozenset(Js[k1:])
                    for rest_tags in itertools.product(
                        (TTag.Y, TTag.Z, TTag.YZ), repeat=len(rest)
                    ):
                        tags = [TTag.YZ] * f
                        for j, t in zip(rest, rest_tags):
                            tags[j] = t
                        gens = []
                        for j in rest:
                            if tags[j] is TTag.Y:
                                gens.append(Monomial.y(j, f))
                            elif tags[j] is TTag.Z:
                                gens.append(Monomial.z(j, f))
                        type_ideal = MonomialIdeal(f, tuple(gens))
                        for d in range(0, f + 2):
                            ideal = ideal_ijd(J1, J2, d, f) + type_ideal
                            assert cycle_of(ideal).total == total_mult_formula(
                                J1, J2, d, tuple(tags), f
                            )


class TestMultAdd:
    def test_frozen_example(self):
        params = mk(1, j_rho={0})
        left, right, whole = mult_add_check(from_symbols("x"), 0, params)
        assert (left, right, whole) == (1, 0, 1)

    def test_top_level(self):
        # at the top level the star side is the unit ideal
        params = mk(1, j_rho={0})
        left, right, whole = mult_add_check(from_symbols("x"), 1, params)
        assert right == 0 and left == whole

    def test_all_small_cases(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    for i0 in range(-1, f + 1):
                        left, right, whole = mult_add_check(lam, i0, params)
                        assert left + right == whole

    def test_star_preserves_type_cycle(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    star = star_involution(lam, params)
                    assert cycle_of(ideal_a(star, params)) == cycle_of(
                        ideal_a(lam, params)
                    )


class TestAdditivity:
    def test_subquotient_requires_nesting(self):
        big = MonomialIdeal(1, (Monomial.y(0, 1),))
        small = MonomialIdeal(1, (Monomial.z(0, 1),))
        with pytest.raises(ValueError):
            cycle_of_subquotient(big, small)

    def test_levelwise_chain(self):
        for f in (1, 2, 3):
            for j_rho in subsets(range(f)):
                params = mk(f, j_rho)
                for lam in enumerate_p(params):
                    for i0 in range(-1, f):
                        big = ideal_a1(lam, i0, params)
                        small = ideal_a1(lam, i0 + 1, params)
                        assert cycle_additivity_check(big, small)

    def test_multiplicities_stay_binary(self):
        params = mk(2, j_rho={0})
        for lam in enumerate_p(params):
            for i0 in range(-1, 3):
                v = cycle_of(ideal_a1(lam, i0, params))
                assert set(v.mults) <= {0, 1}
