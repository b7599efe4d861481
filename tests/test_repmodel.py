"""Tests for the tag-level prediction layer."""

from __future__ import annotations

import itertools
import math

import pytest

from weightcalc.monomial import ideal_a, ideal_a1
from weightcalc.repmodel import (
    chain_model,
    nonsplit_lattice,
    split_sigma_model,
    subquot_char_identity,
)
from weightcalc.weights import (
    Params,
    enumerate_d,
    enumerate_dss,
    enumerate_p,
    enumerate_pss,
    j_set,
    star_involution,
)

R_BY_F = {1: (6,), 2: (6, 16), 3: (6, 16, 7), 4: (6, 16, 7, 17)}


def make_params(f: int, j_rho) -> Params:
    return Params(f, 29, frozenset(j_rho), R_BY_F[f])


def all_jrho(f: int):
    for k in range(f + 1):
        for sub in itertools.combinations(range(f), k):
            yield frozenset(sub)


class TestLattice:
    def test_bottom_is_empty(self):
        st = nonsplit_lattice(-1, make_params(2, {0}))
        assert st.characters == ()
        assert st.functor_dim == 0

    def test_top_is_everything(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f) if f <= 2 else [frozenset(range(f))]:
                prm = make_params(f, jr)
                st = nonsplit_lattice(f, prm)
                assert st.characters == enumerate_p(prm)
                assert st.functor_dim == 2**f

    def test_single_index_graded_pieces(self):
        prm = make_params(1, {0})
        by_symbol = {
            lam.symbols()[0]: ideal_a1(lam, 0, prm) for lam in enumerate_p(prm)
        }
        assert str(by_symbol["x"]) == "(z0)"
        assert str(by_symbol["p-1-x"]) == "(y0)"
        assert by_symbol["x+2"].is_unit
        assert by_symbol["p-3-x"].is_unit

    def test_socle_and_layer_counts(self):
        # the socle at threshold i0 is indexed by the diagonal-family
        # members whose J-set has at most i0 indices, all of them marked,
        # one layer per J-set size
        for f in (2, 3):
            for jr in all_jrho(f) if f == 2 else [frozenset({0, 2})]:
                prm = make_params(f, jr)
                for i0 in range(-1, f + 1):
                    st = nonsplit_lattice(i0, prm)
                    socle = [
                        j_set(lam)
                        for lam in enumerate_d(prm)
                        if len(j_set(lam)) <= i0
                    ]
                    assert [
                        sum(1 for j in socle if len(j) == i) for i in range(i0 + 1)
                    ] == [math.comb(len(jr), i) for i in range(i0 + 1)]
                    assert all(j <= jr for j in socle)
                    assert st.functor_dim == sum(
                        math.comb(f, i) for i in range(i0 + 1)
                    )

    def test_characters_stack_by_layer_and_avoid_forbidden(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f) if f <= 2 else [frozenset({1})]:
                prm = make_params(f, jr)
                for i0 in range(-1, f + 1):
                    st = nonsplit_lattice(i0, prm)
                    layered = [
                        lam
                        for lam in enumerate_p(prm)
                        if len(j_set(lam)) <= i0
                    ]
                    assert list(st.characters) == layered
                    assert not set(st.forbidden) & set(st.characters)
                    for lam in st.forbidden:
                        assert len(j_set(lam)) == i0 + 1
                        assert not lam.in_p(jr)

    def test_forbidden_at_unmarked_index(self):
        st = nonsplit_lattice(0, make_params(1, set()))
        assert {lam.symbols()[0] for lam in st.forbidden} == {"x+2", "p-3-x"}

    def test_unit_ideals_exactly_above_threshold(self):
        prm = make_params(2, {0})
        for i0 in range(-1, 3):
            for lam in enumerate_p(prm):
                ideal = ideal_a1(lam, i0, prm)
                assert ideal.is_unit == (len(j_set(lam)) > i0)

    def test_range_validation(self):
        prm = make_params(2, {0})
        with pytest.raises(ValueError):
            nonsplit_lattice(-2, prm)
        with pytest.raises(ValueError):
            nonsplit_lattice(3, prm)


class TestSubquot:
    def test_single_index_bottom_step(self):
        prm = make_params(1, {0})
        chk = subquot_char_identity(-1, 0, prm)
        assert chk.holds and chk.scan_consistent
        mod = prm.q_minus_one
        expected = sorted([(-6) % mod, (-(29 - 1 - 6)) % mod])
        assert list(chk.left) == expected
        assert chk.left == chk.right

    def test_top_step_is_the_last_large_layer(self):
        from weightcalc.characters import diff_of_lambda

        prm = make_params(2, {0, 1})
        chk = subquot_char_identity(1, 2, prm)
        mod = prm.q_minus_one
        expected = sorted(
            (-diff_of_lambda(lam, prm).value) % mod
            for lam in enumerate_pss(prm)
            if len(j_set(lam)) == 2
        )
        assert list(chk.right) == expected
        assert chk.holds

    def test_all_pairs_small_degrees(self):
        for f in (1, 2):
            for jr in all_jrho(f):
                prm = make_params(f, jr)
                for i0 in range(-1, f + 1):
                    for i0p in range(i0 + 1, f + 1):
                        chk = subquot_char_identity(i0, i0p, prm)
                        assert chk.holds, (f, sorted(jr), i0, i0p)
                        assert chk.scan_consistent
                        assert bool(chk)

    def test_three_indices_spot(self):
        prm = make_params(3, {0, 2})
        chk = subquot_char_identity(0, 2, prm)
        assert chk.holds and chk.scan_consistent

    def test_range_validation(self):
        prm = make_params(2, {0})
        with pytest.raises(ValueError):
            subquot_char_identity(1, 1, prm)
        with pytest.raises(ValueError):
            subquot_char_identity(-2, 0, prm)


class TestSplitModel:
    def test_zero_model(self):
        m = split_sigma_model(set(), make_params(2, {0, 1}))
        assert m.chars == () and m.summands == ()
        assert m.functor_dim == 0
        assert m.sigma_dual == frozenset({2, 1, 0})

    def test_reflection_of_the_complement(self):
        m = split_sigma_model({0}, make_params(2, {0, 1}))
        assert m.sigma_dual == frozenset({0, 1})

    def test_duality_is_an_involution(self):
        for f in (1, 2, 3, 4, 5):
            prm = make_params(f, range(f)) if f <= 4 else Params(
                5, 29, frozenset(range(5)), (6, 16, 7, 17, 5)
            )
            levels = list(range(f + 1))
            samples = [frozenset(), frozenset(levels)] + [
                frozenset(levels[::2]),
                frozenset(levels[1::2]),
                frozenset({0}),
                frozenset({f}),
            ]
            if f <= 3:
                samples = [
                    frozenset(s)
                    for k in range(f + 2)
                    for s in itertools.combinations(levels, k)
                ]
            for sig in samples:
                m = split_sigma_model(sig, prm)
                assert split_sigma_model(m.sigma_dual, prm).sigma_dual == sig

    def test_constituent_balance(self):
        for f in (1, 2, 3):
            prm = make_params(f, range(f))
            total = len(enumerate_p(prm))
            for k in range(f + 2):
                for sig in map(frozenset, itertools.combinations(range(f + 1), k)):
                    m = split_sigma_model(sig, prm)
                    assert m.balanced
                    assert len(m.chars) + len(m.dual_chars) == total

    def test_mirror_is_the_star_image_of_the_complement(self):
        for f in (1, 2):
            prm = make_params(f, range(f))
            for k in range(f + 2):
                for sig in map(frozenset, itertools.combinations(range(f + 1), k)):
                    m = split_sigma_model(sig, prm)
                    rest = [lam for lam in enumerate_p(prm) if lam not in m.chars]
                    assert sorted(star_involution(lam, prm) for lam in rest) == sorted(
                        m.dual_chars
                    )

    def test_summands_and_dimension(self):
        prm = make_params(2, {0, 1})
        m = split_sigma_model({0, 2}, prm)
        for lam, ideal in m.summands:
            assert len(j_set(lam)) in {0, 2}
            assert ideal == ideal_a(lam, prm)
        assert m.functor_dim == math.comb(2, 0) + math.comb(2, 2)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            split_sigma_model({0}, make_params(2, {0}))
        with pytest.raises(ValueError):
            split_sigma_model({5}, make_params(2, {0, 1}))


class TestChainModel:
    def test_two_point_chain(self):
        prm = make_params(2, {0})
        v = chain_model((-1, 2), prm)
        assert v.valid and v.length == 1 and v.within_bound
        assert len(v.step_chars) == 1

    def test_maximal_chain(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f) if f <= 2 else [frozenset({0, 1})]:
                prm = make_params(f, jr)
                v = chain_model(tuple(range(-1, f + 1)), prm)
                assert v.valid
                assert v.length == f + 1
                assert v.within_bound
                assert v.steps_disjoint

    def test_single_step_covers_all_layers(self):
        prm = make_params(2, {0})
        v = chain_model((-1, 2), prm)
        covered = v.step_chars[0]
        expected = {lam for lam in enumerate_pss(prm) if len(j_set(lam)) == 0}
        expected |= {
            lam for lam in enumerate_p(prm) if len(j_set(lam)) in {1, 2}
        }
        assert covered == frozenset(expected)

    def test_invalid_chains_report_instead_of_raising(self):
        prm = make_params(2, {0})
        v = chain_model((1, 0), prm)
        assert not v.valid and v.problems
        v = chain_model((-2, 0), prm)
        assert not v.valid
        v = chain_model((0, 0), prm)
        assert not v.valid

    def test_empty_chain(self):
        v = chain_model((), make_params(1, {0}))
        assert v.valid and v.length == 0 and v.step_chars == ()

    def test_length_bound_is_structural(self):
        # a strictly increasing chain in [-1, f] has at most f+2 entries
        prm = make_params(2, {0, 1})
        v = chain_model((-1, 0, 1, 2), prm)
        assert v.length == 3 <= prm.f + 1


class TestLayerCounts:
    def test_layer_sizes_partition_the_family(self):
        for f in (1, 2, 3):
            prm = make_params(f, range(f))
            fam = enumerate_pss(prm)
            by_layer = [
                sum(1 for lam in fam if len(j_set(lam)) == ell)
                for ell in range(f + 1)
            ]
            assert sum(by_layer) == len(fam) == 3**f + 1

    def test_diagonal_family_layers_are_binomial(self):
        for f in (1, 2, 3, 4):
            prm = make_params(f, range(f))
            fam = enumerate_dss(prm)
            for ell in range(f + 1):
                count = sum(1 for lam in fam if len(j_set(lam)) == ell)
                assert count == math.comb(f, ell)
