"""Tests for parameter tuple combinatorics."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcalc.weights import (
    AFTER_NEGATIVE,
    AFTER_POSITIVE,
    POSITIVE,
    GenericityError,
    Params,
    TTag,
    enumerate_d,
    enumerate_dss,
    enumerate_p,
    enumerate_pss,
    from_symbols,
    idle_set,
    j_set,
    shift_by_s,
    star_involution,
    subsets,
    t_type,
    transfer_matrix_count,
)

from reference import bracket_s, delta_shift, jset_raise, pss_to_p_projection


def mk(f, j_rho=(), p=29, r=None):
    if r is None:
        r = tuple(9 + j for j in range(f))
    return Params(f=f, p=p, j_rho=frozenset(j_rho), r=tuple(r))


def all_jrho(f):
    for k in range(2**f):
        yield frozenset(j for j in range(f) if k >> j & 1)


class TestParams:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Params(f=0, p=29, j_rho=frozenset(), r=())
        with pytest.raises(ValueError):
            Params(f=1, p=9, j_rho=frozenset(), r=(4,))
        with pytest.raises(ValueError):
            Params(f=1, p=3, j_rho=frozenset(), r=(1,))
        with pytest.raises(ValueError):
            Params(f=1, p=(1 << 61) - 1, j_rho=frozenset(), r=(13,))
        with pytest.raises(ValueError):
            Params(f=1, p=29, j_rho=frozenset({1}), r=(4,))
        with pytest.raises(ValueError):
            Params(f=2, p=29, j_rho=frozenset(), r=(4,))

    def test_genericity_window(self):
        pm = mk(1, r=(13,))
        assert pm.validate_genericity(13)
        assert not pm.validate_genericity(14)
        pm.require_genericity(9)
        with pytest.raises(GenericityError):
            mk(1, r=(4,)).require_genericity(9)

    def test_big_modulus_is_exact(self):
        pm = mk(9, p=61, r=tuple(10 for _ in range(9)))
        assert pm.q_minus_one == 61**9 - 1


class TestEnumeration:
    def test_f1_full_family(self):
        pm = mk(1)
        assert [str(l) for l in enumerate_pss(pm)] == ["(x)", "(x+2)", "(p-3-x)", "(p-1-x)"]

    def test_f2_full_family_size(self):
        # independently recomputable by brute force over all 36 pairs
        assert len(enumerate_pss(mk(2))) == 10

    @pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
    def test_counts_match_transfer_matrix(self, f):
        pm = mk(f)
        assert len(enumerate_pss(pm)) == transfer_matrix_count(f)

    @pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
    def test_diagonal_family_bijects_with_subsets(self, f):
        pm = mk(f)
        dss = enumerate_dss(pm)
        assert len(dss) == 2**f
        assert {j_set(lam) for lam in dss} == set(
            frozenset(s) for k in range(2**f) for s in [[j for j in range(f) if k >> j & 1]]
        )

    def test_subsets_by_size_then_lexicographic(self):
        # the order of the split-product checks in a report follows it
        assert subsets({2, 0, 1}) == [
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
        ]

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_restricted_diagonal_family_counts(self, f):
        for jr in all_jrho(f):
            pm = mk(f, jr)
            d = enumerate_d(pm)
            assert len(d) == 2 ** len(jr)
            assert {j_set(lam) for lam in d} == {
                frozenset(s) for s in _subsets(jr)
            }

    def test_f1_restricted_family(self):
        assert [str(l) for l in enumerate_p(mk(1))] == ["(x)", "(p-1-x)"]
        assert [str(l) for l in enumerate_p(mk(1, {0}))] == [
            "(x)",
            "(x+2)",
            "(p-3-x)",
            "(p-1-x)",
        ]

    def test_brute_force_oracle_f2(self):
        # direct filter over the 36 raw pairs, stated independently of
        # the library's membership method
        found = []
        for a, b in itertools.product(range(6), repeat=2):
            ok_a = b in (AFTER_POSITIVE if a in POSITIVE else AFTER_NEGATIVE)
            ok_b = a in (AFTER_POSITIVE if b in POSITIVE else AFTER_NEGATIVE)
            if ok_a and ok_b:
                found.append((a, b))
        assert sorted(found) == sorted(l.entries for l in enumerate_pss(mk(2)))

    def test_families_nest(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                pss, p = set(enumerate_pss(pm)), set(enumerate_p(pm))
                dss, d = set(enumerate_dss(pm)), set(enumerate_d(pm))
                assert p <= pss and dss <= pss and d <= dss and d <= p


def _subsets(s):
    s = sorted(s)
    for k in range(2 ** len(s)):
        yield [s[i] for i in range(len(s)) if k >> i & 1]


class TestTType:
    def test_examples(self):
        assert t_type(from_symbols("x"), mk(1, {0})) == (TTag.Z,)
        assert t_type(from_symbols("p-1-x"), mk(1)) == (TTag.YZ,)
        # an all-YZ member: x+1 and p-2-x always give YZ, and the
        # alternating tuple is the one satisfying the adjacency rules
        assert t_type(from_symbols("x+1", "p-2-x"), mk(2, {0, 1})) == (TTag.YZ, TTag.YZ)

    def test_marked_index_tags(self):
        pm = mk(1, {0})
        assert t_type(from_symbols("p-3-x"), pm) == (TTag.Z,)
        assert t_type(from_symbols("x+2"), pm) == (TTag.Y,)
        assert t_type(from_symbols("p-1-x"), pm) == (TTag.Y,)

    def test_rejects_outside_family(self):
        with pytest.raises(ValueError):
            t_type(from_symbols("x+2"), mk(1))
        with pytest.raises(ValueError):
            t_type(from_symbols("x", "x+1"), mk(2, {0, 1}))  # fails adjacency

    def test_type_partition_matches_symbol_classes(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                for lam in enumerate_p(pm):
                    tags = t_type(lam, pm)
                    for j, tag in enumerate(tags):
                        s = lam.entries[j]
                        if j in jr and s in (0, 3):
                            assert tag is TTag.Z
                        elif j in jr and s in (2, 5):
                            assert tag is TTag.Y
                        else:
                            assert tag is TTag.YZ


class TestShift:
    def test_f1_example(self):
        pm = mk(1, {0})
        assert shift_by_s(from_symbols("x"), {0}, pm) == from_symbols("x+2")

    def test_involution_and_type_toggle(self):
        for f in (1, 2, 3):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                for lam in enumerate_p(pm):
                    tags = t_type(lam, pm)
                    yz_free = [j for j, t in enumerate(tags) if t is not TTag.YZ]
                    for sub in _subsets(yz_free):
                        sub = frozenset(sub)
                        out = shift_by_s(lam, sub, pm)
                        assert shift_by_s(out, sub, pm) == lam
                        new_tags = t_type(out, pm)
                        for j in range(f):
                            if j in sub:
                                assert {tags[j], new_tags[j]} == {TTag.Y, TTag.Z}
                            else:
                                assert tags[j] == new_tags[j]

    def test_rejects_yz_index(self):
        with pytest.raises(ValueError):
            shift_by_s(from_symbols("x+1", "p-2-x"), {0}, mk(2, {0, 1}))

    def test_value_moves_by_two(self):
        pm = mk(2, {0, 1}, r=(9, 10))
        for lam in enumerate_p(pm):
            tags = t_type(lam, pm)
            for j in range(2):
                if tags[j] is TTag.YZ:
                    continue
                out = shift_by_s(lam, {j}, pm)
                eps = 1 if tags[j] is TTag.Z else -1
                assert out.value_at(j, pm) - lam.value_at(j, pm) == 2 * eps


class TestDeltaAndBracket:
    @pytest.mark.parametrize("f", [1, 2, 3, 4])
    def test_delta_order_divides_f(self, f):
        pm = mk(f)
        for lam in enumerate_pss(pm):
            cur = lam
            for _ in range(f):
                cur = delta_shift(cur)
                assert cur.in_pss()
            assert cur == lam

    def test_bracket_involution_preserves_families(self):
        for f in (1, 2, 3):
            pm = mk(f)
            for lam in enumerate_pss(pm):
                out = bracket_s(lam)
                assert out.in_pss()
                assert bracket_s(out) == lam
            for jr in all_jrho(f):
                for lam in enumerate_p(mk(f, jr)):
                    assert bracket_s(lam).in_p(frozenset(jr))

    def test_bracket_evaluates_to_reflection(self):
        pm = mk(2, r=(9, 16))
        for lam in enumerate_pss(pm):
            refl = bracket_s(lam)
            for j in range(2):
                assert refl.value_at(j, pm) == pm.p - 1 - lam.value_at(j, pm)


class TestStar:
    def test_f1_examples(self):
        pm = mk(1, {0})
        assert star_involution(from_symbols("x"), pm) == from_symbols("p-3-x")
        assert star_involution(from_symbols("x+2"), pm) == from_symbols("p-1-x")
        pm0 = mk(1)
        assert star_involution(from_symbols("x"), pm0) == from_symbols("p-1-x")

    def test_contract_exhaustive(self):
        for f in (1, 2, 3, 4):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                fam = enumerate_p(pm)
                for lam in fam:
                    st = star_involution(lam, pm)
                    assert st.in_p(frozenset(jr))
                    assert star_involution(st, pm) == lam
                    idle = idle_set(lam, pm)
                    assert idle_set(st, pm) == idle
                    assert len(j_set(lam)) + len(j_set(st)) + len(idle) == f
                    assert t_type(lam, pm) == t_type(st, pm)

    def test_split_case_reverses_layers(self):
        # marked everywhere: the idle set is empty and star flips the
        # layer index i to f - i
        for f in (1, 2, 3):
            pm = mk(f, range(f))
            for lam in enumerate_p(pm):
                st = star_involution(lam, pm)
                assert len(j_set(st)) == f - len(j_set(lam))

    def test_layer_bijection_per_idle_class(self):
        for f in (2, 3, 4):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                fam = enumerate_p(pm)
                for lam in fam:
                    st = star_involution(lam, pm)
                    assert len(j_set(st)) == f - len(j_set(lam)) - len(idle_set(lam, pm))

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            star_involution(from_symbols("x+2"), mk(1))


class TestProjection:
    def test_identity_on_restricted_family(self):
        pm = mk(2, {0})
        for lam in enumerate_p(pm):
            mu, down, up = pss_to_p_projection(lam, pm)
            assert mu == lam and down == frozenset() and up == frozenset()

    def test_round_trip(self):
        for f in (1, 2, 3, 4):
            for jr in all_jrho(f):
                pm = mk(f, jr)
                for lam in enumerate_pss(pm):
                    mu, down, up = pss_to_p_projection(lam, pm)
                    assert mu.in_p(frozenset(jr))
                    assert len(j_set(mu)) == len(j_set(lam)) - len(down) - len(up)
                    assert jset_raise(mu, down, up, pm) == lam

    def test_every_offender_accounted(self):
        pm = mk(3, {1})
        for lam in enumerate_pss(pm):
            mu, down, up = pss_to_p_projection(lam, pm)
            bad = {j for j, s in enumerate(lam.entries) if s in (2, 3) and j not in pm.j_rho}
            assert bad == down | up

    def test_raise_validates_input(self):
        pm = mk(2)
        lam = from_symbols("p-1-x", "p-1-x")
        with pytest.raises(ValueError):
            jset_raise(lam, {0}, {0}, pm)
        with pytest.raises(ValueError):
            jset_raise(lam, frozenset(), {0}, pm)  # entry is not x

    def test_raise_enters_full_family_only(self):
        pm = mk(2)
        lam = from_symbols("x", "x")
        out = jset_raise(lam, frozenset(), {0, 1}, pm)
        assert out == from_symbols("x+2", "x+2")
        assert out.in_pss() and not out.in_p(pm.j_rho)


@st.composite
def pss_members(draw):
    f = draw(st.integers(min_value=1, max_value=4))
    pm = mk(f)
    fam = enumerate_pss(pm)
    return draw(st.sampled_from(fam))


class TestProperties:
    @given(pss_members())
    @settings(max_examples=60, deadline=None)
    def test_bracket_star_delta_interactions(self, lam):
        assert bracket_s(bracket_s(lam)) == lam
        assert delta_shift(bracket_s(lam)) == bracket_s(delta_shift(lam))

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_star_respects_idle_classes(self, f, data):
        jr = frozenset(
            data.draw(st.sets(st.integers(min_value=0, max_value=f - 1), max_size=f))
        )
        pm = mk(f, jr)
        fam = enumerate_p(pm)
        lam = data.draw(st.sampled_from(fam))
        st_lam = star_involution(lam, pm)
        assert j_set(st_lam) & idle_set(lam, pm) == frozenset()
