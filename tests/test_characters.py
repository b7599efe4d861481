"""Tests for the torus-character residues and the collision scan."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightcalc.characters import (
    CollisionHit,
    collision_scan,
    digit_unique,
    expected_shift_hits,
    twisted_char,
)
from weightcalc.weights import (
    GenericityError,
    LambdaTuple,
    Params,
    enumerate_p,
    from_symbols,
)


def mk(f, j_rho=(), p=29, r=None):
    if r is None:
        # stay away from the self-reflecting residues near (p-3)/2 so
        # that distinct symbols evaluate to distinct residues
        base = [9, 16, 10, 17, 11][:f]
        r = tuple(base)
    return Params(f=f, p=p, j_rho=frozenset(j_rho), r=tuple(r))


class TestTwistedChar:
    def test_reduced_and_length_checked(self):
        pm = mk(2)
        lam = LambdaTuple((0, 0))
        assert twisted_char(lam, (421, 0), pm) == (842 - 9 - 16 * 29) % 840
        with pytest.raises(ValueError):
            twisted_char(lam, (0,), pm)
        with pytest.raises(ValueError):
            twisted_char(LambdaTuple((0,)), (0, 0), pm)

    def test_examples(self):
        # at k = 0 the residue is minus the difference exponent of lam
        pm = Params(f=1, p=29, j_rho=frozenset({0}), r=(13,))
        assert twisted_char(from_symbols("x"), (0,), pm) == (-13) % 28 == 15
        assert twisted_char(from_symbols("p-1-x"), (0,), pm) == (-15) % 28 == 13
        pm2 = Params(f=2, p=29, j_rho=frozenset({0, 1}), r=(13, 14))
        lam = LambdaTuple((2, 3))  # entries x+2 and p-3-x, evaluated formally
        assert lam.values(pm2) == (15, 12)
        assert twisted_char(lam, (0, 0), pm2) == (-(15 + 12 * 29)) % 840 == 477

    def test_alpha(self):
        # the elementary eigencharacter alpha_j moves the residue by 2 p**j
        pm = mk(2)
        mod = pm.q_minus_one
        for lam in enumerate_p(pm):
            base = twisted_char(lam, (0, 0), pm)
            assert (twisted_char(lam, (1, 0), pm) - base) % mod == 2
            assert (twisted_char(lam, (0, 1), pm) - base) % mod == 58
            assert (twisted_char(lam, (1, -1), pm) - base) % mod == (2 - 58) % mod


class TestDigitUnique:
    def test_trivial_equal(self):
        assert digit_unique((1, 0), (1, 0), 29)

    def test_f2_p29_unique_preimage(self):
        # brute force: the only b with sum|b| <= 2 congruent to 28 mod 840
        # is (-1, 1); checked here without using the library
        sols = [
            (b0, b1)
            for b0 in range(-28, 29)
            for b1 in range(-28, 29)
            if abs(b0) + abs(b1) <= 2 and (b0 + 29 * b1) % 840 == 28 % 840
        ]
        assert sols == [(-1, 1)]
        assert digit_unique((-1, 1), (-1, 1), 29)

    @pytest.mark.parametrize("p", [5, 7, 29])
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_exhaustive(self, p, f):
        box = range(-3, 4)
        for a in itertools.product((-1, 0, 1), repeat=f):
            wa = sum(abs(x) for x in a)
            for b in itertools.product(box, repeat=f):
                if sum(abs(x) for x in b) > wa:
                    continue
                assert digit_unique(a, b, p), (a, b, p)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            digit_unique((2, 0), (0, 0), 29)
        with pytest.raises(ValueError):
            digit_unique((1, 0), (1, 1), 29)
        with pytest.raises(ValueError):
            digit_unique((1,), (1, 0), 29)
        with pytest.raises(ValueError):
            digit_unique((1,), (1,), 3)

    @given(
        st.integers(min_value=1, max_value=4),
        st.sampled_from([5, 7, 13, 29, 61]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_boxes(self, f, p, data):
        a = tuple(data.draw(st.sampled_from([-1, 0, 1])) for _ in range(f))
        wa = sum(abs(x) for x in a)
        b = tuple(
            data.draw(st.integers(min_value=-wa, max_value=wa)) for _ in range(f)
        )
        if sum(abs(x) for x in b) > wa:
            return
        assert digit_unique(a, b, p)


class TestCollisionScan:
    def test_requires_genericity(self):
        pm = Params(f=1, p=29, j_rho=frozenset(), r=(2,))
        with pytest.raises(GenericityError):
            collision_scan(pm, m=4)

    def test_f1_marked_hits(self):
        pm = Params(f=1, p=29, j_rho=frozenset({0}), r=(9,))
        res = collision_scan(pm, m=1)
        assert res.clean
        triples = {(h.lam.entries, h.mu.entries, h.ivec) for h in res.hits}
        x, x2, pm3, pm1 = (0,), (2,), (3,), (5,)
        assert (x, x2, (1,)) in triples
        assert (x2, x, (-1,)) in triples
        # the value of p-3-x moves up by two to reach p-1-x, so the
        # step is +1 (at a Z index), never -1
        assert (pm3, pm1, (1,)) in triples
        assert (pm1, pm3, (-1,)) in triples
        assert (pm3, pm1, (-1,)) not in triples

    def test_identity_hits_only_at_good_residues(self):
        pm = mk(2, {0, 1})
        res = collision_scan(pm, m=0)
        assert res.clean and not res.ambiguous_identity
        assert len(res.hits) == len(enumerate_p(pm))

    def test_degenerate_residue_is_recorded_not_crashed(self):
        # r = (p-3)/2 makes x and p-3-x evaluate identically, an event
        # the difference exponent cannot separate from a twist
        pm = Params(f=1, p=29, j_rho=frozenset({0}), r=(13,))
        res = collision_scan(pm, m=0)
        assert res.clean
        assert res.ambiguous_identity

    @pytest.mark.parametrize("f", [1, 2])
    def test_scan_classification_and_shift_pairs(self, f):
        # residues picked so that no two family values collide after
        # any step of size <= 4; near the middle of the window the
        # reflections p-c-x land on positive symbols and pollute the
        # difference-exponent picture
        r = (6,) if f == 1 else (6, 16)
        for jr_mask in range(2**f):
            jr = frozenset(j for j in range(f) if jr_mask >> j & 1)
            pm = mk(f, jr, r=r)
            res = collision_scan(pm, m=4)
            assert res.clean, [
                (str(h.lam), str(h.mu), h.ivec) for h in res.violations
            ]
            assert not res.ambiguous_identity
            triples = {(h.lam.entries, h.mu.entries, h.ivec) for h in res.hits}
            assert expected_shift_hits(pm) <= triples

    def test_no_identity_collision_on_restricted_family_f3(self):
        pm = mk(3, {0, 2})
        res = collision_scan(pm, m=0)
        assert not res.ambiguous_identity

    def test_classification_helper(self):
        pm = mk(1, {0})
        lam = from_symbols("x")
        hit = CollisionHit(lam, from_symbols("x+2"), (1,))
        assert hit.classified(pm)  # +1 at a Z index
        bad = CollisionHit(lam, from_symbols("x+2"), (-1,))
        assert not bad.classified(pm)  # -1 needs a Y index
        far = CollisionHit(lam, from_symbols("x+2"), (2,))
        assert not far.classified(pm)
