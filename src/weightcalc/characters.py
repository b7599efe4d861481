"""Torus characters, compared by their difference exponents.

A character of the finite torus is pinned down here only by the
difference of its two digit-expansion exponents, reduced mod p**f - 1.
`twisted_char` forms that residue for every comparison in the package:
the character of lam twisted by the elementary characters alpha_j, where
lam subtracts the p-adic weighting of its evaluated entries and alpha_j
adds 2 p**j.
The residue is a complete invariant up to a determinant twist, which is
out of scope throughout; every equality below is equality of
difference exponents, and the scan records rather than interprets the
events where that distinction could matter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from weightcalc.weights import (
    LambdaTuple,
    Params,
    TTag,
    enumerate_p,
    subsets,
    t_type,
)


def _residue(vec, p: int, mod: int) -> int:
    """sum(vec_j p**j), reduced mod `mod`."""
    return sum(v * p**j for j, v in enumerate(vec)) % mod


def twisted_char(lam: LambdaTuple, kvec: tuple[int, ...], params: Params) -> int:
    """Difference exponent of lam**-1 * prod_j alpha_j**k_j, reduced
    mod p**f - 1.

    Defined by pure evaluation; callers are expected to pass members of
    the full parameter family.
    """
    if lam.f != params.f or len(kvec) != params.f:
        raise ValueError(
            f"tuple has f={lam.f} and k-vector length {len(kvec)}, params have f={params.f}"
        )
    digits = lam.values(params)
    return _residue([2 * k - d for k, d in zip(kvec, digits)], params.p, params.q_minus_one)


def digit_unique(a: tuple[int, ...], b: tuple[int, ...], p: int) -> bool:
    """Checker for the digit-uniqueness property.

    With a_j in {-1, 0, 1}, sum(|b_j|) <= sum(|a_j|) and p > 3, a
    congruence sum(a_j p^j) == sum(b_j p^j) mod p**f - 1 can only happen
    for b = a.  Returns True when the input pair is consistent with
    that statement (not congruent, or equal), False on a counterexample.
    """
    if p <= 3:
        raise ValueError(f"p must exceed 3, got {p}")
    if len(a) != len(b):
        raise ValueError("length mismatch")
    if any(aj not in (-1, 0, 1) for aj in a):
        raise ValueError(f"entries of a must lie in {{-1,0,1}}, got {a}")
    if sum(abs(bj) for bj in b) > sum(abs(aj) for aj in a):
        raise ValueError("sum |b_j| exceeds sum |a_j|")
    mod = p ** len(a) - 1
    congruent = _residue(a, p, mod) == _residue(b, p, mod)
    return (not congruent) or tuple(a) == tuple(b)


@dataclass(frozen=True)
class CollisionHit:
    """One solution of twisted_char(lam, -i) == twisted_char(mu, 0)."""

    lam: LambdaTuple
    mu: LambdaTuple
    ivec: tuple[int, ...]

    def classified(self, params: Params) -> bool:
        """Whether the hit has the shape the classification predicts."""
        tags = t_type(self.lam, params)
        for j, ij in enumerate(self.ivec):
            if abs(ij) > 1:
                return False
            if ij == -1 and tags[j] is not TTag.Y:
                return False
            if ij == 1 and tags[j] is not TTag.Z:
                return False
        return True


@dataclass(frozen=True)
class ScanResult:
    hits: tuple[CollisionHit, ...]
    violations: tuple[CollisionHit, ...]
    # lam != mu with i = 0: equal difference exponents that a full
    # character comparison might still separate by a determinant twist
    ambiguous_identity: tuple[CollisionHit, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def collision_scan(params: Params, m: int) -> ScanResult:
    """Exhaust all (lam, mu, i-vector) with |i_j| <= m and equal residues.

    Falsification channel: every hit must fit the sign classification
    (|i_j| <= 1, a -1 step only at a Y index of lam, a +1 step only at
    a Z index).  A hit outside that shape lands in `violations`.
    """
    params.require_genericity(m + 1)
    family = enumerate_p(params)
    zero = (0,) * params.f
    chars = {lam: twisted_char(lam, zero, params) for lam in family}
    by_char: dict[int, list[LambdaTuple]] = {}
    for lam, c in chars.items():
        by_char.setdefault(c, []).append(lam)
    # twisted_char is additive in k, so alpha**-i moves every lam by the
    # same residue
    mod = params.q_minus_one
    steps = [
        (ivec, _residue([-2 * ij for ij in ivec], params.p, mod))
        for ivec in itertools.product(range(-m, m + 1), repeat=params.f)
    ]
    hits: list[CollisionHit] = []
    for lam in family:
        base = chars[lam]
        for ivec, step in steps:
            for mu in by_char.get((base + step) % mod, ()):
                hits.append(CollisionHit(lam, mu, ivec))
    hits.sort(key=lambda h: (h.lam.entries, h.mu.entries, h.ivec))
    violations = tuple(h for h in hits if not h.classified(params))
    ambiguous = tuple(
        h for h in hits if h.lam != h.mu and all(ij == 0 for ij in h.ivec)
    )
    return ScanResult(tuple(hits), violations, ambiguous)


def expected_shift_hits(params: Params) -> set[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The collision triples that the index-shift operation produces.

    For each family member and each legal shift set S the pair
    (lam, shift(lam, S)) differs by the signed elementary characters on
    S, so the scan with m >= 1 must contain all of these.
    """
    from weightcalc.weights import shift_by_s

    out = set()
    for lam in enumerate_p(params):
        tags = t_type(lam, params)
        free = [j for j, t in enumerate(tags) if t is not TTag.YZ]
        for sub in subsets(free):
            mu = shift_by_s(lam, sub, params)
            ivec = tuple(
                (1 if tags[j] is TTag.Z else -1) if j in sub else 0
                for j in range(params.f)
            )
            out.add((lam.entries, mu.entries, ivec))
    return out
