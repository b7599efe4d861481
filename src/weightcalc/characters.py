"""Difference-exponent calculus for diagonal torus characters.

A character of the finite torus is pinned down here only by the
difference of its two digit-expansion exponents, reduced mod p**f - 1.
That single residue is a complete invariant up to a determinant twist,
which is out of scope throughout; every equality below is equality of
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


@dataclass(frozen=True)
class DiffExponent:
    """A residue mod p**f - 1, optionally remembering its digit vector."""

    value: int
    modulus: int
    formal: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "value", self.value % self.modulus)
        if self.formal is not None:
            object.__setattr__(self, "formal", tuple(int(v) for v in self.formal))

    def __add__(self, other: "DiffExponent") -> "DiffExponent":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return DiffExponent(self.value + other.value, self.modulus)

    def __neg__(self) -> "DiffExponent":
        return DiffExponent(-self.value, self.modulus)

    def __sub__(self, other: "DiffExponent") -> "DiffExponent":
        return self + (-other)


def diff_of_lambda(lam: LambdaTuple, params: Params) -> DiffExponent:
    """Sum of the evaluated entries weighted by powers of p, reduced.

    Defined by pure evaluation; callers are expected to pass members of
    the full parameter family.
    """
    if lam.f != params.f:
        raise ValueError(f"tuple has f={lam.f}, params have f={params.f}")
    digits = lam.values(params)
    total = sum(d * params.p**j for j, d in enumerate(digits))
    return DiffExponent(total, params.q_minus_one, formal=digits)


def kvec_diff(kvec: tuple[int, ...], params: Params) -> int:
    """Residue of a formal product of elementary characters alpha_j**k_j."""
    if len(kvec) != params.f:
        raise ValueError("k-vector length mismatch")
    return sum(2 * k * params.p**j for j, k in enumerate(kvec)) % params.q_minus_one


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
    f = len(a)
    mod = p**f - 1
    congruent = (
        sum(aj * p**j for j, aj in enumerate(a))
        - sum(bj * p**j for j, bj in enumerate(b))
    ) % mod == 0
    return (not congruent) or tuple(a) == tuple(b)


@dataclass(frozen=True)
class CollisionHit:
    """One solution of diff(lam) + sum 2 i_j p^j == diff(mu)."""

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
    diffs = {lam: diff_of_lambda(lam, params).value for lam in family}
    mod = params.q_minus_one
    by_diff: dict[int, list[LambdaTuple]] = {}
    for lam, d in diffs.items():
        by_diff.setdefault(d, []).append(lam)
    hits: list[CollisionHit] = []
    for lam in family:
        base = diffs[lam]
        for ivec in itertools.product(range(-m, m + 1), repeat=params.f):
            target = (base + sum(2 * ij * params.p**j for j, ij in enumerate(ivec))) % mod
            for mu in by_diff.get(target, ()):
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
