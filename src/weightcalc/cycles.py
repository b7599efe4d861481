"""Characteristic cycles of quotients of the y_j z_j = 0 ring.

The ring has 2**f minimal primes: one per choice, at each index, of
which variable dies.  A prime is encoded by a bitmask whose bit j is
set when y_j survives on the corresponding component (so z_j lies in
the prime).  Localizing at a minimal prime turns the ring into a
field, so every quotient module has multiplicity 0 or 1 there: a
monomial generator becomes a unit if all its variables survive and
zero otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from weightcalc.monomial import Monomial, MonomialIdeal, ideal_a1, ideal_a
from weightcalc.weights import LambdaTuple, Params, TTag, star_involution

# distinct ideals kept by the cycle memo; `grid` needs 636
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class CycleVector:
    """Multiplicities over the minimal primes, indexed by bitmask."""

    f: int
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mults) != 2**self.f:
            raise ValueError("need one multiplicity per minimal prime")
        if any(m < 0 for m in self.mults):
            raise ValueError("multiplicities are nonnegative")

    @property
    def total(self) -> int:
        return sum(self.mults)

    def support(self) -> list[frozenset[int]]:
        """Y-branch index sets of the primes with nonzero multiplicity."""
        return [
            frozenset(j for j in range(self.f) if mask >> j & 1)
            for mask in range(2**self.f)
            if self.mults[mask]
        ]

    def __add__(self, other: "CycleVector") -> "CycleVector":
        if self.f != other.f:
            raise ValueError("index count mismatch")
        return CycleVector(self.f, tuple(a + b for a, b in zip(self.mults, other.mults)))


def survives_at(m: Monomial, mask: int) -> bool:
    """True when the monomial is a unit in the localization at the prime."""
    return all(
        e == 0 or (e > 0) == bool(mask >> j & 1) for j, e in enumerate(m.signed)
    )


@lru_cache(maxsize=_MEMO_SIZE)
def cycle_of(ideal: MonomialIdeal) -> CycleVector:
    """Cycle of the quotient by the ideal.

    Multiplicity 1 exactly at the primes where every generator dies.
    Computed once per process for each ideal; the subquotient oracle
    below never reads this memo.
    """
    f = ideal.f
    mults = []
    for mask in range(2**f):
        alive = any(survives_at(g, mask) for g in ideal.gens)
        mults.append(0 if alive else 1)
    return CycleVector(f, tuple(mults))


def cycle_of_subquotient(big: MonomialIdeal, small: MonomialIdeal) -> CycleVector:
    """Cycle of big/small for nested ideals, read off the localizations.

    At each prime the subquotient is nonzero exactly when some
    generator of the big ideal survives while none of the small one
    does.  Computed directly from generator survival, never by
    subtracting totals.
    """
    if big.f != small.f:
        raise ValueError("index count mismatch")
    if not big.contains_ideal(small):
        raise ValueError("ideals are not nested")
    f = big.f
    mults = []
    for mask in range(2**f):
        big_alive = any(survives_at(g, mask) for g in big.gens)
        small_alive = any(survives_at(g, mask) for g in small.gens)
        mults.append(1 if big_alive and not small_alive else 0)
    return CycleVector(f, tuple(mults))


def total_mult_formula(
    J1: frozenset[int] | set[int],
    J2: frozenset[int] | set[int],
    d: int,
    tags: tuple[TTag, ...],
    f: int,
) -> int:
    """Closed-form total multiplicity of the quotient by the degree-d
    product ideal plus the type ideal.

    Indices inside the product sets must carry the two-sided type; the
    remaining two-sided indices contribute a free factor of 2 each,
    and the product part contributes the partial binomial sum.
    """
    J1, J2 = frozenset(J1), frozenset(J2)
    if J1 & J2:
        raise ValueError("index sets must be disjoint")
    if len(tags) != f:
        raise ValueError("need one type per index")
    for j in J1 | J2:
        if not 0 <= j < f:
            raise ValueError(f"index {j} out of range")
        if tags[j] is not TTag.YZ:
            raise ValueError("product indices must be two-sided")
    if d <= 0:
        return 0
    J = J1 | J2
    free = sum(1 for j in range(f) if j not in J and tags[j] is TTag.YZ)
    return 2**free * sum(math.comb(len(J), i) for i in range(min(d, len(J) + 1)))


def mult_add_check(lam: LambdaTuple, i0: int, params: Params) -> tuple[int, int, int]:
    """Totals (level part, mirrored star part, type quotient).

    The first two are claimed to sum to the third.
    """
    left = cycle_of(ideal_a1(lam, i0, params)).total
    star = star_involution(lam, params)
    right = cycle_of(ideal_a1(star, params.f - 1 - i0, params)).total
    whole = cycle_of(ideal_a(lam, params)).total
    return left, right, whole


def cycle_additivity_check(big: MonomialIdeal, small: MonomialIdeal) -> bool:
    """Componentwise: cycle of R/small equals cycle of R/big plus the
    subquotient cycle, for nested small <= big."""
    lhs = cycle_of(small)
    rhs = cycle_of(big) + cycle_of_subquotient(big, small)
    return lhs == rhs
