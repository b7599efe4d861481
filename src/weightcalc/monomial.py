"""Monomial ideals in the quotient ring with y_j z_j = 0.

Monomials surviving in that ring carry, at each index j, a power of
y_j or a power of z_j but never both.  They are encoded by a signed
exponent per index: positive e_j means y_j**e_j, negative means
z_j**(-e_j).  Divisibility, Hilbert functions, and graded character
multisets all reduce to walks over these signed vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from weightcalc.characters import twisted_char
from weightcalc.weights import (
    LambdaTuple,
    Params,
    TTag,
    j_set,
    subsets,
    t_type,
)

# distinct inputs kept by each ideal memo; `grid` needs at most 1,340
# (the threshold ideals)
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class Monomial:
    """A nonzero monomial of the quotient ring, as its signed exponent
    vector: entry e_j > 0 is y_j**e_j, e_j < 0 is z_j**(-e_j)."""

    signed: tuple[int, ...]

    @classmethod
    def one(cls, f: int) -> "Monomial":
        return cls((0,) * f)

    @classmethod
    def y(cls, j: int, f: int, n: int = 1) -> "Monomial":
        return cls(tuple(n if i == j else 0 for i in range(f)))

    @classmethod
    def z(cls, j: int, f: int, n: int = 1) -> "Monomial":
        return cls(tuple(-n if i == j else 0 for i in range(f)))

    @property
    def f(self) -> int:
        return len(self.signed)

    @property
    def degree(self) -> int:
        return sum(abs(e) for e in self.signed)

    def divides(self, other: "Monomial") -> bool:
        return all(
            0 <= a <= b or b <= a <= 0 for a, b in zip(self.signed, other.signed)
        )

    def lifted(self) -> tuple[int, ...]:
        """Exponents in the free polynomial ring, y variables first."""
        return tuple(max(e, 0) for e in self.signed) + tuple(
            max(-e, 0) for e in self.signed
        )

    def __str__(self) -> str:
        parts = []
        for j, e in enumerate(self.signed):
            if e:
                var = f"y{j}" if e > 0 else f"z{j}"
                parts.append(var + (f"^{abs(e)}" if abs(e) > 1 else ""))
        return "*".join(parts) or "1"


def minimal_exponents(vectors) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of the monomial ideal spanned by exponent
    vectors: duplicates and multiples dropped, ordered by total degree,
    then lexicographically."""
    kept: list[tuple[int, ...]] = []
    for v in sorted(set(vectors), key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(w, v)) for w in kept):
            kept.append(v)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """An ideal given by its unique minimal monomial generators."""

    f: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.f != self.f:
                raise ValueError("generator index count mismatch")
        kept: list[Monomial] = []
        for g in sorted(set(self.gens), key=lambda m: (m.degree, m.signed)):
            if not any(h.divides(g) for h in kept):
                kept.append(g)
        object.__setattr__(self, "gens", tuple(kept))

    @property
    def is_unit(self) -> bool:
        return any(g.degree == 0 for g in self.gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.f != other.f:
            raise ValueError("index count mismatch")
        return MonomialIdeal(self.f, self.gens + other.gens)

    def lift_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the preimage in the free polynomial ring.

        Exponent vectors of length 2f (y variables first, then z),
        including the defining products y_j z_j, minimalized.
        """
        raw = [g.lifted() for g in self.gens]
        for j in range(self.f):
            vec = [0] * (2 * self.f)
            vec[j] = 1
            vec[self.f + j] = 1
            raw.append(tuple(vec))
        return minimal_exponents(raw)

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def unit_ideal(f: int) -> MonomialIdeal:
    return MonomialIdeal(f, (Monomial.one(f),))


def type_ideal(tags) -> MonomialIdeal:
    """The ideal of a per-index type pattern.

    Y indices contribute y_j, Z indices z_j; YZ indices contribute the
    product y_j z_j which is already zero in the quotient ring.  Built
    once per process for each pattern; the ideal is frozen, so callers
    share it.
    """
    return _type_ideal(tuple(tags))


@lru_cache(maxsize=_MEMO_SIZE)
def _type_ideal(tags: tuple[TTag, ...]) -> MonomialIdeal:
    f = len(tags)
    gens = [
        Monomial.y(j, f) if tag is TTag.Y else Monomial.z(j, f)
        for j, tag in enumerate(tags)
        if tag is not TTag.YZ
    ]
    return MonomialIdeal(f, tuple(gens))


def ideal_a(lam: LambdaTuple, params: Params) -> MonomialIdeal:
    """The type ideal of a restricted-family member."""
    return type_ideal(t_type(lam, params))


def ideal_ijd(
    J1: frozenset[int] | set[int], J2: frozenset[int] | set[int], d: int, f: int
) -> MonomialIdeal:
    """Degree-d products of y over the first set and z over the second.

    Unit ideal for d <= 0; zero ideal when fewer than d indices are
    available.  Built once per process for each input.
    """
    return _ideal_ijd(frozenset(J1), frozenset(J2), d, f)


@lru_cache(maxsize=_MEMO_SIZE)
def _ideal_ijd(J1: frozenset[int], J2: frozenset[int], d: int, f: int) -> MonomialIdeal:
    if J1 & J2:
        raise ValueError("index sets must be disjoint")
    for j in J1 | J2:
        if not 0 <= j < f:
            raise ValueError(f"index {j} out of range")
    if d <= 0:
        return unit_ideal(f)
    gens = []
    for take1 in subsets(J1):
        for take2 in subsets(J2):
            if len(take1) + len(take2) != d:
                continue
            signed = tuple(
                1 if j in take1 else (-1 if j in take2 else 0) for j in range(f)
            )
            gens.append(Monomial(signed))
    return MonomialIdeal(f, tuple(gens))


def ideal_in(n: int, f: int) -> MonomialIdeal:
    """Pure n-th powers of every variable."""
    if n < 1:
        raise ValueError("n must be positive")
    gens = [Monomial.y(j, f, n) for j in range(f)] + [Monomial.z(j, f, n) for j in range(f)]
    return MonomialIdeal(f, tuple(gens))


def a1_index_sets(lam: LambdaTuple, params: Params) -> tuple[frozenset[int], frozenset[int]]:
    """Unmarked indices carrying p-1-x (first set) resp. x (second)."""
    J1 = frozenset(
        j for j, s in enumerate(lam.entries) if s == 5 and j not in params.j_rho
    )
    J2 = frozenset(
        j for j, s in enumerate(lam.entries) if s == 0 and j not in params.j_rho
    )
    return J1, J2


def ideal_a1(lam: LambdaTuple, i0: int, params: Params) -> MonomialIdeal:
    """Threshold ideal at level i0: the d = i0 + 1 - |J| product part
    over the idle index sets, plus the type ideal.

    Unit ideal exactly when i0 < |J_lam|; collapses to the type ideal
    when the idle sets cannot reach degree d.  Built once per process
    for each (lam, i0, f, j_rho): the ideal reads nothing else of the
    parameters, so every prime and residue vector shares it.
    """
    if not lam.in_p(params.j_rho):
        raise ValueError(f"{lam} is not in the restricted parameter family")
    if not -1 <= i0 <= params.f:
        raise ValueError(f"i0 must lie in [-1, {params.f}], got {i0}")
    return _ideal_a1(lam, i0, params.f, params.j_rho)


@lru_cache(maxsize=_MEMO_SIZE)
def _ideal_a1(lam: LambdaTuple, i0: int, f: int, j_rho: frozenset[int]) -> MonomialIdeal:
    # the index sets and the types read j_rho alone, so any prime and
    # residues in range stand in for the caller's
    params = Params(f, 5, j_rho, (0,) * f)
    J1, J2 = a1_index_sets(lam, params)
    d = i0 + 1 - len(j_set(lam))
    return ideal_ijd(J1, J2, d, f) + ideal_a(lam, params)


def standard_monomials(
    ideal: MonomialIdeal, max_degree: int | None = None
) -> list[Monomial]:
    """Monomial basis of the quotient by the ideal.

    With max_degree=None the quotient must be finite dimensional, which
    for these signed vectors means a pure y power and a pure z power of
    every variable lie in the ideal; otherwise enumeration is cut at
    the requested total degree.
    """
    f = ideal.f
    if ideal.is_unit:
        return []
    if max_degree is None:
        ybound = [None] * f
        zbound = [None] * f
        for g in ideal.gens:
            sgn = g.signed
            support = [j for j in range(f) if sgn[j] != 0]
            if len(support) == 1:
                (j,) = support
                if sgn[j] > 0:
                    ybound[j] = sgn[j] if ybound[j] is None else min(ybound[j], sgn[j])
                else:
                    zbound[j] = -sgn[j] if zbound[j] is None else min(zbound[j], -sgn[j])
        if any(b is None for b in ybound) or any(b is None for b in zbound):
            raise ValueError("quotient is infinite dimensional; pass max_degree")
        ranges = [
            list(range(-(zbound[j] - 1), ybound[j])) for j in range(f)
        ]
        vectors = itertools.product(*ranges)
    else:
        vectors = signed_vectors(f, max_degree)
    out = [m for m in map(Monomial, vectors) if not ideal.contains(m)]
    out.sort(key=lambda m: (m.degree, m.signed))
    return out


def signed_vectors(f: int, max_degree: int):
    """Integer vectors of length f with sum(|e_j|) <= max_degree, in
    lexicographic order."""
    rng = range(-max_degree, max_degree + 1)
    for vec in itertools.product(rng, repeat=f):
        if sum(abs(e) for e in vec) <= max_degree:
            yield vec


def hilbert_function(ideal: MonomialIdeal, dmax: int) -> tuple[int, ...]:
    """Dimensions of the quotient in degrees 0..dmax."""
    dims = [0] * (dmax + 1)
    for m in standard_monomials(ideal, max_degree=dmax):
        dims[m.degree] += 1
    return tuple(dims)


def total_dimension(ideal: MonomialIdeal) -> int:
    """Dimension of a finite quotient."""
    return len(standard_monomials(ideal))


def graded_characters(
    lam: LambdaTuple, ideal: MonomialIdeal, dmax: int, params: Params
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Characters of the quotient twisted by the inverse of lam's
    character, degree by degree: each standard monomial's signed
    exponent vector with `twisted_char(lam, vector)`, sorted."""
    per_degree: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(dmax + 1)]
    for m in standard_monomials(ideal, max_degree=dmax):
        per_degree[m.degree].append((m.signed, twisted_char(lam, m.signed, params)))
    return tuple(tuple(sorted(layer)) for layer in per_degree)
