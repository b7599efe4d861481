"""Normal-form arithmetic in a tensor product of Heisenberg-type algebras.

The algebra has, for every index j, generators y_j, z_j, h_j subject
to z_j y_j = y_j z_j - h_j with h_j central and generators at distinct
indices commuting.  Normal-form monomials are products of
y_j^a z_j^b h_j^c across indices; an element is a finite F_p-linear
combination of those, stored as a dict keyed by per-index exponent
triples.

Grading: y and z sit in degree 1, h in degree 2.  The torus character
of a monomial is a_j - b_j at each index (h is invariant).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

MonoKey = tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=None)
def _local_product(
    t1: tuple[int, int, int], t2: tuple[int, int, int]
) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Normal-form terms of one factor's product y^a1 z^b1 h^c1 * y^a2 z^b2 h^c2,
    with integer coefficients, straightening z^b1 * y^a2 by

    z^b y^a = sum_k (-1)^k k! C(a,k) C(b,k) h^k y^(a-k) z^(b-k).

    Keyed without the prime, so every prime shares one entry.
    """
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    return tuple(
        (
            (a1 + a2 - k, b1 + b2 - k, c1 + c2 + k),
            (-1) ** k * math.factorial(k) * math.comb(a2, k) * math.comb(b1, k),
        )
        for k in range(min(a2, b1) + 1)
    )


def multiply_keys(k1: MonoKey, k2: MonoKey, p: int) -> dict[MonoKey, int]:
    """Normal-form product of two basis monomials."""
    per_index = [_local_product(t1, t2) for t1, t2 in zip(k1, k2)]
    # the local terms at each index have distinct keys, so every
    # combination gives a distinct key; a local coefficient that
    # vanishes mod p drops every combination it enters
    out: dict[MonoKey, int] = {}
    for combo in itertools.product(*per_index):
        coeff = 1
        for _, c in combo:
            coeff = coeff * c % p
        if coeff:
            out[tuple(t for t, _ in combo)] = coeff
    return out


def key_degree(key: MonoKey) -> int:
    return sum(a + b + 2 * c for a, b, c in key)


def key_char(key: MonoKey) -> tuple[int, ...]:
    return tuple(a - b for a, b, _ in key)


@dataclass
class PbwElement:
    """An element in normal form; terms maps monomial keys to nonzero
    coefficients mod p."""

    f: int
    p: int
    terms: dict[MonoKey, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for key, coeff in self.terms.items():
            if len(key) != self.f:
                raise ValueError("monomial index count mismatch")
            c = coeff % self.p
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, f: int, p: int) -> "PbwElement":
        return cls(f, p, {})

    @classmethod
    def one(cls, f: int, p: int) -> "PbwElement":
        return cls(f, p, {((0, 0, 0),) * f: 1})

    @classmethod
    def gen_y(cls, j: int, f: int, p: int, n: int = 1) -> "PbwElement":
        key = tuple((n, 0, 0) if i == j else (0, 0, 0) for i in range(f))
        return cls(f, p, {key: 1})

    @classmethod
    def gen_z(cls, j: int, f: int, p: int, n: int = 1) -> "PbwElement":
        key = tuple((0, n, 0) if i == j else (0, 0, 0) for i in range(f))
        return cls(f, p, {key: 1})

    @classmethod
    def gen_h(cls, j: int, f: int, p: int) -> "PbwElement":
        key = tuple((0, 0, 1) if i == j else (0, 0, 0) for i in range(f))
        return cls(f, p, {key: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _compat(self, other: "PbwElement") -> None:
        if self.f != other.f or self.p != other.p:
            raise ValueError("mixed algebras")

    def __add__(self, other: "PbwElement") -> "PbwElement":
        self._compat(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = (terms.get(key, 0) + c) % self.p
        return PbwElement(self.f, self.p, terms)

    def __sub__(self, other: "PbwElement") -> "PbwElement":
        return self + other.scale(-1)

    def scale(self, c: int) -> "PbwElement":
        cm = c % self.p
        return PbwElement(self.f, self.p, {k: v * cm for k, v in self.terms.items()})

    def __mul__(self, other: "PbwElement") -> "PbwElement":
        self._compat(other)
        out: dict[MonoKey, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c12 = c1 * c2 % self.p
                for key, c in multiply_keys(k1, k2, self.p).items():
                    val = (out.get(key, 0) + c12 * c) % self.p
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
        return PbwElement(self.f, self.p, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PbwElement)
            and self.f == other.f
            and self.p == other.p
            and self.terms == other.terms
        )

    @property
    def degree(self) -> int | None:
        """Degree of a homogeneous element, None for 0."""
        degs = {key_degree(k) for k in self.terms}
        if len(degs) > 1:
            raise ValueError("not homogeneous")
        return degs.pop() if degs else None

    @property
    def char(self) -> tuple[int, ...] | None:
        chars = {key_char(k) for k in self.terms}
        if len(chars) > 1:
            raise ValueError("not homogeneous")
        return chars.pop() if chars else None

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            factors = []
            for j, (a, b, cc) in enumerate(key):
                if a:
                    factors.append(f"y{j}" + (f"^{a}" if a > 1 else ""))
                if b:
                    factors.append(f"z{j}" + (f"^{b}" if b > 1 else ""))
                if cc:
                    factors.append(f"h{j}" + (f"^{cc}" if cc > 1 else ""))
            mono = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{mono}" if c != 1 or not factors else mono)
        return " + ".join(parts)

