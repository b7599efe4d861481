"""Parameter tuples of symbolic affine values and their combinatorics.

A tuple has one entry per embedding index j in {0, ..., f-1}.  Each entry
is one of six symbols, encoded by an integer s in {0, ..., 5}:

    s : 0      1      2      3        4        5
        x      x+1    x+2    p-3-x    p-2-x    p-1-x

Evaluated at x = r_j the symbol gives an integer weight parameter.  The
first three symbols have slope +1 in x ("positive"), the last three have
slope -1 ("negative").  All set memberships, shifts and involutions in
this module are decided from the encoded entries and the subset j_rho
alone; the prime p and the residue tuple r only enter through evaluation.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

SYMBOLS = ("x", "x+1", "x+2", "p-3-x", "p-2-x", "p-1-x")

S_X, S_X1, S_X2, S_PM3, S_PM2, S_PM1 = range(6)

POSITIVE = frozenset({S_X, S_X1, S_X2})
NEGATIVE = frozenset({S_PM3, S_PM2, S_PM1})

# Cyclic adjacency: the allowed successor symbols depend only on the
# slope class of the current entry.  For f = 1 the single entry is its
# own successor, so the condition bites there too.
AFTER_POSITIVE = frozenset({S_X, S_X2, S_PM2})
AFTER_NEGATIVE = frozenset({S_X1, S_PM3, S_PM1})

# Symbols that place an index into the J-set of a tuple.
J_SET_SYMBOLS = frozenset({S_X1, S_X2, S_PM3})

# Symbols allowed outside j_rho only for the smaller parameter families.
P_NEEDS_JRHO = frozenset({S_X2, S_PM3})
D_NEEDS_JRHO = frozenset({S_X1, S_PM3})

DSS_SYMBOLS = frozenset({S_X, S_X1, S_PM3, S_PM2})


class GenericityError(ValueError):
    """Raised when a required genericity bound on r fails."""


class StarContractError(RuntimeError):
    """Raised when the componentwise star rule breaks its contract."""


# Ranks are exact for every prime; the bound keeps trial division in
# _is_prime to a fraction of a second.
P_LIMIT = 1 << 40


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime with 5 <= p < 2**40."""
    if not 5 <= p < P_LIMIT or not _is_prime(p):
        raise ValueError(f"p must be a prime with 5 <= p < 2**40, got {p}")


@dataclass(frozen=True)
class Params:
    """Global parameters: degree f, prime p, marked indices, residues.

    j_rho is the set of embedding indices at which the extra symbols
    x+2 and p-3-x (and, for the smaller diagonal family, x+1 and p-3-x)
    are permitted.  r collects one residue in 0..p-1 per index and is
    only used when symbols are evaluated or characters are formed.
    """

    f: int
    p: int
    j_rho: frozenset[int]
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        require_prime(self.p)
        object.__setattr__(self, "j_rho", frozenset(self.j_rho))
        object.__setattr__(self, "r", tuple(int(v) for v in self.r))
        if not self.j_rho <= frozenset(range(self.f)):
            raise ValueError(f"j_rho {sorted(self.j_rho)} not a subset of 0..{self.f - 1}")
        if len(self.r) != self.f:
            raise ValueError(f"r must have length f={self.f}, got {len(self.r)}")
        if any(not 0 <= v < self.p for v in self.r):
            raise ValueError(f"each residue must lie in 0..p-1 = 0..{self.p - 1}, got r={self.r}")

    @property
    def q_minus_one(self) -> int:
        # Arbitrary precision on purpose: p**f - 1 overflows fixed width fast.
        return self.p**self.f - 1

    def validate_genericity(self, n: int) -> bool:
        """True iff n <= r_j <= p - 3 - n holds at every index."""
        return all(n <= rj <= self.p - 3 - n for rj in self.r)

    def require_genericity(self, n: int) -> None:
        if not self.validate_genericity(n):
            raise GenericityError(
                f"need {n} <= r_j <= p-3-{n} = {self.p - 3 - n} for all j, got r={self.r}"
            )


class TTag(enum.Enum):
    """Per-index type of the monomial attached to a tuple entry."""

    Y = "Y"
    Z = "Z"
    YZ = "YZ"

    def __repr__(self) -> str:  # keeps test diffs readable
        return self.value


@dataclass(frozen=True, order=True)
class LambdaTuple:
    """An f-tuple of encoded symbols, one per embedding index."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(s) for s in self.entries))
        if not self.entries:
            raise ValueError("empty tuple")
        for s in self.entries:
            if not 0 <= s <= 5:
                raise ValueError(f"symbol code out of range: {s}")

    @property
    def f(self) -> int:
        return len(self.entries)

    def symbols(self) -> tuple[str, ...]:
        return tuple(SYMBOLS[s] for s in self.entries)

    def value_at(self, j: int, params: Params) -> int:
        """Evaluate entry j at x = r_j."""
        s = self.entries[j]
        if s in POSITIVE:
            return params.r[j] + s
        return params.p - 6 + s - params.r[j]

    def values(self, params: Params) -> tuple[int, ...]:
        return tuple(self.value_at(j, params) for j in range(self.f))

    def in_pss(self) -> bool:
        ent = self.entries
        f = len(ent)
        for j in range(f):
            nxt = ent[(j + 1) % f]
            allowed = AFTER_POSITIVE if ent[j] in POSITIVE else AFTER_NEGATIVE
            if nxt not in allowed:
                return False
        return True

    def in_p(self, j_rho: frozenset[int]) -> bool:
        if not self.in_pss():
            return False
        return all(j in j_rho for j, s in enumerate(self.entries) if s in P_NEEDS_JRHO)

    def in_dss(self) -> bool:
        return self.in_pss() and all(s in DSS_SYMBOLS for s in self.entries)

    def in_d(self, j_rho: frozenset[int]) -> bool:
        if not self.in_dss():
            return False
        return all(j in j_rho for j, s in enumerate(self.entries) if s in D_NEEDS_JRHO)

    def __str__(self) -> str:
        return "(" + ", ".join(self.symbols()) + ")"


def from_symbols(*names: str) -> LambdaTuple:
    """Build a tuple from symbol strings, e.g. from_symbols('x', 'p-1-x')."""
    codes = []
    for name in names:
        key = name.strip().replace(" ", "")
        if key not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}; expected one of {SYMBOLS}")
        codes.append(SYMBOLS.index(key))
    return LambdaTuple(tuple(codes))


def j_set(lam: LambdaTuple) -> frozenset[int]:
    """Indices whose entry lies in {x+1, x+2, p-3-x}."""
    return frozenset(j for j, s in enumerate(lam.entries) if s in J_SET_SYMBOLS)


def subsets(items) -> list[frozenset[int]]:
    """Every subset of `items`, by size, then lexicographically.

    Report order depends on this order (the split-product checks).
    """
    items = sorted(items)
    return [
        frozenset(c)
        for k in range(len(items) + 1)
        for c in itertools.combinations(items, k)
    ]


def idle_set(lam: LambdaTuple, params: Params) -> frozenset[int]:
    """Indices outside j_rho carrying x or p-1-x.

    These are exactly the indices a tuple in the smaller family can
    spend: they are in neither the J-set nor forced by j_rho, and the
    star involution permutes their two symbols.
    """
    return frozenset(
        j
        for j, s in enumerate(lam.entries)
        if j not in params.j_rho and s in (S_X, S_PM1)
    )


def t_type(lam: LambdaTuple, params: Params) -> tuple[TTag, ...]:
    """Per-index monomial type of a tuple in the smaller family.

    Entries x / p-3-x at a marked index give Z, entries x+2 / p-1-x at
    a marked index give Y, everything else gives YZ.  The combinations
    x+2 / p-3-x at an unmarked index cannot occur inside the family and
    raise.
    """
    if not lam.in_p(params.j_rho):
        raise ValueError(f"{lam} is not in the restricted parameter family")
    tags = []
    for j, s in enumerate(lam.entries):
        if j in params.j_rho:
            if s in (S_X, S_PM3):
                tags.append(TTag.Z)
            elif s in (S_X2, S_PM1):
                tags.append(TTag.Y)
            else:
                tags.append(TTag.YZ)
        else:
            if s in (S_X2, S_PM3):
                raise ValueError(f"entry {SYMBOLS[s]} at unmarked index {j} has no type")
            tags.append(TTag.YZ)
    return tuple(tags)


@lru_cache(maxsize=256)
def _family(f: int, kind: str, j_rho: frozenset[int]) -> tuple[LambdaTuple, ...]:
    """Sorted members of one family, built once per process.

    kind is "pss", "p", "dss" or "d"; the full and diagonal families
    ignore j_rho and are always asked for with it empty, so every j_rho
    shares them.  The tuples are frozen, so callers share the result.
    """
    if kind == "pss":
        # product order is the sort order of LambdaTuple
        members = (LambdaTuple(ent) for ent in itertools.product(range(6), repeat=f))
        return tuple(lam for lam in members if lam.in_pss())
    full = _family(f, "pss", frozenset())
    if kind == "p":
        return tuple(lam for lam in full if lam.in_p(j_rho))
    if kind == "dss":
        return tuple(lam for lam in full if lam.in_dss())
    return tuple(lam for lam in full if lam.in_d(j_rho))


def enumerate_pss(params: Params) -> tuple[LambdaTuple, ...]:
    """All tuples satisfying the cyclic adjacency conditions, sorted."""
    return _family(params.f, "pss", frozenset())


def enumerate_p(params: Params) -> tuple[LambdaTuple, ...]:
    return _family(params.f, "p", params.j_rho)


def enumerate_dss(params: Params) -> tuple[LambdaTuple, ...]:
    return _family(params.f, "dss", frozenset())


def enumerate_d(params: Params) -> tuple[LambdaTuple, ...]:
    return _family(params.f, "d", params.j_rho)


# Swapping x <-> x+2 and p-3-x <-> p-1-x; stays inside one slope class.
_SHIFT_SWAP = {S_X: S_X2, S_X2: S_X, S_PM3: S_PM1, S_PM1: S_PM3}


def shift_by_s(lam: LambdaTuple, shift_set: frozenset[int] | set[int], params: Params) -> LambdaTuple:
    """Replace the entry at each index of shift_set by its type-partner.

    Only indices of type Y or Z may be shifted; the move toggles the
    type Y <-> Z there and fixes every other index.  Applying the same
    set twice returns the input.
    """
    tags = t_type(lam, params)
    shift_set = frozenset(shift_set)
    for j in shift_set:
        if j not in range(lam.f):
            raise ValueError(f"index {j} out of range")
        if tags[j] is TTag.YZ:
            raise ValueError(f"index {j} has type YZ and cannot be shifted")
    new = list(lam.entries)
    for j in shift_set:
        new[j] = _SHIFT_SWAP[new[j]]
    out = LambdaTuple(tuple(new))
    if not out.in_p(params.j_rho):
        raise AssertionError("shift left the restricted family")  # pragma: no cover
    return out


def _star_entries(entries: tuple[int, ...], j_rho: frozenset[int]) -> tuple[int, ...]:
    # Marked index: rotate the symbol by three (x <-> p-3-x, x+1 <-> p-2-x,
    # x+2 <-> p-1-x).  Unmarked index: reflect (x <-> p-1-x, x+1 <-> p-2-x).
    # Both moves flip the slope class, so the adjacency conditions are
    # preserved globally; the reflection keeps unmarked indices legal.
    out = []
    for j, s in enumerate(entries):
        if j in j_rho:
            out.append((s + 3) % 6)
        else:
            if s in (S_X2, S_PM3):
                raise StarContractError(
                    f"entry {SYMBOLS[s]} at unmarked index {j}: input not in the family"
                )
            out.append(5 - s)
    return tuple(out)


@lru_cache(maxsize=None)
def _check_star_contract(f: int, j_rho: frozenset[int]) -> None:
    """Exhaustively verify the star rule on the full family for (f, j_rho).

    Checked for every member lam: the image lies in the family again,
    star is an involution, the three J-type sets behave as required
    (sizes add to f with the idle set, the idle set and the x+1/p-2-x
    set are preserved), and the per-index monomial types are unchanged.
    """
    probe = Params(f=f, p=29, j_rho=j_rho, r=tuple(2 + j for j in range(f)))
    fam = enumerate_p(probe)
    for lam in fam:
        img = LambdaTuple(_star_entries(lam.entries, j_rho))
        if not img.in_p(j_rho):
            raise StarContractError(f"star image {img} of {lam} left the family")
        back = LambdaTuple(_star_entries(img.entries, j_rho))
        if back != lam:
            raise StarContractError(f"star is not an involution at {lam}")
        idle = idle_set(lam, probe)
        if idle_set(img, probe) != idle:
            raise StarContractError(f"idle set moved at {lam}")
        if len(j_set(lam)) + len(j_set(img)) + len(idle) != f:
            raise StarContractError(f"J-set sizes do not add to f at {lam}")
        mids = frozenset(j for j, s in enumerate(lam.entries) if s in (S_X1, S_PM2))
        mids_img = frozenset(j for j, s in enumerate(img.entries) if s in (S_X1, S_PM2))
        if mids != mids_img:
            raise StarContractError(f"x+1/p-2-x indices moved at {lam}")
        if t_type(lam, probe) != t_type(img, probe):
            raise StarContractError(f"monomial types changed at {lam}")


def star_involution(lam: LambdaTuple, params: Params) -> LambdaTuple:
    """The layer-reversing involution on the restricted family.

    The componentwise rule swaps x <-> p-3-x and x+2 <-> p-1-x at marked
    indices, and x <-> p-1-x at unmarked ones; x+1 <-> p-2-x everywhere.
    Its contract (membership, involutivity, J-set bookkeeping, type
    preservation) is verified exhaustively once per (f, j_rho) and a
    violation raises StarContractError instead of returning bad data.
    """
    if not lam.in_p(params.j_rho):
        raise ValueError(f"{lam} is not in the restricted parameter family")
    _check_star_contract(params.f, params.j_rho)
    return LambdaTuple(_star_entries(lam.entries, params.j_rho))


def transfer_matrix_count(f: int) -> int:
    """Independent count of the full family via the 6x6 adjacency matrix.

    The number of tuples equals the trace of the f-th power of the
    matrix M with M[s][u] = 1 iff u may follow s.
    """
    m = [[0] * 6 for _ in range(6)]
    for s in range(6):
        allowed = AFTER_POSITIVE if s in POSITIVE else AFTER_NEGATIVE
        for u in allowed:
            m[s][u] = 1
    # f-fold product, plain integer arithmetic
    acc = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    for _ in range(f):
        acc = [
            [sum(acc[i][k] * m[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)
        ]
    return sum(acc[i][i] for i in range(6))
