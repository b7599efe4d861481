"""Prediction layer on top of the tuple combinatorics.

Everything here is bookkeeping with tags and subsets: weights are
carried as index sets (never as vector spaces), lattice states collect
the data predicted for a given threshold, and the split and chain
models assemble the corresponding direct-sum and filtration pictures.
The heavy lifting (tuple families, characters, ideals) lives in the
sibling modules; this one only combines them and checks identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from weightcalc.characters import diff_of_lambda, kvec_diff
from weightcalc.monomial import Monomial, MonomialIdeal, ideal_a, ideal_a1
from weightcalc.weights import (
    S_PM2,
    S_PM3,
    S_X,
    S_X1,
    LambdaTuple,
    Params,
    TTag,
    enumerate_p,
    enumerate_pss,
    j_set,
    t_type,
)

# Symbols whose indices belong to the large-family parameter subset.
_XSS_SYMBOLS = frozenset({S_X, S_X1, S_PM3, S_PM2})
# Symbols that always contribute to the restricted-family subset.
_X_SYMBOLS = frozenset({S_X, S_PM3, S_PM2})


@dataclass(frozen=True)
class WeightTag:
    """A weight named by bookkeeping data instead of a representation.

    Two parametrizations coexist.  A subset `j` names a member of the
    diagonal-family lattice directly.  A pair (`base`, `s`) names a
    constituent of the induction from the character with difference
    residue `base`; those tags satisfy the complement rule: conjugating
    the inducing character complements the subset.
    """

    f: int
    j: frozenset[int] | None = None
    base: int | None = None
    s: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if (self.j is None) == (self.s is None):
            raise ValueError("exactly one of j and s must be given")
        if self.s is not None and self.base is None:
            raise ValueError("an S-parametrized tag needs its base residue")
        if self.j is not None and self.base is not None:
            raise ValueError("a J-parametrized tag carries no base residue")
        for name in ("j", "s"):
            val = getattr(self, name)
            if val is None:
                continue
            val = frozenset(val)
            object.__setattr__(self, name, val)
            if not val <= frozenset(range(self.f)):
                raise ValueError(f"{name}={sorted(val)} not a subset of 0..{self.f - 1}")

    @property
    def length(self) -> int:
        if self.j is None:
            raise ValueError("length is defined for J-parametrized tags")
        return len(self.j)

    def conjugate(self, modulus: int) -> "WeightTag":
        """The same weight seen inside the conjugate induction."""
        if self.s is None:
            raise ValueError("conjugation acts on S-parametrized tags")
        return WeightTag(
            self.f,
            base=(-self.base) % modulus,
            s=frozenset(range(self.f)) - self.s,
        )


def _tag_key(tag: WeightTag) -> tuple[int, tuple[int, ...]]:
    subset = tag.j if tag.j is not None else tag.s
    return (len(subset), tuple(sorted(subset)))


@dataclass(frozen=True)
class ParamSets:
    """The index subsets attached to one tuple.

    `xss` is defined for every member of the full family; the other
    three require membership in the restricted family and are None
    otherwise.
    """

    xss: frozenset[int]
    x: frozenset[int] | None
    y: frozenset[int] | None
    z: frozenset[int] | None


def param_sets(lam: LambdaTuple, params: Params) -> ParamSets:
    if not lam.in_pss():
        raise ValueError(f"{lam} does not satisfy the adjacency conditions")
    ent = lam.entries
    xss = frozenset(j for j, s in enumerate(ent) if s in _XSS_SYMBOLS)
    if not lam.in_p(params.j_rho):
        return ParamSets(xss, None, None, None)
    x = frozenset(
        j
        for j, s in enumerate(ent)
        if s in _X_SYMBOLS or (s == S_X1 and j in params.j_rho)
    )
    tags = t_type(lam, params)
    y = frozenset(j for j, t in enumerate(tags) if t is not TTag.Y)
    z = frozenset(j for j, t in enumerate(tags) if t is not TTag.Z)
    return ParamSets(xss, x, y, z)


def jh_I_sigma_tau(
    j_sigma: frozenset[int] | set[int],
    j_tau: frozenset[int] | set[int],
    f: int,
) -> tuple[WeightTag, ...]:
    """All lattice tags between two nested subsets, smallest first."""
    j_sigma, j_tau = frozenset(j_sigma), frozenset(j_tau)
    if not j_tau <= frozenset(range(f)):
        raise ValueError(f"{sorted(j_tau)} not a subset of 0..{f - 1}")
    if not j_sigma <= j_tau:
        raise ValueError("index sets are not nested")
    free = sorted(j_tau - j_sigma)
    tags = []
    for k in range(len(free) + 1):
        for extra in itertools.combinations(free, k):
            tags.append(WeightTag(f, j=j_sigma | frozenset(extra)))
    return tuple(sorted(tags, key=_tag_key))


def hw_predicate(
    s_sigma: frozenset[int] | set[int],
    s_tau: frozenset[int] | set[int],
    J1: frozenset[int] | set[int],
    J2: frozenset[int] | set[int],
) -> bool:
    """Whether the first tag can sit under the second across the step."""
    s_sigma, s_tau = frozenset(s_sigma), frozenset(s_tau)
    J1, J2 = frozenset(J1), frozenset(J2)
    if J1 & J2:
        raise ValueError("index sets must be disjoint")
    return not (s_sigma & J1) and (s_sigma | J1) <= (s_tau | J2)


def k1_predicate(
    s_sigma: frozenset[int] | set[int],
    s_tau: frozenset[int] | set[int],
    J2: frozenset[int] | set[int],
) -> bool:
    """Whether the pairing survives the first congruence level."""
    s_sigma, s_tau = frozenset(s_sigma), frozenset(s_tau)
    J2 = frozenset(J2)
    return J2 <= s_sigma and not (s_tau & J2)


def _p_layer(params: Params, ell: int) -> tuple[LambdaTuple, ...]:
    return tuple(
        lam for lam in enumerate_p(params) if len(j_set(lam)) == ell
    )


def _pss_layer(params: Params, ell: int) -> tuple[LambdaTuple, ...]:
    return tuple(
        lam for lam in enumerate_pss(params) if len(j_set(lam)) == ell
    )


@dataclass(frozen=True)
class LatticeState:
    """Everything predicted for one threshold in the nonsplit regime."""

    i0: int
    characters: tuple[LambdaTuple, ...]
    socle: tuple[WeightTag, ...]
    k1_layers: tuple[tuple[WeightTag, ...], ...]
    functor_dim: int
    forbidden: tuple[LambdaTuple, ...]
    ideals: tuple[tuple[LambdaTuple, MonomialIdeal], ...]


def nonsplit_lattice(i0: int, params: Params) -> LatticeState:
    f = params.f
    if not -1 <= i0 <= f:
        raise ValueError(f"i0 must lie in [-1, {f}], got {i0}")
    chars = tuple(
        lam for lam in enumerate_p(params) if len(j_set(lam)) <= i0
    )
    marked = sorted(params.j_rho)
    layers = []
    for i in range(i0 + 1):
        layer = [
            WeightTag(f, j=frozenset(sub))
            for sub in itertools.combinations(marked, i)
        ]
        layers.append(tuple(sorted(layer, key=_tag_key)))
    socle = tuple(tag for layer in layers for tag in layer)
    forbidden = tuple(
        lam
        for lam in enumerate_pss(params)
        if not lam.in_p(params.j_rho) and len(j_set(lam)) == i0 + 1
    )
    ideals = tuple(
        (lam, ideal_a1(lam, i0, params)) for lam in enumerate_p(params)
    )
    return LatticeState(
        i0=i0,
        characters=chars,
        socle=socle,
        k1_layers=tuple(layers),
        functor_dim=sum(math.comb(f, i) for i in range(i0 + 1)),
        forbidden=forbidden,
        ideals=ideals,
    )


def _bottom_generators(
    big: MonomialIdeal, small: MonomialIdeal
) -> tuple[Monomial, ...]:
    """Minimal generators of the larger ideal surviving in the quotient."""
    return tuple(g for g in big.gens if not small.contains(g))


def _bottom_by_scan(
    big: MonomialIdeal, small: MonomialIdeal
) -> tuple[Monomial, ...]:
    # independent of the stored generator list: a monomial is a bottom
    # class iff it lies in big but not small and no proper divisor is
    # already in big
    if big.is_zero:
        return ()
    maxdeg = max(g.degree for g in big.gens)
    f = big.f
    out = []
    rng = range(-maxdeg, maxdeg + 1)
    for signed in itertools.product(rng, repeat=f):
        if sum(abs(e) for e in signed) > maxdeg:
            continue
        m = Monomial(signed)
        if not big.contains(m) or small.contains(m):
            continue
        reducible = False
        for j, e in enumerate(signed):
            if e == 0:
                continue
            smaller = list(signed)
            smaller[j] -= 1 if e > 0 else -1
            if big.contains(Monomial(tuple(smaller))):
                reducible = True
                break
        if not reducible:
            out.append(m)
    return tuple(sorted(out, key=lambda m: (m.degree, m.signed)))


@dataclass(frozen=True)
class SubquotCheck:
    """Two computations of one character multiset, at residue level."""

    i0: int
    i0_prime: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    holds: bool
    scan_consistent: bool

    def __bool__(self) -> bool:
        return self.holds and self.scan_consistent


def subquot_char_identity(i0: int, i0_prime: int, params: Params) -> SubquotCheck:
    """Compare the generator-level characters of the threshold quotients
    with the layer characters they are predicted to rearrange into."""
    f = params.f
    if not -1 <= i0 < i0_prime <= f:
        raise ValueError(f"need -1 <= i0 < i0' <= {f}, got ({i0}, {i0_prime})")
    mod = params.q_minus_one
    left: list[int] = []
    scan: list[int] = []
    for lam in enumerate_p(params):
        big = ideal_a1(lam, i0, params)
        small = ideal_a1(lam, i0_prime, params)
        base = (-diff_of_lambda(lam, params).value) % mod
        for g in _bottom_generators(big, small):
            left.append((base + kvec_diff(g.signed, params)) % mod)
        for g in _bottom_by_scan(big, small):
            scan.append((base + kvec_diff(g.signed, params)) % mod)
    right: list[int] = []
    for lam in _pss_layer(params, i0 + 1):
        right.append((-diff_of_lambda(lam, params).value) % mod)
    for j in range(i0 + 2, i0_prime + 1):
        for lam in _p_layer(params, j):
            right.append((-diff_of_lambda(lam, params).value) % mod)
    left.sort()
    right.sort()
    scan.sort()
    return SubquotCheck(
        i0=i0,
        i0_prime=i0_prime,
        left=tuple(left),
        right=tuple(right),
        holds=left == right,
        scan_consistent=scan == left,
    )


@dataclass(frozen=True)
class SplitModel:
    """One half of the split-regime direct sum, with its mirror data."""

    sigma: frozenset[int]
    sigma_dual: frozenset[int]
    chars: tuple[LambdaTuple, ...]
    dual_chars: tuple[LambdaTuple, ...]
    summands: tuple[tuple[LambdaTuple, MonomialIdeal], ...]
    functor_dim: int
    balanced: bool


def split_sigma_model(sigma: frozenset[int] | set[int], params: Params) -> SplitModel:
    f = params.f
    if params.j_rho != frozenset(range(f)):
        raise ValueError("the level-set model applies in the split regime only")
    sigma = frozenset(sigma)
    if not sigma <= frozenset(range(f + 1)):
        raise ValueError(f"levels {sorted(sigma)} not a subset of 0..{f}")
    sigma_dual = frozenset(f - i for i in range(f + 1) if i not in sigma)
    family = enumerate_p(params)
    chars = tuple(lam for lam in family if len(j_set(lam)) in sigma)
    dual_chars = tuple(lam for lam in family if len(j_set(lam)) in sigma_dual)
    summands = tuple((lam, ideal_a(lam, params)) for lam in chars)
    return SplitModel(
        sigma=sigma,
        sigma_dual=sigma_dual,
        chars=chars,
        dual_chars=dual_chars,
        summands=summands,
        functor_dim=sum(math.comb(f, i) for i in sigma),
        balanced=len(chars) + len(dual_chars) == len(family),
    )


@dataclass(frozen=True)
class ChainVerdict:
    """Validation record for a filtration chain of thresholds."""

    i0s: tuple[int, ...]
    valid: bool
    length: int
    within_bound: bool
    step_chars: tuple[frozenset[LambdaTuple], ...]
    steps_disjoint: bool
    problems: tuple[str, ...]


def chain_model(i0s, params: Params) -> ChainVerdict:
    f = params.f
    i0s = tuple(int(v) for v in i0s)
    problems = []
    for v in i0s:
        if not -1 <= v <= f:
            problems.append(f"value {v} outside [-1, {f}]")
    for a, b in zip(i0s, i0s[1:]):
        if a >= b:
            problems.append(f"step {a} -> {b} is not strictly increasing")
    length = max(len(i0s) - 1, 0)
    if problems:
        return ChainVerdict(
            i0s=i0s,
            valid=False,
            length=length,
            within_bound=length <= f + 1,
            step_chars=(),
            steps_disjoint=False,
            problems=tuple(problems),
        )
    steps = []
    for a, b in zip(i0s, i0s[1:]):
        layer: set[LambdaTuple] = set(_pss_layer(params, a + 1))
        for j in range(a + 2, b + 1):
            layer.update(_p_layer(params, j))
        steps.append(frozenset(layer))
    disjoint = all(
        not (steps[i] & steps[k])
        for i in range(len(steps))
        for k in range(i + 1, len(steps))
    )
    return ChainVerdict(
        i0s=i0s,
        valid=True,
        length=length,
        within_bound=length <= f + 1,
        step_chars=tuple(steps),
        steps_disjoint=disjoint,
        problems=(),
    )
