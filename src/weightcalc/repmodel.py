"""Prediction layer on top of the tuple combinatorics.

Everything here is bookkeeping with tuples and index sets (never
vector spaces): lattice states collect the data predicted for a given
threshold, and the split and chain models assemble the corresponding
direct-sum and filtration pictures.
The heavy lifting (tuple families, characters, ideals) lives in the
sibling modules; this one only combines them and checks identities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from weightcalc.characters import twisted_char
from weightcalc.monomial import Monomial, MonomialIdeal, ideal_a, ideal_a1
from weightcalc.weights import LambdaTuple, Params, enumerate_p, enumerate_pss, j_set


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
    functor_dim: int
    forbidden: tuple[LambdaTuple, ...]


def nonsplit_lattice(i0: int, params: Params) -> LatticeState:
    f = params.f
    if not -1 <= i0 <= f:
        raise ValueError(f"i0 must lie in [-1, {f}], got {i0}")
    chars = tuple(
        lam for lam in enumerate_p(params) if len(j_set(lam)) <= i0
    )
    forbidden = tuple(
        lam
        for lam in enumerate_pss(params)
        if not lam.in_p(params.j_rho) and len(j_set(lam)) == i0 + 1
    )
    return LatticeState(
        i0=i0,
        characters=chars,
        functor_dim=sum(math.comb(f, i) for i in range(i0 + 1)),
        forbidden=forbidden,
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
    left: list[int] = []
    scan: list[int] = []
    for lam in enumerate_p(params):
        big = ideal_a1(lam, i0, params)
        small = ideal_a1(lam, i0_prime, params)
        left.extend(twisted_char(lam, g.signed, params) for g in _bottom_generators(big, small))
        scan.extend(twisted_char(lam, g.signed, params) for g in _bottom_by_scan(big, small))
    zero = (0,) * f
    layers = [_pss_layer(params, i0 + 1)]
    layers += [_p_layer(params, j) for j in range(i0 + 2, i0_prime + 1)]
    right = [twisted_char(lam, zero, params) for layer in layers for lam in layer]
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
