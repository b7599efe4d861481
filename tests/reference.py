"""Reference implementations that the tests run against the program.

Nothing in `src/` imports this module: an oracle kept apart from the
production path cannot drift into it.  Each function here states
independently what a production routine computes, and stays uncached.

- Taylor complexes (`homology.taylor`): the primal complex's exactness
  at every clamp cell, and two inclusion-exclusion Euler
  characteristics, one against a direct monomial count and one against
  the dimensions in an `ExtSummary`.
- Monomial ideals (`monomial`): the Hilbert function of a quotient of
  two nested ideals, by direct count.
- Weight tuples (`weights`): the cyclic index rotation, the entrywise
  reflection, and the projection of the full family onto the restricted
  one with its inverse.  The tests probe the symmetries of
  `enumerate_pss`, `enumerate_p` and `j_set` with them.
"""

from __future__ import annotations

import itertools

from weightcalc.homology.taylor import (
    GEN_CAP,
    ExtSummary,
    _level_homology,
    _monomial_count,
    _normalize_gens,
    _subset_masks,
)
from weightcalc.monomial import Monomial, MonomialIdeal, signed_vectors
from weightcalc.weights import S_PM1, S_PM3, S_X, S_X2, LambdaTuple, Params


def taylor_primal_check(gens, nvars: int, prime: int = 29) -> bool:
    """Independent validation of the Taylor machinery itself.

    The primal complex must be exact in positive homological degrees at
    every clamp cell, with bottom homology of dimension 1 exactly off
    the ideal.
    """
    gens = _normalize_gens(gens, nvars)
    if any(sum(g) == 0 for g in gens):
        return True
    r = len(gens)
    if r > GEN_CAP:
        raise ValueError("too many generators for the primal check")
    maxexp = [max((g[v] for g in gens), default=0) for v in range(nvars)]
    full, _, reach = _subset_masks(gens, nvars)
    for top in itertools.product(*(range(m + 1) for m in maxexp)):
        # subsets whose lcm is at most top: those exceeding it nowhere
        above = 0
        for masks, t in zip(reach, top):
            above |= masks[t + 1]
        active = full ^ above
        in_ideal = any(all(g[v] <= top[v] for v in range(nvars)) for g in gens)
        # the primal maps are the transposes of the dual ones, so the
        # same ranks give the homology; ranked directly on the lower set
        if _level_homology(active, r, prime) != (() if in_ideal else ((0, 1),)):
            return False
    return True


def _subset_lcms(
    gens: tuple[tuple[int, ...], ...], nvars: int
) -> list[tuple[int, ...]]:
    """lcm exponents of every generator subset, indexed by subset bitmask."""
    lcms = [(0,) * nvars]
    for g in gens:
        lcms += [tuple(map(max, row, g)) for row in lcms]
    return lcms


def _euler(sizes: list[int], nvars: int, deg: int) -> int:
    """Inclusion-exclusion over generator subsets: the alternating sum,
    by subset size, of the ring's dimension in degree deg - sizes[s],
    where sizes[s] is the shift of subset s (|lcm| in the primal)."""
    return sum(
        (-1) ** s.bit_count() * _monomial_count(deg - size, nvars)
        for s, size in enumerate(sizes)
    )


def hilbert_euler_check(gens, nvars: int, degmax: int) -> bool:
    """Inclusion-exclusion Hilbert function against a direct monomial
    count, per degree up to degmax."""
    gens = _normalize_gens(gens, nvars)
    sizes = [sum(row) for row in _subset_lcms(gens, nvars)]
    for deg in range(degmax + 1):
        euler = _euler(sizes, nvars, deg)
        direct = 0
        for mono in itertools.combinations_with_replacement(range(nvars), deg):
            exp = [0] * nvars
            for v in mono:
                exp[v] += 1
            if not any(all(g[v] <= exp[v] for v in range(nvars)) for g in gens):
                direct += 1
        if euler != direct:
            return False
    return True


def ext_euler_check(summary: ExtSummary, dmax: int = 0) -> bool:
    """Alternating Ext dimensions against the dual inclusion-exclusion
    closed form, per degree."""
    if summary.zero_module or summary.inconclusive:
        raise ValueError("needs a conclusive nonzero summary")
    nvars = summary.nvars
    gens = summary.gens
    # the dual complex shifts by +|lcm| where the primal shifts by -|lcm|
    shifts = [-sum(row) for row in _subset_lcms(gens, nvars)]
    dmin = -sum(max(g[v] for g in gens) for v in range(nvars)) if gens else 0
    for deg in range(dmin, dmax + 1):
        euler = _euler(shifts, nvars, deg)
        from_ext = 0
        for i, pairs in summary.degree_dims:
            d = dict(pairs).get(deg, 0)
            from_ext += -d if i % 2 else d
        if euler != from_ext:
            return False
    return True


def hilbert_function_pair(
    big: MonomialIdeal, small: MonomialIdeal, dmax: int
) -> tuple[int, ...]:
    """Dimensions of big/small in degrees 0..dmax; requires small <= big."""
    if not big.contains_ideal(small):
        raise ValueError("ideals are not nested")
    dims = [0] * (dmax + 1)
    for m in map(Monomial, signed_vectors(big.f, dmax)):
        if big.contains(m) and not small.contains(m):
            dims[m.degree] += 1
    return tuple(dims)


def delta_shift(lam: LambdaTuple) -> LambdaTuple:
    """Cyclic index rotation: entry j of the result is entry j+1 of lam."""
    ent = lam.entries
    f = len(ent)
    return LambdaTuple(tuple(ent[(j + 1) % f] for j in range(f)))


def bracket_s(lam: LambdaTuple) -> LambdaTuple:
    """Apply v -> p-1-v to every entry: symbol code s maps to 5-s."""
    return LambdaTuple(tuple(5 - s for s in lam.entries))


def pss_to_p_projection(
    lam: LambdaTuple, params: Params
) -> tuple[LambdaTuple, frozenset[int], frozenset[int]]:
    """Project a full-family tuple onto the restricted family.

    Offending entries sit at unmarked indices: p-3-x goes back up to
    p-1-x (collected in the first returned index set) and x+2 goes back
    down to x (second set).  The projection is the identity on members
    of the restricted family.
    """
    if not lam.in_pss():
        raise ValueError(f"{lam} does not satisfy the adjacency conditions")
    down = frozenset(
        j for j, s in enumerate(lam.entries) if s == S_PM3 and j not in params.j_rho
    )
    up = frozenset(
        j for j, s in enumerate(lam.entries) if s == S_X2 and j not in params.j_rho
    )
    new = list(lam.entries)
    for j in down:
        new[j] = S_PM1
    for j in up:
        new[j] = S_X
    mu = LambdaTuple(tuple(new))
    if not mu.in_p(params.j_rho):
        raise AssertionError("projection left the restricted family")  # pragma: no cover
    return mu, down, up


def jset_raise(
    lam: LambdaTuple,
    down: frozenset[int] | set[int],
    up: frozenset[int] | set[int],
    params: Params,
) -> LambdaTuple:
    """Inverse direction of the projection: spend idle indices.

    Moves p-1-x down to p-3-x on `down` and x up to x+2 on `up`; both
    sets must consist of unmarked indices currently carrying the
    respective symbol.  The result satisfies the adjacency conditions
    but leaves the restricted family as soon as one index is moved.
    """
    down = frozenset(down)
    up = frozenset(up)
    if down & up:
        raise ValueError("down and up sets overlap")
    for j in down:
        if j in params.j_rho or lam.entries[j] != S_PM1:
            raise ValueError(f"index {j} does not carry p-1-x at an unmarked index")
    for j in up:
        if j in params.j_rho or lam.entries[j] != S_X:
            raise ValueError(f"index {j} does not carry x at an unmarked index")
    new = list(lam.entries)
    for j in down:
        new[j] = S_PM3
    for j in up:
        new[j] = S_X2
    out = LambdaTuple(tuple(new))
    if not out.in_pss():
        raise AssertionError("raise left the adjacency conditions")  # pragma: no cover
    return out
