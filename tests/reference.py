"""Reference implementations that the tests run against the program.

Nothing in `src/` imports this module: an oracle kept apart from the
production path cannot drift into it.  Each function here states
independently what a production routine computes, and stays uncached.

- Cohen-Macaulay verdicts (`homology.taylor`): Tor_i(R/I, k) in every
  multidegree from the Taylor complex on the generator subsets, the
  height by brute force over variable sets, and the exactness of that
  Taylor complex itself; the Hilbert function by inclusion-exclusion
  over the subsets, against a direct monomial count.
- Monomial ideals (`monomial`): the Hilbert function of a quotient of
  two nested ideals, by direct count.
- Weight tuples (`weights`): the cyclic index rotation, the entrywise
  reflection, and the projection of the full family onto the restricted
  one with its inverse.  The tests probe the symmetries of
  `enumerate_pss`, `enumerate_p` and `j_set` with them.
"""

from __future__ import annotations

import itertools
import math

from weightcalc.homology.linalg import rank_mod
from weightcalc.monomial import Monomial, MonomialIdeal, signed_vectors
from weightcalc.weights import S_PM1, S_PM3, S_X, S_X2, LambdaTuple, Params


def _subset_lcms(
    gens: tuple[tuple[int, ...], ...], nvars: int
) -> list[tuple[int, ...]]:
    """lcm exponents of every generator subset, indexed by subset bitmask."""
    lcms = [(0,) * nvars]
    for g in gens:
        lcms += [tuple(map(max, row, g)) for row in lcms]
    return lcms


def _taylor_homology(subsets: list[int], prime: int) -> dict[int, int]:
    """Nonzero homology dimensions, by subset size, of the Taylor complex
    tensored with k on a set of generator subsets (bitmasks): a subset
    goes to the alternating sum of the subsets of the set that drop one
    of its generators."""
    by_size: dict[int, list[int]] = {}
    for s in subsets:
        by_size.setdefault(s.bit_count(), []).append(s)

    def rank(i: int) -> int:
        lower, upper = by_size.get(i - 1, []), by_size.get(i, [])
        pos = {s: c for c, s in enumerate(lower)}
        rows = []
        for s in upper:
            drops = [s ^ 1 << b for b in range(s.bit_length()) if s >> b & 1]
            rows.append({pos[d]: (-1) ** t for t, d in enumerate(drops) if d in pos})
        return rank_mod(rows, prime)

    dims = {i: len(group) - rank(i) - rank(i + 1) for i, group in by_size.items()}
    return {i: d for i, d in dims.items() if d}


def taylor_tor(gens, nvars: int, prime: int = 29) -> dict[tuple[int, ...], dict[int, int]]:
    """Tor_i(R/I, k)_b over F_prime, as {b: {i: dim}} at every multidegree
    b where some Tor is nonzero.  The Taylor complex resolves R/I, and its
    degree-b part tensored with k has one basis element per generator
    subset with lcm b, and keeps the boundary terms that do not lower
    the lcm."""
    by_lcm: dict[tuple[int, ...], list[int]] = {}
    for s, b in enumerate(_subset_lcms(tuple(map(tuple, gens)), nvars)):
        by_lcm.setdefault(b, []).append(s)
    tor = {b: _taylor_homology(subsets, prime) for b, subsets in by_lcm.items()}
    return {b: dims for b, dims in tor.items() if dims}


def cm_by_taylor(gens, nvars: int, prime: int = 29) -> bool:
    """Whether pd R/I = ht I, for a proper monomial ideal: pd from
    `taylor_tor`, and the height as the fewest variables that meet every
    generator."""
    pd = max(i for dims in taylor_tor(gens, nvars, prime).values() for i in dims)
    height = next(
        k
        for k in range(nvars + 1)
        for chosen in itertools.combinations(range(nvars), k)
        if all(any(g[v] for v in chosen) for g in gens)
    )
    return pd == height


def taylor_primal_check(gens, nvars: int, prime: int = 29) -> bool:
    """Validation of the Taylor complex that `taylor_tor` ranks: in each
    multidegree b up to the lcm of all generators, the subsets with lcm
    at most b carry the whole complex, which is exact in positive sizes
    and has H_0 of dimension 1 exactly off the ideal."""
    gens = tuple(map(tuple, gens))
    lcms = _subset_lcms(gens, nvars)
    for b in itertools.product(*(range(t + 1) for t in lcms[-1])):
        below = [s for s, c in enumerate(lcms) if all(x <= y for x, y in zip(c, b))]
        in_ideal = any(all(x <= y for x, y in zip(g, b)) for g in gens)
        if _taylor_homology(below, prime) != ({} if in_ideal else {0: 1}):
            return False
    return True


def _monomial_count(deg: int, nvars: int) -> int:
    """Number of monomials of degree deg in nvars variables."""
    if deg < 0:
        return 0
    return math.comb(deg + nvars - 1, nvars - 1) if nvars else int(deg == 0)


def hilbert_euler_check(gens, nvars: int, degmax: int) -> bool:
    """Inclusion-exclusion Hilbert function against a direct monomial
    count, per degree up to degmax: each generator subset counts the
    ring's dimension in degree deg - |lcm|, signed by its size."""
    sizes = [sum(row) for row in _subset_lcms(tuple(map(tuple, gens)), nvars)]
    for deg in range(degmax + 1):
        euler = sum(
            (-1) ** s.bit_count() * _monomial_count(deg - size, nvars)
            for s, size in enumerate(sizes)
        )
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
