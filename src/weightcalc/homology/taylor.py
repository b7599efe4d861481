"""Cohen-Macaulay certification of monomial quotients R/I, and the
shellability check.

R/I is Cohen-Macaulay iff pd R/I = ht I (Auslander-Buchsbaum), and
since pd R/I >= ht I always, one Betti number decides it: beta_h(I)
for h = ht I.  That number is read off the upper Koszul simplicial
complexes at the lcms of the generators (Miller & Sturmfels, Thm 1.34),
so the work is bounded by the lcm lattice and the 2^nvars faces, not by
the 2^r generator subsets of a Taylor complex.  The module keeps its
name, from the Taylor-complex engine it replaced, because the benchmark
tracer names it as a layer.

Each verdict and height is memoized on a canonical form under the pair
symmetries of the doubled ring: permuting the index pairs (y_j, z_j)
and swapping y_j with z_j permutes the variables, which keeps the
height and every Betti number, so isomorphic ideals share one
certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, itemgetter

from weightcalc.homology.linalg import rank_mod
from weightcalc.monomial import minimal_exponents

# distinct inputs kept by each memo; `grid` needs 189 canonical forms,
# 42 verdicts (21 forms at two primes) and 21 heights
_MEMO_SIZE = 4096


def _normalize_gens(gens, nvars: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for g in gens:
        g = tuple(int(v) for v in g)
        if len(g) != nvars:
            raise ValueError("generator arity mismatch")
        if any(v < 0 for v in g):
            raise ValueError("negative exponent")
        out.append(g)
    return minimal_exponents(out)


@lru_cache(maxsize=_MEMO_SIZE)
def _canonical_gens(
    gens: tuple[tuple[int, ...], ...], nvars: int
) -> tuple[tuple[int, ...], ...]:
    """Least image of normalized generators under the pair symmetries.

    For nvars = 2f, variable j pairs with variable f + j; the group
    permutes the pairs and swaps the two variables of a pair.  A pair's
    profile is the sorted list of its exponent pairs over the generators.
    Each pair is oriented so that its profile is the smaller of itself
    and its swap, and pairs are ordered by oriented profile; only ties
    are tried both ways: every order of pairs with equal profiles, and
    both orientations of a pair whose profile equals its swap.  The
    result is g.gens for an explicit group element g, sorted as
    `minimal_exponents` sorts, so equal forms are isomorphic ideals.  Odd
    nvars, and none, keep the identity.  Memoized per process.
    """
    if nvars % 2 or not nvars:
        return gens
    f = nvars // 2
    # pairs by oriented profile, and the orientations to try per pair
    blocks: dict[tuple[tuple[int, int], ...], list[int]] = {}
    turns = []
    for j in range(f):
        fwd = sorted((g[j], g[f + j]) for g in gens)
        rev = sorted((b, a) for a, b in fwd)
        blocks.setdefault(tuple(min(fwd, rev)), []).append(j)
        turns.append((False, True) if fwd == rev else (rev < fwd,))
    # the group fixes each generator's degree, so images compare as
    # their sorted (degree, vector) lists
    graded = [(sum(g), g) for g in gens]
    best = None
    orders = [itertools.permutations(blocks[k]) for k in sorted(blocks)]
    for order in itertools.product(*orders):
        pairs = [j for block in order for j in block]
        for turn in itertools.product(*(turns[j] for j in pairs)):
            # new variable k reads old variable src[k]
            src = [f + j if t else j for j, t in zip(pairs, turn)]
            src += [j if t else f + j for j, t in zip(pairs, turn)]
            read = itemgetter(*src)
            image = sorted([(deg, read(g)) for deg, g in graded])
            if best is None or image < best:
                best = image
    return tuple(g for _, g in best)


def _faces(facets: list[int], k: int) -> list[int]:
    """The k-vertex faces of the simplicial complex that the facets
    generate, as sorted bitmasks over the variables."""
    faces = set()
    for facet in facets:
        verts = [1 << v for v in range(facet.bit_length()) if facet >> v & 1]
        faces.update(map(sum, itertools.combinations(verts, k)))
    return sorted(faces)


def _boundary_rank(lower: list[int], upper: list[int], prime: int) -> int:
    """Rank of the simplicial boundary from the faces `upper` to the
    faces `lower` of one vertex fewer: a face goes to the alternating sum
    of the faces it keeps after dropping one vertex."""
    pos = {s: c for c, s in enumerate(lower)}
    rows = []
    for face in upper:
        drops = [face ^ 1 << v for v in range(face.bit_length()) if face >> v & 1]
        rows.append({pos[d]: -1 if t % 2 else 1 for t, d in enumerate(drops)})
    return rank_mod(rows, prime)


@lru_cache(maxsize=_MEMO_SIZE)
def _is_cm(
    gens: tuple[tuple[int, ...], ...], nvars: int, height: int, prime: int
) -> bool:
    """Whether pd R/I = height, for the minimal generators of a monomial
    ideal I of that height.

    pd R/I >= ht I, so the quotient is Cohen-Macaulay iff its minimal
    resolution stops at the height, i.e. the Betti number
    beta_height(I) vanishes.  beta_(i,b)(I) = dim H~_(i-1)(K^b), where
    K^b = {squarefree tau in supp b : x^(b - tau) in I} is the upper
    Koszul complex, and it vanishes unless b is an lcm of generators
    (Miller & Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).
    K^b is generated by the facets supp b minus {v : g_v = b_v}, one for
    each generator g <= b.  It has no (height-1)-face, or is the full
    simplex, when |supp b| <= height, and it is a cone when its maximal
    facets share a vertex; only the other lcms are ranked.
    """
    lattice, new = set(gens), set(gens)
    while new:
        new = {tuple(map(max, b, g)) for b in new for g in gens} - lattice
        lattice |= new
    for b in lattice:
        support = [v for v in range(nvars) if b[v]]
        if len(support) <= height:
            continue
        facets = {
            sum(1 << v for v in support if g[v] < b[v])
            for g in gens
            if all(x <= y for x, y in zip(g, b))
        }
        facets = [s for s in facets if not any(s != t and s & t == s for t in facets)]
        if reduce(and_, facets):
            continue
        lower, mid, upper = (_faces(facets, k) for k in (height - 1, height, height + 1))
        ranks = _boundary_rank(lower, mid, prime) + _boundary_rank(mid, upper, prime)
        if len(mid) > ranks:
            return False
    return True


@lru_cache(maxsize=_MEMO_SIZE)
def _codim(gens: tuple[tuple[int, ...], ...], nvars: int) -> int | None:
    """Height of a monomial ideal: smallest variable set meeting every
    generator.  None for the unit ideal, 0 for the zero ideal."""
    if any(sum(g) == 0 for g in gens):
        return None
    support = sorted({v for g in gens for v in range(nvars) if g[v]})
    for size in range(len(support) + 1):
        for combo in itertools.combinations(support, size):
            chosen = set(combo)
            if all(any(v in chosen for v in range(nvars) if g[v]) for g in gens):
                return size
    return len(support)


@dataclass(frozen=True)
class CmVerdict:
    """Whether R/I is Cohen-Macaulay, and the height of I, which in a
    polynomial ring is also its grade.  The unit ideal leaves the zero
    module, with both None."""

    is_cm: bool | None
    codim: int | None


def grade_and_cm(gens, nvars: int, prime: int = 29) -> CmVerdict:
    """Cohen-Macaulay test by Auslander-Buchsbaum: R/I is Cohen-Macaulay
    iff pd R/I = ht I (Bruns & Herzog, Cohen-Macaulay Rings, 1.3).
    The height and the verdict are decided once per process for each
    canonical form (`_canonical_gens`), the verdict also per prime: the
    pair symmetries permute the variables, which keeps both."""
    gens = _canonical_gens(_normalize_gens(gens, nvars), nvars)
    codim = _codim(gens, nvars)
    if codim is None:
        return CmVerdict(None, None)
    return CmVerdict(_is_cm(gens, nvars, codim, prime), codim)


@dataclass(frozen=True)
class ShellResult:
    facets: tuple[tuple[int, ...], ...]
    shellable: bool
    failure: str


def shellability_check(
    J1, J2, d: int, f: int
) -> ShellResult:
    """Shelling certification for the complex cut out by the degree-d
    products, on facets choosing one branch per index.

    The branch sets must partition the indices.  A facet is encoded
    +1/-1 per index (+1 on the y branch); its offending set collects
    J1 indices on y and J2 indices on z, and facets are the choices
    with fewer than d offenders, ordered by offender count then
    lexicographically.
    """
    J1, J2 = frozenset(J1), frozenset(J2)
    if J1 & J2 or (J1 | J2) != set(range(f)):
        raise ValueError("branch sets must partition the index range")
    if d < 2:
        raise ValueError("d must be at least 2; d = 1 has a single facet")

    def offenders(x: tuple[int, ...]) -> frozenset[int]:
        return frozenset(
            j
            for j in range(f)
            if (j in J1 and x[j] == 1) or (j in J2 and x[j] == -1)
        )

    facets = [
        x
        for x in itertools.product((1, -1), repeat=f)
        if len(offenders(x)) < d
    ]
    facets.sort(key=lambda x: (len(offenders(x)), tuple(0 if v == 1 else 1 for v in x)))

    def vertex_set(x: tuple[int, ...]) -> frozenset[tuple[int, int]]:
        return frozenset((j, x[j]) for j in range(f))

    for k in range(1, len(facets)):
        cur = facets[k]
        J = offenders(cur)
        if not J:
            return ShellResult(tuple(facets), False, f"facet {k} has no offenders")
        cur_verts = vertex_set(cur)
        # each declared codim-1 face must already be covered
        for j in J:
            face = cur_verts - {(j, cur[j])}
            if not any(face <= vertex_set(facets[i]) for i in range(k)):
                return ShellResult(
                    tuple(facets), False, f"face of facet {k} at {j} not covered"
                )
        # and every overlap with an earlier facet must factor through one
        for i in range(k):
            common = cur_verts & vertex_set(facets[i])
            if not any((j, cur[j]) not in common for j in J):
                return ShellResult(
                    tuple(facets),
                    False,
                    f"facets {i} and {k} meet outside the declared faces",
                )
    return ShellResult(tuple(facets), True, "")
