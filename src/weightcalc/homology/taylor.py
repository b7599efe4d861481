"""Cohen-Macaulay certification via dualized Taylor complexes.

For a monomial ideal with generators m_1..m_r in a polynomial ring,
the Taylor complex on all 2^r generator subsets is a free resolution
of the quotient.  Dualizing into the ring and fixing a multidegree
leaves a complex of scalar matrices with entries 0, +-1 whose
activity pattern depends only on a componentwise clamp of the
multidegree.  Scanning the finite clamp grid therefore certifies the
vanishing set of all Ext modules completely; per-total-degree
dimensions follow from closed-form lattice-point counts over each
clamp cell.

Activity patterns are int bitsets over the generator subsets (bit s for
subset s), built from per-threshold masks.  Each pattern is an upper set
of subsets, and its cohomology is ranked on that set directly.  The
result is a pure function of (pattern, r, prime) and is memoized once
per process, so ideals across configurations share their rankings.

Each ideal's whole summary is memoized on a canonical form under the
pair symmetries of the doubled ring: permuting the index pairs
(y_j, z_j) and swapping y_j with z_j permutes the variables, which
leaves every Ext module's vanishing and graded dimensions unchanged
(Bruns & Herzog, Cohen-Macaulay Rings, 1.3), so isomorphic ideals share
one certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter

from weightcalc.homology.linalg import rank_mod
from weightcalc.monomial import minimal_exponents

GEN_CAP = 12
GRID_CAP = 50_000
# distinct inputs kept by each memo; `grid` needs 189 canonical forms,
# 42 Ext summaries, 21 heights and 100 (pattern, r, prime) rankings
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


@dataclass(frozen=True)
class ExtSummary:
    """Certified vanishing data for Ext^i(R/I, R) over F_p."""

    nvars: int
    gens: tuple[tuple[int, ...], ...]
    prime: int
    zero_module: bool
    inconclusive: bool
    reason: str
    nonzero_indices: tuple[int, ...]
    degree_dims: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def grade(self) -> int | None:
        """Least nonvanishing index; None when everything vanishes."""
        return self.nonzero_indices[0] if self.nonzero_indices else None


def _monomial_count(deg: int, nvars: int) -> int:
    """Number of monomials of degree deg in nvars variables."""
    if deg < 0:
        return 0
    return math.comb(deg + nvars - 1, nvars - 1) if nvars else int(deg == 0)


def _subset_masks(gens, nvars: int) -> tuple[int, list[int], list[list[int]]]:
    """Bitsets over the 2^r generator subsets, bit s for subset s.

    `full` holds every subset, `without[i]` those that do not contain
    generator i, and `reach[v][t]` those whose lcm has exponent at least
    t in variable v, for t from 0 to one past the largest exponent
    (where it is empty).
    """
    r = len(gens)
    full = (1 << (1 << r)) - 1
    # subsets containing generator i: runs of 2^i zeros, then 2^i ones
    has = [full // ((1 << (1 << i)) + 1) << (1 << i) for i in range(r)]
    reach = []
    for v in range(nvars):
        masks = [full]
        for t in range(1, max((g[v] for g in gens), default=0) + 2):
            m = 0
            for g, h in zip(gens, has):
                if g[v] >= t:
                    m |= h
            masks.append(m)
        reach.append(masks)
    return full, [full ^ h for h in has], reach


def _boundary_matrix(
    lower: list[int], upper: list[int], r: int
) -> list[dict[int, int]]:
    """Dual transition between active subset levels, as sparse rows with
    entries +-1."""
    pos = {s: c for c, s in enumerate(lower)}
    rows = []
    for sup in upper:
        bits = [b for b in range(r) if sup >> b & 1]
        row = {}
        for t, b in enumerate(bits):
            sub = sup ^ (1 << b)
            col = pos.get(sub)
            if col is not None:
                row[col] = -1 if t % 2 else 1
        rows.append(row)
    return rows


def _level_homology(sets: int, r: int, prime: int) -> tuple[tuple[int, int], ...]:
    """Nonzero cohomology dimensions, as (index, dimension) pairs, of the
    dual complex restricted to a set of generator subsets, given as a
    bitset and ranked directly.

    The restriction is a complex when the set is an upper set (a
    subcomplex) or a lower set (a quotient complex).
    """
    levels: list[list[int]] = [[] for _ in range(r + 1)]
    for s, bit in enumerate(reversed(bin(sets)[2:])):
        if bit == "1":
            levels[s.bit_count()].append(s)
    ranks = []
    for k in range(r):
        if not levels[k] or not levels[k + 1]:
            ranks.append(0)
            continue
        ranks.append(rank_mod(_boundary_matrix(levels[k], levels[k + 1], r), prime))
    out = []
    for k in range(r + 1):
        dim = len(levels[k])
        h = dim - (ranks[k] if k < r else 0) - (ranks[k - 1] if k > 0 else 0)
        if h:
            out.append((k, h))
    return tuple(out)


@lru_cache(maxsize=_MEMO_SIZE)
def _pattern_homology(active: int, r: int, prime: int) -> tuple[tuple[int, int], ...]:
    """Nonzero cohomology dimensions of the dual complex on an active
    upper set of generator subsets, given as a bitset.  Memoized per
    process on the pattern, r and the prime.
    """
    return _level_homology(active, r, prime)


def _is_acyclic_cone(active: int, without: list[int]) -> bool:
    """Cheap acyclicity certificate for one clamp cell.

    The inactive subsets form a lower set; when it is closed under
    adding some generator b it is a cone with apex b, its reduced
    cohomology vanishes, and the active-part complex is exact.  Only
    valid when the empty set is inactive, i.e. away from the all-zero
    clamp.  Closure fails at b exactly when some subset s without b is
    inactive while s + {b} is active; `without` is from `_subset_masks`.
    """
    if active & 1:
        return False
    inactive = ~active
    return any(
        not inactive & (active >> (1 << b)) & w for b, w in enumerate(without)
    )


def taylor_ext_ranks(gens, nvars: int, dmax: int = 0, prime: int = 29) -> ExtSummary:
    """Certified Ext^i(R/I, R) vanishing set plus per-degree dimensions.

    The clamp grid covers every multidegree, so nonzero_indices is the
    exact set of nonvanishing homological indices.  Degree data is
    reported for total degrees up to dmax.  Oversized inputs yield an
    inconclusive summary, never a silent pass.  Computed once per
    process for each canonical form (`_canonical_gens`) and prime; the
    summary carries the caller's own normalized generators.
    """
    gens = _normalize_gens(gens, nvars)
    summary = _ext_ranks(_canonical_gens(gens, nvars), nvars, dmax, prime)
    return replace(summary, gens=gens)


@lru_cache(maxsize=_MEMO_SIZE)
def _ext_ranks(
    gens: tuple[tuple[int, ...], ...], nvars: int, dmax: int, prime: int
) -> ExtSummary:
    r = len(gens)
    maxexp = [max((g[v] for g in gens), default=0) for v in range(nvars)]
    grid_size = math.prod(m + 1 for m in maxexp)
    zero_module = any(sum(g) == 0 for g in gens)
    reason = ""
    if zero_module:
        reason = "unit ideal: zero module"
    elif r > GEN_CAP:
        reason = f"{r} generators exceed the cap {GEN_CAP}"
    elif grid_size > GRID_CAP:
        reason = f"clamp grid of size {grid_size} exceeds the cap {GRID_CAP}"
    base = dict(
        nvars=nvars,
        gens=gens,
        prime=prime,
        zero_module=zero_module,
        inconclusive=bool(reason) and not zero_module,
        reason=reason,
    )
    if reason:
        return ExtSummary(**base, nonzero_indices=(), degree_dims=())
    full, without, reach = _subset_masks(gens, nvars)
    # cells: map homological index -> list of (fixed degree sum, free coords, dim)
    cells: dict[int, list[tuple[int, int, int]]] = {}
    nonzero: set[int] = set()
    for depths in itertools.product(*(range(m + 1) for m in maxexp)):
        active = full
        for masks, t in zip(reach, depths):
            active &= masks[t]
        if not active:
            continue
        # full active set = augmented simplex complex, exact for r >= 1
        if r and active == full:
            continue
        if _is_acyclic_cone(active, without):
            continue
        hom = _pattern_homology(active, r, prime)
        if not hom:
            continue
        fixed = -sum(depths)
        nfree = sum(1 for d in depths if d == 0)
        for i, h in hom:
            nonzero.add(i)
            cells.setdefault(i, []).append((fixed, nfree, h))
    indices = tuple(sorted(nonzero))
    dmin = -sum(maxexp)
    degree_dims = []
    for i in indices:
        per_degree: dict[int, int] = {}
        for fixed, nfree, h in cells.get(i, []):
            for deg in range(dmin, dmax + 1):
                count = _monomial_count(deg - fixed, nfree)
                if count:
                    per_degree[deg] = per_degree.get(deg, 0) + h * count
        degree_dims.append((i, tuple(sorted(per_degree.items()))))
    return ExtSummary(**base, nonzero_indices=indices, degree_dims=tuple(degree_dims))


def codim_of(gens, nvars: int) -> int | None:
    """Height of a monomial ideal: smallest variable set meeting every
    generator.  None for the unit ideal (by convention undefined here),
    0 for the zero ideal.  Computed once per process for each canonical
    form (`_canonical_gens`): the pair symmetries permute the variables,
    which keeps the height."""
    gens = _normalize_gens(gens, nvars)
    return _codim(_canonical_gens(gens, nvars), nvars)


@lru_cache(maxsize=_MEMO_SIZE)
def _codim(gens: tuple[tuple[int, ...], ...], nvars: int) -> int | None:
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
    is_cm: bool | None
    grade: int | None
    codim: int | None
    zero_module: bool
    inconclusive: bool
    ext: ExtSummary


def grade_and_cm(gens, nvars: int, prime: int = 29) -> CmVerdict:
    """Cohen-Macaulay test: Ext vanishes away from a single index equal
    to the codimension."""
    ext = taylor_ext_ranks(gens, nvars, prime=prime)
    if ext.zero_module:
        return CmVerdict(None, None, None, True, False, ext)
    if ext.inconclusive:
        return CmVerdict(None, None, None, False, True, ext)
    cd = codim_of(gens, nvars)
    verdict = ext.nonzero_indices == (cd,)
    return CmVerdict(verdict, ext.grade, cd, False, False, ext)


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
