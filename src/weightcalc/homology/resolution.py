"""Minimal graded free resolutions over the associated-graded algebra.

The algebra is a tensor product, one factor per index, of F_p-algebras
on y, z, h with zy = yz - h and h central.  Modules are cyclic left
quotients presented by homogeneous generators.  A resolution is built
one (internal degree, per-index character) slice at a time, by degree,
then character, then homological level, and the presentation is level 0
of that loop.  At each slice and level one tracked elimination adds the
multiples of the next level's generators found in lower slices to an
echelon span, and reads off the dependencies among them.  The
candidates this span does not reach become new generators of the next
level: at level 0 the given generators of the slice's shift, above it
the kernel vectors of the level's map.  The multiples, followed by the
new generators, are the columns of the next level's map on the same
slice; the new generators are independent of the multiples and of each
other, so that map's kernel is exactly the dependencies.  That choice of
generators makes every transition map vanish after applying F tensor
(-), so the ranks are Betti numbers and the generator shifts read off
Tor directly.

The algebra is U(g) for the Heisenberg Lie algebra g, so Tor_i(F, M) is
the homology of the Chevalley-Eilenberg complex of g with coefficients
in the module M (Chevalley & Eilenberg, Trans. AMS 63, 1948; Weibel, An
Introduction to Homological Algebra, 7.7).  Its chain group at level i
is the i-th exterior power of g tensor M, whose top degree D_i is
2 min(i, f) + max(0, i - f) (y_j and z_j have degree 1, h_j degree 2),
and which vanishes above i = 3f.  When M is finite with top degree t,
every level-i generator therefore has degree at most t + D_i.  The
level-0 ranks of the slice loop measure M degree by degree; once a
degree comes out empty the loop knows t and stops each level at its
bound, and `Resolution.complete` certifies a table only when the window
reaches the bound of the level after the last.  The exactness recheck
rebuilds every slice map from the finished resolution on its own and
ranks each slice once, up to the whole window, so it confirms on its
own every slice the loop skipped; it also rejects a non-minimal map.
The suites and the `tor` subcommand read Betti tables through one
entry point, `module_resolution`, which owns the default window and
memoizes on the module's symmetry class: a process resolves each class
once in each window, carries its table to the rest of the class by an
automorphism, and rechecks the class's resolution once, only when a
caller asks whether it is verified.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from weightcalc.homology.linalg import Row, rank_mod, span_and_kernel

# Unused here: bench/test_trace_counts.py checks that the benchmark's
# tracer patches this copied binding, and moving it waits for a benchmark
# change (ROADMAP open item 9).
from weightcalc.homology.linalg import nullspace_mod  # noqa: F401
from weightcalc.homology.pbw import PbwElement, key_char, key_degree, multiply_keys

CharVec = tuple[int, ...]
Shift = tuple[int, CharVec]  # (internal degree, per-index y-minus-z count)
Generator = tuple[Shift, tuple[PbwElement, ...]]  # shift and free-module vector


@lru_cache(maxsize=None)
def _local_keys(e: int, w: int) -> tuple[tuple[int, int, int], ...]:
    # basis of one factor in degree e and character w: a-b = w, a+b+2c = e
    if e < abs(w) or (e - w) % 2:
        return ()
    out = []
    for b in range(max(0, -w), (e - w) // 2 + 1):
        a = b + w
        rem = e - a - b
        if rem < 0 or rem % 2:
            continue
        out.append((a, b, rem // 2))
    return tuple(out)


@lru_cache(maxsize=None)
def slice_keys(f: int, e: int, w: CharVec) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Normal-form monomial basis of the algebra in one (degree, character) slice."""
    if e < 0:
        return ()
    if f == 0:
        return ((),) if e == 0 else ()
    out = []
    for e0 in range(e + 1):
        for loc in _local_keys(e0, w[0]):
            for rest in slice_keys(f - 1, e - e0, w[1:]):
                out.append((loc,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _char_range(f: int, budget: int) -> tuple[CharVec, ...]:
    # characters reachable from degree <= budget, with matching total parity
    if f == 0:
        return ((),)
    out = []
    for w0 in range(-budget, budget + 1):
        for rest in _char_range(f - 1, budget - abs(w0)):
            out.append((w0,) + rest)
    return tuple(sorted(out))


def _sub_char(w: CharVec, u: CharVec) -> CharVec:
    return tuple(a - b for a, b in zip(w, u))


def _rows_to_vectors(
    rows: list[Row], shifts: tuple[Shift, ...], deg: int, w: CharVec, f: int, p: int
) -> list[tuple[PbwElement, ...]]:
    """Free-module vectors of rows given in the coordinates of the slice
    basis of the summands with the given shifts."""
    if not rows:
        return []
    basis = [
        (s, m)
        for s, (e, u) in enumerate(shifts)
        for m in slice_keys(f, deg - e, _sub_char(w, u))
    ]
    out = []
    for row in rows:
        parts: list[dict] = [dict() for _ in shifts]
        for col, c in row.items():
            s, key = basis[col]
            parts[s][key] = c
        out.append(tuple(PbwElement(f, p, terms) for terms in parts))
    return out


def _pack(key: tuple, radix: int) -> int:
    """A key's exponents (a_j, b_j, c_j) as the base-radix digits 3j,
    3j + 1, 3j + 2 of one int."""
    out = 0
    for a, b, c in reversed(key):
        out = ((out * radix + c) * radix + b) * radix + a
    return out


@lru_cache(maxsize=None)
def _slice_parts(
    f: int, e: int, w: CharVec, radix: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For the normal-form monomials y^a z^b h^c of the slice, in the order
    of `slice_keys`, the packed keys of their parts y^a h^c and z^b, which
    add up to their own packed keys."""
    keys = slice_keys(f, e, w)
    return (
        tuple(_pack(tuple((a, 0, c) for a, _, c in key), radix) for key in keys),
        tuple(_pack(tuple((0, b, 0) for _, b, _ in key), radix) for key in keys),
    )


class _PackedMap:
    """One map of free modules, assembled slice by slice in packed
    coordinates, within a window of degree dmax.

    Every exponent of a key in a slice of degree at most dmax is at most
    dmax, so with radix R = dmax + 1 a key packs into one int with 3f
    base-R digits (`_pack`), and a basis element (s, m) of a free module
    packs as s * R^(3f) + pack(m).  For m = y^a z^b h^c in normal form,
    m * v = y^a h^c * (z^b * v), and the product rule only adds a and c to
    the exponents of each term of z^b * v.  So a column is the packed terms
    of z^b * v plus the packed key of y^a h^c, with no digit carried: every
    digit of the sum is an exponent of a key in the target slice.  z^b * v
    is computed once per generator and b, and kept as long as the object.
    """

    def __init__(self, dmax: int, f: int, p: int):
        self.f, self.p = f, p
        self.radix = dmax + 1
        self.width = self.radix ** (3 * f)
        # packed terms of z^b * v mod p, keyed on the packed basis element
        # (generator position, z^b) of the source
        self.z_images: dict[int, tuple[tuple[int, int], ...]] = {}

    def index(self, shifts: Iterable[Shift], deg: int, w: CharVec) -> dict[int, int]:
        """Position of each packed basis element (s, m) in the slice of the
        free module with the given shifts, summand by summand, in the order
        of `slice_keys`."""
        index: dict[int, int] = {}
        for s, (e, u) in enumerate(shifts):
            base = s * self.width
            offsets, zparts = _slice_parts(self.f, deg - e, _sub_char(w, u), self.radix)
            for offset, z in zip(offsets, zparts):
                index[base + offset + z] = len(index)
        return index

    def coordinates(self, vec: tuple[PbwElement, ...], index: dict[int, int]) -> Row:
        """Slice coordinates of a free-module vector."""
        return {
            index[s * self.width + _pack(key, self.radix)]: c
            for s, el in enumerate(vec)
            for key, c in el.terms.items()
        }

    def _z_image(self, z: int, vec: tuple[PbwElement, ...]) -> tuple[tuple[int, int], ...]:
        """Packed terms of z^b * vec mod p, summand by summand, for z^b
        packed as z."""
        r = self.radix
        zkey = tuple((0, z // r ** (3 * j + 1) % r, 0) for j in range(self.f))
        p, out = self.p, {}
        for s, el in enumerate(vec):
            for key, c in el.terms.items():
                for k, ck in multiply_keys(zkey, key, p).items():
                    packed = s * self.width + _pack(k, self.radix)
                    out[packed] = (out.get(packed, 0) + c * ck) % p
        return tuple((k, c) for k, c in out.items() if c)

    def columns(
        self, found: Iterable[Generator], deg: int, w: CharVec, index: dict[int, int]
    ) -> list[Row]:
        """Slice coordinates of every algebra multiple m * v of the
        generators (shift, v) in found, in the order of the basis those
        multiples span.  A generator is known by its position in found,
        which must hold the same generator at every call."""
        out = []
        for g, ((ge, gu), vec) in enumerate(found):
            e, u = deg - ge, _sub_char(w, gu)
            base = g * self.width
            for offset, z in zip(*_slice_parts(self.f, e, u, self.radix)):
                terms = self.z_images.get(base + z)
                if terms is None:
                    terms = self.z_images[base + z] = self._z_image(z, vec)
                out.append({index[k + offset]: c for k, c in terms})
        return out


def _char_candidates(
    shifts: Iterable[Shift], deg: int, f: int
) -> list[CharVec]:
    out = set()
    for e, u in shifts:
        rem = deg - e
        if rem < 0:
            continue
        for v in _char_range(f, rem):
            if (sum(v) - rem) % 2 == 0:
                out.add(tuple(a + b for a, b in zip(v, u)))
    return sorted(out)


def _generator_bound(top_degree: int | None, i: int, f: int) -> float:
    """Highest degree of a level-i generator for a quotient of the given
    top degree: that degree plus the top degree of the i-th exterior
    power of the Lie algebra, spanned by y_j and z_j in degree 1 and h_j
    in degree 2, which vanishes above 3f.  Unbounded when the top degree
    is not known (None)."""
    if top_degree is None:
        return math.inf
    i = min(i, 3 * f)
    return top_degree + 2 * min(i, f) + max(0, i - f)


def _algebra_dim(f: int, d: int) -> int:
    # monomials of degree d in the 2f variables y_j, z_j of degree 1 and
    # the f variables h_j of degree 2
    if f == 0:
        return int(d == 0)
    return sum(
        math.comb(c + f - 1, c) * math.comb(d - 2 * c + 2 * f - 1, d - 2 * c)
        for c in range(d // 2 + 1)
    )


def _resolve_slices(
    given: dict[Shift, list[PbwElement]], top: int, dmax: int, f: int, p: int
) -> tuple[list[list[Generator]], int | None]:
    """Generators of levels 1 to top, each level lowest degree first,
    for the presentation given as its generators grouped by shift, and
    the quotient's top degree once the window shows it finite.

    Slices are taken by degree, then character, and at each slice level
    by level, from level 0, the algebra itself.  Step L keeps the
    candidates that the multiples of earlier level-(L+1) generators do
    not reach: at level 0 the given generators of the slice's shift,
    kept as given, and above it the kernel vectors of the level-L map,
    kept as their remainders.  Those multiples, followed by the kept
    candidates, are the columns of the level-(L+1) map on the same
    slice; the kept candidates are independent of the multiples and of
    each other, so that map's kernel is the dependencies among the
    multiples, found by the same elimination.  Vectors have one
    component per generator found so far.

    The level-0 ranks measure the quotient: the first degree d where
    they fill the whole algebra gives its top degree t = d - 1.  From
    then on a level-i generator has degree at most t + D_i (see the
    module docstring), so step L runs only up to t + D_(L+2), the bound
    of the level its kernel feeds, and the loop ends at t + D_top.  A
    step entered without the kernel below it adds no generator.
    """
    levels: list[list[Generator]] = [[((0, (0,) * f), ())]]
    levels += [[] for _ in range(top)]
    quotient_top: int | None = None
    # the map from each level to the one below
    maps = [_PackedMap(dmax, f, p) for _ in range(top)]
    for deg in range(1, dmax + 1):
        if deg > _generator_bound(quotient_top, top, f):
            break
        quotient_dim = _algebra_dim(f, deg)
        known = set(given).union(sh for level in levels[1:] for sh, _ in level)
        for w in _char_candidates(known, deg, f):
            ker: list[Row] | None = None
            for step, (lower, upper) in enumerate(zip(levels, levels[1:])):
                if deg > _generator_bound(quotient_top, step + 2, f):
                    # the bound grows with the level, so the skipped steps
                    # come first and leave ker None
                    continue
                shifts = tuple(sh for sh, _ in lower)
                index = maps[step].index(shifts, deg, w)
                if not index:
                    # a multiple of a higher generator would be a nonzero
                    # vector here, so the levels above are empty too
                    break
                span, next_ker = span_and_kernel(
                    maps[step].columns(upper, deg, w, index), p
                )
                if step == 0:
                    fresh = [
                        (g,)
                        for g in given.get((deg, w), ())
                        if span.add(maps[0].coordinates((g,), index)) is not None
                    ]
                    quotient_dim -= span.rank
                elif ker is None:
                    fresh = []
                else:
                    rems = [rem for rem in map(span.add, ker) if rem is not None]
                    fresh = _rows_to_vectors(rems, shifts, deg, w, f, p)
                    # the old span sits inside the kernel, so the count must close up
                    if span.rank != len(ker):
                        raise AssertionError("span bookkeeping out of step with kernel")
                upper.extend(((deg, w), vec) for vec in fresh)
                ker = next_ker
        # the algebra is generated in degree 1, so the quotient vanishes
        # above its first empty degree
        if quotient_top is None and quotient_dim == 0:
            quotient_top = deg - 1
    return levels[1:], quotient_top


@dataclass(frozen=True)
class BettiTable:
    """Shift/character multisets of a minimal graded resolution, per
    homological index."""

    f: int
    rows: tuple[tuple[Shift, ...], ...]

    def row(self, i: int) -> tuple[Shift, ...]:
        return self.rows[i] if 0 <= i < len(self.rows) else ()

    def dims(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def diff(self, other: BettiTable) -> str:
        lines = []
        top = max(len(self.rows), len(other.rows))
        for i in range(top):
            a, b = sorted(self.row(i)), sorted(other.row(i))
            if a != b:
                lines.append(f"i={i}: computed {a} expected {b}")
        return "; ".join(lines)


def kunneth_table(tables: list[BettiTable]) -> BettiTable:
    """Betti table of a tensor product module: graded convolution of the
    factor tables."""
    f = sum(t.f for t in tables)
    rows: dict[int, list[Shift]] = {}
    for combo in itertools.product(*(range(len(t.rows)) for t in tables)):
        i = sum(combo)
        for parts in itertools.product(
            *(t.rows[c] for t, c in zip(tables, combo))
        ):
            e = sum(pe for pe, _ in parts)
            u = tuple(itertools.chain.from_iterable(pu for _, pu in parts))
            rows.setdefault(i, []).append((e, u))
    top = max(rows) if rows else 0
    return BettiTable(
        f, tuple(tuple(sorted(rows.get(i, []))) for i in range(top + 1))
    )


def wedge_table(row1: tuple[Shift, ...], imax: int, f: int) -> BettiTable:
    """Exterior powers of the first row: candidate table for modules whose
    Tor is an exterior algebra on Tor_1."""
    rows: list[tuple[Shift, ...]] = [((0, (0,) * f),)]
    for i in range(1, imax + 1):
        entries = []
        for combo in itertools.combinations(range(len(row1)), i):
            e = sum(row1[c][0] for c in combo)
            u = tuple(
                sum(row1[c][1][j] for c in combo) for j in range(f)
            )
            entries.append((e, u))
        rows.append(tuple(sorted(entries)))
    while rows and not rows[-1]:
        rows.pop()
    return BettiTable(f, tuple(rows))


@dataclass(frozen=True)
class Resolution:
    f: int
    p: int
    dmax: int
    shifts: tuple[tuple[Shift, ...], ...]
    maps: tuple[tuple[tuple[PbwElement, ...], ...], ...]
    next_kernel_empty: bool | None
    # the quotient's top degree, when the window shows it finite
    top_degree: int | None

    def betti(self) -> BettiTable:
        return BettiTable(self.f, tuple(tuple(sorted(s)) for s in self.shifts))

    def complete(self, imax: int) -> bool | None:
        """`next_kernel_empty` of a resolution out to index imax, when the
        window certifies it: a quotient shown finite needs dmax at or above
        the degree bound of level imax + 1, or the answer is None.  For a
        quotient not shown finite, the in-window answer as it stands."""
        if self.top_degree is None or self.dmax >= _generator_bound(
            self.top_degree, imax + 1, self.f
        ):
            return self.next_kernel_empty
        return None


def minimal_resolution(gens, imax: int, dmax: int, p: int, f: int) -> Resolution:
    """Minimal graded free resolution of the cyclic quotient by the left
    ideal the generators span, out to homological index imax and internal
    degree dmax.  The generators must belong to the algebra with f indices
    over F_p.  The presentation is level 0 of the slice loop: a given
    generator is kept as given unless the multiples of those kept before
    it reach it, and only generators of degree at most dmax are found.
    One more level is resolved to tell whether the resolution ends at
    imax within the window.  When the window shows the quotient finite,
    its top degree is recorded and bounds the degrees resolved."""
    given: dict[Shift, list[PbwElement]] = {}
    # the candidates of one shift are tried in the order of their sorted terms
    for g in sorted(gens, key=lambda g: sorted(g.terms)):
        if (g.f, g.p) != (f, p):
            raise ValueError(
                f"generator of the algebra with f={g.f}, p={g.p}, not f={f}, p={p}"
            )
        if g.terms:
            if g.degree == 0:
                raise ValueError("unit ideal: zero module has no minimal resolution")
            given.setdefault((g.degree, g.char), []).append(g)
    next_empty: bool | None = None if given else True
    shifts: list[tuple[Shift, ...]] = [((0, (0,) * f),)]
    maps: list[tuple[tuple[PbwElement, ...], ...]] = []
    top_degree = None
    if imax >= 1:
        levels, top_degree = _resolve_slices(given, imax + 1, dmax, f, p)
        for level in levels[:imax]:
            if not level:
                break
            # a vector has one component per generator found before it;
            # pad it to the whole level below
            width = len(shifts[-1])
            shifts.append(tuple(sh for sh, _ in level))
            maps.append(
                tuple(
                    vec + tuple(PbwElement.zero(f, p) for _ in range(width - len(vec)))
                    for _, vec in level
                )
            )
        # a kernel with no new generator in-window ends the resolution; a
        # window below every generator of the presentation leaves it open
        if levels[0]:
            next_empty = len(shifts) <= imax or not levels[imax]
    return Resolution(
        f, p, dmax, tuple(shifts), tuple(maps), next_empty, top_degree
    )


# Symmetry classes one verify run resolves: at f = 2 the four factor
# classes (Y and YZ, plain and cube-deformed; Z is the twist of Y) and the
# three plain two-index classes (Y Y, Y YZ, YZ YZ), which the dual check
# and the tor suite share in the default window; a tor suite in another
# window adds its classes, and reads nothing they evict again.  Bounded,
# so that a process running many configs holds no more than one run's
# resolutions; their rechecks, of the four factor classes in a run, share
# the bound.
_MEMO_SIZE = 7


def _symmetry_class(
    tags: tuple[str, ...],
) -> tuple[tuple[str, ...], tuple[int, ...], frozenset[int]]:
    """Representative of the tag pattern's class under index permutations
    and the twists sigma_j (y_j <-> z_j, h_j -> -h_j), which fix the tag
    YZ and the cubes and swap Y with Z: every Z becomes Y, then the
    indices are sorted stably by tag.  Also returns the automorphism that
    carries the representative's quotient to the pattern's: index j of
    the pattern reads index read[j] of the representative, then sigma_j
    acts at every j in flips."""
    plain = tuple("Y" if t == "Z" else t for t in tags)
    order = sorted(range(len(tags)), key=plain.__getitem__)
    read = tuple(order.index(j) for j in range(len(tags)))
    flips = frozenset(j for j, t in enumerate(tags) if t == "Z")
    return tuple(plain[j] for j in order), read, flips


def _twist_table(
    table: BettiTable, read: tuple[int, ...], flips: frozenset[int]
) -> BettiTable:
    """The table's image under the automorphism of `_symmetry_class`: an
    automorphism keeps degrees and exactness, moves the character
    components with the indices and negates the flipped ones."""

    def shift(sh: Shift) -> Shift:
        e, u = sh
        return e, tuple(-u[i] if j in flips else u[i] for j, i in enumerate(read))

    return BettiTable(
        table.f, tuple(tuple(sorted(map(shift, row))) for row in table.rows)
    )


@dataclass(frozen=True)
class ModuleTor:
    """The Betti table of one tag pattern's quotient in one window, and
    whether the window certifies it complete (`Resolution.complete`)."""

    table: BettiTable
    complete: bool | None
    # (representative, with_in, p, dmax) of the resolution read
    source: tuple[tuple[str, ...], bool, int, int]

    @property
    def verified(self) -> bool:
        """The exactness recheck of the class representative's
        resolution, made once per process for each class and window."""
        return _verified(*self.source)


def module_resolution(
    tags: tuple[str, ...], with_in: bool, p: int, dmax: int | None = None
) -> ModuleTor:
    """Betti table of the quotient for one tag pattern, out to index 2f
    for the plain quotients and 3f for the cube-deformed ones, and to
    internal degree dmax.  The default window holds every reference
    table: degree 4f + 2 for the plain quotients, and for the
    cube-deformed ones, which end in degree t = 2f, the bound
    t + D_(3f+1) = 6f that certifies `complete`.  Resolved once per
    process for each symmetry class and window, an explicit window equal
    to the default included, and the representative's table carried to
    the pattern by the automorphism between them."""
    tags = tuple(tags)
    f = len(tags)
    if dmax is None:
        dmax = 6 * f if with_in else 4 * f + 2
    rep, read, flips = _symmetry_class(tags)
    res = _module_resolution(rep, with_in, p, dmax)
    return ModuleTor(
        _twist_table(res.betti(), read, flips),
        res.complete(3 * f if with_in else 2 * f),
        (rep, with_in, p, dmax),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _module_resolution(
    tags: tuple[str, ...], with_in: bool, p: int, dmax: int
) -> Resolution:
    f = len(tags)
    imax = 3 * f if with_in else 2 * f
    return minimal_resolution(module_generators(tags, with_in, p), imax, dmax, p, f)


@lru_cache(maxsize=_MEMO_SIZE)
def _verified(tags: tuple[str, ...], with_in: bool, p: int, dmax: int) -> bool:
    return verify_resolution(_module_resolution(tags, with_in, p, dmax))


def verify_resolution(res: Resolution) -> bool:
    """Independent exactness recheck: every vector has one component per
    target generator, every map is homogeneous, with no nonzero component
    between generators of equal shift, consecutive maps compose to zero
    symbolically, and slice ranks match kernel dimensions up to dmax."""
    f, p = res.f, res.p
    if len(res.maps) != len(res.shifts) - 1 or any(
        len(vecs) != len(res.shifts[i + 1])
        or any(len(vec) != len(res.shifts[i]) for vec in vecs)
        for i, vecs in enumerate(res.maps)
    ):
        return False
    # homogeneous and minimal: no shift has negative degree, and every term
    # of a component from a generator of shift (e, u) to one of shift
    # (e', u') has degree e - e' > 0 and character u - u'.  A nonzero
    # component between equal shifts would be a scalar, and the ranks no
    # Betti numbers.  Then every key of a slice up to dmax has exponents
    # at most dmax, which the packed keys of `_PackedMap` need.
    if any(e < 0 for row in res.shifts for e, _ in row) or any(
        e == te or key_degree(key) != e - te or key_char(key) != _sub_char(u, tu)
        for i, vecs in enumerate(res.maps)
        for (e, u), vec in zip(res.shifts[i + 1], vecs)
        for c, (te, tu) in zip(vec, res.shifts[i])
        for key in c.terms
    ):
        return False
    for i in range(1, len(res.maps)):
        upper, lower = res.maps[i], res.maps[i - 1]
        width = len(res.shifts[i - 1])
        for vec in upper:
            acc = [PbwElement.zero(f, p) for _ in range(width)]
            for s, coeff in enumerate(vec):
                if not coeff.terms:
                    continue
                for k in range(width):
                    acc[k] = acc[k] + coeff * lower[s][k]
            if any(a.terms for a in acc):
                return False
    # (rank, column count) of maps[i] on each slice; map i is the upper
    # map at index i and the lower one at index i + 1
    ranks: dict[tuple[int, int, CharVec], tuple[int, int]] = {}
    packed_maps: dict[int, _PackedMap] = {}

    def slice_rank(i: int, deg: int, w: CharVec) -> tuple[int, int]:
        if (i, deg, w) not in ranks:
            if i not in packed_maps:
                packed_maps[i] = _PackedMap(res.dmax, f, p)
            pm = packed_maps[i]
            index = pm.index(res.shifts[i], deg, w)
            cols = pm.columns(zip(res.shifts[i + 1], res.maps[i]), deg, w, index)
            # a matrix and its transpose have the same rank
            ranks[(i, deg, w)] = rank_mod(cols, p), len(cols)
        return ranks[(i, deg, w)]

    for i in range(1, len(res.maps)):
        for deg in range(res.dmax + 1):
            for w in _char_candidates(res.shifts[i], deg, f):
                low, nmid = slice_rank(i - 1, deg, w)
                if nmid and slice_rank(i, deg, w)[0] != nmid - low:
                    return False
        # map i - 1 is done with
        packed_maps.pop(i - 1, None)
    return True


# Exponent of the power quotients: the cube-deformed modules add y**CUBE
# and z**CUBE at every index.
CUBE = 3


# Per-factor generator patterns: Y and Z mark the surviving variable of
# the degree-one pair; YZ keeps the product.  The generators need not be
# minimal: `minimal_resolution` keeps only those the others do not reach.
def module_generators(tags, with_in: bool, p: int) -> list[PbwElement]:
    tags = tuple(tags)
    f = len(tags)
    gens: list[PbwElement] = []
    for j, t in enumerate(tags):
        if t == "Y":
            gens.append(PbwElement.gen_y(j, f, p))
        elif t == "Z":
            gens.append(PbwElement.gen_z(j, f, p))
        elif t == "YZ":
            gens.append(PbwElement.gen_y(j, f, p) * PbwElement.gen_z(j, f, p))
        else:
            raise ValueError(f"unknown tag {t!r}")
        gens.append(PbwElement.gen_h(j, f, p))
    if with_in:
        for j in range(f):
            gens.append(PbwElement.gen_y(j, f, p, CUBE))
            gens.append(PbwElement.gen_z(j, f, p, CUBE))
    return gens


_Y, _Z, _YZ = "Y", "Z", "YZ"

# Reference single-factor tables; characters are 1-tuples of the
# y-minus-z weight.
EXPECTED_FACTOR_TABLES: dict[tuple[str, bool], tuple[tuple[Shift, ...], ...]] = {
    (_Y, False): (
        ((0, (0,)),),
        ((1, (1,)), (2, (0,))),
        ((3, (1,)),),
    ),
    (_Z, False): (
        ((0, (0,)),),
        ((1, (-1,)), (2, (0,))),
        ((3, (-1,)),),
    ),
    (_YZ, False): (
        ((0, (0,)),),
        ((2, (0,)), (2, (0,))),
        ((4, (0,)),),
    ),
    (_Y, True): (
        ((0, (0,)),),
        ((1, (1,)), (2, (0,)), (3, (-3,))),
        ((3, (1,)), (4, (-2,)), (5, (-3,))),
        ((6, (-2,)),),
    ),
    (_Z, True): (
        ((0, (0,)),),
        ((1, (-1,)), (2, (0,)), (3, (3,))),
        ((3, (-1,)), (4, (2,)), (5, (3,))),
        ((6, (2,)),),
    ),
    (_YZ, True): (
        ((0, (0,)),),
        ((2, (0,)), (2, (0,)), (3, (-3,)), (3, (3,))),
        ((4, (-2,)), (4, (0,)), (4, (2,)), (5, (-3,)), (5, (3,))),
        ((6, (-2,)), (6, (2,))),
    ),
}


def expected_factor_table(t: str, with_in: bool) -> BettiTable:
    """Reference single-factor Betti table."""
    return BettiTable(1, EXPECTED_FACTOR_TABLES[(t, with_in)])


def expected_table(tags, with_in: bool) -> BettiTable:
    """Reference table for a product module, one factor per tag."""
    return kunneth_table([expected_factor_table(t, with_in) for t in tags])
