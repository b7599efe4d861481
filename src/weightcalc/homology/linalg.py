"""Exact sparse linear algebra over prime fields.

A row is a dict {column: coefficient} of Python ints, so the arithmetic
is exact for every prime.  The slice matrices of the resolution engine
are a few percent nonzero, and the Koszul boundary matrices are small,
so one incremental sparse reducer (structured Gaussian elimination, as
in Faugere and Lachartre, PASCO 2010) serves every rank, kernel and
span computation.  The reducer keeps an echelon form, not a reduced
one: adding a row never rewrites the rows already stored.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

Row = dict[int, int]


class RowSpan:
    """Span of rows over F_p, kept in echelon form: each row is keyed by
    its least column, its pivot, and has a 1 there.  Stored rows are never
    rewritten.  A row added with a combination also stores that
    combination, for `reduce` to carry."""

    def __init__(self, p: int, rows=()):
        self.p = p
        self.rows: dict[int, Row] = {}
        self.combos: dict[int, Row] = {}
        for row in rows:
            self.add(row)

    def reduce(self, v, combo: Row | None = None) -> Row:
        """Remainder of v modulo the span, zero on every pivot column; v is
        a dict or a dense list.  Given the combination v stands for, the
        combinations of the rows subtracted from v are subtracted from it
        in place."""
        p, rows = self.p, self.rows
        items = v.items() if isinstance(v, dict) else enumerate(v)
        out = {c: x % p for c, x in items if x % p}
        # a stored row has entries only right of its pivot, so clearing the
        # pivot columns in increasing order never refills a cleared one
        heap = [c for c in out if c in rows]
        heapify(heap)
        while heap:
            c = heappop(heap)
            coef = out.get(c)
            if not coef:
                continue
            for k, x in rows[c].items():
                y = out.get(k)
                if y is None:
                    out[k] = -coef * x % p
                    if k in rows:
                        heappush(heap, k)
                else:
                    y = (y - coef * x) % p
                    if y:
                        out[k] = y
                    else:
                        del out[k]
            if combo is not None:
                for k, x in self.combos[c].items():
                    y = (combo.get(k, 0) - coef * x) % p
                    if y:
                        combo[k] = y
                    else:
                        del combo[k]
        return out

    def add(self, v, combo: Row | None = None) -> Row | None:
        """Reduce v; if independent, store it normalized and return it,
        else return None.  Given the combination v stands for, it is
        reduced alongside v in place, and stored with v if v is kept."""
        v = self.reduce(v, combo)
        if not v:
            return None
        p = self.p
        lead = min(v)
        inv = pow(v[lead], -1, p)
        if inv != 1:
            v = {c: x * inv % p for c, x in v.items()}
        self.rows[lead] = v
        if combo is not None:
            self.combos[lead] = {k: x * inv % p for k, x in combo.items()}
        return v

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_mod(rows, p: int) -> int:
    """Rank over F_p of a matrix given as sparse or dense rows."""
    return RowSpan(p, rows).rank


def span_and_kernel(vectors: list, p: int) -> tuple[RowSpan, list[Row]]:
    """Span of the vectors, added in order, and one dependency per vector
    that reduces to zero: 1 at its own index and other entries only at
    earlier independent indices.  These are the unique reduced basis of
    the kernel of the matrix whose columns are the vectors, ordered by
    the free columns."""
    span = RowSpan(p)
    deps = []
    for i, v in enumerate(vectors):
        combo = {i: 1}
        if span.add(v, combo) is None:
            deps.append(combo)
    return span, deps


def nullspace_mod(rows, ncols: int, p: int) -> list[Row]:
    """Basis of the right kernel, one sparse vector per free column in
    increasing order; the reduced basis is unique, so this one is too."""
    cols: list[Row] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items() if isinstance(row, dict) else enumerate(row):
            if x % p:
                cols[c][r] = x % p
    return span_and_kernel(cols, p)[1]
