"""Exact sparse linear algebra over prime fields.

A row is a dict {column: coefficient} of Python ints, so the arithmetic
is exact for every prime.  The slice matrices of the resolution engine
are a few percent nonzero, and the Taylor boundary matrices are small,
so one incremental sparse reducer (structured Gaussian elimination, as
in Faugere and Lachartre, PASCO 2010) serves every rank, kernel and
span computation.
"""

from __future__ import annotations

Row = dict[int, int]


class RowSpan:
    """Span of rows over F_p, kept in reduced row echelon form: rows are
    keyed by pivot column, each has a 1 there, and no other row has an
    entry in that column.  Stored rows are replaced, never mutated."""

    def __init__(self, p: int, rows=()):
        self.p = p
        self.rows: dict[int, Row] = {}
        for row in rows:
            self.add(row)

    def reduce(self, v) -> Row:
        """Remainder of v modulo the span; v is a dict or a dense list."""
        p = self.p
        items = v.items() if isinstance(v, dict) else enumerate(v)
        out = {c: x % p for c, x in items if x % p}
        # a stored row is zero on every other pivot column, so one pass
        # over the pivot columns present in v clears them all
        for c in [c for c in out if c in self.rows]:
            coef = out[c]
            for k, x in self.rows[c].items():
                y = (out.get(k, 0) - coef * x) % p
                if y:
                    out[k] = y
                else:
                    del out[k]
        return out

    def add(self, v) -> Row | None:
        """Reduce v; if independent, store it normalized, clear its pivot
        column from the other rows and return it, else return None."""
        v = self.reduce(v)
        if not v:
            return None
        p = self.p
        lead = min(v)
        inv = pow(v[lead], -1, p)
        if inv != 1:
            v = {c: x * inv % p for c, x in v.items()}
        for c, row in self.rows.items():
            coef = row.get(lead)
            if coef:
                new = dict(row)
                for k, x in v.items():
                    y = (new.get(k, 0) - coef * x) % p
                    if y:
                        new[k] = y
                    else:
                        del new[k]
                self.rows[c] = new
        self.rows[lead] = v
        return v

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_mod(rows, p: int) -> int:
    """Rank over F_p of a matrix given as sparse or dense rows."""
    return RowSpan(p, rows).rank


def nullspace_mod(rows, ncols: int, p: int) -> list[Row]:
    """Basis of the right kernel, one sparse vector per free column in
    increasing order; the RREF is unique, so the basis is too."""
    span = RowSpan(p, rows)
    basis = {c: {c: 1} for c in range(ncols) if c not in span.rows}
    for pc, row in span.rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x % p
    return list(basis.values())
