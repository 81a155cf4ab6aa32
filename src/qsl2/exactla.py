"""Sparse exact linear algebra over a fixed cyclotomic field.

A matrix is a tuple of rows, each a dict {column: nonzero Cyclotomic};
zero entries are never stored.  rref is Gauss-Jordan elimination with
exact arithmetic that touches only stored entries.  Among the rows that
can pivot a column it takes the one with the fewest entries (Markowitz,
1957) to limit fill-in; the reduced form is unique, so the choice changes
no result.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import Cyclotomic


class ExactMatrix(namedtuple("ExactMatrix", "order ncols rows")):
    """An ncols-column matrix over Q(zeta_order).

    rows holds one dict {column: nonzero Cyclotomic} per row.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, order: int, ncols: int, rows) -> "ExactMatrix":
        """A matrix from dict rows, checking every stored entry."""
        rows = tuple(dict(r) for r in rows)
        for r in rows:
            for j, v in r.items():
                if not (isinstance(j, int) and 0 <= j < ncols):
                    raise ValueError("column %r out of range for %d columns" % (j, ncols))
                if not isinstance(v, Cyclotomic) or v.order != order or v.is_zero():
                    raise ValueError("entry in column %d is not a nonzero element of Q(zeta_%d)"
                                     % (j, order))
        return cls(order, ncols, rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Row i of the reduced matrix is the one that pivots on column
    pivots[i]; the zero rows come last.
    """
    rows = [dict(r) for r in m.rows]
    reduced, pivots = [], []
    one = Cyclotomic.one(m.order)
    for col in range(m.ncols):
        hits = [i for i, r in enumerate(rows) if col in r]
        if not hits:
            continue
        pivot = rows.pop(min(hits, key=lambda i: len(rows[i])))
        inv = pivot.pop(col).inv()
        pivot = {j: v * inv for j, v in pivot.items()}
        for r in rows + reduced:
            f = r.pop(col, None)
            if f is None:
                continue
            f = -f
            for j, v in pivot.items():
                if j in r:
                    w = r[j] + f * v
                    if w.is_zero():
                        del r[j]
                    else:
                        r[j] = w
                else:
                    r[j] = f * v
        pivot[col] = one
        reduced.append(pivot)
        pivots.append(col)
    return ExactMatrix(m.order, m.ncols, tuple(reduced) + ({},) * len(rows)), tuple(pivots)


def nullspace(m: ExactMatrix) -> list[dict[int, Cyclotomic]]:
    """A basis of the kernel of m, one sparse vector {column: value} per free column."""
    red, pivots = rref(m)
    one = Cyclotomic.one(m.order)
    basis = []
    for f in sorted(set(range(m.ncols)) - set(pivots)):
        v = {f: one}
        for row, col in zip(red.rows, pivots):
            if f in row:
                v[col] = -row[f]
        basis.append(v)
    return basis
