"""Dense exact linear algebra over a fixed cyclotomic field.

Small systems only; everything is Gauss-Jordan with exact arithmetic and
no pivoting heuristics beyond first-nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Cyclotomic


@dataclass(frozen=True)
class ExactMatrix:
    order: int
    nrows: int
    ncols: int
    entries: tuple  # tuple of row tuples of Cyclotomic

    @classmethod
    def from_rows(cls, order: int, rows) -> "ExactMatrix":
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, Cyclotomic) or e.order != order:
                    raise ValueError("entry of wrong field")
        return cls(order, len(rows), ncols, rows)

    def row(self, i: int):
        return self.entries[i]

    def at(self, i: int, j: int) -> Cyclotomic:
        return self.entries[i][j]


def rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in m.entries]
    pivots = []
    prow = 0
    for col in range(m.ncols):
        if prow >= m.nrows:
            break
        hit = None
        for i in range(prow, m.nrows):
            if not rows[i][col].is_zero():
                hit = i
                break
        if hit is None:
            continue
        rows[prow], rows[hit] = rows[hit], rows[prow]
        inv = rows[prow][col].inv()
        pivot = rows[prow] = [e if e.is_zero() else e * inv for e in rows[prow]]
        # the pivot row is sparse: update only the columns where it is nonzero
        support = [(j, p) for j, p in enumerate(pivot) if not p.is_zero()]
        for i in range(m.nrows):
            if i != prow and not rows[i][col].is_zero():
                row = rows[i]
                f = row[col]
                for j, p in support:
                    row[j] = row[j] - f * p
        pivots.append(col)
        prow += 1
    return ExactMatrix.from_rows(m.order, rows), tuple(pivots)


def solve(m: ExactMatrix, rhs) -> list[Cyclotomic] | None:
    """One solution of m*x = rhs with free variables at zero, or None."""
    rhs = list(rhs)
    if len(rhs) != m.nrows:
        raise ValueError("rhs length %d does not match %d rows" % (len(rhs), m.nrows))
    if m.nrows == 0:
        return [Cyclotomic.zero(m.order)] * m.ncols
    aug = ExactMatrix.from_rows(m.order, [list(r) + [v] for r, v in zip(m.entries, rhs)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [Cyclotomic.zero(m.order) for _ in range(m.ncols)]
    for i, col in enumerate(pivots):
        x[col] = red.at(i, m.ncols)
    return x


def nullspace(m: ExactMatrix) -> list[list[Cyclotomic]]:
    """A basis of the kernel of m."""
    red, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    zero = Cyclotomic.zero(m.order)
    one = Cyclotomic.one(m.order)
    for f in free:
        v = [zero] * m.ncols
        v[f] = one
        for i, col in enumerate(pivots):
            v[col] = -red.at(i, f)
        basis.append(v)
    return basis
