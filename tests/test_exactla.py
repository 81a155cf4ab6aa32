from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qsl2 import Cyclotomic, ExactMatrix, nullspace, rref

F = Fraction


def _c(order, fr):
    return Cyclotomic.from_rational(order, F(fr))


def _sparse(order, dense):
    """Dict rows from a dense list of lists of Cyclotomic, zeros dropped."""
    return ExactMatrix.from_rows(order, len(dense[0]), [{j: e for j, e in enumerate(row) if not e.is_zero()}
                                                        for row in dense])


def _matrix(order, dense):
    return _sparse(order, [[_c(order, v) for v in row] for row in dense])


def _times(m, v):
    """m * v for a sparse vector v {column: value}, as one Cyclotomic per row."""
    zero = Cyclotomic.zero(m.order)
    out = []
    for row in m.rows:
        acc = zero
        for j, e in row.items():
            if j in v:
                acc = acc + e * v[j]
        out.append(acc)
    return out


def test_rref_known_matrix():
    m = _matrix(4, [[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == (0, 2)
    assert reduced.rows == ({0: _c(4, 1), 1: _c(4, 2)}, {2: _c(4, 1)}, {})
    assert (reduced.nrows, reduced.ncols) == (3, 3)


def test_solve_over_a_genuinely_complex_field():
    # x + i y = 1+i, i x + y = 1+i: determinant 2, unique solution (1, 1);
    # the augmented matrix reduces to [[1, 0, 1], [0, 1, 1]]
    order = 4
    i = Cyclotomic.zeta(order)
    one = Cyclotomic.one(order)
    m = ExactMatrix.from_rows(order, 3, [{0: one, 1: i, 2: one + i}, {0: i, 1: one, 2: one + i}])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert reduced.rows == ({0: one, 2: one}, {1: one, 2: one})
    assert nullspace(m) == [{2: one, 0: -one, 1: -one}]


def test_nullspace_rank_one():
    order = 4
    i = Cyclotomic.zeta(order)
    one = Cyclotomic.one(order)
    m = ExactMatrix.from_rows(order, 2, [{0: one, 1: i}, {0: i, 1: -one}])  # row2 = i * row1
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert (one * v.get(0, 0) + i * v.get(1, 0)).is_zero()


def test_from_rows_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(4, 1, [{0: _c(4, 1)}, {0: _c(4, 1), 1: _c(4, 2)}])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(4, 1, [{0: _c(3, 1)}])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(4, 1, [{0: _c(4, 0)}])


def _small_matrices(order=5):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=2, max_size=4,
    ).map(lambda rows: _matrix(order, rows))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_rank_nullity_and_kernel(data):
    m = data.draw(_small_matrices())
    _, pivots = rref(m)
    kernel = nullspace(m)
    assert len(pivots) + len(kernel) == m.ncols
    for v in kernel:
        assert all(e.is_zero() for e in _times(m, v))


def _dense_rref(dense):
    # reference: the whole-row Gauss-Jordan update on dense rows, zero entries included
    rows = [list(r) for r in dense]
    nrows, ncols = len(rows), len(rows[0])
    pivots, prow = [], 0
    for col in range(ncols):
        hit = next((i for i in range(prow, nrows) if not rows[i][col].is_zero()), None)
        if hit is None:
            continue
        rows[prow], rows[hit] = rows[hit], rows[prow]
        inv = rows[prow][col].inv()
        rows[prow] = [e * inv for e in rows[prow]]
        for i in range(nrows):
            if i != prow:
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[prow])]
        pivots.append(col)
        prow += 1
    return rows, tuple(pivots)


def _sparse_cells(data):
    """A random mostly-zero matrix: (order, dense rows of Cyclotomic)."""
    order = data.draw(st.sampled_from((5, 8, 12)))
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 7)))
    # mostly zeros, the rest small multiples of powers of zeta
    entry = st.one_of(st.just(None), st.just(None), st.tuples(st.integers(-3, 3), st.integers(0, order - 1)))
    cells = data.draw(st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))
    return order, [[Cyclotomic.zero(order) if e is None else Cyclotomic.zeta(order, e[1]) * e[0]
                    for e in row] for row in cells]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_rref_matches_dense_reference(data):
    order, dense = _sparse_cells(data)
    reduced, pivots = rref(_sparse(order, dense))
    rows, ref_pivots = _dense_rref(dense)
    assert pivots == ref_pivots
    assert reduced.rows == _sparse(order, rows).rows


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_row_order_does_not_change_the_reduced_form(data):
    # the pivot row is the sparsest candidate, so a permutation changes which
    # rows pivot; the reduced form is unique and must not change
    order, dense = _sparse_cells(data)
    shuffled = data.draw(st.permutations(dense))
    reduced, pivots = rref(_sparse(order, dense))
    reduced2, pivots2 = rref(_sparse(order, shuffled))
    assert pivots2 == pivots
    assert [r for r in reduced2.rows if r] == [r for r in reduced.rows if r]
