from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qsl2 import Cyclotomic, ExactMatrix, nullspace, rref, solve

F = Fraction


def _c(order, fr):
    return Cyclotomic.from_rational(order, F(fr))


def _matrix(order, rows):
    return ExactMatrix.from_rows(order, [[_c(order, v) for v in row] for row in rows])


def test_rref_known_matrix():
    m = _matrix(4, [[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == (0, 2)
    assert reduced.at(0, 0).is_one() and reduced.at(0, 1) == _c(4, 2)
    assert reduced.at(0, 2).is_zero() and reduced.at(1, 2).is_one()
    assert all(reduced.at(2, j).is_zero() for j in range(3))


def test_solve_consistent_and_inconsistent():
    m = _matrix(4, [[1, 1], [0, 1]])
    sol = solve(m, [_c(4, 3), _c(4, 1)])
    assert sol == [_c(4, 2), _c(4, 1)]
    m2 = _matrix(4, [[1, 1], [2, 2]])
    assert solve(m2, [_c(4, 1), _c(4, 3)]) is None
    assert solve(m2, [_c(4, 1), _c(4, 2)]) is not None
    with pytest.raises(ValueError):
        solve(m, [_c(4, 1)])


def test_solve_over_a_genuinely_complex_field():
    # x + i y = 1+i, i x + y = 1+i: determinant 2, unique solution (1, 1)
    order = 4
    i = Cyclotomic.zeta(order)
    one = Cyclotomic.one(order)
    m = ExactMatrix.from_rows(order, [[one, i], [i, one]])
    sol = solve(m, [one + i, one + i])
    assert sol == [one, one]


def test_nullspace_rank_one():
    order = 4
    i = Cyclotomic.zeta(order)
    one = Cyclotomic.one(order)
    m = ExactMatrix.from_rows(order, [[one, i], [i, -one]])  # row2 = i * row1
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert (one * v[0] + i * v[1]).is_zero()


def test_from_rows_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(4, [[_c(4, 1)], [_c(4, 1), _c(4, 2)]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(4, [[_c(3, 1)]])


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
    zero = Cyclotomic.zero(m.order)
    for v in kernel:
        for r in range(m.nrows):
            acc = zero
            for j in range(m.ncols):
                acc = acc + m.at(r, j) * v[j]
            assert acc.is_zero()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_solve_returns_actual_solutions(data):
    m = data.draw(_small_matrices())
    xs = [_c(m.order, data.draw(st.integers(-3, 3))) for _ in range(m.ncols)]
    rhs = []
    for r in range(m.nrows):
        acc = Cyclotomic.zero(m.order)
        for j in range(m.ncols):
            acc = acc + m.at(r, j) * xs[j]
        rhs.append(acc)
    sol = solve(m, rhs)
    assert sol is not None
    for r in range(m.nrows):
        acc = Cyclotomic.zero(m.order)
        for j in range(m.ncols):
            acc = acc + m.at(r, j) * sol[j]
        assert acc == rhs[r]


def _dense_rref(m):
    # reference: the whole-row Gauss-Jordan update, zero entries included
    rows = [list(r) for r in m.entries]
    pivots, prow = [], 0
    for col in range(m.ncols):
        hit = next((i for i in range(prow, m.nrows) if not rows[i][col].is_zero()), None)
        if hit is None:
            continue
        rows[prow], rows[hit] = rows[hit], rows[prow]
        inv = rows[prow][col].inv()
        rows[prow] = [e * inv for e in rows[prow]]
        for i in range(m.nrows):
            if i != prow:
                f = rows[i][col]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[prow])]
        pivots.append(col)
        prow += 1
    return rows, tuple(pivots)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_rref_matches_dense_reference(data):
    order = data.draw(st.sampled_from((5, 8, 12)))
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 7)))
    # mostly zeros, the rest small multiples of powers of zeta
    entry = st.one_of(st.just(None), st.just(None), st.tuples(st.integers(-3, 3), st.integers(0, order - 1)))
    cells = data.draw(st.lists(st.lists(entry, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))
    m = ExactMatrix.from_rows(order, [
        [Cyclotomic.zero(order) if e is None else Cyclotomic.zeta(order, e[1]) * e[0] for e in row]
        for row in cells
    ])
    reduced, pivots = rref(m)
    rows, ref_pivots = _dense_rref(m)
    assert pivots == ref_pivots
    assert [list(r) for r in reduced.entries] == rows
