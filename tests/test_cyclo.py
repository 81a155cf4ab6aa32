from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qsl2 import (
    Cyclotomic,
    cyclotomic_from_json,
    cyclotomic_polynomial,
    euler_phi,
    make_root_spec,
    p_coeff,
    p_expansion,
    remark_root_spec,
    root_spec_from_json,
    root_spec_to_json,
    zeta_pow,
)

F = Fraction


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(3) == (F(1), F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert cyclotomic_polynomial(12) == (F(1), F(0), F(-1), F(0), F(1))


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6, 8, 12)] == [1, 1, 2, 2, 4, 2, 4, 4]
    for n in (3, 4, 5, 12):
        assert len(Cyclotomic.zeta(n).coeffs) == euler_phi(n)


def test_zeta_is_a_primitive_root():
    for n in (3, 4, 5, 6, 12):
        z = Cyclotomic.zeta(n)
        acc = Cyclotomic.one(n)
        seen = set()
        for _ in range(n):
            seen.add(acc.coeffs)
            acc = acc * z
        assert acc == Cyclotomic.one(n)
        assert len(seen) == n


def _elements(order, span=4):
    return st.lists(st.integers(-span, span), min_size=1, max_size=3).map(
        lambda ks: _from_ints(order, ks)
    )


def _from_ints(order, ks):
    z = Cyclotomic.zero(order)
    term = Cyclotomic.one(order)
    zeta = Cyclotomic.zeta(order)
    for k in ks:
        z = z + term * F(k)
        term = term * zeta
    return z


@given(st.data())
@settings(max_examples=40)
def test_field_axioms(data):
    order = data.draw(st.sampled_from((3, 4, 5, 12)))
    x = data.draw(_elements(order))
    y = data.draw(_elements(order))
    w = data.draw(_elements(order))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * w == x * w + y * w
    assert (x * y) * w == x * (y * w)
    assert x - x == Cyclotomic.zero(order)


@given(st.data())
@settings(max_examples=40)
def test_inverse(data):
    order = data.draw(st.sampled_from((3, 4, 5, 12)))
    x = data.draw(_elements(order).filter(lambda z: not z.is_zero()))
    assert x * x.inv() == Cyclotomic.one(order)
    assert (x.inv()).inv() == x


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(4).inv()


def test_rational_embedding():
    z = Cyclotomic.from_rational(5, F(3, 7))
    assert z.as_rational() == F(3, 7)
    assert Cyclotomic.one(5).is_one()
    assert Cyclotomic.zero(5).is_zero()
    assert Cyclotomic.zeta(5).as_rational() is None
    assert Cyclotomic.from_rational(3, F(2)) == F(2)
    assert Cyclotomic.from_rational(3, F(2)) == 2


def test_json_roundtrip():
    spec = make_root_spec(5)
    z = zeta_pow(spec, 3) * F(5, 6) + Cyclotomic.one(5)
    doc = z.to_json()
    assert doc["order"] == 5
    assert all(isinstance(s, str) for s in doc["coeffs"])
    assert cyclotomic_from_json(doc) == z


def test_make_root_spec():
    assert (make_root_spec(3).N, make_root_spec(3).parity_case) == (3, "odd")
    assert (make_root_spec(2).N, make_root_spec(2).parity_case) == (4, "even")
    assert make_root_spec(5).N == 5
    assert make_root_spec(4).N == 8
    assert make_root_spec(5, zeta_exponent=2).zeta_exponent == 2
    for bad in (lambda: make_root_spec(1), lambda: make_root_spec(4, zeta_exponent=2)):
        with pytest.raises(ValueError):
            bad()


def test_remark_root_spec():
    spec = remark_root_spec(3)
    assert (spec.l, spec.N, spec.standard) == (3, 6, False)
    with pytest.raises(ValueError):
        remark_root_spec(2)


def test_root_spec_json_roundtrip():
    for spec in (make_root_spec(2), make_root_spec(5, zeta_exponent=3), remark_root_spec(5)):
        assert root_spec_from_json(root_spec_to_json(spec)) == spec


def test_zeta_pow_periodicity():
    spec = make_root_spec(3)
    assert zeta_pow(spec, 0).is_one()
    assert zeta_pow(spec, spec.N).is_one()
    assert zeta_pow(spec, -1) * zeta_pow(spec, 1) == Cyclotomic.one(3)
    spec2 = make_root_spec(5, zeta_exponent=2)
    assert zeta_pow(spec2, 1) == Cyclotomic.zeta(5) * Cyclotomic.zeta(5)


def _expand_row(spec, k, inverse=False):
    # independent expansion of prod_{j=1..k} (1 + q^(2j-1) x), as a plain list
    row = [Cyclotomic.one(spec.N)]
    for j in range(1, k + 1):
        e = 1 - 2 * j if inverse else 2 * j - 1
        scale = zeta_pow(spec, e)
        nxt = row + [Cyclotomic.zero(spec.N)]
        for t, v in enumerate(row):
            nxt[t + 1] = nxt[t + 1] + v * scale
        row = nxt
    return row


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_p_expansion_matches_oracle(l):
    spec = make_root_spec(l)
    for k in range(l + 1):
        for inverse in (False, True):
            assert list(p_expansion(spec, k, inverse)) == _expand_row(spec, k, inverse)


@pytest.mark.parametrize("l", [2, 3, 5])
def test_p_coeff_closed_form(l):
    for spec in (make_root_spec(l), make_root_spec(l, zeta_exponent=l - 1 if l > 2 else 3)):
        for k in range(l + 1):
            row = p_expansion(spec, k)
            for j in range(k + 1):
                assert p_coeff(spec, k, j) == row[j]
        assert p_coeff(spec, l, 0).is_one()
        for j in range(1, l):
            assert p_coeff(spec, l, j).is_zero()


def test_p_coeff_domain():
    spec = make_root_spec(3)
    with pytest.raises(ValueError):
        p_coeff(spec, 2, 3)
    with pytest.raises(ValueError):
        p_coeff(spec, 4, 0)  # closed form only defined up to k = l

