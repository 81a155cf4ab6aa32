import json
import math
import pickle
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import qsl2.cyclo
from qsl2 import (
    Cyclotomic,
    RootSpec,
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
from qsl2.cyclo import conjugate, unit_power

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
@settings(max_examples=60, deadline=None)
def test_inverse(data):
    # 15, 16, 20 and 21 are composite orders with phi >= 8, where the norm has 7 or 11 conjugates
    order = data.draw(st.sampled_from((3, 4, 5, 12, 15, 16, 20, 21)))
    x = data.draw(st.one_of(_elements(order), _vectors(order).map(lambda v: Cyclotomic(order, v)))
                  .filter(lambda z: not z.is_zero()))
    assert x.inv().coeffs == tuple(_ref_inv(order, list(x.coeffs)))
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


def test_constructors_take_only_exact_rationals():
    # a float would be read at its binary value, 0.1 as 3602879701896397/2^55, and a
    # string as its characters; both constructors accept int and Fraction, as _coerce does
    assert Cyclotomic(3, [F(1, 2), 2]) == Cyclotomic.from_rational(3, F(1, 2)) + 2 * Cyclotomic.zeta(3)
    assert Cyclotomic.from_rational(3, True) == 1
    for build in (lambda: Cyclotomic.from_rational(3, 0.1), lambda: Cyclotomic.from_rational(3, "1/2"),
                  lambda: Cyclotomic(3, [0.5, 0.1]), lambda: Cyclotomic(3, [1, 0.5]), lambda: Cyclotomic(3, "12")):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            build()


def test_json_roundtrip():
    spec = make_root_spec(5)
    z = zeta_pow(spec, 3) * F(5, 6) + Cyclotomic.one(5)
    doc = z.to_json()
    assert doc["order"] == 5
    assert all(isinstance(s, str) for s in doc["coeffs"])
    assert cyclotomic_from_json(doc) == z


@given(st.data())
@settings(max_examples=60)
def test_json_roundtrip_at_every_small_order(data):
    order = data.draw(st.integers(2, 16))
    coeffs = data.draw(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=30),
                                min_size=euler_phi(order), max_size=euler_phi(order)))
    z = Cyclotomic(order, coeffs)
    back = cyclotomic_from_json(json.loads(json.dumps(z.to_json())), order)
    assert back == z and (back.num, back.den) == (z.num, z.den)


def test_json_reader_takes_only_the_writer_format():
    assert cyclotomic_from_json({"order": 4, "coeffs": ["-3/4", "0"]}) == Cyclotomic(4, [F(-3, 4), 0])
    assert cyclotomic_from_json({"order": 4, "coeffs": ["2/4", "-0"]}) == Cyclotomic(4, [F(1, 2), 0])
    for bad in (0.1, 1, True, None, "1.5", "1e3", "+1", " 1", "1_0", "\u0663", "-", "1/", "/2",
                "1/0", "1/-2", "1/2/3", "0x10"):
        with pytest.raises(ValueError):
            cyclotomic_from_json({"order": 4, "coeffs": [bad, "0"]})
    for coeffs in (["1"], ["1", "0", "0"], "10", {"0": "1"}):
        with pytest.raises(ValueError):
            cyclotomic_from_json({"order": 4, "coeffs": coeffs})


def test_json_reader_names_a_missing_field():
    for doc, field in (({"coeffs": ["1", "0"]}, "'order'"), ({"order": 4}, "'coeffs'")):
        with pytest.raises(ValueError, match="missing field %s" % field):
            cyclotomic_from_json(doc)


def test_readers_do_not_build_the_field():
    # the per-order table costs O(N * phi) to build, so only arithmetic may build it
    fields = qsl2.cyclo._FIELDS
    for order in (77, 85, 91, 10**9):
        assert order not in fields
    Cyclotomic(77, [F(1, 2)] * euler_phi(77))
    euler_phi(85)
    assert cyclotomic_from_json({"order": 91, "coeffs": ["1"] + ["0"] * (euler_phi(91) - 1)}) == 1
    with pytest.raises(ValueError, match="order 1000000000"):
        cyclotomic_from_json({"order": 10**9, "coeffs": []}, 3)
    for order in (77, 85, 91, 10**9):
        assert order not in fields
    assert Cyclotomic.one(77).is_one() and 77 in fields


def test_make_root_spec():
    assert make_root_spec(3) == RootSpec(3, 3, 1)
    assert make_root_spec(2) == RootSpec(2, 4, 1)
    assert make_root_spec(5).N == 5
    assert make_root_spec(4).N == 8
    assert make_root_spec(5, zeta_exponent=2).zeta_exponent == 2
    assert RootSpec(3, 3, 4).zeta_exponent == 1
    # standard is read off (l, N) and cannot be set
    assert [RootSpec(*ln).standard for ln in ((3, 3), (4, 8), (3, 6))] == [True, True, False]
    for bad in (lambda: make_root_spec(1), lambda: make_root_spec(4, zeta_exponent=2),
                lambda: RootSpec(3, 7), lambda: RootSpec(4, 4), lambda: RootSpec(3, 3, 3),
                lambda: RootSpec(1, 2), lambda: root_spec_from_json({"l": 3, "N": 7})):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(ValueError, match="unsupported pair l=3, N=7"):
        RootSpec(3, 7)


def test_remark_root_spec():
    spec = remark_root_spec(3)
    assert (spec.l, spec.N, spec.standard) == (3, 6, False)
    assert spec == RootSpec(3, 6) and pickle.loads(pickle.dumps(spec)) == spec
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
        assert list(p_expansion(spec, k)) == _expand_row(spec, k)
        # the d^k a^k row is q^(-2ks) p_{k,s}
        assert _expand_row(spec, k, inverse=True) == _d_a_row(spec, k)


def _d_a_row(spec, k):
    return [zeta_pow(spec, -2 * k * s) * p for s, p in enumerate(p_expansion(spec, k))]


def _two_add_row(spec, k, inverse):
    # each row added into a fresh list of zeros, two additions per coefficient
    coeffs = [Cyclotomic.one(spec.N)]
    for j in range(1, k + 1):
        f = zeta_pow(spec, (-1 if inverse else 1) * (2 * j - 1))
        nxt = [Cyclotomic.zero(spec.N) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] + c * f
        coeffs = nxt
    return coeffs


@pytest.mark.parametrize("spec", [make_root_spec(2), make_root_spec(3), make_root_spec(4),
                                  make_root_spec(5, zeta_exponent=2)],
                         ids=lambda s: "l%d_e%d" % (s.l, s.zeta_exponent))
def test_p_expansion_matches_the_two_add_construction(spec):
    for k in range(3 * spec.l + 1):
        assert list(p_expansion(spec, k)) == _two_add_row(spec, k, False)
        assert _two_add_row(spec, k, True) == _d_a_row(spec, k)


@pytest.mark.parametrize("l, zeta_exp", [(3, 1), (4, 3), (5, 2), (6, 1), (7, 3)])
def test_p_expansion_matches_the_first_factor_recurrence(l, zeta_exp):
    # peeling the first factor (1 + q x) off the product and rescaling the
    # rest gives p_{k+1,j} = q^(2j) p_{k,j} + q^(2j-1) p_{k,j-1}; the rows
    # the coproduct's Gaussian binomials are read from are checked row by row
    spec = make_root_spec(l, zeta_exponent=zeta_exp)
    zero = Cyclotomic.zero(spec.N)
    row = [Cyclotomic.one(spec.N)]
    for k in range(3 * l):
        row = [zeta_pow(spec, 2 * j) * (row[j] if j <= k else zero)
               + zeta_pow(spec, 2 * j - 1) * (row[j - 1] if j else zero)
               for j in range(k + 2)]
        assert list(p_expansion(spec, k + 1)) == row, k + 1


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


def test_p_coeff_returns_the_zeros_at_k_equal_l_before_any_product():
    # at k = l the factor q^(2l) - 1 vanishes, so p_coeff(l, j) is 0 for 0 < j < l at once
    spec = make_root_spec(101)
    Cyclotomic.one(spec.N)  # the field table is built outside the timed part
    start = time.perf_counter()
    row = [p_coeff(spec, 101, j) for j in range(102)]
    assert time.perf_counter() - start <= 0.3
    assert row[0].is_one() and row[101].is_one()
    assert all(v.is_zero() for v in row[1:101])


def test_p_coeff_domain():
    spec = make_root_spec(3)
    with pytest.raises(ValueError):
        p_coeff(spec, 2, 3)
    with pytest.raises(ValueError):
        p_coeff(spec, 4, 0)  # closed form only defined up to k = l



# --- the integer scalar core, against a Fraction-per-coordinate reference ---

_ORDERS = (3, 4, 5, 8, 12, 14)
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _ref_reduce(N, poly):
    # poly mod Phi_N by long division over Fractions
    phi = cyclotomic_polynomial(N)
    n = len(phi) - 1
    poly = [F(c) for c in poly] + [F(0)] * n
    for k in range(len(poly) - 1, n - 1, -1):
        top = poly[k]
        if top:
            for i, c in enumerate(phi):
                poly[k - n + i] -= top * c
    return poly[:n]


def _ref_mul(N, a, b):
    prod = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(N, prod)


def _ref_inv(N, a):
    # solve (multiplication by a) v = 1 by Gauss-Jordan over Fractions
    n = len(a)
    cols = [_ref_mul(N, a, [F(int(i == j)) for i in range(n)]) for j in range(n)]
    aug = [[cols[j][i] for j in range(n)] + [F(int(i == 0))] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def _assert_canonical(z, N):
    assert z.order == N and len(z.num) == euler_phi(N)
    assert type(z.den) is int and all(type(c) is int for c in z.num)
    assert z.den > 0
    assert math.gcd(z.den, *z.num) == 1  # so zero is stored as (0, ..., 0)/1
    if not any(z.num):
        assert z.den == 1


def _vectors(N):
    n = euler_phi(N)
    return st.lists(_RATIONALS, min_size=n, max_size=n)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_integer_core_matches_fraction_reference(data):
    N = data.draw(st.sampled_from(_ORDERS))
    a, b = data.draw(_vectors(N)), data.draw(_vectors(N))
    s = data.draw(st.one_of(st.integers(-5, 5), _RATIONALS))
    x, y = Cyclotomic(N, a), Cyclotomic(N, b)
    cases = [
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (x - x, [F(0)] * len(a)),
        (-x, [-p for p in a]),
        (x * y, _ref_mul(N, a, b)),
        (x * s, [p * s for p in a]),
        (s * x, [p * s for p in a]),
        (x + s, [a[0] + s] + a[1:]),
        (s - x, [s - a[0]] + [-p for p in a[1:]]),
    ]
    if s:
        cases.append((x / s, [p / s for p in a]))
        cases.append((Cyclotomic.from_rational(N, s).inv(), [1 / F(s)] + [F(0)] * (len(a) - 1)))
    if any(b):
        yinv = _ref_inv(N, b)
        cases += [(y.inv(), yinv), (x / y, _ref_mul(N, a, yinv))]
    for z, ref in cases:
        _assert_canonical(z, N)
        assert z.coeffs == tuple(ref)
        built = Cyclotomic(N, ref)
        assert built == z and hash(built) == hash(z)


def test_constructor_normalises_like_arithmetic():
    # coefficients over a common denominator that is not in lowest terms
    z = Cyclotomic(8, [F(2, 6), F(4, 6), F(0), 2])
    arith = Cyclotomic.one(8) * F(1, 3) + Cyclotomic.zeta(8) * F(2, 3) + Cyclotomic.zeta(8, 3) * 2
    assert (z.num, z.den) == ((1, 2, 0, 6), 3)
    assert z == arith and hash(z) == hash(arith)
    half = Cyclotomic(5, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)]) * 2
    assert (half.num, half.den) == ((1, 1, 1, 1), 1)
    zero = Cyclotomic(5, [F(0, 7)] * 4)
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    assert zero == Cyclotomic.zero(5) == Cyclotomic.zeta(5) - Cyclotomic.zeta(5)
    for w in (z, half, zero):
        _assert_canonical(w, w.order)


def test_hash_agrees_with_equality_for_rationals():
    for order in (3, 8):
        for value in (0, 1, -4, F(3, 2), F(-7, 5)):
            z = Cyclotomic.from_rational(order, value)
            assert z == value and hash(z) == hash(value)
    assert len({Cyclotomic.from_rational(5, F(3, 2)), F(3, 2)}) == 1
    assert len({Cyclotomic.from_rational(5, 2), 2}) == 1
    assert hash(Cyclotomic.zeta(5) * 3) == hash(Cyclotomic(5, [0, 3, 0, 0]))


def test_shared_units_and_powers():
    spec = make_root_spec(4, zeta_exponent=3)
    assert Cyclotomic.one(8) is Cyclotomic.one(8)
    assert Cyclotomic.zero(8) is Cyclotomic.zero(8)
    assert zeta_pow(spec, 5) is zeta_pow(spec, 5 + spec.N)
    assert Cyclotomic.zeta(12, 7) is Cyclotomic.zeta(12, -5)
    for k in range(12):
        acc = Cyclotomic.one(12)
        for _ in range(k):
            acc = acc * Cyclotomic.zeta(12)
        assert Cyclotomic.zeta(12, k) == acc


def test_to_json_text_is_fixed():
    values = [
        (Cyclotomic.zero(5), '{"order": 5, "coeffs": ["0", "0", "0", "0"]}'),
        (Cyclotomic.one(4), '{"order": 4, "coeffs": ["1", "0"]}'),
        (zeta_pow(make_root_spec(3), -1), '{"order": 3, "coeffs": ["-1", "-1"]}'),
        (Cyclotomic(8, [F(1, 2), F(-3, 4), 0, F(5, 6)]),
         '{"order": 8, "coeffs": ["1/2", "-3/4", "0", "5/6"]}'),
        (Cyclotomic.from_rational(7, F(-7, 3)),
         '{"order": 7, "coeffs": ["-7/3", "0", "0", "0", "0", "0"]}'),
        (zeta_pow(make_root_spec(5, 2), 3) * F(5, 6) + 1, '{"order": 5, "coeffs": ["1", "5/6", "0", "0"]}'),
        (Cyclotomic(12, [F(4, 6), F(-2, 6), F(10, 4), 3]),
         '{"order": 12, "coeffs": ["2/3", "-1/3", "5/2", "3"]}'),
    ]
    for z, text in values:
        assert json.dumps(z.to_json()) == text
        assert cyclotomic_from_json(json.loads(text)) == z
    assert repr(values[3][0]) == (
        "Cyclotomic(8, [Fraction(1, 2), Fraction(-3, 4), Fraction(0, 1), Fraction(5, 6)])"
    )


# --- the +-zeta^k fast path: products and inverses of units by table ---

_UNIT_ORDERS = (3, 4, 5, 7, 8, 12, 14)  # odd N: -1 is not a power of zeta


def _unit(N, k, sign):
    z = Cyclotomic.zeta(N, k)
    return z if sign > 0 else -z


def _units(N):
    return st.tuples(st.integers(0, N - 1), st.sampled_from((1, -1))).map(lambda ks: _unit(N, *ks))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unit_products_match_fraction_reference(data):
    N = data.draw(st.sampled_from(_UNIT_ORDERS))
    u = data.draw(_units(N))
    other = data.draw(st.one_of(_units(N), _vectors(N).map(lambda v: Cyclotomic(N, v))))
    for x, y in ((u, other), (other, u)):
        z = x * y
        ref = _ref_mul(N, list(x.coeffs), list(y.coeffs))
        _assert_canonical(z, N)
        assert z.coeffs == tuple(ref)
        built = Cyclotomic(N, ref)
        assert built == z and hash(built) == hash(z)


@pytest.mark.parametrize("N", _UNIT_ORDERS)
def test_unit_inverses_and_shared_products(N):
    for k in range(N):
        for sign in (1, -1):
            u = _unit(N, k, sign)
            inv = u.inv()
            _assert_canonical(inv, N)
            assert inv.coeffs == tuple(_ref_inv(N, list(u.coeffs)))
            assert inv == _unit(N, -k, sign) and u * inv == 1
            for j in range(N):
                for sign2 in (1, -1):
                    w = u * _unit(N, j, sign2)
                    assert w == _unit(N, j + k, sign * sign2)
                    if sign * sign2 > 0 or N % 2 == 0:
                        # +zeta^m, and for even N every unit, is the shared power
                        assert w is Cyclotomic.zeta(N, j + k + (0 if sign * sign2 > 0 else N // 2))


@pytest.mark.parametrize("N", _UNIT_ORDERS)
def test_unit_columns_are_the_shared_rows(N):
    # column j of +-zeta^k is the row of zeta^(k+j), or the one shared negation of it
    Cyclotomic.one(N)
    powers, rows, _, units, _ = qsl2.cyclo._FIELDS[N]
    assert len(rows) == 2 * N
    for k in range(N):
        assert rows[k] is rows[k + N]
        assert rows[k] == tuple((i, x) for i, x in enumerate(powers[k].num) if x)
    for k in range(N):
        for sign in (1, -1):
            u = _unit(N, k, sign)
            s, m = unit_power(u)
            cols = units[u.num][1]
            assert len(cols) == euler_phi(N)
            for j, col in enumerate(cols):
                if s > 0:
                    assert col is rows[m + j]
                else:
                    assert col == tuple((i, -x) for i, x in rows[m + j])
                    assert col is units[(-powers[(m + j) % N]).num][1][0]


_CONJUGATE_ORDERS = (3, 4, 5, 8, 12, 14, 15, 21)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_conjugate_is_a_field_automorphism(data):
    N = data.draw(st.sampled_from(_CONJUGATE_ORDERS))
    coprime = st.sampled_from([k for k in range(1, N) if math.gcd(k, N) == 1])
    k, m = data.draw(coprime), data.draw(coprime)
    x, y = Cyclotomic(N, data.draw(_vectors(N))), Cyclotomic(N, data.draw(_vectors(N)))
    _assert_canonical(conjugate(x, k), N)
    assert conjugate(x * y, k) == conjugate(x, k) * conjugate(y, k)
    assert conjugate(x + y, k) == conjugate(x, k) + conjugate(y, k)
    assert conjugate(Cyclotomic.zeta(N), k) == Cyclotomic.zeta(N, k)
    assert conjugate(conjugate(x, m), k) == conjugate(x, k * m % N)
    assert conjugate(x, 1) == x and conjugate(x, k + N) == conjugate(x, k)


def test_conjugate_needs_an_exponent_coprime_to_the_order():
    for N, k in ((12, 2), (15, 5), (15, 0)):
        with pytest.raises(ValueError, match="not coprime"):
            conjugate(Cyclotomic.zeta(N), k)


def test_products_of_q_powers_are_the_shared_zeta_pow():
    for spec in (make_root_spec(3), make_root_spec(4, zeta_exponent=3), make_root_spec(7, zeta_exponent=2)):
        for i in range(-spec.N, spec.N):
            for j in range(spec.N):
                assert zeta_pow(spec, i) * zeta_pow(spec, j) is zeta_pow(spec, i + j)
            assert zeta_pow(spec, i).inv() is zeta_pow(spec, -i)


@pytest.mark.parametrize("N", (3, 5, 7, 8, 12))
def test_multiplier_is_the_product(N):
    # the map z -> c * z with c's kind read once: units +-zeta^k, rationals and general elements
    units = [_unit(N, k, sign) for k in range(N) for sign in (1, -1)]
    rationals = [Cyclotomic.from_rational(N, v) for v in (0, 1, -1, F(2, 3), F(-3, 2))]
    n = euler_phi(N)
    general = [Cyclotomic(N, [F(1, 2)] + [0] * (n - 1)) + Cyclotomic.zeta(N),
               Cyclotomic(N, [F((-1) ** i * (i + 2), i + 1) for i in range(n)]),
               Cyclotomic.zeta(N, 2) * 3 - 1]
    pool = units + rationals + general
    for c in pool:
        mul = c.multiplier()
        for z in pool:
            got = mul(z)
            _assert_canonical(got, N)
            assert got == c * z
