import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC2, SPEC3, qelements, random_qelement, reduced_monomials, words
import qsl2.cyclo
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    Cyclotomic,
    QElement,
    QMonomial,
    TensorElement,
    antipode,
    classical_mul,
    coproduct,
    counit,
    cyclotomic_polynomial,
    make_root_spec,
    p_coeff,
    p_expansion,
    qelement_from_json,
    qmul,
    remark_root_spec,
    straighten,
    tensor_mul,
    zeta_pow,
)
from qsl2.frobenius import ModuleElement
from qsl2.qalgebra import _add_term, _coproduct_half, _coproduct_monomial, _mono_mul

F = Fraction


def _gens(spec):
    return tuple(QElement.generator(spec, ch) for ch in "abcd")


@pytest.mark.parametrize("spec", [SPEC2, SPEC3, make_root_spec(5, zeta_exponent=2)])
def test_defining_relations(spec):
    A, B, C, D = _gens(spec)
    q = zeta_pow(spec, 1)
    assert qmul(A, B) == qmul(B, A) * q
    assert qmul(A, C) == qmul(C, A) * q
    assert qmul(B, D) == qmul(D, B) * q
    assert qmul(C, D) == qmul(D, C) * q
    assert qmul(B, C) == qmul(C, B)
    assert qmul(A, D) - qmul(D, A) == qmul(B, C) * (q - zeta_pow(spec, -1))
    assert qmul(A, D) - qmul(B, C) * q == QElement.one(spec)


def test_derived_relations():
    A, B, C, D = _gens(SPEC3)
    q = zeta_pow(SPEC3, 1)
    bc = qmul(B, C)
    assert qmul(D, A) == QElement.one(SPEC3) + bc * zeta_pow(SPEC3, -1)
    assert qmul(A, D) == QElement.one(SPEC3) + bc * q


def test_straighten_word():
    # abcd -> q^2 bc + q^3 (bc)^2
    got = straighten("abcd", SPEC3)
    want = QElement(SPEC3, {
        QMonomial(0, 1, 1, 0): zeta_pow(SPEC3, 2),
        QMonomial(0, 2, 2, 0): zeta_pow(SPEC3, 3),
    })
    assert got == want
    assert straighten("", SPEC3) == QElement.one(SPEC3)
    with pytest.raises(ValueError):
        straighten("abe", SPEC3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_straighten_split_confluence(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    word = data.draw(words(8))
    cut = data.draw(st.integers(0, len(word)))
    whole = straighten(word, spec)
    assert whole == qmul(straighten(word[:cut], spec), straighten(word[cut:], spec))


def _reduce_mixed_recursive(spec, mono):
    """One ad-contraction at a time; slow dual route for testing _mono_mul."""
    i, j, k, m = mono
    if min(i, m) == 0:
        return {mono: Cyclotomic.one(spec.N)}
    # a^i b^j c^k d^m = q^(j+k) a^(i-1) b^j c^k (1 + q bc) d^(m-1)
    f = zeta_pow(spec, j + k)
    out = {}
    for sub, extra in ((QMonomial(i - 1, j, k, m - 1), f),
                       (QMonomial(i - 1, j + 1, k + 1, m - 1), f * zeta_pow(spec, 1))):
        for mm, vv in _reduce_mixed_recursive(spec, sub).items():
            _add_term(out, mm, vv * extra)
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mono_mul_matches_recursive_contraction(data):
    # the closed-form product of a^i ... d^m blocks agrees with one-step
    # recursion on the mixed pair a^i (...) d^m
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    emax = 2 * spec.l
    i = data.draw(st.integers(1, emax))
    j = data.draw(st.integers(0, emax))
    k = data.draw(st.integers(0, emax))
    m = data.draw(st.integers(1, emax))
    closed = dict(_mono_mul(spec, QMonomial(i, j, k, 0), QMonomial(0, 0, 0, m)))
    recursive = _reduce_mixed_recursive(spec, QMonomial(i, j, k, m))
    assert closed == {mm: z for mm, z in recursive.items() if not z.is_zero()}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mono_mul_of_normal_monomials_is_one_bc_chain(data):
    # the product of two normal monomials reads one product row at most, so all its
    # terms are a^A b^(B+s) c^(C+s) d^D for one (A, B, C, D) with A*D = 0
    l = data.draw(st.integers(2, 7))
    spec = make_root_spec(l)
    spec = spec._replace(zeta_exponent=data.draw(st.sampled_from(
        [e for e in range(1, spec.N) if math.gcd(e, spec.N) == 1])))
    x = data.draw(reduced_monomials(spec, 3 * l))
    y = data.draw(reduced_monomials(spec, 3 * l))
    monos = [m for m, _ in _mono_mul.__wrapped__(spec, x, y)]
    assert monos
    B, C = x.b + y.b, x.c + y.c
    assert len({(m.a, m.b - B, m.c - C, m.d) for m in monos}) == len(monos)
    (A, D), = {(m.a, m.d) for m in monos}
    assert A * D == 0
    assert all(m.b - B == m.c - C >= 0 for m in monos)


def _letters(mono):
    return "".join(ch * e for ch, e in zip("abcd", mono))


@pytest.mark.parametrize("spec", [SPEC3, make_root_spec(4), make_root_spec(5, zeta_exponent=2)],
                         ids=["l3", "l4", "l5-zeta2"])
def test_mono_mul_straightens_unreduced_words(spec):
    # a word a^r b^s c^k d^t with r, t > 0 is multiplied as it is written, in
    # either factor position; the beta-chart clearing forms such products through
    # frobenius._lifted_product, which uses this path only as its test reference
    rng = random.Random(400 + spec.l)
    l = spec.l
    for _ in range(12):
        word = QMonomial(rng.randint(1, l), rng.randint(0, l), rng.randint(0, l), rng.randint(1, l))
        i, m = rng.randint(0, l), rng.randint(0, l)
        normal = QMonomial(i, rng.randint(0, l), rng.randint(0, l), 0 if i else m)
        for x, y in ((word, normal), (normal, word)):
            got = QElement._like(spec, dict(_mono_mul(spec, x, y)))
            assert got == straighten(_letters(x) + _letters(y), spec)


@pytest.mark.parametrize("spec", [SPEC2, SPEC3, make_root_spec(4), make_root_spec(5, zeta_exponent=2)],
                         ids=["l2", "l3", "l4", "l5-zeta2"])
def test_mono_mul_crosses_d_block_past_a_block(spec):
    # every d^m a^i up to 2l+1, so both t0 = m and t0 = i and blocks past l are crossed
    for m in range(2 * spec.l + 2):
        for i in range(2 * spec.l + 2):
            got = QElement._like(spec, dict(_mono_mul.__wrapped__(spec, QMonomial(0, 0, 0, m),
                                                                  QMonomial(i, 0, 0, 0))))
            assert got == straighten("d" * m + "a" * i, spec), (m, i)


# An oracle for the engine that shares none of its code: a free word is rewritten over
# Z[q, q^-1] by the defining relations alone, and only the final normal form is read at
# the root of unity.  A descending pair of letters is swapped by one of the six
# commutation rules, ad - da = (q - q^-1) bc among them.  A sorted word a^i w d^m with
# w in {b, c}* and i, m > 0 moves one d left across w (bd = q db, cd = q dc) and
# replaces the ad it meets by 1 + q bc.  Each step lowers the number of a and d letters
# or keeps it and lowers the number of descending pairs, so the rewriting stops.
_SWAPS = {  # pair: its rewrite as (integer, power of q, word) terms
    "ba": ((1, -1, "ab"),),  # ab = q ba
    "ca": ((1, -1, "ac"),),  # ac = q ca
    "db": ((1, -1, "bd"),),  # bd = q db
    "dc": ((1, -1, "cd"),),  # cd = q dc
    "cb": ((1, 0, "bc"),),  # bc = cb
    "da": ((1, 0, "ad"), (-1, 1, "bc"), (1, -1, "bc")),  # ad - da = (q - q^-1) bc
}


@lru_cache(maxsize=2**16)  # the pairs of the oracle test reach about 37,000 words
def _rewritten(word: str) -> tuple:
    """The normal form of a free word over Z[q, q^-1], as ((i, j, k, m), power of q, integer) triples."""
    for pos in range(len(word) - 1):
        rule = _SWAPS.get(word[pos:pos + 2])
        if rule is not None:
            steps = [(n, e, word[:pos] + w + word[pos + 2:]) for n, e, w in rule]
            break
    else:
        i, m = word.count("a"), word.count("d")
        if not (i and m):
            return (((i, word.count("b"), word.count("c"), m), 0, 1),)
        w = word[i:len(word) - m]
        # a^i w d^m = q^|w| a^(i-1) (ad) w d^(m-1) and ad = 1 + q bc
        head, tail = "a" * (i - 1), w + "d" * (m - 1)
        steps = [(1, len(w), head + tail), (1, len(w) + 1, head + "bc" + tail)]
    acc: dict = {}
    for n, e, w in steps:
        for mono, f, k in _rewritten(w):
            acc[mono, e + f] = acc.get((mono, e + f), 0) + n * k
    return tuple((mono, e, k) for (mono, e), k in acc.items() if k)


@pytest.mark.parametrize("l, zeta_exp", [(2, 1), (3, 1), (4, 3), (5, 2)])
def test_mono_mul_matches_a_rewriting_oracle(l, zeta_exp):
    # every ordered pair of words with exponents <= 2, a and d together included
    spec = make_root_spec(l, zeta_exponent=zeta_exp)
    engine = _mono_mul.__wrapped__
    monos = [QMonomial(*w) for w in product(range(3), repeat=4)]
    branches = set()
    for x in monos:
        for y in monos:
            want: dict = {}
            for mono, e, k in _rewritten(_letters(x) + _letters(y)):
                _add_term(want, QMonomial(*mono), zeta_pow(spec, e) * k)
            assert dict(engine(spec, x, y)) == {m: v for m, v in want.items() if not v.is_zero()}, (x, y)
            t0 = min(x.d, y.a)
            branches.add((t0 > 0, min(x.a + y.a - t0, x.d - t0 + y.d) > 0))
    # one term; a crossing row; a contraction row; a crossing then a contraction
    assert branches == {(False, False), (True, False), (False, True), (True, True)}


def test_caches_are_bounded(monkeypatch):
    for cached in (_mono_mul, p_expansion, cyclotomic_polynomial, _coproduct_half, _coproduct_monomial):
        assert cached.cache_info().maxsize is not None, cached.__name__
    assert _coproduct_monomial.cache_info().maxsize == 256
    # the per-order field tables: past the bound the oldest order is dropped
    assert qsl2.cyclo._FIELDS_MAX == 256
    monkeypatch.setattr(qsl2.cyclo, "_FIELDS", {})
    monkeypatch.setattr(qsl2.cyclo, "_FIELDS_MAX", 3)
    for order in (5, 7, 9, 11, 13, 7, 5):
        assert Cyclotomic.zeta(order, 2) * Cyclotomic.zeta(order, -2) == 1
        assert len(qsl2.cyclo._FIELDS) <= 3
    assert list(qsl2.cyclo._FIELDS) == [13, 7, 5]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_product_associativity(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    x = data.draw(qelements(spec, emax=spec.l))
    y = data.draw(qelements(spec, emax=spec.l))
    w = data.draw(qelements(spec, emax=spec.l))
    assert qmul(qmul(x, y), w) == qmul(x, qmul(y, w))
    assert qmul(x + y, w) == qmul(x, w) + qmul(y, w)


def test_power():
    A, B, C, D = _gens(SPEC3)
    g = ClassicalElement(SPEC3, {ClassicalMonomial(1, 0, 2, 0): zeta_pow(SPEC3, 1),
                                 ClassicalMonomial(0, 1, 0, 3): Cyclotomic.from_rational(3, F(-2, 3))})
    for x in (qmul(A, D) + B, random_qelement(SPEC3, random.Random(5), nterms=3), g):
        acc = type(x).one(SPEC3)
        for n in range(5):
            assert x ** n == acc  # the n-fold product
            acc = acc * x
        assert x ** 1 is x  # n - 1 products, none by one
        with pytest.raises(ValueError):
            x ** -1


@pytest.mark.parametrize("l", [2, 3, 5])
def test_mixed_power_row(l):
    # a^k d^k = sum_j p_{k,j} (bc)^j
    spec = make_root_spec(l)
    A, B, C, D = _gens(spec)
    bc = qmul(B, C)
    for k in range(l + 1):
        want = QElement.zero(spec)
        for j in range(k + 1):
            want = want + bc ** j * p_coeff(spec, k, j)
        assert qmul(A ** k, D ** k) == want


def test_qelement_api():
    A, B, C, D = _gens(SPEC3)
    x = A * 2 - qmul(B, C) * F(1, 2)
    assert x.terms[QMonomial(1, 0, 0, 0)] == Cyclotomic.from_rational(3, F(2))
    assert QMonomial(0, 0, 0, 1) not in x.terms
    assert x.max_exponent() == 1
    assert (x - x).is_zero()
    with pytest.raises(ValueError):
        QElement(SPEC3, {QMonomial(1, 0, 0, 1): Cyclotomic.one(3)})  # not reduced
    with pytest.raises(ValueError):
        qmul(A, QElement.generator(SPEC2, "a"))


def test_constructors_check_every_value():
    # a value over another field, or no scalar at all, is named by its key
    spec3, spec5 = SPEC3, make_root_spec(5)
    one, mono = QMonomial(0, 0, 0, 0), QMonomial(1, 0, 0, 0)
    cases = [
        (lambda: QElement(spec3, {mono: Cyclotomic.one(5)}), "a=1, b=0"),
        (lambda: QElement(spec3, {mono: 2}), "a=1, b=0"),
        (lambda: QElement(spec3, {mono: Cyclotomic.zero(5)}), "a=1, b=0"),
        (lambda: TensorElement(spec3, {(one, mono): Cyclotomic.one(5)}), r"\(QMonomial\(a=0"),
        (lambda: ClassicalElement(spec3, {ClassicalMonomial(0, 1, 0, 0): F(1, 2)}), "beta=1"),
        (lambda: ModuleElement(spec3, "left", {mono: ClassicalElement.one(spec5)}), "a=1, b=0"),
        (lambda: ModuleElement(spec3, "left", {mono: Cyclotomic.one(3)}), "a=1, b=0"),
        (lambda: QElement.scalar(spec3, Cyclotomic.one(5)), "scalar"),
        (lambda: ClassicalElement.scalar(spec3, 0.5), "scalar"),
    ]
    for build, name in cases:
        with pytest.raises(ValueError, match=name):
            build()
    assert QElement(spec3, {mono: Cyclotomic.zero(3)}).is_zero()
    assert ModuleElement(spec3, "left", {mono: ClassicalElement.one(spec3)}).terms == {mono: ClassicalElement.one(spec3)}
    with pytest.raises(ValueError, match="scalar"):
        QElement.one(spec3) + Cyclotomic.one(5)


@pytest.mark.parametrize("cls", [QElement, ClassicalElement])
def test_monomial_coerces_its_coefficient_like_scalar(cls):
    for spec in (SPEC3, make_root_spec(4)):
        mono = cls._KEY(1, 2, 0, 0)
        for c in (2, -1, F(-3, 7), zeta_pow(spec, 1) * F(5, 2)):
            assert cls.monomial(spec, mono, c) == cls.scalar(spec, c) * cls.monomial(spec, mono)
        assert cls.monomial(spec, mono).terms == {mono: Cyclotomic.one(spec.N)}
        for zero in (0, F(0), Cyclotomic.zero(spec.N)):
            assert cls.monomial(spec, mono, zero) == cls.zero(spec)
        for bad in (2.0, 0.5, Cyclotomic.one(5), "1"):
            with pytest.raises(ValueError, match="scalar"):
                cls.monomial(spec, mono, bad)
    # alpha*delta is reduced through the validating constructor
    assert ClassicalElement.monomial(SPEC3, ClassicalMonomial(1, 0, 0, 1), 3) == ClassicalElement.scalar(
        SPEC3, 3) + ClassicalElement.monomial(SPEC3, ClassicalMonomial(0, 1, 1, 0), 3)


@pytest.mark.parametrize("spec", [SPEC3, make_root_spec(4), make_root_spec(5, zeta_exponent=2)])
def test_generator_power_is_the_power_of_the_generator(spec):
    l = spec.l
    for cls in (QElement, ClassicalElement):
        for letter in cls._KEY._fields:
            for e in (0, 1, l, 2 * l + 1):
                assert cls.generator(spec, letter, e) == cls.generator(spec, letter) ** e, (letter, e)
            for bad in (-1, 1.5, 2.0):
                with pytest.raises(ValueError, match="exponent must be an integer"):
                    cls.generator(spec, letter, bad)
        for unknown in ("q", "e", "alpha" if cls is QElement else "a"):
            with pytest.raises(ValueError, match="unknown generator"):
                cls.generator(spec, unknown, 2)


def test_qelement_json_roundtrip():
    x = straighten("abcd", SPEC3) + QElement.scalar(SPEC3, F(5, 3))
    doc = x.to_json()
    assert doc["spec"]["l"] == 3
    assert qelement_from_json(doc) == x
    assert qelement_from_json(doc, SPEC3) == x
    with pytest.raises(ValueError):
        qelement_from_json(doc, SPEC2)


def test_coproduct_on_generators():
    A, B, C, D = _gens(SPEC3)
    one = Cyclotomic.one(3)
    MA, MB, MC, MD = (QMonomial(1, 0, 0, 0), QMonomial(0, 1, 0, 0),
                      QMonomial(0, 0, 1, 0), QMonomial(0, 0, 0, 1))
    assert coproduct(A).terms == {(MA, MA): one, (MB, MC): one}
    assert coproduct(B).terms == {(MA, MB): one, (MB, MD): one}
    assert coproduct(C).terms == {(MC, MA): one, (MD, MC): one}
    assert coproduct(D).terms == {(MC, MB): one, (MD, MD): one}


COPRODUCT_SPECS = tuple(make_root_spec(l) for l in range(2, 8)) + (
    make_root_spec(5, zeta_exponent=2), remark_root_spec(3), remark_root_spec(5),
    make_root_spec(4, zeta_exponent=3), make_root_spec(6, zeta_exponent=5))


def _letter_images(spec):
    """Delta(a), Delta(b), Delta(c), Delta(d) as defined, and the unit 1 (x) 1."""
    one = Cyclotomic.one(spec.N)
    A, B, C, D = (QMonomial(1, 0, 0, 0), QMonomial(0, 1, 0, 0),
                  QMonomial(0, 0, 1, 0), QMonomial(0, 0, 0, 1))
    images = (TensorElement(spec, {(A, A): one, (B, C): one}), TensorElement(spec, {(A, B): one, (B, D): one}),
              TensorElement(spec, {(C, A): one, (D, C): one}), TensorElement(spec, {(C, B): one, (D, D): one}))
    return images, TensorElement(spec, {(QMonomial(0, 0, 0, 0), QMonomial(0, 0, 0, 0)): one})


def _reference_coproduct(x):
    """Delta(x) as a product over letters of (generator image)^e, one tensor_mul per letter."""
    images, unit = _letter_images(x.spec)
    acc = TensorElement.zero(x.spec)
    for mono, coeff in x.terms.items():
        t = unit
        for image, e in zip(images, mono):
            for _ in range(e):
                t = tensor_mul(t, image)
        acc = acc + t * coeff
    return acc


def _reference_coproducts(spec, top):
    """(m, Delta(m)) for each reduced m = a^i b^j c^k d^n with exponents <= top and j <= k.

    The products are _reference_coproduct's, one tensor_mul per letter,
    with each prefix a^i, a^i b^j, a^i b^j c^k formed once.
    """
    images, unit = _letter_images(spec)

    def walk(exps, t):
        if len(exps) == 4:
            yield QMonomial(*exps), t
            return
        if len(exps) == 3 and exps[1] > exps[2]:
            return
        for e in range(1 if len(exps) == 3 and exps[0] else top + 1):
            if e:
                t = tensor_mul(t, images[len(exps)])
            yield from walk(exps + (e,), t)

    return walk((), unit)


@pytest.mark.parametrize("l", [3, 4])
def test_tensor_json_roundtrip(l):
    spec = make_root_spec(l)
    rng = random.Random(700 + l)
    for _ in range(4):
        t = coproduct(random_qelement(spec, rng, nterms=3))
        doc = json.loads(json.dumps(t.to_json()))
        assert TensorElement.from_json(doc, spec) == t
    row = doc["terms"][0]
    for name, bad in (("normal monomials", dict(row, left={"a": 1, "b": 0, "c": 0, "d": 1})),
                      ("expected an integer", dict(row, right=dict(row["right"], b=1.5))),
                      ("malformed", dict(row, left=[0, 0, 0, 0]))):
        with pytest.raises(ValueError, match=name):
            TensorElement.from_json({"terms": [bad]}, spec)


def test_json_readers_name_a_missing_field():
    spec = SPEC3
    row = qmul(*_gens(spec)[:2]).to_json()["terms"][0]
    del row["b"]
    with pytest.raises(ValueError, match="malformed QElement JSON: missing field 'b'"):
        qelement_from_json({"terms": [row]}, spec)
    row = coproduct(QElement.generator(spec, "a")).to_json()["terms"][0]
    del row["right"]
    with pytest.raises(ValueError, match="malformed TensorElement JSON: missing field 'right'"):
        TensorElement.from_json({"terms": [row]}, spec)
    with pytest.raises(ValueError, match="missing field 'terms'"):
        TensorElement.from_json({}, spec)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_coproduct_matches_generator_products(data):
    spec = data.draw(st.sampled_from(COPRODUCT_SPECS))
    x = data.draw(qelements(spec, emax=2 * spec.l + 1, max_terms=2))
    assert coproduct(x) == _reference_coproduct(x)


def test_coproduct_is_linear_over_the_monomial_cache():
    # Delta(mono) is cached without its coefficient, per spec and mirror pair:
    # the same monomials at l = 3 with q = zeta, q = zeta^2 and the order-6
    # remark root share no entry
    specs = (SPEC3, make_root_spec(3, zeta_exponent=2), remark_root_spec(3), make_root_spec(4, zeta_exponent=3))
    _coproduct_monomial.cache_clear()
    for warm in (False, True):
        for spec in specs:
            q = zeta_pow(spec, 1)
            x = QElement(spec, {QMonomial(2, 1, 1, 0): q, QMonomial(0, 2, 1, 3): q * q - 2,
                                QMonomial(1, 0, 2, 0): Cyclotomic.one(spec.N)})
            want = _reference_coproduct(x)
            assert coproduct(x) == want, (spec, warm)
            for c in (F(3, 2), -q * q, 1 + q):
                assert coproduct(x * c) == want * c, (spec, c, warm)


def test_repeated_coproduct_makes_no_monomial_product():
    spec = make_root_spec(4, zeta_exponent=3)
    x = random_qelement(spec, random.Random(901), nterms=4, emax=spec.l)
    first = coproduct(x)
    before = _mono_mul.cache_info()
    assert coproduct(x) == first
    assert _mono_mul.cache_info() == before


def _mirror(mono):
    """phi(a^i b^j c^k d^m) = a^m b^k c^j d^i, for the anti-automorphism a<->d, b<->c."""
    return QMonomial(*mono[::-1])


# The mirror test caps the degree so the tensor_mul reference stays near 2 s.
MIRROR_DEGREE_MAX = 8


@pytest.mark.parametrize("spec", COPRODUCT_SPECS)
def test_coproduct_commutes_with_the_mirror(spec):
    # Delta(phi(m)) = (phi (x) phi)(Delta(m)), with Delta(m) taken by the uncached reference
    for mono in product(range(spec.l + 2), repeat=4):
        if min(mono[0], mono[3]) or sum(mono) > MIRROR_DEGREE_MAX:
            continue
        want = {(_mirror(m1), _mirror(m2)): v
                for (m1, m2), v in _reference_coproduct(QElement.monomial(spec, QMonomial(*mono))).terms.items()}
        assert coproduct(QElement.monomial(spec, _mirror(mono))).terms == want, mono


def test_mirror_pair_shares_one_coproduct_entry():
    spec = make_root_spec(4, zeta_exponent=3)
    for first in (QMonomial(2, 0, 1, 0), QMonomial(0, 1, 0, 2), QMonomial(0, 3, 1, 2)):
        _coproduct_monomial.cache_clear()
        for mono in (first, _mirror(first)):
            assert coproduct(QElement.monomial(spec, mono)) == _reference_coproduct(QElement.monomial(spec, mono))
        info = _coproduct_monomial.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1), first
    # b^j c^j is its own mirror: one miss, then a hit on the same entry
    _coproduct_monomial.cache_clear()
    for _ in range(2):
        coproduct(QElement.monomial(spec, QMonomial(0, 2, 2, 0)))
    assert _coproduct_monomial.cache_info()[:2] == (1, 1)


def _transpose(mono):
    """psi(a^i b^j c^k d^m) = a^i b^k c^j d^m, for the automorphism b<->c."""
    return QMonomial(mono[0], mono[2], mono[1], mono[3])


@pytest.mark.parametrize("spec", COPRODUCT_SPECS)
def test_coproduct_reverses_under_the_transpose(spec):
    # Delta(psi(m)) = sigma (psi (x) psi)(Delta(m)), sigma the swap of the legs, with
    # Delta(m) taken by the uncached reference; m and psi(m) for j <= k cover every
    # reduced monomial with exponents <= l, so every branch of coproduct is read
    for mono, delta in _reference_coproducts(spec, spec.l):
        assert coproduct(QElement.monomial(spec, mono)).terms == delta.terms, mono
        want = {(_transpose(m2), _transpose(m1)): v for (m1, m2), v in delta.terms.items()}
        assert coproduct(QElement.monomial(spec, _transpose(mono))).terms == want, mono


def test_klein_orbit_shares_one_coproduct_entry():
    # a^2 b c^3, its mirror, its transpose and the mirror of its transpose are four
    # distinct monomials; Delta is built once, at the least of them, and read three times
    mono = QMonomial(2, 1, 3, 0)
    orbit = (mono, _mirror(mono), _transpose(mono), _mirror(_transpose(mono)))
    assert len(set(orbit)) == 4
    for spec in (SPEC3, make_root_spec(4, zeta_exponent=3), remark_root_spec(3)):
        _coproduct_monomial.cache_clear()
        for image in orbit:
            x = QElement.monomial(spec, image)
            assert coproduct(x) == _reference_coproduct(x), (spec, image)
        info = _coproduct_monomial.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1), spec


def _gaussian_binomial(spec, n, k):
    """[n k] in p = q^-2 as a sum over k-subsets S of {0..n-1} of p^(sum(S) - k(k-1)/2)."""
    acc = Cyclotomic.zero(spec.N)
    for subset in combinations(range(n), k):
        acc = acc + zeta_pow(spec, -2 * (sum(subset) - k * (k - 1) // 2))
    return acc


# letter -> exponents of the legs of X^(n-k) Y^k, where Delta(letter) = X + Y
_BINOMIAL_LEGS = {
    "a": lambda r, k: (QMonomial(r, k, 0, 0), QMonomial(r, 0, k, 0)),
    "b": lambda r, k: (QMonomial(r, k, 0, 0), QMonomial(0, r, 0, k)),
    "c": lambda r, k: (QMonomial(0, 0, r, k), QMonomial(r, 0, k, 0)),
    "d": lambda r, k: (QMonomial(0, 0, r, k), QMonomial(0, r, 0, k)),
}


@pytest.mark.parametrize("spec", COPRODUCT_SPECS)
def test_letter_power_coproduct_is_q_binomial(spec):
    for letter, legs in _BINOMIAL_LEGS.items():
        x = QElement.generator(spec, letter)
        for n in range(2 * spec.l + 1):
            want = {}
            for k in range(n + 1):
                coeff = _gaussian_binomial(spec, n, k)
                if not coeff.is_zero():
                    want[legs(n - k, k)] = coeff
            assert coproduct(x ** n).terms == want, (letter, n)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_coproduct_is_multiplicative(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    x = data.draw(qelements(spec, emax=spec.l, max_terms=2))
    y = data.draw(qelements(spec, emax=spec.l, max_terms=2))
    assert coproduct(qmul(x, y)) == tensor_mul(coproduct(x), coproduct(y))


def test_counit_is_a_character():
    spec = SPEC3
    A, B, C, D = _gens(spec)
    assert counit(A).is_one() and counit(D).is_one()
    assert counit(B).is_zero() and counit(C).is_zero()
    rng = random.Random(3)
    for _ in range(10):
        w1 = "".join(rng.choice("abcd") for _ in range(rng.randrange(4)))
        w2 = "".join(rng.choice("abcd") for _ in range(rng.randrange(4)))
        x, y = straighten(w1, spec), straighten(w2, spec)
        assert counit(qmul(x, y)) == counit(x) * counit(y)


def test_antipode_on_generators():
    for spec in (SPEC2, SPEC3):
        A, B, C, D = _gens(spec)
        assert antipode(A) == D
        assert antipode(D) == A
        assert antipode(B) == B * (-zeta_pow(spec, -1))
        assert antipode(C) == C * (-zeta_pow(spec, 1))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_antipode_is_antimultiplicative(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    x = data.draw(qelements(spec, emax=spec.l, max_terms=2))
    y = data.draw(qelements(spec, emax=spec.l, max_terms=2))
    assert antipode(qmul(x, y)) == qmul(antipode(y), antipode(x))


def _coassociativity_gap(spec, x):
    t = coproduct(x)
    left, right = {}, {}
    for (m1, m2), v in t.terms.items():
        for (n1, n2), w in coproduct(QElement.monomial(spec, m1)).terms.items():
            key = (n1, n2, m2)
            left[key] = left.get(key, Cyclotomic.zero(spec.N)) + v * w
        for (n1, n2), w in coproduct(QElement.monomial(spec, m2)).terms.items():
            key = (m1, n1, n2)
            right[key] = right.get(key, Cyclotomic.zero(spec.N)) + v * w
    gaps = set()
    for key in set(left) | set(right):
        d = left.get(key, Cyclotomic.zero(spec.N)) - right.get(key, Cyclotomic.zero(spec.N))
        if not d.is_zero():
            gaps.add(key)
    return gaps


def _hopf_axioms_hold(spec, x):
    if _coassociativity_gap(spec, x):
        return False
    t = coproduct(x)
    eps_l = QElement.zero(spec)
    eps_r = QElement.zero(spec)
    conv_l = QElement.zero(spec)
    conv_r = QElement.zero(spec)
    for (m1, m2), v in t.terms.items():
        eps_l = eps_l + QElement.monomial(spec, m2, v * counit(QElement.monomial(spec, m1)))
        eps_r = eps_r + QElement.monomial(spec, m1, v * counit(QElement.monomial(spec, m2)))
        conv_l = conv_l + qmul(antipode(QElement.monomial(spec, m1, v)), QElement.monomial(spec, m2))
        conv_r = conv_r + qmul(QElement.monomial(spec, m1, v), antipode(QElement.monomial(spec, m2)))
    unit_eps = QElement.scalar(spec, counit(x))
    return eps_l == x and eps_r == x and conv_l == unit_eps and conv_r == unit_eps


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_hopf_axioms(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    word = data.draw(words(4))
    assert _hopf_axioms_hold(spec, straighten(word, spec))


@pytest.mark.parametrize("l", [2, 3])
def test_lth_power_coproduct_splits(l):
    # Delta(a^l) = a^l @ a^l + b^l @ c^l at a standard root
    spec = make_root_spec(l)
    one = Cyclotomic.one(spec.N)
    want = {
        (QMonomial(l, 0, 0, 0), QMonomial(l, 0, 0, 0)): one,
        (QMonomial(0, l, 0, 0), QMonomial(0, 0, l, 0)): one,
    }
    A = QElement.generator(spec, "a")
    assert coproduct(A ** l).terms == want


def test_tensor_element_ops():
    one = Cyclotomic.one(3)
    t = (TensorElement(SPEC3, {(QMonomial(1, 0, 0, 0), QMonomial(0, 0, 0, 1)): one})
         + TensorElement(SPEC3, {(QMonomial(0, 1, 0, 0), QMonomial(0, 0, 1, 0)): one}))
    assert t - t == TensorElement.zero(SPEC3)
    assert (t * 2).terms[(QMonomial(1, 0, 0, 0), QMonomial(0, 0, 0, 1))] == 2
    with pytest.raises(ValueError):
        TensorElement(SPEC3, {(QMonomial(1, 0, 0, 1), QMonomial(0, 0, 0, 0)): Cyclotomic.one(3)})


def _classical_gens(spec):
    return tuple(ClassicalElement.generator(spec, n)
                 for n in ("alpha", "beta", "gamma", "delta"))


def test_classical_determinant_normalization():
    al, be, ga, de = _classical_gens(SPEC3)
    assert al * de == ClassicalElement.one(SPEC3) + be * ga
    # (alpha*delta)^2 expands through the binomial rule
    assert (al * de) ** 2 == (ClassicalElement.one(SPEC3) + be * ga) ** 2
    x = ClassicalElement.monomial(SPEC3, ClassicalMonomial(2, 0, 0, 1))
    assert x == al * al * de == al * (ClassicalElement.one(SPEC3) + be * ga)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_classical_ring_is_commutative(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    spec = SPEC3
    gens = _classical_gens(spec)

    def rand():
        g = ClassicalElement.scalar(spec, F(rng.randrange(-2, 3)))
        for _ in range(rng.randrange(3)):
            g = g * rng.choice(gens) + ClassicalElement.scalar(spec, F(rng.randrange(-1, 2)))
        return g

    x, y, w = rand(), rand(), rand()
    assert classical_mul(x, y) == classical_mul(y, x)
    assert classical_mul(classical_mul(x, y), w) == classical_mul(x, classical_mul(y, w))
    assert (x + y) * w == x * w + y * w


def test_classical_normalize_and_json():
    spec = SPEC3
    raw = {ClassicalMonomial(1, 0, 0, 1): Cyclotomic.one(3)}
    normalized = ClassicalElement(spec, raw)
    assert normalized == ClassicalElement.one(spec) + ClassicalElement.monomial(
        spec, ClassicalMonomial(0, 1, 1, 0)
    )
    doc = normalized.to_json()
    assert ClassicalElement.from_json(doc, spec) == normalized
    assert ClassicalElement.from_json(doc) == normalized
