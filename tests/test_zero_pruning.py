"""No stored value is ever zero, and no pass looks for one afterwards.

The trusted constructor _Terms._like stores its dict as it is, so a zero
could only reach an element through a merge that summed two values of one
key to zero.  Each test feeds inputs that cancel through one producer and
checks every stored value, the classical coefficients of a module element
too, and that the result equals the one the validating constructor builds
from the same terms (which prunes zeros).
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC3, qelements
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    Cyclotomic,
    LocalizedElement,
    ModuleElement,
    QElement,
    QMonomial,
    TensorElement,
    antipode,
    central_reduce,
    clear_denominators,
    coproduct,
    decompose,
    eliminate_a_family,
    eliminate_d_family,
    localize,
    make_root_spec,
    p_expansion,
    qelement_from_json,
    qmul,
    recompose,
    tensor_mul,
    zeta_pow,
)
from qsl2.expr import format_qelement, parse_qelement
from qsl2.frobenius import module_recompose

SPECS = [SPEC3, make_root_spec(4, zeta_exponent=3), make_root_spec(5, zeta_exponent=2)]
SIDES = ("left", "right")
_ids = lambda spec: "l%d_E%d" % (spec.l, spec.zeta_exponent)  # noqa: E731
_UNIT = QMonomial(0, 0, 0, 0)


def _assert_stored_nonzero(x):
    """Every value of x is nonzero, nested classical coefficients too, and x is its validated rebuild."""
    if type(x) is LocalizedElement:
        for g, _ in x.terms.values():
            _assert_stored_nonzero(g)
        return
    for v in x.terms.values():
        assert not v.is_zero()
        if type(v) is ClassicalElement:
            _assert_stored_nonzero(v)
    assert type(x)(*x._head(), x.terms) == x


def _parse(text, spec=SPEC3):
    return parse_qelement(text, spec)


def _check_all(spec, side, x, y):
    """Run every producer on x and y, and check each result."""
    results = [x + y, x - y, x + (-x), qmul(x, y), qmul(y, x), coproduct(x), antipode(x),
               tensor_mul(coproduct(x), coproduct(y)), central_reduce(x, side),
               module_recompose(central_reduce(x, side)), central_reduce(x, side) - central_reduce(y, side)]
    dec = decompose(x, side)
    results += [dec, recompose(dec), dec - decompose(y, side)]
    for chart in ("alpha", "beta"):
        le = localize(x, chart)
        results += [le, clear_denominators(le)[0]]
    parsed = _parse("(%s)*(%s) - (%s)" % (format_qelement(x), format_qelement(y), format_qelement(x)), spec)
    results.append(parsed)
    for r in results:
        _assert_stored_nonzero(r)
    assert (x + (-x)).terms == {}
    assert parsed == qmul(x, y) - x


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_parser_deletes_a_word_whose_sum_cancels(spec):
    # a*d - q*b*c is 1: the expression's accumulator cancels b*c and then the unit
    for text in ("a*d - q*b*c - 1", "-a*d + q*b*c + 1", "1 + (q*b*c - a*d)"):
        assert _parse(text, spec).terms == {}
    assert _parse("a*d - q*b*c", spec) == QElement.one(spec)
    for text in ("(a*d - q*b*c - 1)*b + c", "(a + b)*(d - q*c)", "c - (a*d - q*b*c)^2*c",
                 "alpha*d - a^3*d"):
        _assert_stored_nonzero(_parse(text, spec))
    # the products a*d and b*(-q*c) both hold b*c, which cancels in the pair loop
    assert _parse("(a + b)*(d - q*c)", spec) == _parse("1 - q*a*c + b*d", spec)


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_products_delete_a_word_whose_sum_cancels(spec):
    x, y = _parse("a + b", spec), _parse("d - q*c", spec)
    prod = qmul(x, y)
    _assert_stored_nonzero(prod)
    assert QMonomial(0, 1, 1, 0) not in prod.terms
    one = Cyclotomic.one(spec.N)
    # (1 (x) (a + b)) * (1 (x) (d - q*c)) cancels 1 (x) b*c the same way
    a, b, c, d = (QMonomial.of_letter(ch, 1) for ch in "abcd")
    X = TensorElement(spec, {(_UNIT, a): one, (_UNIT, b): one})
    Y = TensorElement(spec, {(_UNIT, d): one, (_UNIT, c): -zeta_pow(spec, 1)})
    t = tensor_mul(X, Y)
    _assert_stored_nonzero(t)
    assert (_UNIT, QMonomial(0, 1, 1, 0)) not in t.terms


def test_coproduct_deletes_a_key_whose_sum_cancels():
    # the determinant is group-like
    assert coproduct(_parse("a*d - q*b*c")) == TensorElement(SPEC3, {(_UNIT, _UNIT): Cyclotomic.one(3)})
    # at l = 3 the b (x) c terms of Delta(a) and of Delta(-q^-1*a*b*c) cancel in coproduct's merge
    x = _parse("a - q^-1*a*b*c")
    t = coproduct(x)
    _assert_stored_nonzero(t)
    assert (QMonomial(0, 1, 0, 0), QMonomial(0, 0, 1, 0)) not in t.terms
    assert t == coproduct(_parse("a")) - coproduct(_parse("a*b*c")) * zeta_pow(SPEC3, -1)
    # Delta(b*c^2*d^2) and its mirror cancel right-leg sums inside the cached build
    for text in ("b*c^2*d^2", "a^2*b^2*c", "b*c^2*d^2 - a^2*b^2*c"):
        _assert_stored_nonzero(coproduct(_parse(text)))
    _assert_stored_nonzero(antipode(x))


def test_module_recompose_deletes_a_word_whose_sum_cancels():
    # lift(alpha)*d = a^3*d = a^2 + (...)*a^2*b*c, so the a^2 terms cancel
    alpha = ClassicalElement.generator(SPEC3, "alpha")
    me = ModuleElement(SPEC3, "left", {QMonomial(0, 0, 0, 1): alpha,
                                        QMonomial(2, 0, 0, 0): -ClassicalElement.one(SPEC3)})
    x = module_recompose(me)
    _assert_stored_nonzero(x)
    assert QMonomial(2, 0, 0, 0) not in x.terms and len(x.terms) == 1
    _assert_stored_nonzero(central_reduce(x) - central_reduce(x))
    _assert_stored_nonzero(me + (-me))


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
@pytest.mark.parametrize("side", SIDES)
def test_cancelling_inputs_leave_no_zero_anywhere(spec, side):
    for x_text, y_text in (("a*d - q*b*c - 1", "a"), ("a - q^-1*a*b*c", "b*c^2*d^2"),
                           ("(a + b)*(d - q*c)", "a^2*b^2*c - d^%d" % spec.l)):
        _check_all(spec, side, _parse(x_text, spec), _parse(y_text, spec))
    assert decompose(_parse("a*d - q*b*c - 1", spec), side).terms == {}


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_times_a_zero_scalar_is_the_zero_element(spec):
    x = _parse("a + q*b*c - 2/3*d^%d" % (spec.l + 1), spec)
    elements = [x, coproduct(x), central_reduce(x), decompose(x),
                central_reduce(x).terms[QMonomial(0, 0, 0, 1)]]
    other = make_root_spec(7)
    for el in elements:
        for zero in (0, Fraction(0), Cyclotomic.zero(spec.N)):
            for z in (el * zero, zero * el):
                assert type(z) is type(el) and z.terms == {} and z == type(el).zero(*el._head())
        # a zero over another field is still a mixed-order scalar
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            el * Cyclotomic.zero(other.N)


def test_validating_readers_still_prune_and_check_cancelled_keys():
    one = Cyclotomic.one(3)
    ad = QMonomial(1, 0, 0, 1)
    assert QElement(SPEC3, {QMonomial(1, 0, 0, 0): Cyclotomic.zero(3)}).terms == {}
    # the rows cancel, but a*d is not a normal word, so the document is rejected
    doc = {"spec": {"l": 3, "N": 3, "zeta_exponent": 1},
           "terms": [{**ad._asdict(), "coeff": one.to_json()}, {**ad._asdict(), "coeff": (-one).to_json()}]}
    with pytest.raises(ValueError, match="not in normal form"):
        qelement_from_json(doc)
    word = QMonomial(3, 0, 0, 0)  # an exponent of l is no module word
    g = ClassicalElement.one(SPEC3)
    rows = [{"monomial": word._asdict(), "coeff": h.to_json()} for h in (g, -g)]
    with pytest.raises(ValueError, match="needs every exponent"):
        ModuleElement.from_json({"side": "left", "terms": rows}, SPEC3)
    # a normal word whose rows cancel is read as the zero element
    doc["terms"] = [{**QMonomial(1, 0, 0, 0)._asdict(), **row} for row in
                    ({"coeff": one.to_json()}, {"coeff": (-one).to_json()})]
    assert qelement_from_json(doc).terms == {}


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
@pytest.mark.parametrize("side", SIDES)
def test_elimination_head_is_no_residual_word_of_the_tail(spec, side):
    # a relation is central_reduce(tail) plus the head entry, with no sum between them
    l = spec.l
    r = range(l)
    cases = [(0, n, s, d) for n in r for s in r for d in range(1, l)]
    cases += [(a, n, s, 0) for a in range(1, l) for n in r for s in r]
    for i, n, s, m in cases:
        k = l - (i or m)
        row = p_expansion(spec, k)
        tail = QElement(spec, {QMonomial(i, n + j, s + j, m): -row[j] for j in range(1, k + 1)})
        rel = eliminate_a_family(i, n, s, spec, side) if i else eliminate_d_family(n, s, m, spec, side)
        head = QMonomial(0, n, s, k) if i else QMonomial(k, n, s, 0)
        gen = ClassicalMonomial(1, 0, 0, 0) if i else ClassicalMonomial(0, 0, 0, 1)
        residual = central_reduce(tail, side).terms
        assert head not in residual
        assert rel.terms == {**residual, head: rel.terms[head]}
        assert list(rel.terms[head].terms) == [gen]
        _assert_stored_nonzero(rel)


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
@pytest.mark.parametrize("side", SIDES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_no_producer_stores_a_zero(spec, side, data):
    x = data.draw(qelements(spec, emax=spec.l + 1))
    y = data.draw(qelements(spec, emax=spec.l + 1))
    _check_all(spec, side, x, y)
    _check_all(spec, side, x, x * Fraction(-1, 2) + y)
