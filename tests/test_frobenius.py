import ast
import itertools
import pathlib
import random
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC2, SPEC3, random_qelement
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    ClosureReport,
    Cyclotomic,
    ModuleElement,
    QElement,
    QMonomial,
    RootSpec,
    TensorElement,
    central_reduce,
    closure_diagnostic,
    coproduct,
    decompose,
    is_central,
    lift,
    localize,
    make_root_spec,
    module_recompose,
    p_expansion,
    qmul,
    remark_root_spec,
    straighten,
    zeta_pow,
)
import qsl2.frobenius
import qsl2.qalgebra
from qsl2.frobenius import _lifted_product
from qsl2.qalgebra import _mono_mul

F = Fraction


def _classical_gens(spec):
    return tuple(ClassicalElement.generator(spec, n)
                 for n in ("alpha", "beta", "gamma", "delta"))


@pytest.mark.parametrize("spec", [SPEC2, SPEC3])
def test_lift_of_generators(spec):
    l = spec.l
    al, be, ga, de = _classical_gens(spec)
    for g, letter in ((al, "a"), (be, "b"), (ga, "c"), (de, "d")):
        assert lift(g) == QElement.generator(spec, letter) ** l


@pytest.mark.parametrize("spec", [SPEC2, SPEC3])
def test_lift_is_an_algebra_morphism(spec):
    rng = random.Random(spec.l)
    gens = _classical_gens(spec)
    for _ in range(8):
        g = ClassicalElement.scalar(spec, F(rng.randrange(-2, 3)))
        h = ClassicalElement.one(spec)
        for _ in range(rng.randrange(3)):
            g = g * rng.choice(gens) + ClassicalElement.scalar(spec, F(rng.randrange(-1, 2)))
            h = h * rng.choice(gens)
        assert lift(g * h) == qmul(lift(g), lift(h))
        assert lift(g + h) == lift(g) + lift(h)


def test_lift_of_determinant_is_one():
    for spec in (SPEC2, SPEC3, make_root_spec(5)):
        al, be, ga, de = _classical_gens(spec)
        assert lift(al * de - be * ga) == QElement.one(spec)


def test_centrality_by_parity():
    for spec, central in ((SPEC3, True), (SPEC2, False), (make_root_spec(5), True)):
        for g in _classical_gens(spec):
            assert is_central(lift(g)) == central
    # even case: l-th powers of single letters anticommute with the odd letters
    A, B = QElement.generator(SPEC2, "a"), QElement.generator(SPEC2, "b")
    assert qmul(A ** 2, B) == qmul(B, A ** 2) * (-1)


def test_restricted_coproduct_is_classical():
    # Delta(lift(gen)) matches the classical coalgebra on alpha..delta
    for spec in (SPEC2, SPEC3):
        l = spec.l
        MA, MB = QMonomial(l, 0, 0, 0), QMonomial(0, l, 0, 0)
        MC, MD = QMonomial(0, 0, l, 0), QMonomial(0, 0, 0, l)
        one = Cyclotomic.one(spec.N)
        al, be, ga, de = _classical_gens(spec)
        assert coproduct(lift(al)).terms == {(MA, MA): one, (MB, MC): one}
        assert coproduct(lift(be)).terms == {(MA, MB): one, (MB, MD): one}
        assert coproduct(lift(ga)).terms == {(MC, MA): one, (MD, MC): one}
        assert coproduct(lift(de)).terms == {(MC, MB): one, (MD, MD): one}


def test_central_reduce_even_case_signs():
    # l = 2: reducing a^2 b extracts alpha with a side-dependent sign
    al = ClassicalElement.generator(SPEC2, "alpha")
    x = straighten("aab", SPEC2)
    B = QMonomial(0, 1, 0, 0)
    left = central_reduce(x, "left")
    right = central_reduce(x, "right")
    assert left.terms == {B: al}
    assert right.terms == {B: al * F(-1)}
    assert module_recompose(left) == x
    assert module_recompose(right) == x


@pytest.mark.parametrize("l", [4, 6])
def test_central_reduce_block_phase_minus_one_at_even_l(l):
    # q^l = -1: blocks b^l (c^l) picked up past a residual a on the left, and a^l (d^l)
    # past a residual b (c) on the right, cost one sign; an even number of them none
    spec = make_root_spec(l)
    al, be, ga, de = _classical_gens(spec)
    cases = {
        "left": [(QMonomial(1, l, 0, 0), QMonomial(1, 0, 0, 0), -be),
                 (QMonomial(0, 1, l, l), QMonomial(0, 1, 0, 0), -(ga * de)),
                 (QMonomial(1, 2 * l, 0, 0), QMonomial(1, 0, 0, 0), be * be),
                 (QMonomial(1, l, l, 0), QMonomial(1, 0, 0, 0), be * ga)],
        "right": [(QMonomial(l, 1, 0, 0), QMonomial(0, 1, 0, 0), -al),
                  (QMonomial(0, l, 0, 1), QMonomial(0, 0, 0, 1), -be),
                  (QMonomial(2 * l, 1, 0, 0), QMonomial(0, 1, 0, 0), al * al),
                  (QMonomial(l, l + 1, 0, 0), QMonomial(0, 1, 0, 0), -(al * be))],
    }
    for side, rows in cases.items():
        for mono, residual, g in rows:
            x = QElement.monomial(spec, mono, zeta_pow(spec, 3))
            got = central_reduce(x, side)
            assert got.terms == {residual: g * zeta_pow(spec, 3)}, (side, mono)
            assert got == _central_reduce_reference(x, side)
            assert module_recompose(got) == x


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_central_reduce_roundtrip(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    side = data.draw(st.sampled_from(("left", "right")))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_qelement(spec, rng, nterms=3, emax=3 * spec.l)
    me = central_reduce(x, side)
    assert me.side == side
    assert module_recompose(me) == x
    # every residual monomial has all exponents < l
    for mono in me.terms:
        assert max(mono) < spec.l


def test_central_reduce_extracts_lifted_factors():
    # on b,c-only residuals no a/d contraction can happen, so reducing
    # lift(g) * x recovers g exactly on each residual monomial
    rng = random.Random(9)
    for spec in (SPEC2, SPEC3):
        al, be, ga, de = _classical_gens(spec)
        g = al + be * F(2) - de * ga
        for _ in range(5):
            x = QElement(spec, {
                QMonomial(0, rng.randrange(spec.l), rng.randrange(spec.l), 0):
                    zeta_pow(spec, rng.randrange(spec.N))
                for _ in range(2)
            })
            want = {m: g * z for m, z in x.terms.items()}
            got_left = central_reduce(qmul(lift(g), x), "left")
            got_right = central_reduce(qmul(x, lift(g)), "right")
            assert got_left.terms == want
            assert got_right.terms == want


def _shared_residual_element(spec, rng):
    """Four monomials over each of three residual words, so several blocks share a key word."""
    l = spec.l
    terms = {}
    for w in rng.sample(QMonomial.reduced_up_to(l - 1), 3):
        for _ in range(4):
            e = rng.randrange(3)
            # a residual a (d) admits only alpha (delta) blocks, so each monomial stays normal
            p, t = (e, 0) if w.a or (not w.d and rng.random() < 0.5) else (0, e)
            mono = QMonomial(w.a + l * p, w.b + l * rng.randrange(3), w.c + l * rng.randrange(3), w.d + l * t)
            terms[mono] = zeta_pow(spec, rng.randrange(spec.N)) * F(rng.randrange(1, 4))
    return QElement(spec, terms)


def _central_reduce_reference(x, side):
    """central_reduce one term at a time, through lift, qmul and the validating constructors."""
    spec, l = x.spec, x.spec.l
    out = ModuleElement(spec, side)
    for mono, c in x.terms.items():
        blocks = ClassicalMonomial(*(e // l for e in mono))
        residual = QMonomial(*(e % l for e in mono))
        lifted, word = lift(ClassicalElement.monomial(spec, blocks)), QElement.monomial(spec, residual)
        prod = qmul(lifted, word) if side == "left" else qmul(word, lifted)
        assert set(prod.terms) == {mono}
        coeff = ClassicalElement.monomial(spec, blocks, c * prod.terms[mono].inv())
        out = out + ModuleElement(spec, side, {residual: coeff})
    return out


@pytest.mark.parametrize("l", [3, 4, 6])
@pytest.mark.parametrize("side", ["left", "right"])
def test_central_reduce_matches_the_per_term_reference(l, side):
    spec = make_root_spec(l)
    rng = random.Random(50 + l)
    for _ in range(3):
        x = _shared_residual_element(spec, rng)
        got = central_reduce(x, side)
        assert len(got.terms) < len(x.terms)
        assert got == _central_reduce_reference(x, side)
        assert module_recompose(got) == x


@pytest.mark.parametrize("l,zeta_exp", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 1)])
def test_lifted_product_is_the_mono_mul_product_off_the_cache(l, zeta_exp):
    # the closed form against the engine on every word with exponents below l (a and d
    # together included) and every reduced classical monomial of degree <= 2, on both sides
    spec = make_root_spec(l, zeta_exponent=zeta_exp)
    words = [QMonomial(*w) for w in itertools.product(range(l), repeat=4)]
    engine = _mono_mul.__wrapped__
    before = _mono_mul.cache_info()
    for m in ClassicalMonomial.reduced_up_to(2):
        if m.degree() > 2:
            continue
        lifted = QMonomial(*(l * e for e in m))
        for w in words:
            assert _lifted_product(spec, m, w, "left") == engine(spec, lifted, w)
            assert _lifted_product(spec, m, w, "right") == engine(spec, w, lifted)
    assert _mono_mul.cache_info() == before


def test_frobenius_alone_holds_the_sides_and_the_uncached_products():
    src = pathlib.Path(qsl2.frobenius.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}

    def wrapped(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "__wrapped__"]

    def imported(tree, module):
        return {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == module
                for alias in n.names}

    def functions_naming(tree, name):
        return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == name}

    # only the right legs of Delta skip the _mono_mul cache; the lifted products are a
    # closed form, and frobenius uses the engine only for central_reduce's cached products
    assert sorted(name for name, tree in trees.items() for _ in wrapped(tree)) == ["qalgebra"]
    assert {fn.name for fn in ast.walk(trees["qalgebra"])
            if isinstance(fn, ast.FunctionDef) and wrapped(fn)} == {"_coproduct_monomial"}
    assert functions_naming(trees["frobenius"], "_mono_mul") == {"central_reduce"}
    assert sum(isinstance(n, ast.Name) and n.id == "_mono_mul" for n in ast.walk(trees["frobenius"])) == 1
    basis_names = set()
    for n in ast.walk(trees["basis"]):
        basis_names.add(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                        else n.name if isinstance(n, ast.alias) else None)
    assert not basis_names & {"_mono_mul", "lifted_monomial", "__wrapped__"}
    assert not {"SIDES", "_check_side", "_SidedTerms", "_set_side"} & set(vars(qsl2.qalgebra))
    # no module reads a qalgebra name through frobenius
    for name, tree in trees.items():
        assert not imported(tree, "frobenius") & imported(trees["frobenius"], "qalgebra"), name


def test_central_reduce_rejects_bad_side():
    with pytest.raises(ValueError):
        central_reduce(QElement.one(SPEC3), "middle")


def test_module_element_json_roundtrip():
    x = straighten("aab", SPEC2) + straighten("bcd", SPEC2)
    me = central_reduce(x, "right")
    doc = me.to_json()
    assert doc["side"] == "right"
    back = ModuleElement.from_json(doc, SPEC2)
    assert back == me
    assert module_recompose(back) == x


@pytest.mark.parametrize("a", [-2, 3, 7])
def test_module_element_rejects_words_with_exponents_outside_0_to_l_minus_1(a):
    me = central_reduce(straighten("ab", SPEC3), "left")
    g = me.terms[QMonomial(1, 1, 0, 0)]
    doc = me.to_json()
    assert doc["terms"][0]["monomial"] == {"a": 1, "b": 1, "c": 0, "d": 0}
    doc["terms"][0]["monomial"]["a"] = a
    message = "module word QMonomial(a=%d, b=1, c=0, d=0) needs every exponent in 0..2" % a
    with pytest.raises(ValueError, match=re.escape(message)):
        ModuleElement.from_json(doc, SPEC3)
    with pytest.raises(ValueError, match="module word"):
        ModuleElement(SPEC3, "left", {QMonomial(a, 1, 0, 0): g})
    # a chart word may hold both a and d, as long as each exponent is below l
    assert QMonomial(2, 1, 0, 2) in ModuleElement(SPEC3, "left", {(2, 1, 0, 2): g}).terms


def test_frobenius_ops_reject_nonstandard_spec():
    spec = remark_root_spec(3)
    g = ClassicalElement.generator(spec, "alpha")
    with pytest.raises(ValueError):
        lift(g)
    with pytest.raises(ValueError):
        central_reduce(QElement.one(spec), "left")
    # standard is read off (l, N), so no spec of order 2l at odd l reaches the structural operations
    for spec in (RootSpec(3, 6), RootSpec(5, 10, 3)):
        x = straighten("c" + "d" * 5, spec)
        for op in (lambda: decompose(x, "left"), lambda: decompose(x, "right"), lambda: localize(x, "alpha"),
                   lambda: localize(x, "beta"), lambda: central_reduce(x, "right")):
            with pytest.raises(ValueError, match="requires a standard root case"):
                op()


def test_closure_diagnostic_standard_odd():
    rep = closure_diagnostic(SPEC3)
    assert (rep.l, rep.order, rep.standard, rep.power) == (3, 3, True, 3)
    assert rep.powers_commute and rep.powers_central
    assert rep.determinant_closes and rep.coproduct_closes
    one = Cyclotomic.one(3)
    zero = Cyclotomic.zero(3)
    assert rep.lth_det_coeffs == (one, zero, zero, one)
    assert rep.power_det_coeffs == rep.lth_det_coeffs


def test_closure_diagnostic_standard_even():
    rep = closure_diagnostic(SPEC2)
    assert (rep.l, rep.order, rep.standard, rep.power) == (2, 4, True, 2)
    assert rep.determinant_closes and rep.coproduct_closes
    one = Cyclotomic.one(4)
    zero = Cyclotomic.zero(4)
    assert rep.lth_det_coeffs == (one, zero, one)


def test_closure_diagnostic_nonstandard():
    rep = closure_diagnostic(remark_root_spec(3))
    assert (rep.l, rep.order, rep.standard, rep.power) == (3, 6, False, 6)
    one = Cyclotomic.one(6)
    zero = Cyclotomic.zero(6)
    # a^3 d^3 = 1 - b^3 c^3: the l-th power determinant picks up a sign
    assert rep.lth_det_coeffs == (one, zero, zero, -one)
    assert not rep.determinant_closes
    assert not rep.coproduct_closes
    # at order 2l the 2l-th powers still commute, but the l-th powers do not
    assert rep.powers_commute and rep.powers_central
    spec = remark_root_spec(3)
    A3 = QElement.generator(spec, "a") ** 3
    B3 = QElement.generator(spec, "b") ** 3
    assert qmul(A3, B3) == qmul(B3, A3) * (-1)


def _closure_reference(spec):
    # the diagnostic as first written, every power formed with **
    l = spec.l
    p = l if spec.standard else 2 * l
    gens = [QElement.generator(spec, ch) ** p for ch in "abcd"]
    lrow, prow = p_expansion(spec, l), p_expansion(spec, p)
    one = Cyclotomic.one(spec.N)
    expected = TensorElement(spec, {
        (QMonomial(p, 0, 0, 0), QMonomial(p, 0, 0, 0)): one,
        (QMonomial(0, p, 0, 0), QMonomial(0, 0, p, 0)): one,
    })
    return ClosureReport(
        l, spec.N, spec.standard, p,
        all(qmul(x, y) == qmul(y, x) for i, x in enumerate(gens) for y in gens[i + 1:]),
        all(is_central(g) for g in gens),
        tuple(lrow), tuple(prow),
        all(prow[j].is_zero() for j in range(1, p)),
        coproduct(QElement.generator(spec, "a") ** p) == expected,
    )


@pytest.mark.parametrize("l, order", [(3, 3), (3, 6), (4, 8), (5, 10)])
def test_closure_diagnostic_matches_the_reference_built_with_powers(l, order):
    spec = RootSpec(l, order)
    assert closure_diagnostic(spec) == _closure_reference(spec)


def test_closure_diagnostic_rejects_mismatched_pairs():
    for l, order in ((3, 4), (2, 2), (4, 4)):
        with pytest.raises(ValueError):
            closure_diagnostic(RootSpec(l, order))
