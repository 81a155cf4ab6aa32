import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC2, SPEC3, SPEC5, random_qelement
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    ClosureReport,
    Cyclotomic,
    Decomposition,
    DegreeBoundError,
    FreenessReport,
    LocalizedElement,
    ModuleElement,
    QElement,
    QMonomial,
    RootSpec,
    TensorElement,
    basis_index,
    central_reduce,
    classical_mul,
    clear_denominators,
    closure_diagnostic,
    coproduct,
    decompose,
    decomposition_from_json,
    eliminate_a_family,
    eliminate_d_family,
    enumerate_basis,
    is_basis_monomial,
    lift,
    localize,
    make_root_spec,
    module_recompose,
    oracle_decompose,
    p_expansion,
    qelement_from_json,
    qmul,
    recompose,
    remark_root_spec,
    straighten,
    verify_freeness,
    zeta_pow,
)
import qsl2.basis
from qsl2.basis import (
    _classical_weight,
    _divide_by_alpha,
    _pairs_by_weight,
    _quantum_weight,
    _trailing_monomial,
    residual_monomials,
)
from qsl2.exactla import ExactMatrix, nullspace
from qsl2.frobenius import _lifted_product
from qsl2.qalgebra import EXPONENT_MAX, _mono_mul

F = Fraction


@pytest.mark.parametrize("l,count", [(2, 8), (3, 27), (5, 125)])
def test_enumerate_basis_counts(l, count):
    basis = enumerate_basis(l)
    assert len(basis) == count
    assert len(set(basis)) == count
    d_members = [word for word in basis if basis_index(word)[0] == "D"]
    a_members = [word for word in basis if basis_index(word)[0] == "A"]
    assert len(d_members) == l * l * (l + 1) // 2
    assert len(a_members) == l * l * (l - 1) // 2


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
def test_enumerate_basis_is_the_nested_loops(l):
    want = [QMonomial(0, n, s, r) for n in range(l) for s in range(l) for r in range(l - s)]
    want += [QMonomial(m, n, s, 0) for m in range(1, l) for n in range(l) for s in range(m, l)]
    assert enumerate_basis(l) == want


@pytest.mark.parametrize("top", [0, 1, 2, 4])
def test_reduced_monomials_come_from_one_enumeration(top):
    # the residual words (exponents < l) and the oracle's candidate coefficients (exponents
    # <= the degree bound) are both the reduced monomials in a box, (top+1)^2 (2 top + 1) of them
    box = range(top + 1)
    for cls in (QMonomial, ClassicalMonomial):
        got = cls.reduced_up_to(top)
        assert got == sorted(cls(*e) for e in itertools.product(box, repeat=4) if cls(*e).is_reduced())
        assert len(got) == (top + 1) ** 2 * (2 * top + 1)
    assert residual_monomials(top + 1) == QMonomial.reduced_up_to(top)


def test_family_index_ranges():
    assert basis_index(QMonomial(1, 0, 2, 0)) == ("A", (("m", 1), ("n", 0), ("s", 2)))
    assert basis_index(QMonomial(0, 1, 0, 2)) == ("D", (("n", 1), ("s", 0), ("r", 2)))
    for word in enumerate_basis(3):
        family, indices = basis_index(word)
        ix = dict(indices)
        if family == "D":
            assert 0 <= ix["n"] <= 2 and ix["s"] + ix["r"] <= 2
            assert word == QMonomial(0, ix["n"], ix["s"], ix["r"])
        else:
            assert 1 <= ix["m"] <= ix["s"] <= 2 and 0 <= ix["n"] <= 2
            assert word == QMonomial(ix["m"], ix["n"], ix["s"], 0)


def test_is_basis_monomial():
    assert is_basis_monomial(QMonomial(0, 1, 2, 0), 3) is True
    assert is_basis_monomial(QMonomial(0, 0, 1, 1), 3) is True
    assert is_basis_monomial(QMonomial(1, 0, 2, 0), 3) is True
    assert is_basis_monomial(QMonomial(0, 0, 0, 0), 3) is True
    assert is_basis_monomial(QMonomial(0, 0, 2, 1), 3) is False  # s + r = 3
    assert is_basis_monomial(QMonomial(2, 0, 1, 0), 3) is False  # s < m
    with pytest.raises(ValueError):
        is_basis_monomial(QMonomial(1, 0, 0, 1), 3)
    with pytest.raises(ValueError):
        is_basis_monomial(QMonomial(3, 0, 0, 0), 3)  # exponent = l


@pytest.mark.parametrize("side", ["left", "right"])
def test_single_step_eliminations_recompose(side):
    # every non-basis residual monomial, and the head phase of the module docstring's relations
    for spec in (SPEC2, SPEC3, make_root_spec(4), SPEC5, make_root_spec(6),
                 make_root_spec(5, zeta_exponent=2), make_root_spec(4, 3)):
        l = spec.l
        alpha = ClassicalElement.generator(spec, "alpha")
        delta = ClassicalElement.generator(spec, "delta")
        eliminated = 0
        for mono in residual_monomials(l):
            if is_basis_monomial(mono, l):
                continue
            m, n, s, r = mono
            if m:
                k = l - m
                me = eliminate_a_family(m, n, s, spec, side)
                head = QMonomial(0, n, s, k)
                want = alpha * zeta_pow(spec, (-k if side == "left" else m) * (n + s))
            else:
                k = l - r
                me = eliminate_d_family(n, s, r, spec, side)
                head = QMonomial(k, n, s, 0)
                want = delta * zeta_pow(spec, (r if side == "left" else -k) * (n + s))
            assert me.terms[head] == want
            assert module_recompose(me) == QElement.monomial(spec, mono)
            eliminated += 1
        assert eliminated == l**3 - l**2


def test_eliminate_d_family_example():
    # b^0 c^2 d^2 at l = 3 rewrites over valid monomials with lifted blocks
    me = eliminate_d_family(0, 2, 2, SPEC3, "left")
    de = ClassicalElement.generator(SPEC3, "delta")
    ga = ClassicalElement.generator(SPEC3, "gamma")
    assert me.terms == {
        QMonomial(1, 0, 2, 0): de * zeta_pow(SPEC3, 4),
        QMonomial(0, 1, 0, 2): ga * (-zeta_pow(SPEC3, 1)),
    }


def test_decompose_generator_a_l3():
    # a = alpha d^2 - (1+q) a b c - q a b^2 c^2
    spec = SPEC3
    q = zeta_pow(spec, 1)
    dec = decompose(QElement.generator(spec, "a"), "left")
    al = ClassicalElement.generator(spec, "alpha")
    one = ClassicalElement.one(spec)
    assert dec.coefficients == {
        QMonomial(0, 0, 0, 2): al,
        QMonomial(1, 1, 1, 0): one * (-(Cyclotomic.one(3) + q)),
        QMonomial(1, 2, 2, 0): one * (-q),
    }
    assert recompose(dec) == QElement.generator(spec, "a")
    # the JSON rows come family D first, each as the family and its named indices
    assert [list(entry)[:-1] for entry in dec.to_json()["entries"]] == [
        ["family", "n", "s", "r"], ["family", "m", "n", "s"], ["family", "m", "n", "s"]]
    assert [list(entry.values())[:-1] for entry in dec.to_json()["entries"]] == [
        ["D", 0, 0, 2], ["A", 1, 1, 1], ["A", 1, 2, 2]]


def test_decompose_generator_a_l2():
    # a = alpha d - i a b c at l = 2 (q = i)
    spec = SPEC2
    dec = decompose(QElement.generator(spec, "a"), "left")
    al = ClassicalElement.generator(spec, "alpha")
    one = ClassicalElement.one(spec)
    assert dec.coefficients == {
        QMonomial(0, 0, 0, 1): al,
        QMonomial(1, 1, 1, 0): one * (-zeta_pow(spec, 1)),
    }
    assert recompose(dec) == QElement.generator(spec, "a")


def test_decompose_sides_differ_by_signs_in_even_case():
    spec = SPEC2
    x = straighten("ab", spec)
    left = decompose(x, "left")
    right = decompose(x, "right")
    assert left.side == "left" and right.side == "right"
    assert recompose(left) == x and recompose(right) == x
    assert set(left.coefficients) == set(right.coefficients)
    flips = 0
    for key, gl in left.coefficients.items():
        gr = right.coefficients[key]
        assert gl == gr or gl == gr * F(-1)
        flips += gl != gr
    assert flips > 0


def test_decompose_zero_and_basis_fixed_points():
    assert decompose(QElement.zero(SPEC3)).coefficients == {}
    for word in enumerate_basis(2):
        dec = decompose(QElement.monomial(SPEC2, word), "left")
        assert dec.coefficients == {word: ClassicalElement.one(SPEC2)}


SPEC4 = make_root_spec(4)
SPEC6 = make_root_spec(6)
SPEC5_ZETA2 = make_root_spec(5, zeta_exponent=2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_decompose_recompose_roundtrip(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3, SPEC4, SPEC5, SPEC6, SPEC5_ZETA2)))
    side = data.draw(st.sampled_from(("left", "right")))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_qelement(spec, rng, nterms=3, emax=2 * spec.l)
    dec = decompose(x, side)
    assert recompose(dec) == x
    for word in dec.coefficients:
        assert is_basis_monomial(word, spec.l)


def test_decompose_is_left_linear_over_the_subalgebra():
    rng = random.Random(21)
    spec = SPEC3
    g = (ClassicalElement.generator(spec, "alpha")
         + ClassicalElement.generator(spec, "beta") * F(2))
    for _ in range(5):
        x = random_qelement(spec, rng, nterms=2)
        dec = decompose(x, "left")
        lifted = decompose(qmul(lift(g), x), "left")
        want = {ix: g * h for ix, h in dec.coefficients.items()}
        assert lifted.coefficients == {ix: h for ix, h in want.items() if not h.is_zero()}


def test_decomposition_json_roundtrip():
    x = straighten("abc", SPEC3) + QElement.generator(SPEC3, "d") * F(3, 7)
    dec = decompose(x, "right")
    doc = dec.to_json()
    assert doc["side"] == "right"
    assert {e["family"] for e in doc["entries"]} <= {"A", "D"}
    back = decomposition_from_json(doc, SPEC3)
    assert back.coefficients == dec.coefficients
    assert recompose(back) == x


@pytest.mark.parametrize("row,word,says", [
    pytest.param({"family": "D", "n": 5, "s": 0, "r": 0}, QMonomial(0, 5, 0, 0),
                 "is not reduced for l=3", id="FamilyD(n=5, s=0, r=0)"),
    pytest.param({"family": "D", "n": 0, "s": 2, "r": 1}, QMonomial(0, 0, 2, 1),
                 r"^D\(n=0,s=2,r=1\) is not a basis index for l=3$", id="FamilyD(n=0, s=2, r=1)"),
    pytest.param({"family": "D", "n": 0, "s": 0, "r": -1}, QMonomial(0, 0, 0, -1),
                 "is not reduced for l=3", id="FamilyD(n=0, s=0, r=-1)"),
    pytest.param({"family": "A", "m": 2, "n": 0, "s": 1}, QMonomial(2, 0, 1, 0),
                 r"^A\(m=2,n=0,s=1\) is not a basis index for l=3$", id="FamilyA(m=2, n=0, s=1)"),
    pytest.param({"family": "A", "m": 1, "n": 3, "s": 1}, QMonomial(1, 3, 1, 0),
                 "is not reduced for l=3", id="FamilyA(m=1, n=3, s=1)"),
    # a^0 b^0 c^1 is the basis word c, whose family is D, so only the label is wrong
    pytest.param({"family": "A", "m": 0, "n": 0, "s": 1}, None,
                 r"^D\(n=0,s=1,r=0\) labelled A is not a basis index$", id="FamilyA(m=0, n=0, s=1)"),
])
def test_decomposition_rejects_indices_outside_the_basis(row, word, says):
    one = ClassicalElement.one(SPEC3)
    doc = Decomposition(SPEC3, "left", {QMonomial(0, 0, 0, 0): one}).to_json()
    doc["entries"][0] = {**row, "coeff": doc["entries"][0]["coeff"]}
    with pytest.raises(ValueError, match="not (reduced|a basis index)"):
        decomposition_from_json(doc, SPEC3)
    with pytest.raises(ValueError, match=says):
        decomposition_from_json(doc, SPEC3)
    if word is not None:
        with pytest.raises(ValueError, match=says):
            Decomposition(SPEC3, "left", {word: one})


def test_sided_json_reads_root_data_from_coefficients():
    spec = make_root_spec(3, zeta_exponent=2)
    x = straighten("abcd", spec) + QElement.generator(spec, "d") * F(3, 7)
    dec = decompose(x, "right")
    back = decomposition_from_json(dec.to_json())
    assert back == dec and back.spec == spec and recompose(back) == x
    assert json.dumps(back.to_json()) == json.dumps(dec.to_json())
    me = central_reduce(x, "left")
    assert ModuleElement.from_json(me.to_json()) == me
    for read in (decomposition_from_json, ModuleElement.from_json):
        with pytest.raises(ValueError, match="no root data"):
            read({"side": "left", "entries": [], "terms": []})
    # the side is checked like every other field of the head
    for bad in ("up", ["x"], None):
        for read in (decomposition_from_json, ModuleElement.from_json):
            with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
                read({"side": bad, "entries": [], "terms": []}, spec)
    for cls in (Decomposition, ModuleElement):
        with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'sideways'"):
            cls(spec, "sideways", {})


def test_json_readers_reject_non_integer_exponents():
    spec = SPEC3
    x = straighten("abcd", spec)
    me = central_reduce(x, "left")
    doc = x.to_json()
    doc["terms"][0]["b"] = 1.5
    with pytest.raises(ValueError, match="expected an integer"):
        qelement_from_json(doc)
    doc = me.to_json()
    doc["terms"][0]["monomial"]["b"] = 1.0
    with pytest.raises(ValueError, match="expected an integer"):
        ModuleElement.from_json(doc, spec)


def test_json_readers_cap_exponents():
    spec = SPEC3
    over = EXPONENT_MAX + 1
    x = straighten("abc", spec)
    doc = x.to_json()
    doc["terms"][0]["b"] = EXPONENT_MAX
    assert QMonomial(1, EXPONENT_MAX, 1, 0) in qelement_from_json(doc).terms
    doc["terms"][0]["b"] = over
    with pytest.raises(ValueError, match="exponent %d exceeds EXPONENT_MAX" % over):
        qelement_from_json(doc)
    doc = coproduct(x).to_json()
    doc["terms"][0]["right"]["c"] = over
    with pytest.raises(ValueError, match="EXPONENT_MAX"):
        TensorElement.from_json(doc, spec)
    doc = central_reduce(x, "left").to_json()
    doc["terms"][0]["monomial"]["d"] = over
    with pytest.raises(ValueError, match="EXPONENT_MAX"):
        ModuleElement.from_json(doc, spec)
    # alpha^k delta^k would expand into k + 1 terms before anything else is checked
    doc = decompose(x, "left").to_json()
    doc["entries"][0]["coeff"]["terms"][0].update(alpha=100000, delta=100000)
    with pytest.raises(ValueError, match="EXPONENT_MAX"):
        decomposition_from_json(doc, spec)


# --- localization charts ---


def test_localize_alpha_examples():
    spec = SPEC3
    D = QElement.generator(spec, "d")
    le = localize(D, "alpha")
    one = ClassicalElement.one(spec)
    assert le.chart == "alpha"
    assert le.terms == {
        QMonomial(2, 0, 0, 0): (one, 1),
        QMonomial(2, 1, 1, 0): (one * zeta_pow(spec, 1), 1),
    }
    # elements of the chart itself need no denominator
    le = localize(QElement.generator(spec, "a"), "alpha")
    assert le.terms == {QMonomial(1, 0, 0, 0): (one, 0)}
    assert le.max_power() == 0


@pytest.mark.parametrize("l", range(2, 10))
def test_bc_power_is_read_off_the_p_row(l):
    # (bc)^k = sum_t (-1)^(k-t) q^((k-t)(k-t-1) - k^2 - t^2) p_{k,t} a^t d^t, the
    # identity the beta chart of localize reads its words off, at every primitive root
    N = l if l % 2 else 2 * l
    specs = [make_root_spec(l, e) for e in range(1, N) if math.gcd(e, N) == 1]
    if l % 2:
        specs += [remark_root_spec(l, e) for e in range(1, 2 * l) if math.gcd(e, 2 * l) == 1]
    for spec in specs:
        for k in range(2 * l + 2):
            rhs = QElement(spec, {})
            for t, p in enumerate(p_expansion(spec, k)):
                c = p * zeta_pow(spec, (k - t) * (k - t - 1) - k * k - t * t)
                rhs = rhs + straighten("a" * t + "d" * t, spec) * (-c if (k - t) % 2 else c)
            assert straighten("b" * k + "c" * k, spec) == rhs, (spec, k)


@pytest.mark.parametrize("l", range(2, 8))
def test_beta_block_word_scalar_closed_form(l):
    # localize splits a chart word a^r b^s d^t into l-th-power blocks (A, B, C)
    # and a residual (r0, s0, t0), reading the scalar in closed form
    spec = make_root_spec(l)

    def word(r, s, t):
        return straighten("a" * r + "b" * s + "d" * t, spec)

    for A, B, C in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 1, 2)):
        block = word(l * A, l * B, l * C)
        for r0 in range(l):
            for s0 in range(l):
                for t0 in (0, l - 1):
                    assert qmul(block, word(r0, s0, t0)) == \
                        word(l * A + r0, l * B + s0, l * C + t0) * zeta_pow(spec, -l * (r0 * B + s0 * C))


def test_localize_beta_example():
    spec = SPEC3
    le = localize(QElement.generator(spec, "c"), "beta")
    one = ClassicalElement.one(spec)
    assert le.terms == {
        QMonomial(1, 2, 0, 1): (one, 1),
        QMonomial(0, 2, 0, 0): (one * (-zeta_pow(spec, -1)), 1),
    }


def test_localize_rejects_bad_chart():
    with pytest.raises(ValueError):
        localize(QElement.one(SPEC3), "gamma")


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_localize_clearing_contract(data):
    spec = data.draw(st.sampled_from((SPEC2, SPEC3)))
    chart = data.draw(st.sampled_from(("alpha", "beta")))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = random_qelement(spec, rng, nterms=3)
    le = localize(x, chart)
    cleared, k = clear_denominators(le)
    gen = ClassicalElement.generator(spec, chart)
    assert cleared == qmul(lift(gen ** k), x)
    for mono, (_, ki) in le.terms.items():
        assert ki <= k
        assert (mono.d == 0) if chart == "alpha" else (mono.c == 0)


@pytest.mark.parametrize("l", [4, 5])
def test_session_path_never_calls_the_key_hooks(l, monkeypatch):
    # decompose, recompose, localize and clear_denominators build every
    # result through the trusted _like, so no key is validated on the way
    spec = make_root_spec(l)
    rng = random.Random(l)
    xs = [random_qelement(spec, rng, nterms=4) for _ in range(6)]
    calls = []
    for cls in (QElement, ClassicalElement, ModuleElement, Decomposition):
        key = cls._key

        def counted(self, k, key=key, name=cls.__name__):
            calls.append(name)
            return key(self, k)

        monkeypatch.setattr(cls, "_key", counted)
    for x in xs:
        for side in ("left", "right"):
            assert recompose(decompose(x, side)) == x
        for chart in ("alpha", "beta"):
            clear_denominators(localize(x, chart))
    # so does the certificate: its oracle coordinates are keyed by basis indices
    for side in ("left", "right"):
        assert verify_freeness(4, side).oracle_agreement == 112
    assert calls == []
    QElement.monomial(spec, QMonomial(1, 0, 0, 0))
    assert calls == ["QElement"]


def test_localize_denominators_are_minimal():
    spec = SPEC3
    al = ClassicalElement.generator(spec, "alpha")
    x = qmul(lift(al), QElement.generator(spec, "d"))
    le = localize(x, "alpha")
    assert all(k == 0 for _, k in le.terms.values())
    assert clear_denominators(le) == (x, 0)


def test_localized_json():
    le = localize(QElement.generator(SPEC3, "c"), "beta")
    doc = le.to_json()
    assert doc["chart"] == "beta"
    assert all(set(t) == {"monomial", "numerator", "power"} for t in doc["terms"])


def test_classical_divisibility_helpers():
    spec = SPEC3
    al, be, ga, de = (ClassicalElement.generator(spec, n)
                      for n in ("alpha", "beta", "gamma", "delta"))
    g = al + al * be * ga  # alpha^2 delta in disguise
    g1 = _divide_by_alpha(g)
    assert g1 == ClassicalElement.one(spec) + be * ga
    assert _divide_by_alpha(g1) == de
    assert _divide_by_alpha(de) is None
    assert _divide_by_alpha(ClassicalElement.one(spec)) is None


def _beta_valuation_reference(g, cap):
    """Divide by beta one power at a time while every term has one, at most cap times."""
    v = 0
    while v < cap and all(m.beta >= 1 for m in g.terms):
        g = ClassicalElement(g.spec, {ClassicalMonomial(m.alpha, m.beta - 1, m.gamma, m.delta): c
                                      for m, c in g.terms.items()})
        v += 1
    return v, g


@pytest.mark.parametrize("l", [5, 7])
def test_beta_chart_denominators_match_stepwise_division(l):
    spec = make_root_spec(l)
    rng = random.Random(400 + l)
    be = ClassicalElement.generator(spec, "beta")
    powers = set()
    for _ in range(6):
        x = random_qelement(spec, rng, nterms=3)
        # localize blows every numerator up by beta^K, K the largest c-block of x
        K = max((m.c for m in central_reduce(x, "left").terms), default=0)
        for g, k in localize(x, "beta").terms.values():
            undivided = classical_mul(g, be ** (K - k))
            assert _beta_valuation_reference(undivided, K) == (K - k, g)
            powers.add(k)
    assert len(powers) > 1


def _alpha_valuation_reference(g, cap):
    """Divide by alpha one power at a time while it divides, at most cap times."""
    v = 0
    while v < cap:
        h = _divide_by_alpha(g)
        if h is None:
            break
        g, v = h, v + 1
    return v, g


@pytest.mark.parametrize("l", [5, 7])
def test_alpha_chart_denominators_match_stepwise_division(l):
    spec = make_root_spec(l)
    rng = random.Random(400 + l)
    al = ClassicalElement.generator(spec, "alpha")
    powers = set()
    for _ in range(6):
        x = random_qelement(spec, rng, nterms=3)
        # alpha^K, K the largest d-exponent of a residual monomial of x, clears every term
        K = max((m.d for m in central_reduce(x, "left").terms), default=0)
        for g, k in localize(x, "alpha").terms.values():
            undivided = classical_mul(g, al ** (K - k))
            assert _alpha_valuation_reference(undivided, K) == (K - k, g)
            powers.add(k)
    assert len(powers) > 1


# --- independent oracle ---


@pytest.mark.parametrize("side,spec", [("left", SPEC2), ("right", SPEC2),
                                       ("left", make_root_spec(4)), ("right", make_root_spec(4))],
                         ids=["left", "right", "left-l4", "right-l4"])
def test_oracle_agrees_on_all_small_monomials_l2(side, spec):
    for mono in residual_monomials(spec.l):
        x = QElement.monomial(spec, mono)
        assert decompose(x, side).coefficients == oracle_decompose(x, side, 2).coefficients


def test_decompose_oracle_recompose_agree_at_another_root():
    spec = make_root_spec(3, zeta_exponent=2)
    for side in ("left", "right"):
        for mono in residual_monomials(3):
            x = QElement.monomial(spec, mono)
            dec = decompose(x, side)
            assert dec.coefficients == oracle_decompose(x, side, 2).coefficients
            assert recompose(dec) == x
        rng = random.Random(7)
        for _ in range(5):
            x = random_qelement(spec, rng)
            dec = decompose(x, side)
            assert dec.coefficients == oracle_decompose(x, side).coefficients
            assert recompose(dec) == x


def test_oracle_agrees_on_combinations():
    spec = SPEC3
    x = QElement(spec, {
        QMonomial(0, 1, 2, 2): zeta_pow(spec, 2),
        QMonomial(2, 0, 1, 0): Cyclotomic.from_rational(3, F(3, 2)),
    })
    for side in ("left", "right"):
        assert oracle_decompose(x, side).coefficients == decompose(x, side).coefficients
    assert oracle_decompose(QElement.zero(spec)).coefficients == {}


def test_oracle_degree_bound_error():
    x = QElement.monomial(SPEC3, QMonomial(7, 0, 0, 0))
    with pytest.raises(DegreeBoundError):
        oracle_decompose(x, "left", 0)
    assert oracle_decompose(x, "left", 3).coefficients == decompose(x, "left").coefficients


def test_negative_degree_bound_is_rejected():
    x = QElement.monomial(SPEC3, QMonomial(1, 0, 0, 0))
    with pytest.raises(ValueError, match="degree_bound must be >= 0"):
        oracle_decompose(x, "left", -1)
    with pytest.raises(ValueError, match="degree_bound must be >= 0"):
        verify_freeness(3, "right", -1)
    assert verify_freeness(2, "left", 0).kernel_dimension == 0


@pytest.mark.parametrize("side", ["left", "right"])
def test_verify_freeness_l2(side):
    report = verify_freeness(2, side, 2)
    assert report.kernel_dimension == 0
    assert report.all_decomposed
    assert report.monomials_checked == 12
    assert report.l == 2 and report.side == side


def _lifted_column(spec, side, word, cm):
    # the candidate column through lift and qmul, sharing no code with _lifted_product
    g = lift(ClassicalElement.monomial(spec, cm))
    base = QElement.monomial(spec, word)
    return (qmul(g, base) if side == "left" else qmul(base, g)).terms


@pytest.mark.parametrize("spec", [SPEC2, SPEC3, SPEC4, SPEC5, SPEC5_ZETA2],
                         ids=lambda s: "l%d_e%d" % (s.l, s.zeta_exponent))
@pytest.mark.parametrize("side", ["left", "right"])
def test_column_is_the_lifted_product(spec, side):
    for pairs in _pairs_by_weight(spec.l, 2).values():
        for word, cm in pairs:
            assert dict(_lifted_product(spec, cm, word, side)) == _lifted_column(spec, side, word, cm)


def _per_monomial_reference(l, side, bound):
    """The certificate as one rref for the kernel and one oracle solve per monomial."""
    spec = make_root_spec(l)
    kernel = 0
    for pairs in _pairs_by_weight(l, bound).values():
        cols = [_lifted_column(spec, side, word, cm) for word, cm in pairs]
        rows = {}
        for j, col in enumerate(cols):
            for mono, v in col.items():
                rows.setdefault(mono, {})[j] = v
        kernel += len(nullspace(ExactMatrix.from_rows(spec.N, len(cols), rows.values())))
    spanned = agree = 0
    for mono in residual_monomials(l):
        x = QElement.monomial(spec, mono)
        try:
            oracle = oracle_decompose(x, side, bound)
        except DegreeBoundError:
            continue
        spanned += 1
        agree += oracle.coefficients == decompose(x, side).coefficients
    return kernel, spanned == len(residual_monomials(l)), agree


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_verify_freeness_matches_per_monomial_oracle(l, side, bound):
    report = verify_freeness(l, side, bound)
    assert (report.kernel_dimension, report.all_decomposed, report.oracle_agreement) == \
        _per_monomial_reference(l, side, bound)


TRAILING_SPECS = [make_root_spec(l) for l in range(2, 8)] + [make_root_spec(3, zeta_exponent=2), SPEC5_ZETA2]


@pytest.mark.parametrize("spec", TRAILING_SPECS, ids=lambda s: "l%d_e%d" % (s.l, s.zeta_exponent))
@pytest.mark.parametrize("side", ["left", "right"])
def test_trailing_monomial_is_the_unit_lowest_degree_term(spec, side):
    units = {sign * zeta_pow(spec, k) for k in range(spec.N) for sign in (1, -1)}
    for pairs in _pairs_by_weight(spec.l, 2).values():
        for word, cm in pairs:
            col = dict(_lifted_product(spec, cm, word, side))
            tau = _trailing_monomial(spec.l, word, cm)
            assert tau == min(col, key=QMonomial.sort_key)
            assert col[tau] in units
            assert all(m.degree() > tau.degree() for m in col if m != tau)


def _count_solved_weights(monkeypatch):
    solve, calls = qsl2.basis._solve_weight, []

    def counting_solve(spec, side, pairs, rhs):
        calls.append(len(rhs))
        return solve(spec, side, pairs, rhs)

    monkeypatch.setattr(qsl2.basis, "_solve_weight", counting_solve)
    return calls


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("l,solved", [(3, 25), (4, 49)])
def test_verify_freeness_solves_only_weights_with_residual_monomials(l, solved, side, monkeypatch):
    calls = _count_solved_weights(monkeypatch)
    report = verify_freeness(l, side, 2)
    assert report.kernel_dimension == 0 and report.all_decomposed
    assert len(calls) == solved == len({_quantum_weight(m) for m in residual_monomials(l)})
    assert all(calls)


@pytest.mark.parametrize("side", ["left", "right"])
def test_verify_freeness_falls_back_to_rref_when_trailing_monomials_collide(side, monkeypatch):
    want = verify_freeness(3, side, 2)
    calls = _count_solved_weights(monkeypatch)
    monkeypatch.setattr(qsl2.basis, "_trailing_monomial", lambda l, word, cm: QMonomial(0, 0, 0, 0))
    assert verify_freeness(3, side, 2) == want
    # a lone column cannot collide, so only a weight with one column and no residual monomial skips the rref
    solved = {w for w, pairs in _pairs_by_weight(3, 2).items() if len(pairs) > 1}
    solved |= {_quantum_weight(m) for m in residual_monomials(3)}
    assert len(calls) == len(solved) == 241


def test_record_types_keep_their_tuple_api():
    cases = [
        (make_root_spec(7, 3), ("l", "N", "zeta_exponent"), "RootSpec(l=7, N=7, zeta_exponent=3)"),
        (QMonomial(1, 0, 2, 0), ("a", "b", "c", "d"), "QMonomial(a=1, b=0, c=2, d=0)"),
        (ClassicalMonomial(0, 1, 2, 0), ("alpha", "beta", "gamma", "delta"),
         "ClassicalMonomial(alpha=0, beta=1, gamma=2, delta=0)"),
        (ExactMatrix(3, 2, ()), ("order", "ncols", "rows"), "ExactMatrix(order=3, ncols=2, rows=())"),
        (verify_freeness(2, "left", 1),
         ("l", "side", "degree_bound", "monomials_checked", "kernel_dimension", "monomials_spanned",
          "oracle_agreement"),
         "FreenessReport(l=2, side='left', degree_bound=1, monomials_checked=12, kernel_dimension=0, "
         "monomials_spanned=12, oracle_agreement=12)"),
        (ClosureReport(3, 6, False, 6, True, True, (), (), False, False),
         ("l", "order", "standard", "power", "powers_commute", "powers_central", "lth_det_coeffs",
          "power_det_coeffs", "determinant_closes", "coproduct_closes"),
         "ClosureReport(l=3, order=6, standard=False, power=6, powers_commute=True, powers_central=True, "
         "lth_det_coeffs=(), power_det_coeffs=(), determinant_closes=False, coproduct_closes=False)"),
        (localize(QElement.generator(SPEC3, "b"), "beta"), ("spec", "chart", "terms"),
         "LocalizedElement(spec=RootSpec(l=3, N=3, zeta_exponent=1), "
         "chart='beta', terms={QMonomial(a=0, b=1, c=0, d=0): "
         "(ClassicalElement<(Cyclotomic(3, [Fraction(1, 1), Fraction(0, 1)]))*1>, 0)})"),
    ]
    for record, fields, text in cases:
        cls = type(record)
        assert cls._fields == fields and repr(record) == text
        assert record._asdict() == dict(zip(fields, record))
        assert not hasattr(record, "__dict__")
        changed = record._replace(**{fields[0]: 7})
        assert type(changed) is cls and changed[0] == 7 and changed[1:] == record[1:]
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record
    assert make_root_spec(3) == RootSpec(3, 3, 1)
    assert RootSpec(3, 3, 1).standard is True
    # _replace goes through the validating constructor
    spec4 = make_root_spec(4)
    for bad in ({"N": 4}, {"l": 3}, {"zeta_exponent": 2}, {"l": 1, "N": 2}):
        with pytest.raises(ValueError):
            spec4._replace(**bad)
    assert spec4._replace(zeta_exponent=11) == RootSpec(4, 8, 3)
    assert spec4._replace(l=8, N=16).standard is True
    assert RootSpec._make((3, 6, 1)) == remark_root_spec(3)


def test_freeness_report_certifies_only_the_full_verdict():
    report = verify_freeness(2, "left", 1)
    assert report.certified
    for bad in ({"kernel_dimension": 1}, {"monomials_spanned": 11}, {"oracle_agreement": 11}):
        assert not report._replace(**bad).certified


def test_elements_and_reports_survive_pickle():
    x = random_qelement(SPEC3, random.Random(13), nterms=4)
    g = ClassicalElement(SPEC3, {ClassicalMonomial(1, 0, 2, 0): zeta_pow(SPEC3, 1) * F(2, 3),
                                 ClassicalMonomial(0, 1, 0, 1): Cyclotomic.one(3)})
    elements = [x, g, coproduct(x), central_reduce(x, "right"), decompose(x, "left"),
                localize(x, "alpha"), localize(x, "beta")]
    scalars = [Cyclotomic.one(3), Cyclotomic.zero(5), Cyclotomic(5, [F(1, 2), 0, F(-3, 4), 7])]
    for obj in elements + scalars:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
        with pytest.raises(AttributeError, match="immutable"):
            back.terms = {}
    report = closure_diagnostic(SPEC3)
    assert pickle.loads(pickle.dumps(report)) == report


def test_pairs_by_weight_weighs_each_candidate_once(monkeypatch):
    want = _pairs_by_weight(4, 2)
    calls = []

    def counting_weight(l, cm):
        calls.append(cm)
        return _classical_weight(l, cm)

    monkeypatch.setattr(qsl2.basis, "_classical_weight", counting_weight)
    assert _pairs_by_weight(4, 2) == want
    assert len(calls) == len(set(calls)) == 45


def test_family_indices_with_equal_fields_are_distinct_keys():
    # a*b*c is A(m=1,n=1,s=1) and b*c*d is D(n=1,s=1,r=1)
    a, d = QMonomial(1, 1, 1, 0), QMonomial(0, 1, 1, 1)
    assert [value for _, value in basis_index(a)[1]] == [value for _, value in basis_index(d)[1]] == [1, 1, 1]
    one = Cyclotomic.one(SPEC3.N)
    dec = Decomposition(SPEC3, "left", {a: ClassicalElement.one(SPEC3),
                                        d: ClassicalElement.scalar(SPEC3, one * 2)})
    assert len(dec.coefficients) == 2
    doc = json.loads(json.dumps(dec.to_json()))
    assert [entry["family"] for entry in doc["entries"]] == ["D", "A"]
    assert decomposition_from_json(doc, SPEC3) == dec
    assert recompose(dec) == QElement.monomial(SPEC3, a) + QElement.monomial(SPEC3, d) * 2


def test_localized_element_is_immutable():
    le = localize(QElement.generator(SPEC3, "d"), "alpha")
    for name in ("spec", "chart", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(le, name, None)
    assert le == localize(QElement.generator(SPEC3, "d"), "alpha")
    assert le != localize(QElement.generator(SPEC3, "d"), "beta")
    assert le == LocalizedElement(le.spec, le.chart, dict(le.terms))
    with pytest.raises(TypeError):
        hash(le)


# --- the direct routes against references built from the public constructors and qmul ---


ROUTE_SPECS = [make_root_spec(l) for l in range(2, 8)] + [SPEC5_ZETA2]


def _route_id(spec):
    return "l%d_e%d" % (spec.l, spec.zeta_exponent)


def _random_classical(spec, rng, nterms=3, emax=2):
    """A random classical element through the reducing public constructor; alpha and delta may meet."""
    terms = {}
    for _ in range(nterms):
        mono = ClassicalMonomial(*(rng.randrange(0, emax + 1) for _ in range(4)))
        terms[mono] = terms.get(mono, 0) + zeta_pow(spec, rng.randrange(spec.N)) * F(rng.randrange(1, 4))
    return ClassicalElement(spec, terms)


def _classical_mul_reference(x, y):
    acc = ClassicalElement.zero(x.spec)
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            mono = tuple(e + f for e, f in zip(mx, my))
            acc = acc + ClassicalElement(x.spec, {mono: cx * cy})
    return acc


def _recompose_reference(me):
    acc = QElement.zero(me.spec)
    for mono, g in me.terms.items():
        base = QElement.monomial(me.spec, mono)
        acc = acc + (qmul(lift(g), base) if me.side == "left" else qmul(base, lift(g)))
    return acc


def _clear_reference(le):
    spec, K = le.spec, le.max_power()
    gen = ClassicalElement.generator(spec, le.chart)
    acc = QElement.zero(spec)
    for mono, (g, k) in le.terms.items():
        full = _classical_mul_reference(g, gen ** (K - k))
        # the chart word a^r b^s c^t d^u (c = 0 on the beta chart, d = 0 on the alpha chart), letter by letter
        r, s, t, u = mono
        acc = acc + qmul(lift(full), straighten("a" * r + "b" * s + "c" * t + "d" * u, spec))
    return acc, K


@pytest.mark.parametrize("spec", ROUTE_SPECS, ids=_route_id)
def test_classical_mul_matches_the_constructor_reference(spec):
    rng = random.Random(100 + spec.l)
    for _ in range(6):
        x, y = _random_classical(spec, rng), _random_classical(spec, rng)
        prod = classical_mul(x, y)
        assert prod == _classical_mul_reference(x, y)
        assert all(m.is_reduced() for m in prod.terms)
        # lift is an injective algebra map, and the quantum engine reduces a^l d^l its own way
        assert lift(prod) == qmul(lift(x), lift(y))
    assert lift(x) == QElement(spec, {QMonomial(*(spec.l * e for e in m)): v for m, v in x.terms.items()})


@pytest.mark.parametrize("spec", ROUTE_SPECS, ids=_route_id)
@pytest.mark.parametrize("side", ["left", "right"])
def test_module_recompose_matches_the_qmul_reference(spec, side):
    rng = random.Random(200 + spec.l)
    residuals = residual_monomials(spec.l)
    for _ in range(3):
        x = random_qelement(spec, rng, nterms=3)
        me = central_reduce(x, side)
        assert module_recompose(me) == _recompose_reference(me) == x
        arbitrary = ModuleElement(spec, side, {rng.choice(residuals): _random_classical(spec, rng)
                                               for _ in range(3)})
        assert module_recompose(arbitrary) == _recompose_reference(arbitrary)


@pytest.mark.parametrize("spec", ROUTE_SPECS, ids=_route_id)
@pytest.mark.parametrize("chart", ["alpha", "beta"])
def test_clear_denominators_matches_the_qmul_reference(spec, chart):
    rng = random.Random(300 + spec.l)
    gen = ClassicalElement.generator(spec, chart)
    for _ in range(3):
        x = random_qelement(spec, rng, nterms=3)
        cleared, k = clear_denominators(localize(x, chart))
        assert (cleared, k) == _clear_reference(localize(x, chart))
        assert cleared == qmul(lift(gen ** k), x)


@pytest.mark.parametrize("l", [5, 7])
def test_recompose_and_charts_skip_the_mono_mul_cache(l, monkeypatch):
    # recompose, clear_denominators and the alpha chart of localize form their lifted-block
    # products uncached (the rule in qalgebra._mono_mul); localize's own central_reduce
    # calls stay on the cache, so their traffic is counted and set apart
    spec = make_root_spec(l)
    real_reduce = qsl2.basis.central_reduce
    reduce_traffic = [0, 0]

    def counted_reduce(x, side="left"):
        before = _mono_mul.cache_info()
        out = real_reduce(x, side)
        after = _mono_mul.cache_info()
        reduce_traffic[0] += after.hits - before.hits
        reduce_traffic[1] += after.misses - before.misses
        return out

    monkeypatch.setattr(qsl2.basis, "central_reduce", counted_reduce)
    rng = random.Random(700 + l)
    for _ in range(3):
        x = random_qelement(spec, rng, nterms=4, emax=3 * l)
        for side in ("left", "right"):
            dec = decompose(x, side)
            before = _mono_mul.cache_info()
            assert recompose(dec) == x
            assert _mono_mul.cache_info() == before, side
        for chart in ("alpha", "beta"):
            reduce_traffic[:] = [0, 0]
            before = _mono_mul.cache_info()
            le = localize(x, chart)
            after = _mono_mul.cache_info()
            assert [after.hits - before.hits, after.misses - before.misses] == reduce_traffic, chart
            cleared, k = clear_denominators(le)
            assert _mono_mul.cache_info() == after, chart
            assert cleared == qmul(lift(ClassicalElement.generator(spec, chart) ** k), x)
    # the products that recur stay cached
    for again in (lambda: central_reduce(x, "right"), lambda: qmul(x, x)):
        again()
        before = _mono_mul.cache_info()
        again()
        after = _mono_mul.cache_info()
        assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("spec", ROUTE_SPECS, ids=_route_id)
def test_chart_denominator_powers_are_zero_or_one(spec):
    # a^l d^m contracts completely and b^(l+j) c^k pairs every c, for m, k < l
    rng = random.Random(600 + spec.l)
    xs = [QElement.monomial(spec, mono) for mono in residual_monomials(spec.l)]
    xs += [random_qelement(spec, rng, nterms=4) for _ in range(10)]
    for chart, letter in (("alpha", "d"), ("beta", "c")):
        seen = set()
        for x in xs:
            le = localize(x, chart)
            powers = {k for _, k in le.terms.values()}
            assert powers <= {0, 1}
            # with no residual d (alpha) or c (beta), x lies in the chart already
            assert le.max_power() == 0 or any(getattr(m, letter) for m in central_reduce(x, "left").terms)
            seen |= powers
        assert seen == {0, 1}
