"""End-to-end acceptance checks for the rank-l^3 freeness engine.

Each test records exactly one line, `criterion N (<name>): PASS|FAIL`; the
lines are echoed in an "acceptance criteria" section after the pytest run
(and inline with -s).  All comparisons are bit-exact; each criterion also
carries a wall-clock budget and fails if it blows through it.
"""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_VERDICTS, random_qelement
from qsl2 import (
    ClassicalElement,
    Cyclotomic,
    QElement,
    QMonomial,
    antipode,
    clear_denominators,
    closure_diagnostic,
    coproduct,
    counit,
    decompose,
    enumerate_basis,
    lift,
    localize,
    make_root_spec,
    oracle_decompose,
    p_coeff,
    p_expansion,
    qmul,
    recompose,
    remark_root_spec,
    straighten,
    verify_freeness,
    zeta_pow,
)
from qsl2.basis import residual_monomials

F = Fraction


def _verdict(number, name, budget_s):
    start = time.monotonic()

    def finish(ok):
        elapsed = time.monotonic() - start
        if elapsed >= budget_s:
            ok = False
        line = "criterion %d (%s): %s   [%.1fs]" % (
            number, name, "PASS" if ok else "FAIL", elapsed)
        ACCEPTANCE_VERDICTS.append(line)
        print(line, flush=True)
        assert ok, line

    return finish


def test_criterion_1_rank_l_cubed():
    finish = _verdict(1, "free module of rank l^3", 120)
    ok = all(len(enumerate_basis(l)) == l**3 for l in (2, 3, 5))
    for l in (2, 3):
        left = verify_freeness(l, "left", 2)
        ok = ok and left.kernel_dimension == 0 and left.all_decomposed
        right = verify_freeness(l, "right", 2)
        ok = ok and right.kernel_dimension == 0
    finish(ok)


def test_criterion_2_decompose_matches_oracle():
    finish = _verdict(2, "decompose agrees with brute-force oracle", 60)
    ok = True
    for l in (2, 3):
        spec = make_root_spec(l)
        for mono in residual_monomials(l):
            x = QElement.monomial(spec, mono)
            for side in ("left", "right"):
                ok = ok and decompose(x, side).coefficients == \
                    oracle_decompose(x, side, 2).coefficients
    finish(ok)


def test_criterion_3_roundtrip_200_randoms():
    finish = _verdict(3, "recompose . decompose = id on random elements", 120)
    ok = True
    for l in (2, 3, 5):
        spec = make_root_spec(l)
        rng = random.Random(1000 + l)
        for trial in range(200):
            x = random_qelement(spec, rng, nterms=3, emax=2 * l)
            side = "left" if trial % 2 == 0 else "right"
            ok = ok and recompose(decompose(x, side)) == x
    finish(ok)


def test_criterion_4_p_coefficient_formula():
    finish = _verdict(4, "closed p-coefficients match product expansion", 60)
    ok = True
    for l in (2, 3, 5, 7):
        spec = make_root_spec(l)
        for k in range(l + 1):
            row = p_expansion(spec, k)
            for j in range(k + 1):
                ok = ok and p_coeff(spec, k, j) == row[j]
            ok = ok and p_coeff(spec, k, 0).is_one()
        for j in range(1, l):
            ok = ok and p_coeff(spec, l, j).is_zero()
    finish(ok)


def test_criterion_5_frobenius_hopf_subalgebra():
    finish = _verdict(5, "l-th powers span a Hopf subalgebra", 60)
    ok = True
    for l in (3, 5):
        spec = make_root_spec(l)
        one = Cyclotomic.one(spec.N)
        want = {
            (QMonomial(l, 0, 0, 0), QMonomial(l, 0, 0, 0)): one,
            (QMonomial(0, l, 0, 0), QMonomial(0, 0, l, 0)): one,
        }
        ok = ok and coproduct(QElement.generator(spec, "a") ** l).terms == want
        al, be, ga, de = (ClassicalElement.generator(spec, n)
                          for n in ("alpha", "beta", "gamma", "delta"))
        ok = ok and lift(al * de - be * ga) == QElement.one(spec)
    finish(ok)


def _hopf_axioms_hold(spec, x):
    t = coproduct(x)
    left, right = {}, {}
    for (m1, m2), v in t.terms.items():
        for (n1, n2), w in coproduct(QElement.monomial(spec, m1)).terms.items():
            key = (n1, n2, m2)
            left[key] = left.get(key, Cyclotomic.zero(spec.N)) + v * w
        for (n1, n2), w in coproduct(QElement.monomial(spec, m2)).terms.items():
            key = (m1, n1, n2)
            right[key] = right.get(key, Cyclotomic.zero(spec.N)) + v * w
    if {k: v for k, v in left.items() if not v.is_zero()} != \
       {k: v for k, v in right.items() if not v.is_zero()}:
        return False
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


def test_criterion_6_hopf_axioms():
    finish = _verdict(6, "coassociativity, counit, antipode axioms", 60)
    ok = True
    for l in (2, 3):
        spec = make_root_spec(l)
        rng = random.Random(2000 + l)
        words = ["a", "b", "c", "d"] + [
            "".join(rng.choice("abcd") for _ in range(rng.randrange(5)))
            for _ in range(50)
        ]
        for word in words:
            ok = ok and _hopf_axioms_hold(spec, straighten(word, spec))
    finish(ok)


def test_criterion_7_closure_diagnostics():
    finish = _verdict(7, "order-2l diagnostic vs the standard cases", 60)
    rep = closure_diagnostic(remark_root_spec(3))
    one6, zero6 = Cyclotomic.one(6), Cyclotomic.zero(6)
    ok = rep.lth_det_coeffs == (one6, zero6, zero6, -one6)  # a^3 d^3 = 1 - b^3 c^3
    ok = ok and not rep.coproduct_closes
    rep = closure_diagnostic(make_root_spec(3))
    one3, zero3 = Cyclotomic.one(3), Cyclotomic.zero(3)
    ok = ok and rep.lth_det_coeffs == (one3, zero3, zero3, one3)
    ok = ok and rep.determinant_closes and rep.coproduct_closes
    rep = closure_diagnostic(make_root_spec(2))
    one4, zero4 = Cyclotomic.one(4), Cyclotomic.zero(4)
    ok = ok and rep.lth_det_coeffs == (one4, zero4, one4)
    ok = ok and rep.determinant_closes and rep.coproduct_closes
    finish(ok)


def test_criterion_8_localization_roundtrip():
    finish = _verdict(8, "chart denominators clear exactly", 60)
    spec = make_root_spec(3)
    rng = random.Random(3000)
    al = ClassicalElement.generator(spec, "alpha")
    be = ClassicalElement.generator(spec, "beta")
    ok = True
    for _ in range(50):
        x = random_qelement(spec, rng, nterms=3)
        for chart, gen in (("alpha", al), ("beta", be)):
            cleared, k = clear_denominators(localize(x, chart))
            ok = ok and cleared == qmul(lift(gen**k), x)
    finish(ok)


def test_criterion_9_even_case_signs():
    finish = _verdict(9, "even-case sign pattern at l = 2", 60)
    spec = make_root_spec(2)
    A, B = QElement.generator(spec, "a"), QElement.generator(spec, "b")
    ok = qmul(A ** 2, B) == qmul(B, A ** 2) * (-1)

    dec = decompose(A, "left")
    al = ClassicalElement.generator(spec, "alpha")
    one = ClassicalElement.one(spec)
    ok = ok and dec.coefficients == {
        QMonomial(0, 0, 0, 1): al,                           # alpha * d
        QMonomial(1, 1, 1, 0): one * (-zeta_pow(spec, 1)),   # -i * abc
    }
    ok = ok and recompose(dec) == A

    x = qmul(A, B)
    left = decompose(x, "left")
    right = decompose(x, "right")
    ok = ok and recompose(left) == x and recompose(right) == x
    ok = ok and set(left.coefficients) == set(right.coefficients)
    flips = 0
    for key, gl in left.coefficients.items():
        gr = right.coefficients[key]
        ok = ok and (gl == gr or gl == gr * F(-1))
        flips += gl != gr
    ok = ok and flips > 0
    finish(ok)
