import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC2, SPEC3, random_qelement
from qsl2 import (
    ClassicalElement,
    Cyclotomic,
    QElement,
    QMonomial,
    central_reduce,
    coproduct,
    cyclotomic_polynomial,
    decompose,
    lift,
    make_root_spec,
    module_recompose,
    qmul,
    zeta_pow,
)
import qsl2.basis
import qsl2.cli
import qsl2.expr
import qsl2.frobenius
from qsl2.cli import run
from qsl2.expr import (
    EXPONENT_MAX,
    NESTING_MAX,
    POWER_PRODUCTS_MAX,
    ExprSyntaxError,
    format_classical,
    format_cyclotomic,
    format_qelement,
    format_tensor,
    parse_qelement,
)

F = Fraction


def test_parse_defining_relation():
    assert parse_qelement("a*d - q*b*c", SPEC3) == QElement.one(SPEC3)


def test_parse_scalar_prefactor():
    got = parse_qelement("q^-1*b*a", SPEC3)
    assert got == QElement.monomial(SPEC3, QMonomial(1, 1, 0, 0), zeta_pow(SPEC3, -2))


def test_parse_classical_symbols():
    assert parse_qelement("alpha", SPEC3) == QElement.generator(SPEC3, "a") ** 3
    assert parse_qelement("β + γ", SPEC3) == parse_qelement("beta + gamma", SPEC3)


def test_parse_rationals_and_parens():
    assert parse_qelement("2/3", SPEC3) == QElement.scalar(SPEC3, F(2, 3))
    assert parse_qelement("(a + b)^2", SPEC3) == (
        QElement.generator(SPEC3, "a") + QElement.generator(SPEC3, "b")
    ) ** 2
    A, B = QElement.generator(SPEC3, "a"), QElement.generator(SPEC3, "b")
    assert parse_qelement("-a", SPEC3) == QElement.zero(SPEC3) - A
    assert parse_qelement("(-1)*b + a", SPEC3) == A - B
    assert parse_qelement("q^(-3)", SPEC3) == QElement.scalar(SPEC3, zeta_pow(SPEC3, -3))


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError) as info:
        parse_qelement("a^(2", SPEC3)
    assert info.value.position == 4
    with pytest.raises(ExprSyntaxError) as info:
        parse_qelement("a + foo*b", SPEC3)
    assert info.value.position == 4 and "unknown symbol" in str(info.value)
    with pytest.raises(ExprSyntaxError):
        parse_qelement("a b", SPEC3)  # no implicit multiplication
    with pytest.raises(ExprSyntaxError):
        parse_qelement("1/0", SPEC3)
    for text in ("a^²", "a^٣"):  # only ASCII digits are integers
        with pytest.raises(ExprSyntaxError) as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == 2 and "expected integer" in str(info.value)
    # a classical letter after a quantum one is reported at the offending factor
    for text, position in (("a*alpha", 2), ("b * 2*delta^2", 6), ("(a*b)*gamma", 6)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == position and "must precede" in str(info.value)


def test_parentheses_nest_at_most_nesting_max_deep():
    # the bound stops the descent at the offending "(" before the stack runs out
    A = QElement.generator(SPEC3, "a")
    for depth in (50, NESTING_MAX):
        assert parse_qelement("(" * depth + "a" + ")" * depth, SPEC3) == A
    # the bound is on the depth, not on the number of parentheses
    nested = "(" * NESTING_MAX + "a" + ")" * NESTING_MAX
    assert parse_qelement(" + ".join([nested] * 3), SPEC3) == 3 * A
    for depth, lead in ((NESTING_MAX + 1, ""), (250, ""), (10**5, ""), (NESTING_MAX + 1, "b + ")):
        text = lead + "(" * depth + "a" + ")" * depth
        with pytest.raises(ExprSyntaxError) as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == len(lead) + NESTING_MAX and "NESTING_MAX" in str(info.value)


def test_exponents_are_capped_except_on_q():
    for text, position in (("a^1001", 2), ("b*alpha^(5000)", 9), ("(a*d)^ 1001", 7), ("2^1001", 2),
                           ("(q^2)^1001", 6)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == position and "EXPONENT_MAX = %d" % EXPONENT_MAX in str(info.value)
    A = QElement.generator(SPEC3, "a")
    assert parse_qelement("a^1000", SPEC3) == A ** EXPONENT_MAX
    assert parse_qelement("q^-99999999 + (q)^99999999", SPEC3) == QElement.scalar(
        SPEC3, zeta_pow(SPEC3, -99999999) + zeta_pow(SPEC3, 99999999))


def test_powers_of_sums_are_bounded_before_they_expand(capsys):
    # each product charges its term pairs 1 + min(a-sum, d-sum) against the budget of the
    # whole parse, and the error names the charge at the product that crossed it
    for text, position, products in (("(a+b+c+d)^1000", 10, 56004),
                                      ("(1+a)^400", 6, 50398), ("2*(a + b)^ 300", 11, 50230)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == position
        assert "to %d term products, over POWER_PRODUCTS_MAX = %d" % (products, POWER_PRODUCTS_MAX) \
            in str(info.value)
    A, B = QElement.generator(SPEC3, "a"), QElement.generator(SPEC3, "b")
    assert parse_qelement("(1+a)^200", SPEC3) == (A + 1) ** 200
    assert parse_qelement("(a*b)^1000", SPEC3) == (A * B) ** 1000
    assert len(parse_qelement("(a+b+c+d)^20", SPEC3).terms) == 1268
    assert parse_qelement("(a-a)^1000 + (a+b)^0", SPEC3) == QElement.one(SPEC3)
    code, out, err = _cli(capsys, "--l", "3", "normalize", "(a+b+c+d)^1000")
    assert code == 2 and out == "" and err.startswith("parse error: ") and "POWER_PRODUCTS_MAX" in err


def test_parse_budget_counts_every_product_of_the_whole_expression():
    # q-commutation makes (a+d)^k far larger than its commutative count, and two powers
    # that each fit share one budget, whether they are multiplied or added
    for text, position in (("(a+d)^150", 6), ("(a+b+c+d)^20*(a+b+c+d)^20", 23),
                           ("(1+a)^200*(1+d)^200", 16), ("(1+a)^200 + (1+d)^200", 18),
                           ("(a*d)^1000", 6), ("(1+a)^150*(1+d)^150", 10)):
        with pytest.raises(ExprSyntaxError, match="over POWER_PRODUCTS_MAX") as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == position
    D = QElement.generator(SPEC3, "d")
    assert parse_qelement("(1+d)^200", SPEC3) == (D + 1) ** 200


def test_each_symbol_power_is_built_once(monkeypatch):
    # a symbol followed by ^ is built only at its exponent, not first as its first power
    calls = []
    build = qsl2.expr._Parser.symbol_power

    def counted(self, name, exponent):
        calls.append((name, exponent))
        return build(self, name, exponent)

    monkeypatch.setattr(qsl2.expr._Parser, "symbol_power", counted)
    x = parse_qelement("q^2*a^5*b^3", SPEC3)
    assert calls == [("q", 2), ("a", 5), ("b", 3)]
    assert x == QElement.monomial(SPEC3, QMonomial(5, 3, 0, 0), zeta_pow(SPEC3, 2))


def test_negative_exponents_only_on_q():
    for bad in ("a^-1", "alpha^-2", "(a+b)^-1", "2^-1"):
        with pytest.raises(ExprSyntaxError):
            parse_qelement(bad, SPEC3)
    parse_qelement("q^-5", SPEC3)


def test_parenthesized_q_takes_negative_exponents():
    A = QElement.generator(SPEC3, "a")
    assert parse_qelement("(q)^-1", SPEC3) == QElement.scalar(SPEC3, zeta_pow(SPEC3, -1))
    assert parse_qelement("((q))^(-2)*a", SPEC3) == A * zeta_pow(SPEC3, 1)
    for bad in ("(-q)^-1", "(q^2)^-1", "(1*q)^-1"):
        with pytest.raises(ExprSyntaxError):
            parse_qelement(bad, SPEC3)


def test_classical_factors_must_come_first():
    al = ClassicalElement.generator(SPEC3, "alpha")
    B = QElement.generator(SPEC3, "b")
    assert parse_qelement("alpha*b", SPEC3) == qmul(lift(al), B)
    for bad in ("b*alpha", "a*(alpha*b)", "a*b*delta^2"):
        with pytest.raises(ValueError):
            parse_qelement(bad, SPEC3)


def test_evaluate_requires_spec():
    with pytest.raises(ValueError):
        parse_qelement("a", None)


def test_format_pinned_strings():
    da = qmul(QElement.generator(SPEC3, "d"), QElement.generator(SPEC3, "a"))
    assert format_qelement(da) == "1 + q^-1*b*c"
    assert format_qelement(QElement.zero(SPEC3)) == "0"
    assert format_tensor(coproduct(QElement.generator(SPEC3, "a"))) == "a (x) a + b (x) c"
    g = ClassicalElement.generator(SPEC3, "alpha") * ClassicalElement.generator(SPEC3, "beta")
    assert format_classical(g - ClassicalElement.scalar(SPEC3, F(1, 2))) == "-1/2 + alpha*beta"


def test_format_cyclotomic_prefers_short_q_powers():
    assert format_cyclotomic(SPEC3, zeta_pow(SPEC3, 2)) == "q^-1"
    assert format_cyclotomic(SPEC2, zeta_pow(SPEC2, 3)) == "q^-1"
    assert format_cyclotomic(SPEC2, zeta_pow(SPEC2, 2)) == "-1"
    one = Cyclotomic.one(3)
    q = zeta_pow(SPEC3, 1)
    assert format_cyclotomic(SPEC3, one + q) == "-q^-1"  # 1 + z = -z^2 at order 3
    two = Cyclotomic.from_rational(3, F(2))
    assert format_cyclotomic(SPEC3, two + q) == "(2 + q)"
    assert format_cyclotomic(SPEC3, -(two + q)) == "-(2 + q)"
    assert format_cyclotomic(SPEC3, q - one) == "(-1 + q)"
    assert format_cyclotomic(SPEC3, Cyclotomic.zero(3)) == "0"


def _zeta_power_reference(N, m):
    """The numerators of x^m mod Phi_N, by long division, without the field tables."""
    poly = cyclotomic_polynomial(N)
    deg = len(poly) - 1
    rem = [0] * m + [1]
    for top in range(m, deg - 1, -1):
        c = rem[top]
        if c:
            for i, p in enumerate(poly):
                rem[top - deg + i] -= c * p
    return (rem + [0] * deg)[:deg]


@pytest.mark.parametrize("l,e", [(2, 1), (3, 1), (7, 1), (4, 3), (5, 2), (8, 5)])
def test_every_unit_prints_as_its_shortest_q_power(l, e):
    spec = make_root_spec(l, zeta_exponent=e)
    N = spec.N
    # q^j = zeta^(e*j); +q^j is tried first, so it wins the tie -q^j = q^(j+N/2) at even N
    q_powers = [(sign, j, [sign * x for x in _zeta_power_reference(N, e * j % N)])
                for sign in (1, -1) for j in range(N)]
    for k in range(N):
        for sign in (1, -1):
            vec = [sign * x for x in _zeta_power_reference(N, k)]
            z = Cyclotomic(N, vec)
            if not any(vec[1:]):
                want = "1" if vec[0] == 1 else "-1"
            else:
                s, j = next((s, j) for s, j, v in q_powers if v == vec)
                rep = j if j <= N // 2 else j - N
                want = ("-" if s < 0 else "") + ("q" if rep == 1 else "q^%d" % rep)
            text = format_cyclotomic(spec, z)
            assert text == want, (k, sign)
            assert parse_qelement(text, spec) == QElement.scalar(spec, z)


@pytest.mark.parametrize("l,e,want", [
    (4, 3, ["(2 + q)", "(q + q^3)", "(1/2*q^2 - 3*q^3)", "-(1 + q)", "(-q^2 + q^3)"]),
    (5, 2, ["(2 + q)", "(1 + 2*q + q^2 + q^3)", "(1/2*q^2 - 3*q^3)", "-(1 + q)", "(q + q^3)"]),
    (5, 3, ["(2 + q)", "(1 + 2*q + q^2 + q^3)", "(1/2*q^2 - 3*q^3)", "-(1 + q)", "-(1 + q + q^3)"]),
])
def test_format_cyclotomic_in_q_coordinates(l, e, want):
    # with q = zeta^e, e != 1, a non-monomial coefficient is written as a polynomial in q
    spec = make_root_spec(l, zeta_exponent=e)
    one, q, zeta = Cyclotomic.one(spec.N), zeta_pow(spec, 1), Cyclotomic.zeta(spec.N)
    values = [one * 2 + q, q - zeta_pow(spec, -1), zeta_pow(spec, 2) * F(1, 2) - zeta_pow(spec, 3) * 3,
              -(one + q), zeta + zeta * zeta]
    assert [format_cyclotomic(spec, z) for z in values] == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(data):
    spec = data.draw(st.sampled_from(
        (SPEC2, SPEC3, make_root_spec(4, zeta_exponent=3), make_root_spec(5),
         make_root_spec(5, zeta_exponent=2))
    ))
    rng_seed = data.draw(st.integers(0, 10**6))
    import random

    x = random_qelement(spec, random.Random(rng_seed), nterms=4)
    assert parse_qelement(format_qelement(x), spec) == x


# --- command line ---


def _cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_normalize(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "normalize", "d*a")
    assert code == 0 and out.strip() == "1 + q^-1*b*c"


def test_cli_normalize_json(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "--format", "json", "normalize", "d*a")
    doc = json.loads(out)
    assert code == 0
    assert doc["spec"] == {"l": 3, "N": 3, "zeta_exponent": 1}
    assert [t["b"] for t in doc["terms"]] == [0, 1]
    assert doc["terms"][1]["coeff"]["coeffs"] == ["-1", "-1"]  # q^-1 = -1 - z at N=3


def test_cli_mul_and_q_powers(capsys):
    code, out, _ = _cli(capsys, "--l", "2", "mul", "b", "a")
    assert code == 0 and out.strip() == "q^-1*a*b"


def test_cli_hopf_commands(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "coproduct", "b")
    assert code == 0 and out.strip() == "a (x) b + b (x) d"
    code, out, _ = _cli(capsys, "--l", "3", "antipode", "b")
    assert code == 0 and out.strip() == "-q^-1*b"
    code, out, _ = _cli(capsys, "--l", "3", "counit", "a*d - q*b*c")
    assert code == 0 and out.strip() == "1"


def test_cli_decompose_text_tags_each_word(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "decompose", "a")
    assert code == 0 and out.splitlines() == [
        "D(n=0,s=0,r=2)  d^2 : alpha", "A(m=1,n=1,s=1)  a*b*c : q^-1", "A(m=1,n=2,s=2)  a*b^2*c^2 : -q"]
    doc = _one_entry_decomposition({"family": "D", "n": 0, "s": 2, "r": 1}, {"order": 3, "coeffs": ["1", "0"]})
    code, out, err = _cli(capsys, "--l", "3", "recompose", doc)
    assert (code, out, err) == (2, "", "error: D(n=0,s=2,r=1) is not a basis index for l=3\n")


def test_cli_decompose_json_has_three_entries(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "--format", "json", "decompose", "a")
    doc = json.loads(out)
    assert code == 0 and doc["side"] == "left" and len(doc["entries"]) == 3
    families = sorted((e["family"], e.get("r", e.get("m"))) for e in doc["entries"])
    assert families == [("A", 1), ("A", 1), ("D", 2)]


def test_cli_decompose_recompose_roundtrip(capsys):
    code, dec_json, _ = _cli(capsys, "--l", "3", "--format", "json", "decompose", "a*b")
    assert code == 0
    code, out, _ = _cli(capsys, "--l", "3", "recompose", dec_json)
    assert code == 0
    code, want, _ = _cli(capsys, "--l", "3", "normalize", "a*b")
    assert out == want


def test_cli_recompose_rejects_malformed_json(capsys):
    over_zero = {"terms": [{"alpha": 0, "beta": 0, "gamma": 0, "delta": 0,
                            "coeff": {"order": 3, "coeffs": ["1/0", "0"]}}]}
    bad_coeff = {"side": "left", "entries": [{"family": "D", "n": 0, "s": 0, "r": 1, "coeff": over_zero}]}
    # alpha^k delta^k expands into k + 1 terms, so an uncapped reader would practically never finish
    huge = {"terms": [{"alpha": 100000, "beta": 0, "gamma": 0, "delta": 100000,
                       "coeff": {"order": 3, "coeffs": ["1", "0"]}}]}
    over_cap = {"side": "left", "entries": [{"family": "D", "n": 0, "s": 0, "r": 1, "coeff": huge}]}
    for doc in ('{"side":"left","entries":5}', "[1]", json.dumps(bad_coeff), '{"side":"up","entries":[]}',
                json.dumps(over_cap)):
        code, out, err = _cli(capsys, "--l", "3", "recompose", doc)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_recompose_names_a_missing_field(capsys):
    code, out, err = _cli(capsys, "--l", "3", "recompose",
                          '{"side":"left","entries":[{"family":"D","n":0,"s":0}]}')
    assert code == 2 and out == ""
    assert err == "error: malformed Decomposition JSON: missing field 'r'\n"


def test_cli_key_error_from_a_bug_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("internal")

    monkeypatch.setattr(qsl2.cli, "decompose", broken)
    with pytest.raises(KeyError):
        run(["--l", "3", "decompose", "a"])


def _one_entry_decomposition(index: dict, coeff: dict) -> str:
    classical = {"terms": [{"alpha": 0, "beta": 0, "gamma": 0, "delta": 0, "coeff": coeff}]}
    return json.dumps({"side": "left", "entries": [{**index, "coeff": classical}]})


def test_cli_recompose_rejects_non_integer_fields(capsys):
    one = {"order": 3, "coeffs": ["1", "0"]}
    code, out, _ = _cli(capsys, "--l", "3", "recompose",
                        _one_entry_decomposition({"family": "D", "n": 0, "s": 0, "r": 1}, one))
    assert code == 0 and out.strip() == "d"
    for index in ({"family": "D", "n": 0.9, "s": 0, "r": 1.7}, {"family": "D", "n": 0, "s": 0, "r": 1.0},
                  {"family": "A", "m": "1", "n": 0, "s": 0}, {"family": "D", "n": 0, "s": True, "r": 1}):
        code, out, err = _cli(capsys, "--l", "3", "recompose", _one_entry_decomposition(index, one))
        assert code == 2 and out == "" and "expected an integer" in err
    code, out, err = _cli(capsys, "--l", "3", "recompose", _one_entry_decomposition(
        {"family": "D", "n": 0, "s": 0, "r": 1}, {"order": 3.0, "coeffs": ["1", "0"]}))
    assert code == 2 and out == "" and "expected an integer" in err


def test_cli_recompose_reads_coefficients_only_as_the_writer_writes_them(capsys):
    index = {"family": "D", "n": 0, "s": 0, "r": 1}
    code, out, _ = _cli(capsys, "--l", "3", "recompose",
                        _one_entry_decomposition(index, {"order": 3, "coeffs": ["1/10", "-3"]}))
    assert code == 0 and out.strip() == "(1/10 - 3*q)*d"
    # a JSON float would be read at its binary value, 3602879701896397/36028797018963968
    for coeffs in ([0.1, "0"], ["1.5", "0"], [True, "0"], [1, "0"], ["1/0", "0"], ["1/-2", "0"],
                   ["1"], ["1", "0", "0"], "10"):
        code, out, err = _cli(capsys, "--l", "3", "recompose",
                              _one_entry_decomposition(index, {"order": 3, "coeffs": coeffs}))
        assert code == 2 and out == "", coeffs
        assert err.startswith("error: ") and "Traceback" not in err


def test_cli_recompose_rejects_a_huge_coefficient_order_at_once(capsys):
    doc = _one_entry_decomposition({"family": "D", "n": 0, "s": 0, "r": 1}, {"order": 30000, "coeffs": ["1"]})
    start = time.perf_counter()
    code, out, err = _cli(capsys, "--l", "3", "recompose", doc)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "order 30000" in err


def test_cli_localize(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "localize", "d", "--chart", "alpha")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "chart alpha"
    assert any("alpha^-1" in line for line in lines[1:])
    code, out, _ = _cli(capsys, "--l", "3", "--format", "json", "localize", "c", "--chart", "beta")
    doc = json.loads(out)
    assert code == 0 and doc["chart"] == "beta"
    assert all(t["power"] == 1 for t in doc["terms"])
    # a numerator of several terms is parenthesized before its denominator
    for expr, chart, want in (
        ("d^2 + c^2", "alpha", ["chart alpha", "a : 1 * alpha^-1", "c^2 : 1",
                                "a*b*c : -q^-1 * alpha^-1", "a*b^2*c^2 : q * alpha^-1"]),
        ("d^2 + c^2", "beta", ["chart beta", "b : q * beta^-1", "d^2 : 1",
                               "a*b*d : q^-1 * beta^-1", "a^2*b*d^2 : 1 * beta^-1"]),
        ("d^2*b + a*c^2", "beta", ["chart beta", "a*b : q * beta^-1",
                                   "b*d^2 : (alpha + q*beta) * beta^-1", "a^2*b*d : q^-1 * beta^-1"]),
    ):
        code, out, _ = _cli(capsys, "--l", "3", "localize", expr, "--chart", chart)
        assert code == 0 and out.splitlines() == want


def test_cli_ptable(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "ptable", "--k", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "p[3,0] = 1"
    assert lines[1] == "p[3,1] = 0"
    assert lines[2] == "p[3,2] = 0"
    assert lines[3] == "p[3,3] = 1"


def test_cli_ptable_rejects_huge_k_before_computing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("p_expansion called for an out-of-range k")

    monkeypatch.setattr(qsl2.cli, "p_expansion", refuse)
    for k in (EXPONENT_MAX + 1, 100000):
        code, out, err = _cli(capsys, "--l", "3", "ptable", "--k", str(k))
        assert code == 2 and out == ""
        assert "--k must be <= 1000 (EXPONENT_MAX" in err


def test_cli_rejects_huge_l_before_building_the_field(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("root data built for an out-of-range l")

    monkeypatch.setattr(qsl2.cli, "make_root_spec", refuse)
    monkeypatch.setattr(qsl2.cli, "closure_diagnostic", refuse)
    fixtures = tmp_path / "huge.jsonl"
    fixtures.write_text(json.dumps({"l": qsl2.cli.L_MAX + 1, "input": {}, "expected": {}}) + "\n")
    for argv in (("--l", str(qsl2.cli.L_MAX + 1), "normalize", "a"),
                 ("--l", "100000", "verify-basis"),
                 ("--l", "100000", "closure", "--order", "100000"),
                 ("--fixtures", str(fixtures), "verify-basis")):
        code, out, err = _cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "l must be <= 200" in err, argv


def test_cli_closure_reports(capsys):
    code, out, _ = _cli(capsys, "--l", "3", "closure", "--order", "6")
    assert code == 0
    assert "a^3 d^3 = 1 - b^3 c^3" in out
    assert "coproduct does not close" in out
    code, out, _ = _cli(capsys, "--l", "3", "closure", "--order", "3")
    assert code == 0 and "a^3 d^3 = 1 + b^3 c^3" in out and "coproduct closes" in out
    code, out, _ = _cli(capsys, "--l", "2", "closure", "--order", "4")
    assert code == 0 and "a^2 d^2 = 1 + b^2 c^2" in out
    code, out, err = _cli(capsys, "--l", "3", "closure", "--order", "7")
    assert (code, out, err) == (2, "", "error: unsupported pair l=3, N=7\n")


@pytest.mark.parametrize("l,order", [(5, 10), (5, 5), (4, 8), (3, 6)])
def test_cli_closure_reads_the_zeta_exponent(capsys, l, order):
    want = [_cli(capsys, "--l", str(l), *fmt, "closure", "--order", str(order))
            for fmt in ((), ("--format", "json"))]
    assert all(code == 0 for code, _, _ in want)
    for e in range(2, order):
        for fmt, (_, out1, _) in zip(((), ("--format", "json")), want):
            code, out, err = _cli(capsys, "--l", str(l), "--zeta-exp", str(e), *fmt, "closure", "--order", str(order))
            if math.gcd(e, order) == 1:
                assert (code, out, err) == (0, out1, "")
            else:
                assert (code, out) == (2, "")
                assert err == "error: zeta_exponent %d is not coprime to N=%d\n" % (e, order)


def test_cli_verify_basis(capsys):
    code, out, _ = _cli(capsys, "--l", "2", "verify-basis")
    assert code == 0 and "verify-basis: PASS" in out
    code, out, _ = _cli(capsys, "--l", "2", "--side", "right", "--format", "json", "verify-basis")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and doc["kernel_dimension"] == 0


def test_cli_verify_basis_with_too_small_degree_bound(capsys):
    code, out, _ = _cli(capsys, "--l", "2", "verify-basis", "--degree-bound", "0")
    assert code == 1
    assert "spanning: no" in out and "verify-basis: FAIL" in out
    assert "decompose/oracle agreement: 8/12" in out


def test_cli_verify_basis_certifies_the_requested_root(capsys, monkeypatch):
    solve, specs = qsl2.basis._solve_weight, set()

    def recording_solve(spec, *rest):
        specs.add(spec)
        return solve(spec, *rest)

    monkeypatch.setattr(qsl2.basis, "_solve_weight", recording_solve)
    code, out, _ = _cli(capsys, "--l", "3", "--zeta-exp", "2", "verify-basis")
    assert code == 0 and "verify-basis: PASS" in out
    assert specs == {make_root_spec(3, zeta_exponent=2)}


def test_cli_broken_block_extraction_is_a_failure(capsys, monkeypatch):
    one = Cyclotomic.one(SPEC3.N)
    monkeypatch.setattr(qsl2.frobenius, "_mono_mul",
                        lambda spec, x, y: ((QMonomial(0, 0, 0, 0), one), (QMonomial(1, 0, 0, 0), one)))
    code, _, err = _cli(capsys, "--l", "3", "decompose", "a^4")
    assert code == 1 and err.startswith("failure:")


@pytest.mark.parametrize("name,expr,relation", [
    pytest.param("eliminate_a_family", "a^2*c", "a^2*c", id="eliminate_a_family-a^2*c"),
    pytest.param("eliminate_d_family", "c*d^2", "c*d^2", id="eliminate_d_family-c*d^2"),
    pytest.param("eliminate_d_family", "c*d^2", "c^2*d", id="eliminate_d_family-c*d^2-to-c^2*d"),
])
def test_out_of_order_elimination_is_a_failure(capsys, monkeypatch, name, expr, relation):
    # the sweep over c settles each bucket once, so a relation may not hand back a non-basis
    # term at the same c, nor one at a larger c with other a and d exponents; only the
    # relation for expr itself is replaced, so a term let through is then settled for real
    real = getattr(qsl2.basis, name)

    def wrong_for_expr(*args):
        spec, side = args[3], args[4] if len(args) > 4 else "left"
        rel = real(*args)
        if module_recompose(rel) != parse_qelement(expr, spec):
            return rel
        return central_reduce(parse_qelement(relation, spec), side)

    monkeypatch.setattr(qsl2.basis, name, wrong_for_expr)
    with pytest.raises(RuntimeError, match="out of order"):
        decompose(parse_qelement(expr, SPEC3))
    code, out, err = _cli(capsys, "--l", "3", "decompose", expr)
    assert code == 1 and out == "" and err.startswith("failure:") and "out of order" in err


def test_cli_verify_fixtures(capsys, tmp_path):
    records = []
    for l, exprs in ((2, ["a"]), (3, ["a", "b*c*d^2"])):
        spec = make_root_spec(l)
        for text in exprs:
            x = parse_qelement(text, spec)
            dec = decompose(x, "left")
            records.append({"l": l, "input": x.to_json(), "expected": dec.to_json()})
    good = tmp_path / "good.jsonl"
    good.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, out, _ = _cli(capsys, "--fixtures", str(good), "verify-basis")
    assert code == 0 and out.strip().splitlines()[-1] == "3 checked, 0 failed"

    broken = json.loads(json.dumps(records[0]))
    broken["expected"]["entries"][0]["coeff"]["terms"] = []
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(broken) + "\n")
    code, out, _ = _cli(capsys, "--fixtures", str(bad), "--format", "json", "verify-basis")
    assert code == 1 and json.loads(out) == {"checked": 1, "failures": 1}

    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text(json.dumps(records[0]) + "\n{not json\n")
    code, out, err = _cli(capsys, "--fixtures", str(malformed), "verify-basis")
    assert code == 2 and out == "" and err.startswith("error:")

    # a float l, a line that is JSON but no object, and a missing file are usage errors
    float_l = dict(records[1], l=3.7)
    for name, text, reason in (("float_l", json.dumps(float_l), "3.7"),
                               ("array", "[1, 2]", "JSON object")):
        path = tmp_path / (name + ".jsonl")
        path.write_text(text + "\n")
        code, out, err = _cli(capsys, "--fixtures", str(path), "verify-basis")
        assert code == 2 and out == "" and err.startswith("error:") and reason in err, name
    code, out, err = _cli(capsys, "--fixtures", str(tmp_path / "missing.jsonl"), "verify-basis")
    assert code == 2 and out == "" and err.startswith("error:") and "missing.jsonl" in err
    no_input = tmp_path / "no_input.jsonl"
    no_input.write_text(json.dumps(records[0]) + "\n" + '{"l": 3}' + "\n")
    code, out, err = _cli(capsys, "--fixtures", str(no_input), "verify-basis")
    assert code == 2 and out == "" and err == "error: line 2: missing field 'input'\n"


def test_cli_exit_codes(capsys):
    code, _, err = _cli(capsys, "--l", "3", "normalize", "a^(2")
    assert code == 2 and "position 4" in err
    code, _, err = _cli(capsys, "normalize", "a")
    assert code == 2 and "--l is required" in err
    code, _, err = _cli(capsys, "--l", "3", "normalize", "b*alpha")
    assert code == 2 and "classical" in err and err.startswith("parse error: ") and "position 2" in err
    code, out, err = _cli(capsys, "--l", "3", "normalize", "a^5000*d^5000")
    assert code == 2 and out == "" and err.startswith("parse error: ") and "position 2" in err
    code, _, err = _cli(capsys, "--l", "4", "--zeta-exp", "2", "normalize", "a")
    assert code == 2
    code, _, err = _cli(capsys, "--l", "3", "recompose", "{not json")
    assert code == 2
    code, out, err = _cli(capsys, "--l", "3", "verify-basis", "--degree-bound", "-1")
    assert code == 2 and out == "" and "degree_bound must be >= 0" in err


def test_cli_deep_nesting_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # nesting past the parser's bound or the interpreter's recursion limit is bad input
    code, out, err = _cli(capsys, "--l", "3", "normalize", "(" * 250 + "a" + ")" * 250)
    assert code == 2 and out == "" and err.startswith("parse error: ") and "NESTING_MAX" in err
    deep = "[" * 10**5 + "]" * 10**5
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    code, out, err = _cli(capsys, "--l", "3", "recompose", "-")
    assert code == 2 and out == "" and err == "error: the JSON nests too deeply to read\n"
    fixtures = tmp_path / "deep.jsonl"
    fixtures.write_text("\n" + deep + "\n")
    code, out, err = _cli(capsys, "--fixtures", str(fixtures), "verify-basis")
    assert code == 2 and out == "" and err == "error: line 2: the JSON nests too deeply to read\n"


def test_cli_names_a_deep_side_in_one_short_line(capsys, monkeypatch):
    # json.loads reads a side nested 900 deep; the error names its type, not its 1,800 brackets
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"side":%s%s,"entries":[]}' % ("[" * 900, "]" * 900)))
    code, out, err = _cli(capsys, "--l", "3", "recompose", "-")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) <= 200
    assert err == "error: side must be 'left' or 'right', got <list>\n"


def test_cli_selftest(capsys):
    code, out, _ = _cli(capsys, "selftest")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 8 and all(line.startswith("ok ") for line in lines)
    code, out, _ = _cli(capsys, "--format", "json", "selftest")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert len(doc["checks"]) == 8 and all(check["ok"] for check in doc["checks"])


def test_selftest_checks_survive_python_optimize():
    # with qmul returning its left factor, the selftest must fail even under -O
    script = ("import sys\n"
              "import qsl2.cli as cli\n"
              "cli.qmul = lambda x, y: x\n"
              "sys.exit(cli.run(['selftest']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 1
    failures = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    assert failures and all(not line.endswith(": ") for line in failures)


def test_cli_stdin_lines_do_not_leak_into_the_next_run(capsys, monkeypatch):
    # the lines a run reads from stdin and leaves unused belong to that run alone
    monkeypatch.setattr(sys, "stdin", io.StringIO("a\nb\nc\n"))
    assert _cli(capsys, "--l", "3", "normalize", "-")[:2] == (0, "a\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("d\n"))
    assert _cli(capsys, "--l", "3", "normalize", "-")[:2] == (0, "d\n")


def test_console_script_stdin():
    proc = subprocess.run(
        [sys.executable, "-m", "qsl2.cli", "--l", "3", "normalize", "-"],
        input="d*a\n", capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1 + q^-1*b*c"
    proc = subprocess.run(
        [sys.executable, "-m", "qsl2.cli", "--l", "2", "mul", "-", "-"],
        input="a\nb\n", capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "a*b"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_console_script_ends_quietly_when_stdout_closes():
    # like `qsl2 selftest | head -1`: the reader takes one line and closes the pipe, and
    # the next line written ends the process on SIGPIPE, with no traceback
    proc = subprocess.Popen([sys.executable, "-m", "qsl2.cli", "selftest"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONUNBUFFERED="1"))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert first == "ok cyclotomic arithmetic\n" and err == ""


def test_cli_import_loads_none_of_dataclasses_inspect_typing_json():
    # -S keeps site hooks out, so the modules listed are the ones qsl2.cli pulls in
    src = os.path.dirname(os.path.dirname(os.path.abspath(qsl2.cli.__file__)))
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "import qsl2.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))\n" % src)
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_block_runs_as_written(capsys):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "1 + q^-1*b*c\n"
