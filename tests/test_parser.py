"""The expression parser against a reference evaluator, a table of errors, and the cost of a long sum.

The reference builds each value from the element arithmetic (+, -, lift,
generator, scalar) and multiplies through a loop of its own over the
uncached engine, so it shares no code with the parser's fold nor with the
pair loop that the parser and qmul share.
"""

import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SPEC3
from qsl2 import ClassicalElement, QElement, QMonomial, lift, make_root_spec, zeta_pow
from qsl2.expr import ExprSyntaxError, parse_qelement
from qsl2.qalgebra import _mono_mul

SPECS = (SPEC3, make_root_spec(4, zeta_exponent=3), make_root_spec(5, zeta_exponent=2))
QUANTUM, CLASSICAL = "abcd", ("alpha", "beta", "gamma", "delta")

# An AST node is ("sum", negate_first, [(sign, product), ...]), ("product", [power, ...]),
# ("power", base, exponent or None) with a base ("letter", name), ("q",), ("rational", p, q)
# or ("paren", sum), or ("qpower", k, form) for q^k written as q^k, q^(k) or (q)^k.


def _letters(node) -> tuple[bool, bool]:
    """Whether quantum and whether classical letters occur in node."""
    kind = node[0]
    if kind == "letter":
        return node[1] in QUANTUM, node[1] in CLASSICAL
    if kind in ("q", "rational", "qpower"):
        return False, False
    if kind == "sum":
        children = [product for _, product in node[2]]
    elif kind == "product":
        children = node[1]
    else:  # a power's base or a parenthesized sum
        children = [node[1]]
    flags = [_letters(child) for child in children]
    return any(q for q, _ in flags), any(c for _, c in flags)


def _degree(node) -> int:
    """A bound on the degree of node's value in the letters, a classical letter counting 1."""
    kind = node[0]
    if kind == "sum":
        return max(_degree(p) for _, p in node[2])
    if kind == "product":
        return sum(_degree(f) for f in node[1])
    if kind == "power":
        return _degree(node[1]) * (1 if node[2] is None else node[2])
    if kind == "paren":
        return _degree(node[1])
    return 1 if kind == "letter" else 0


def _products(children, n):
    def ordered(factors):
        # classical letters may not follow quantum ones, so drop each factor that would
        kept, quantum = [], False
        for f in factors:
            q, c = _letters(f)
            if not (c and quantum):
                kept.append(f)
                quantum = quantum or q
        return ("product", kept)
    return st.lists(_powers(children, n), min_size=1, max_size=3).map(ordered)


def _powers(children, n):
    rational = st.tuples(st.just("rational"), st.integers(0, 9), st.integers(1, 4))
    letter = st.tuples(st.just("letter"), st.sampled_from(list(QUANTUM) * 2 + list(CLASSICAL)))
    qpower = st.tuples(st.just("qpower"), st.integers(-2 * n, 2 * n), st.sampled_from(["bare", "exp", "base"]))
    base = st.one_of(letter, rational, st.just(("q",)), children.map(lambda s: ("paren", s)))
    powered = st.tuples(st.just("power"), base, st.one_of(st.none(), st.integers(0, 3)))
    return st.one_of(powered, powered, qpower)


def _sums(n, depth):
    children = _sums(n, depth - 1) if depth else st.nothing()
    return st.tuples(st.just("sum"), st.booleans(),
                     st.lists(st.tuples(st.sampled_from("+-"), _products(children, n)), min_size=1, max_size=3))


def _tokens(node) -> list[str]:
    kind = node[0]
    if kind == "sum":
        out = []
        for i, (sign, product) in enumerate(node[2]):
            if i:
                out.append(sign)
            elif node[1]:
                out.append("-")
            out += _tokens(product)
        return out
    if kind == "product":
        out = []
        for i, power in enumerate(node[1]):
            out += (["*"] if i else []) + _tokens(power)
        return out
    if kind == "power":
        base, e = node[1], node[2]
        return _tokens(base) + ([] if e is None else ["^", str(e)])
    if kind == "qpower":
        k, form = node[1], node[2]
        exponent = ["-", str(-k)] if k < 0 else [str(k)]
        return {"bare": ["q", "^"] + exponent, "exp": ["q", "^", "("] + exponent + [")"],
                "base": ["(", "q", ")", "^"] + exponent}[form]
    if kind == "paren":
        return ["("] + _tokens(node[1]) + [")"]
    if kind == "rational":
        return [str(node[1]), "/", str(node[2])]
    return [node[1] if kind == "letter" else "q"]


def _product(x: QElement, y: QElement) -> QElement:
    """x*y, one element per pair of words through the uncached engine."""
    out = QElement.zero(x.spec)
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            out = out + QElement(x.spec, {mz: cx * cy * cz for mz, cz in _mono_mul.__wrapped__(x.spec, mx, my)})
    return out


def _evaluate(node, spec) -> QElement:
    kind = node[0]
    if kind == "sum":
        acc = QElement.zero(spec)
        for i, (sign, product) in enumerate(node[2]):
            value = _evaluate(product, spec)
            negative = node[1] if i == 0 else sign == "-"
            acc = acc - value if negative else acc + value
        return acc
    if kind == "product":
        acc = QElement.one(spec)
        for power in node[1]:
            acc = _product(acc, _evaluate(power, spec))
        return acc
    if kind == "power":
        base, e = node[1], node[2]
        if e is None:
            return _evaluate(base, spec)
        if base[0] == "letter" and base[1] in CLASSICAL:
            return lift(ClassicalElement.generator(spec, base[1], e))
        if base[0] == "letter":
            return QElement.generator(spec, base[1], e)
        value, acc = _evaluate(base, spec), QElement.one(spec)
        for _ in range(e):
            acc = _product(acc, value)
        return acc
    if kind == "qpower":
        return QElement.scalar(spec, zeta_pow(spec, node[1]))
    if kind == "paren":
        return _evaluate(node[1], spec)
    if kind == "rational":
        return QElement.scalar(spec, Fraction(node[1], node[2]))
    if kind == "q":
        return QElement.scalar(spec, zeta_pow(spec, 1))
    return (lift(ClassicalElement.generator(spec, node[1])) if node[1] in CLASSICAL
            else QElement.generator(spec, node[1]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: "l%d-e%d" % (s.l, s.zeta_exponent))
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_parser_agrees_with_the_element_arithmetic(spec, data):
    # powers of powers multiply degrees, and a small degree keeps every text inside POWER_PRODUCTS_MAX
    node = data.draw(_sums(spec.N, 3).filter(lambda node: _degree(node) <= 12))
    tokens = _tokens(node)
    spaces = data.draw(st.lists(st.sampled_from(["", "", " ", "  "]), min_size=len(tokens) + 1,
                                max_size=len(tokens) + 1))
    text = "".join(space + token for space, token in zip(spaces, tokens + [""]))
    assert parse_qelement(text, spec) == _evaluate(node, spec), text


# recorded from the recursive-descent evaluator that the token fold replaced
MALFORMED = (
    ("", "unexpected end of input", 0),
    ("   ", "unexpected end of input", 3),
    ("a +", "unexpected end of input", 3),
    ("a * ", "unexpected end of input", 4),
    ("-", "unexpected end of input", 1),
    ("+a", "unexpected '+'", 0),
    ("a b", "unexpected 'b'", 2),
    ("*a", "unexpected '*'", 0),
    ("2 3", "unexpected '3'", 2),
    ("3/2/5", "unexpected '/'", 3),
    ("--a", "unexpected '-'", 1),
    ("a+-b", "unexpected '-'", 2),
    ("a & b", "unexpected '&'", 2),
    ("(a)(b)", "unexpected '('", 3),
    ("a)", "unexpected ')'", 1),
    ("()", "unexpected ')'", 1),
    ("a^2^3", "unexpected '^'", 3),
    ("q ^ - 2 ^ 2", "unexpected '^'", 8),
    ("a^", "expected integer", 2),
    ("a^x", "expected integer", 2),
    ("a^(-)", "expected integer", 4),
    ("a^²", "expected integer", 2),
    ("3/", "expected integer", 2),
    ("a^(2", "expected ')'", 4),
    ("a^ (3", "expected ')'", 5),
    ("(a", "expected ')'", 2),
    ("((a)", "expected ')'", 4),
    ("a + foo*b", "unknown symbol 'foo'", 4),
    ("x", "unknown symbol 'x'", 0),
    ("1/0", "zero denominator", 2),
    ("1/ 0", "zero denominator", 3),
    ("a^-1", "negative exponent only allowed on q", 4),
    ("alpha^-2", "negative exponent only allowed on q", 8),
    ("(a+b)^-1", "negative exponent only allowed on q", 8),
    ("2^-1", "negative exponent only allowed on q", 4),
    ("(q^2)^-1", "negative exponent only allowed on q", 8),
    ("(-q)^-1", "negative exponent only allowed on q", 7),
    ("a^1001", "exponent 1001 exceeds EXPONENT_MAX = 1000", 2),
    ("b*alpha^(5000)", "exponent 5000 exceeds EXPONENT_MAX = 1000", 9),
    ("a*alpha", "classical letters must precede quantum letters in a product", 2),
    ("b * 2*delta^2", "classical letters must precede quantum letters in a product", 6),
    ("(a*b)*gamma", "classical letters must precede quantum letters in a product", 6),
    ("a*(alpha*b)", "classical letters must precede quantum letters in a product", 2),
    ("gamma*alpha^2*a*beta", "classical letters must precede quantum letters in a product", 16),
    ("(a+b+c+d)^1000", "this product brings the expression to 56004 term products, over "
                       "POWER_PRODUCTS_MAX = 50000", 10),
    ("(1+a)^150*(1+d)^150", "this product brings the expression to 1204372 term products, over "
                            "POWER_PRODUCTS_MAX = 50000", 10),
)


@pytest.mark.parametrize("text, message, position", MALFORMED)
def test_malformed_text_names_the_error_and_its_position(text, message, position):
    with pytest.raises(ExprSyntaxError) as info:
        parse_qelement(text, SPEC3)
    assert str(info.value) == "%s (position %d)" % (message, position)
    assert info.value.position == position


def _flat_sum(n: int) -> tuple[str, QElement]:
    """A sum of n distinct terms p/q*a^i*b^j*c^k, as text and as the element built directly."""
    terms = [((k % 7 + 1, k % 3 + 2), QMonomial(k % 11, k // 11 % 13, k // 143, 0)) for k in range(n)]
    text = " + ".join("%d/%d*a^%d*b^%d*c^%d" % (p, q, *m[:3]) for (p, q), m in terms)
    return text, QElement(SPEC3, {m: zeta_pow(SPEC3, 0) * Fraction(p, q) for (p, q), m in terms})


def _best_parse_s(text: str) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        parse_qelement(text, SPEC3)
        best = min(best, time.perf_counter() - start)
    return best


def test_parse_time_is_linear_in_the_length_of_a_sum():
    # each + once copied the whole sum so far, so four times the terms took about sixteen times as long
    short, _ = _flat_sum(1000)
    text, expected = _flat_sum(4000)
    assert parse_qelement(text, SPEC3) == expected
    assert _best_parse_s(text) / _best_parse_s(short) < 8
