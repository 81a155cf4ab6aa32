"""Expression parser and text printer for quantum/classical elements.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    exponent := ('-')? INT | '(' ('-')? INT ')'
    base     := SYMBOL | rational | '(' expr ')'
    rational := INT ('/' INT)?

Symbols are a, b, c, d (quantum letters), alpha, beta, gamma, delta
(classical letters, unicode aliases accepted), and q (the root of unity).
Negative exponents are only allowed on q.  Inside a product, classical
letters may appear before quantum letters but not after them; classical
factors are routed through the Frobenius lift.

The printer emits text that re-parses to an equal element: coefficients
are rationals, powers of q, or parenthesized polynomials in q with
rational coefficients (lowest powers first).
"""

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .cyclo import Cyclotomic, RootSpec, euler_phi, zeta_pow
from .exactla import ExactMatrix, rref
from .frobenius import lift
from .qalgebra import (
    ClassicalElement,
    ClassicalMonomial,
    QElement,
    QMonomial,
    TensorElement,
)

QUANTUM_LETTERS = ("a", "b", "c", "d")
CLASSICAL_LETTERS = ("alpha", "beta", "gamma", "delta")
_UNICODE_ALIASES = {"α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta"}
_SYMBOLS = set(QUANTUM_LETTERS) | set(CLASSICAL_LETTERS) | {"q"}


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


# AST nodes are plain tagged tuples:
#   ("sum", [(sign, node), ...])    sign is +1/-1
#   ("product", [node, ...])        written order preserved
#   ("power", node, exponent)
#   ("scalar", Fraction)
#   ("symbol", name)                name is an ASCII symbol
AstNode = tuple


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected integer", start)
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.text[start]
        if ch in _UNICODE_ALIASES:
            self.pos += 1
            return _UNICODE_ALIASES[ch]
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        name = self.text[start : self.pos]
        if name not in _SYMBOLS:
            raise ExprSyntaxError("unknown symbol %r" % name, start)
        return name

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ExprSyntaxError("expected %r" % ch, self.pos)
        self.pos += 1


def parse_expression(text: str) -> AstNode:
    """Parse `text` into an AST; raises ExprSyntaxError with a position."""
    tok = _Tokenizer(text)
    node = _parse_expr(tok)
    if tok.peek() is not None:
        raise ExprSyntaxError("unexpected %r" % tok.peek(), tok.pos)
    return node


def _parse_expr(tok: _Tokenizer) -> AstNode:
    parts = []
    sign = 1
    if tok.peek() == "-":
        tok.pos += 1
        sign = -1
    parts.append((sign, _parse_term(tok)))
    while tok.peek() in ("+", "-"):
        sign = 1 if tok.peek() == "+" else -1
        tok.pos += 1
        parts.append((sign, _parse_term(tok)))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return ("sum", parts)


def _parse_term(tok: _Tokenizer) -> AstNode:
    factors = [_parse_factor(tok)]
    while tok.peek() == "*":
        tok.pos += 1
        factors.append(_parse_factor(tok))
    if len(factors) == 1:
        return factors[0]
    return ("product", factors)


def _parse_factor(tok: _Tokenizer) -> AstNode:
    base = _parse_base(tok)
    if tok.peek() != "^":
        return base
    tok.pos += 1
    exponent = _parse_exponent(tok)
    if exponent < 0 and base != ("symbol", "q"):
        raise ExprSyntaxError("negative exponent only allowed on q", tok.pos)
    return ("power", base, exponent)


def _parse_exponent(tok: _Tokenizer) -> int:
    if tok.peek() == "(":
        tok.pos += 1
        value = _parse_signed_int(tok)
        tok.expect(")")
        return value
    return _parse_signed_int(tok)


def _parse_signed_int(tok: _Tokenizer) -> int:
    sign = 1
    if tok.peek() == "-":
        tok.pos += 1
        sign = -1
    return sign * tok.take_int()


def _parse_base(tok: _Tokenizer) -> AstNode:
    ch = tok.peek()
    if ch is None:
        raise ExprSyntaxError("unexpected end of input", tok.pos)
    if ch == "(":
        tok.pos += 1
        node = _parse_expr(tok)
        tok.expect(")")
        return node
    if ch.isdigit():
        num = tok.take_int()
        if tok.peek() == "/":
            tok.pos += 1
            tok.skip_ws()
            den_pos = tok.pos
            den = tok.take_int()
            if den == 0:
                raise ExprSyntaxError("zero denominator", den_pos)
            return ("scalar", Fraction(num, den))
        return ("scalar", Fraction(num))
    if ch.isalpha() or ch in _UNICODE_ALIASES:
        return ("symbol", tok.take_name())
    raise ExprSyntaxError("unexpected %r" % ch, tok.pos)


def _symbol_kinds(node: AstNode) -> tuple[bool, bool]:
    # -> (has quantum letters, has classical letters)
    tag = node[0]
    if tag == "symbol":
        return node[1] in QUANTUM_LETTERS, node[1] in CLASSICAL_LETTERS
    if tag == "scalar":
        return False, False
    if tag == "power":
        return _symbol_kinds(node[1])
    if tag == "product":
        children = node[1]
    else:  # sum
        children = [child for _, child in node[1]]
    hq = hc = False
    for child in children:
        cq, cc = _symbol_kinds(child)
        hq, hc = hq or cq, hc or cc
    return hq, hc


def evaluate(ast: AstNode, spec: RootSpec) -> QElement:
    """Evaluate an AST to a QElement; classical symbols go through lift."""
    if spec is None:
        raise ValueError("a root-of-unity spec is required to evaluate")
    tag = ast[0]
    if tag == "scalar":
        return QElement.scalar(spec, ast[1])
    if tag == "symbol":
        name = ast[1]
        if name == "q":
            return QElement.scalar(spec, zeta_pow(spec, 1))
        if name in QUANTUM_LETTERS:
            return QElement.generator(spec, name)
        return lift(ClassicalElement.generator(spec, name))
    if tag == "power":
        _, base, exponent = ast
        if base == ("symbol", "q"):
            return QElement.scalar(spec, zeta_pow(spec, exponent))
        return evaluate(base, spec) ** exponent
    if tag == "product":
        seen_quantum = False
        result = QElement.one(spec)
        for child in ast[1]:
            hq, hc = _symbol_kinds(child)
            if hc and seen_quantum:
                raise ValueError(
                    "classical letters must precede quantum letters in a product"
                )
            seen_quantum = seen_quantum or hq
            result = result * evaluate(child, spec)
        return result
    # sum
    result = QElement.zero(spec)
    for sign, child in ast[1]:
        value = evaluate(child, spec)
        result = result + value if sign > 0 else result - value
    return result


def parse_qelement(text: str, spec: RootSpec) -> QElement:
    return evaluate(parse_expression(text), spec)


# ---------------------------------------------------------------------------
# printing


@lru_cache(maxsize=None)
def _q_basis_inverse(spec: RootSpec) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix taking zeta-power-basis coordinates to q-power-basis coordinates.

    One rref of [M | I], where the columns of M are the zeta coordinates of
    q^0 .. q^(phi-1); q is a primitive N-th root, so these are a Q-basis.
    """
    phi = euler_phi(spec.N)
    cols = [zeta_pow(spec, j).coeffs for j in range(phi)]
    aug = ExactMatrix.from_rows(spec.N, [
        [Cyclotomic.from_rational(spec.N, cols[j][i]) for j in range(phi)]
        + [Cyclotomic.from_rational(spec.N, int(i == j)) for j in range(phi)]
        for i in range(phi)
    ])
    red, pivots = rref(aug)
    inverse = tuple(tuple(red.at(i, phi + j).as_rational() for j in range(phi)) for i in range(phi))
    if pivots != tuple(range(phi)) or any(fr is None for row in inverse for fr in row):
        raise RuntimeError("the q-power basis of %r is not a basis; this is a bug" % (spec,))
    return inverse


def _q_coordinates(spec: RootSpec, z: Cyclotomic) -> list[Fraction]:
    coeffs = z.coeffs
    return [sum(a * c for a, c in zip(row, coeffs)) for row in _q_basis_inverse(spec)]


@lru_cache(maxsize=None)
def _q_power_lookup(spec: RootSpec) -> dict[tuple, tuple[int, int]]:
    """(num, den) of q^k and of -q^k, for 1 <= k < N, to (sign, k); +q^k wins a tie."""
    out = {}
    for sign in (-1, 1):
        for k in range(1, spec.N):
            z = zeta_pow(spec, k) * sign
            out[(z.num, z.den)] = (sign, k)
    return out


def _q_power_text(spec: RootSpec, k: int) -> str:
    k %= spec.N
    rep = k if k <= spec.N // 2 else k - spec.N
    return "q" if rep == 1 else "q^%d" % rep


def _poly_text(coords: list[Fraction]) -> str:
    parts = []
    for j, fr in enumerate(coords):
        if fr == 0:
            continue
        sign = 1 if fr > 0 else -1
        mag = abs(fr)
        if j == 0:
            body = str(mag)
        else:
            head = "q" if j == 1 else "q^%d" % j
            body = head if mag == 1 else "%s*%s" % (mag, head)
        parts.append((sign, body))
    out = parts[0][1] if parts[0][0] > 0 else "-" + parts[0][1]
    for sign, body in parts[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


def coefficient_parts(spec: RootSpec, z: Cyclotomic) -> tuple[int, Optional[str]]:
    """Split a nonzero coefficient into (sign, text); text None means 1."""
    fr = z.as_rational()
    if fr is not None:
        sign = 1 if fr > 0 else -1
        mag = abs(fr)
        return sign, None if mag == 1 else str(mag)
    hit = _q_power_lookup(spec).get((z.num, z.den))
    if hit is not None:
        return hit[0], _q_power_text(spec, hit[1])
    coords = _q_coordinates(spec, z)
    if all(fr <= 0 for fr in coords):
        return -1, "(" + _poly_text([-fr for fr in coords]) + ")"
    return 1, "(" + _poly_text(coords) + ")"


def _letters_text(pairs) -> Optional[str]:
    parts = []
    for letter, exponent in pairs:
        if exponent == 0:
            continue
        parts.append(letter if exponent == 1 else "%s^%d" % (letter, exponent))
    if not parts:
        return None
    return "*".join(parts)


def quantum_monomial_text(mono: QMonomial) -> Optional[str]:
    return _letters_text(zip(QUANTUM_LETTERS, mono))


def classical_monomial_text(mono: ClassicalMonomial) -> Optional[str]:
    return _letters_text(zip(CLASSICAL_LETTERS, mono))


def _format_terms(spec: RootSpec, pairs) -> str:
    parts = []
    for mono_text, coeff in pairs:
        sign, ctext = coefficient_parts(spec, coeff)
        if ctext is None and mono_text is None:
            body = "1"
        elif ctext is None:
            body = mono_text
        elif mono_text is None:
            body = ctext
        else:
            body = "%s*%s" % (ctext, mono_text)
        parts.append((sign, body))
    if not parts:
        return "0"
    out = parts[0][1] if parts[0][0] > 0 else "-" + parts[0][1]
    for sign, body in parts[1:]:
        out += (" + " if sign > 0 else " - ") + body
    return out


def format_qelement(x: QElement) -> str:
    return _format_terms(
        x.spec, ((quantum_monomial_text(m), z) for m, z in x.sorted_terms())
    )


def format_classical(g: ClassicalElement) -> str:
    return _format_terms(
        g.spec, ((classical_monomial_text(m), z) for m, z in g.sorted_terms())
    )


def format_cyclotomic(spec: RootSpec, z: Cyclotomic) -> str:
    if z.is_zero():
        return "0"
    sign, text = coefficient_parts(spec, z)
    if text is None:
        text = "1"
    return text if sign > 0 else "-" + text


def format_tensor(t: TensorElement) -> str:
    return _format_terms(t.spec, (
        ("%s (x) %s" % (quantum_monomial_text(m1) or "1", quantum_monomial_text(m2) or "1"), z)
        for (m1, m2), z in t.sorted_terms()
    ))
