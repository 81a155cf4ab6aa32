"""Expression parser and text printer for quantum/classical elements.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := ('-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    exponent := ('-')? INT | '(' ('-')? INT ')'
    base     := SYMBOL | rational | '(' expr ')'
    rational := INT ('/' INT)?
    INT      := [0-9]+

Symbols are a, b, c, d (quantum letters), alpha, beta, gamma, delta
(classical letters, unicode aliases accepted), and q (the root of unity).
Negative exponents are only allowed on q, bare or parenthesized, and an
exponent on any other base is at most EXPONENT_MAX (a power of q reduces
mod N).  Inside a product, classical letters may appear before quantum
letters but not after them; classical factors are routed through the
Frobenius lift.

The parser evaluates as it reads, in one recursive-descent pass.  Each
rule returns its value together with which letter kinds occur in it, so
the ordering rule is checked where a product is formed, and a power of a
single symbol is built directly as its monomial or root-of-unity scalar.
Every other product, each * and each step of a power, is charged against
POWER_PRODUCTS_MAX for the whole expression before it is formed.

The printer emits text that re-parses to an equal element: coefficients
are rationals, powers of q, or parenthesized polynomials in q with
rational coefficients (lowest powers first).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclotomic, RootSpec, conjugate, unit_power, zeta_pow
from .frobenius import lift
from .qalgebra import (
    EXPONENT_MAX,
    POWER_PRODUCTS_MAX,
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
_DIGITS = "0123456789"


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


class _Parser:
    """Recursive descent over `text` that evaluates as it reads.

    The rules expr, term, factor and base return (value, quantum,
    classical, name): the QElement read, whether quantum and whether
    classical letters occur in it, and the symbol it consists of if it is
    a single symbol, possibly parenthesized, else None.
    """

    def __init__(self, text: str, spec: RootSpec):
        self.text = text
        self.pos = 0
        self.spec = spec
        self.products = 0  # the term products charged so far, see product

    def product(self, x: QElement, y: QElement, position: int) -> QElement:
        """x * y, once its term pairs fit the budget of the whole parse.

        A pair costs 1 + min(a-sum, d-sum), for the a^t d^t its product contracts.
        """
        for a, _, _, d in x.terms:
            for a2, _, _, d2 in y.terms:
                self.products += 1 + min(a + a2, d + d2)
        if self.products > POWER_PRODUCTS_MAX:
            raise ExprSyntaxError("this product brings the expression to %d term products, over "
                                  "POWER_PRODUCTS_MAX = %d" % (self.products, POWER_PRODUCTS_MAX), position)
        return x * y

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected integer", start)
        return int(self.text[start : self.pos])

    def take_signed_int(self) -> int:
        if self.peek() == "-":
            self.pos += 1
            return -self.take_int()
        return self.take_int()

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprSyntaxError("expected %r" % ch, self.pos)
        self.pos += 1

    def expr(self) -> tuple:
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        value, quantum, classical, name = self.term()
        if negate:
            value, name = -value, None
        while self.peek() in ("+", "-"):
            sign = self.text[self.pos]
            self.pos += 1
            other, q, c, _ = self.term()
            value = value + other if sign == "+" else value - other
            quantum, classical, name = quantum or q, classical or c, None
        return value, quantum, classical, name

    def term(self) -> tuple:
        value, quantum, classical, name = self.factor()
        while self.peek() == "*":
            self.pos += 1
            self.peek()  # skips whitespace, so an error points at the factor
            start = self.pos
            other, q, c, _ = self.factor()
            if c and quantum:
                raise ExprSyntaxError("classical letters must precede quantum letters in a product", start)
            value = self.product(value, other, start)
            quantum, classical, name = quantum or q, classical or c, None
        return value, quantum, classical, name

    def factor(self) -> tuple:
        value, quantum, classical, name = self.base()
        if self.peek() != "^":
            return value, quantum, classical, name
        self.pos += 1
        paren = self.peek() == "("
        if paren:
            self.pos += 1
        self.peek()  # skips whitespace, so an error points at the exponent
        start = self.pos
        exponent = self.take_signed_int()
        if paren:
            self.expect(")")
        if exponent < 0 and name != "q":
            raise ExprSyntaxError("negative exponent only allowed on q", self.pos)
        if exponent > EXPONENT_MAX and name != "q":
            raise ExprSyntaxError("exponent %d exceeds EXPONENT_MAX = %d" % (exponent, EXPONENT_MAX), start)
        if name is not None:
            return self.symbol_power(name, exponent), quantum, classical, None
        acc = value if exponent else QElement.one(self.spec)
        for _ in range(exponent - 1):
            acc = self.product(acc, value, start)
        return acc, quantum, classical, None

    def base(self) -> tuple:
        ch = self.peek()
        if ch is None:
            raise ExprSyntaxError("unexpected end of input", self.pos)
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.expect(")")
            return out
        if ch in _DIGITS:
            num = self.take_int()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                self.peek()  # skips whitespace, so a zero is reported where it is written
                den_pos = self.pos
                den = self.take_int()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", den_pos)
            return QElement.scalar(self.spec, Fraction(num, den)), False, False, None
        if ch in _UNICODE_ALIASES:
            self.pos += 1
            name = _UNICODE_ALIASES[ch]
        elif ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in _SYMBOLS:
                raise ExprSyntaxError("unknown symbol %r" % name, start)
        else:
            raise ExprSyntaxError("unexpected %r" % ch, self.pos)
        return self.symbol_power(name, 1), name in QUANTUM_LETTERS, name in CLASSICAL_LETTERS, name

    def symbol_power(self, name: str, exponent: int) -> QElement:
        spec = self.spec
        if name == "q":
            return QElement.scalar(spec, zeta_pow(spec, exponent))
        # exponent >= 0 here, and a power of one letter is a normal monomial
        one = Cyclotomic.one(spec.N)
        if name in QUANTUM_LETTERS:
            i = QUANTUM_LETTERS.index(name)
            return QElement._like(spec, {QMonomial(*(exponent * (j == i) for j in range(4))): one})
        i = CLASSICAL_LETTERS.index(name)
        mono = ClassicalMonomial(*(exponent * (j == i) for j in range(4)))
        return lift(ClassicalElement._like(spec, {mono: one}))


def parse_qelement(text: str, spec: RootSpec) -> QElement:
    """Parse and evaluate `text`; raises ExprSyntaxError with a position."""
    if spec is None:
        raise ValueError("a root-of-unity spec is required to parse")
    parser = _Parser(text, spec)
    value = parser.expr()[0]
    if parser.peek() is not None:
        raise ExprSyntaxError("unexpected %r" % parser.peek(), parser.pos)
    return value


# ---------------------------------------------------------------------------
# printing


def _q_coordinates(spec: RootSpec, z: Cyclotomic) -> tuple[Fraction, ...]:
    """The coordinates of z in the basis q^0 .. q^(phi-1).

    With q = zeta^e, the field automorphism sigma: zeta -> zeta^f, where
    e*f = 1 mod N, sends q^j to zeta^j, so the q-coordinates of z are the
    zeta-coordinates of sigma(z).
    """
    return conjugate(z, pow(spec.zeta_exponent, -1, spec.N)).coeffs


def _q_power_text(spec: RootSpec, k: int) -> str:
    k %= spec.N
    rep = k if k <= spec.N // 2 else k - spec.N
    return "q" if rep == 1 else "q^%d" % rep


def _rational_parts(fr: Fraction) -> tuple[int, str | None]:
    mag = abs(fr)
    return (1 if fr > 0 else -1), None if mag == 1 else str(mag)


def _join_terms(terms, times: str = "*") -> str:
    """'t1 + t2 - t3' from (sign, coefficient text, monomial text); None text means 1."""
    out = []
    for sign, ctext, mtext in terms:
        if ctext is None:
            body = mtext or "1"
        elif mtext is None:
            body = ctext
        else:
            body = ctext + times + mtext
        if out:
            out.append(" + " if sign > 0 else " - ")
        elif sign < 0:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _poly_text(coords) -> str:
    return _join_terms(_rational_parts(fr) + (_letters_text((("q", j),)),)
                       for j, fr in enumerate(coords) if fr)


def coefficient_parts(spec: RootSpec, z: Cyclotomic) -> tuple[int, str | None]:
    """Split a nonzero coefficient into (sign, text); text None means 1."""
    fr = z.as_rational()
    if fr is not None:
        return _rational_parts(fr)
    unit = unit_power(z)
    if unit is not None:
        # zeta^k = q^(k*f) for q = zeta^e, e*f = 1 mod N
        return unit[0], _q_power_text(spec, unit[1] * pow(spec.zeta_exponent, -1, spec.N))
    coords = _q_coordinates(spec, z)
    if all(fr <= 0 for fr in coords):
        return -1, "(" + _poly_text([-fr for fr in coords]) + ")"
    return 1, "(" + _poly_text(coords) + ")"


def _letters_text(pairs) -> str | None:
    parts = []
    for letter, exponent in pairs:
        if exponent == 0:
            continue
        parts.append(letter if exponent == 1 else "%s^%d" % (letter, exponent))
    if not parts:
        return None
    return "*".join(parts)


def quantum_monomial_text(mono: QMonomial) -> str | None:
    return _letters_text(zip(QUANTUM_LETTERS, mono))


def classical_monomial_text(mono: ClassicalMonomial) -> str | None:
    return _letters_text(zip(CLASSICAL_LETTERS, mono))


def format_terms(spec: RootSpec, pairs, times: str = "*") -> str:
    """Signed sum of (monomial text or None for 1, nonzero coefficient) pairs.

    `times` joins a coefficient to its monomial; an empty sum prints as 0.
    """
    return _join_terms((coefficient_parts(spec, z) + (mono_text,) for mono_text, z in pairs), times)


def format_qelement(x: QElement) -> str:
    return format_terms(
        x.spec, ((quantum_monomial_text(m), z) for m, z in x.sorted_terms())
    )


def format_classical(g: ClassicalElement) -> str:
    return format_terms(
        g.spec, ((classical_monomial_text(m), z) for m, z in g.sorted_terms())
    )


def format_cyclotomic(spec: RootSpec, z: Cyclotomic) -> str:
    if z.is_zero():
        return "0"
    return format_terms(spec, ((None, z),))


def format_tensor(t: TensorElement) -> str:
    return format_terms(t.spec, (
        ("%s (x) %s" % (quantum_monomial_text(m1) or "1", quantum_monomial_text(m2) or "1"), z)
        for (m1, m2), z in t.sorted_terms()
    ))
