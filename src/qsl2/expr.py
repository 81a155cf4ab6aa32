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

The text is scanned once, one token at a time as the parse reads it,
and each token carries its position; one recursive-descent pass over
them evaluates as it reads.  Every value is
a plain dict word -> scalar until the end: each factor, a scalar too,
multiplies the running term pair by pair through the engine loop that
qmul runs (qalgebra._mul_terms), each term adds into one accumulator per
expression, and the QElement is built once.  A power of
a single symbol is built directly as its word or root-of-unity scalar.
Every other product, each * and each step of a power, is charged against
POWER_PRODUCTS_MAX for the whole expression before it is formed, and
parentheses nest at most NESTING_MAX deep, so a parse never runs out of
stack.

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
    _mul_terms,
    _nonzero,
)

_UNICODE_ALIASES = {"α": "alpha", "β": "beta", "γ": "gamma", "δ": "delta"}
_SYMBOLS = set(QMonomial._fields) | set(ClassicalMonomial._fields) | {"q"}
_DIGITS = "0123456789"
# token kinds besides the grammar's one-character tokens, each of which is its own kind
_INT, _SYMBOL, _END = "int", "symbol", None
_UNIT = QMonomial(0, 0, 0, 0)
# each level of parentheses takes four frames of the descent (base, expr, term, factor)
NESTING_MAX = 100


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the 0-based offset in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__("%s (position %d)" % (message, position))
        self.position = position


def _scan(text: str):
    """Yield the tokens of text as (kind, start, end, name), then an _END token at len(text).

    An ASCII digit run is an _INT; a unicode alias, or else a run of
    letters, is a _SYMBOL whose name may be unknown; any other character
    but whitespace is a token whose kind is that character.  Nothing is
    rejected here, and the parse pulls one token at a time, so each error
    is raised where the parse reaches it, before the rest is scanned.
    """
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _DIGITS:
            while j < n and text[j] in _DIGITS:
                j += 1
            yield _INT, i, j, None
        elif ch in _UNICODE_ALIASES:
            yield _SYMBOL, i, j, _UNICODE_ALIASES[ch]
        elif ch.isalpha():
            while j < n and text[j].isalpha():
                j += 1
            yield _SYMBOL, i, j, text[i:j]
        elif not ch.isspace():
            yield ch, i, j, None
        i = j
    yield _END, n, n, None


class _Parser:
    """Recursive descent over the tokens of `text` that folds each term as it reads.

    The rules expr, term, factor and base return (terms, quantum,
    classical, name): the value read as a dict word -> scalar of normal
    words, whether quantum and whether classical letters occur in it, and
    the symbol it consists of if it is a single symbol, possibly
    parenthesized, else None.  term folds its factors into one running
    dict through times, and expr adds its terms into one accumulator.
    factor reads a bare symbol itself and builds its power once, through
    symbol_power.  An accumulator may keep zero scalars until it is used:
    base prunes a parenthesized one, and QElement._like the one of the
    whole text.  So every value that is charged or multiplied holds none,
    as in a QElement, and the charges are those of the QElement products
    they replace.
    """

    def __init__(self, text: str, spec: RootSpec):
        self.text = text
        self.scan = _scan(text).__next__
        self.token = self.scan()  # the next token, not yet taken
        self.spec = spec
        self.one = Cyclotomic.one(spec.N)
        self.products = 0  # the term products charged so far, see times
        self.depth = 0  # the parentheses open around the current position

    def times(self, x: dict, y: dict, position: int) -> dict:
        """x * y, once its term pairs fit the budget of the whole parse.

        A pair costs 1 + min(a-sum, d-sum), for the a^t d^t its product
        contracts.  Every pair, a scalar's (1, word) too, is formed by the
        engine, as qmul forms it, and zero scalars are pruned.
        """
        products = self.products
        for a, _, _, d in x:
            for a2, _, _, d2 in y:
                products += 1 + min(a + a2, d + d2)
        self.products = products
        if products > POWER_PRODUCTS_MAX:
            raise ExprSyntaxError("this product brings the expression to %d term products, over "
                                  "POWER_PRODUCTS_MAX = %d" % (products, POWER_PRODUCTS_MAX), position)
        return _nonzero(_mul_terms(self.spec, x, y))

    def take_int(self) -> int:
        kind, start, end, _ = self.token
        if kind is not _INT:
            raise ExprSyntaxError("expected integer", start)
        self.token = self.scan()
        return int(self.text[start:end])

    def expect(self, ch: str):
        if self.token[0] != ch:
            raise ExprSyntaxError("expected %r" % ch, self.token[1])
        self.token = self.scan()

    def expr(self) -> tuple:
        acc: dict = {}
        sign = self.token[0]  # the sign of the term read next, "-" or anything else for +
        if sign == "-":
            self.token = self.scan()
        terms, quantum, classical, name = self.term()
        while True:
            if sign == "-":
                name = None
                for w, c in terms.items():
                    acc[w] = acc[w] - c if w in acc else -c
            else:
                for w, c in terms.items():
                    acc[w] = acc[w] + c if w in acc else c
            sign = self.token[0]
            if sign != "+" and sign != "-":
                return acc, quantum, classical, name
            self.token = self.scan()
            terms, q, c, _ = self.term()
            quantum, classical, name = quantum or q, classical or c, None

    def term(self) -> tuple:
        terms, quantum, classical, name = self.factor()
        while self.token[0] == "*":
            self.token = self.scan()
            start = self.token[1]  # an error points at the factor
            other, q, c, _ = self.factor()
            if c and quantum:
                raise ExprSyntaxError("classical letters must precede quantum letters in a product", start)
            terms = self.times(terms, other, start)
            quantum, classical, name = quantum or q, classical or c, None
        return terms, quantum, classical, name

    def factor(self) -> tuple:
        kind, start, _, name = self.token
        if kind is _SYMBOL:
            if name not in _SYMBOLS:
                raise ExprSyntaxError("unknown symbol %r" % name, start)
            self.token = self.scan()
            terms, quantum, classical = None, name in QMonomial._fields, name in ClassicalMonomial._fields
        else:
            terms, quantum, classical, name = self.base()
        if self.token[0] != "^":
            if terms is None:
                terms = self.symbol_power(name, 1)
            return terms, quantum, classical, name
        self.token = self.scan()
        paren = self.token[0] == "("
        if paren:
            self.token = self.scan()
        kind, start, _, _ = self.token  # an error points at the exponent
        negative = kind == "-"
        if negative:
            self.token = self.scan()
        end = self.token[2]  # where the exponent ends, once it is read
        exponent = -self.take_int() if negative else self.take_int()
        if paren:
            end = self.token[2]
            self.expect(")")
        if exponent < 0 and name != "q":
            raise ExprSyntaxError("negative exponent only allowed on q", end)
        if exponent > EXPONENT_MAX and name != "q":
            raise ExprSyntaxError("exponent %d exceeds EXPONENT_MAX = %d" % (exponent, EXPONENT_MAX), start)
        if name is not None:
            return self.symbol_power(name, exponent), quantum, classical, None
        acc = terms if exponent else {_UNIT: self.one}
        for _ in range(exponent - 1):
            acc = self.times(acc, terms, start)
        return acc, quantum, classical, None

    def base(self) -> tuple:
        """A rational or a parenthesized expr; factor reads a symbol itself."""
        kind, start, _, _ = self.token
        if kind is _INT:
            num = self.take_int()
            den = 1
            if self.token[0] == "/":
                self.token = self.scan()
                den_pos = self.token[1]  # a zero is reported where it is written
                den = self.take_int()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", den_pos)
            if not num:
                return {}, False, False, None
            return ({_UNIT: Cyclotomic.from_rational(self.spec.N, num if den == 1 else Fraction(num, den))},
                    False, False, None)
        if kind == "(":
            if self.depth == NESTING_MAX:
                raise ExprSyntaxError("parentheses nest deeper than NESTING_MAX = %d" % NESTING_MAX, start)
            self.depth += 1
            self.token = self.scan()
            terms, quantum, classical, name = self.expr()
            self.expect(")")
            self.depth -= 1
            return _nonzero(terms), quantum, classical, name
        if kind is _END:
            raise ExprSyntaxError("unexpected end of input", start)
        raise ExprSyntaxError("unexpected %r" % self.text[start], start)

    def symbol_power(self, name: str, exponent: int) -> dict:
        spec = self.spec
        if name == "q":
            return {_UNIT: zeta_pow(spec, exponent)}
        if name in QMonomial._fields:
            return {QMonomial.of_letter(name, exponent): self.one}
        return lift(ClassicalElement.generator(spec, name, exponent)).terms


def parse_qelement(text: str, spec: RootSpec) -> QElement:
    """Parse and evaluate `text`; raises ExprSyntaxError with a position."""
    if spec is None:
        raise ValueError("a root-of-unity spec is required to parse")
    parser = _Parser(text, spec)
    terms = parser.expr()[0]
    kind, start, _, _ = parser.token
    if kind is not _END:
        raise ExprSyntaxError("unexpected %r" % text[start], start)
    return QElement._like(spec, terms)


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


def monomial_text(mono) -> str | None:
    """A QMonomial or ClassicalMonomial in its letters, e.g. a^2*b; None for the unit."""
    return _letters_text(zip(mono._fields, mono))


def format_terms(spec: RootSpec, pairs, times: str = "*") -> str:
    """Signed sum of (monomial text or None for 1, nonzero coefficient) pairs.

    `times` joins a coefficient to its monomial; an empty sum prints as 0.
    """
    return _join_terms((coefficient_parts(spec, z) + (mono_text,) for mono_text, z in pairs), times)


def format_qelement(x: QElement) -> str:
    return format_terms(x.spec, ((monomial_text(m), z) for m, z in x.sorted_terms()))


def format_classical(g: ClassicalElement) -> str:
    return format_terms(g.spec, ((monomial_text(m), z) for m, z in g.sorted_terms()))


def format_cyclotomic(spec: RootSpec, z: Cyclotomic) -> str:
    if z.is_zero():
        return "0"
    return format_terms(spec, ((None, z),))


def format_tensor(t: TensorElement) -> str:
    return format_terms(t.spec, (
        ("%s (x) %s" % (monomial_text(m1) or "1", monomial_text(m2) or "1"), z)
        for (m1, m2), z in t.sorted_terms()
    ))
