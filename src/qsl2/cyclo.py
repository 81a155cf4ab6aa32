"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in the package lives here.  Elements are stored in the power
basis 1, zeta, ..., zeta^(phi(N)-1) of Q[x]/Phi_N(x) as a tuple of integer
numerators over one positive common denominator (the layout of FLINT's
fmpq_poly), kept in lowest terms, so equality and zero-testing are plain
tuple comparisons and zeta is a primitive N-th root of unity by
construction.  Phi_N is monic with integer coefficients, so products reduce
with integer rows.  No floating point is used.

Every per-order datum is read from one table, built on first use per
order: the powers zeta^0 .. zeta^(N-1), their numerators as sparse integer
rows, the zero element, and the units +-zeta^k.  Every product reads the
rows.  A product of degree up to 2*phi-2 reduces its top coefficients
through the rows of zeta^phi .. zeta^(2*phi-2).  Most scalars the package
multiplies are units (the powers of q in the relations, the product rows
and the antipode); the table lists them as the powers of one generator and
maps each unit's numerators to its exponent and its columns, the rows of
zeta^k .. zeta^(k+phi-1) (negated for -zeta^k), so unit * unit and unit
inverses are lookups by exponent, and unit * z maps z's numerators through
those rows and keeps z's denominator.  Cyclotomic.multiplier reads a
factor's kind once for a run of products by the same factor.  The
automorphisms zeta -> zeta^k (`conjugate`) read the same rows; they give
the printer its q-coordinates and the inverse of a general element as a
quotient by its norm.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

@lru_cache(maxsize=256)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, lowest degree first, exact integers."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if N == 1:
        return (-1, 1)
    # Divide x^N - 1 by the product of Phi_d over proper divisors d of N.
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    for d in range(1, N):
        if N % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Long division of integer polynomials known to divide exactly.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        coef = num[k]
        if coef:
            out[k - dd] = coef
            for i, c in enumerate(den):
                num[k - dd + i] -= coef * c
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


def euler_phi(N: int) -> int:
    return len(cyclotomic_polynomial(N)) - 1


class Cyclotomic:
    """An element of Q(zeta_N) in the power basis: num[i] / den is the coefficient of zeta^i.

    The form is canonical: den > 0, gcd(den, *num) == 1, and zero is
    (0, ..., 0) / 1.  Equal elements therefore have equal (order, num, den).
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        coeffs = [Fraction(_rational(c)) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length for Q(zeta_%d)" % order)
        den = math.lcm(*(c.denominator for c in coeffs))
        z = _normalise(order, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)
        _set_order(self, order)
        _set_num(self, z.num)
        _set_den(self, z.den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    def __reduce__(self):
        # pickle would restore the slots through the guard above; rebuild the canonical form instead
        return (_make, (self.order, self.num, self.den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return (_FIELDS.get(order) or _field(order))[2]

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return (_FIELDS.get(order) or _field(order))[0][0]

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        rest = (_FIELDS.get(order) or _field(order))[2].num[1:]
        if not isinstance(value, int):
            value = _rational(value)
            if value.denominator != 1:
                return _make(order, (value.numerator,) + rest, value.denominator)
            value = value.numerator
        return _make(order, (value,) + rest, 1)

    @classmethod
    def zeta(cls, order: int, k: int = 1) -> "Cyclotomic":
        return (_FIELDS.get(order) or _field(order))[0][k % order]

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders %d and %d" % (self.order, other.order))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return _normalise(self.order, tuple(a + b for a, b in zip(self.num, other.num)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        return _normalise(self.order, tuple(a * fa + b * fb for a, b in zip(self.num, other.num)), da * fa)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(self.order, tuple(-a for a in self.num), self.den)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented

    def _scale(self, p: int, q: int) -> "Cyclotomic":
        # self * p/q for q > 0
        return _normalise(self.order, tuple(a * p for a in self.num), self.den * q)

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            if isinstance(other, (int, Fraction)):
                return self._scale(other.numerator, other.denominator)
            if not isinstance(other, Cyclotomic):
                return NotImplemented
        order = self.order
        if order != other.order:
            raise ValueError("mixed cyclotomic orders %d and %d" % (order, other.order))
        field = _FIELDS.get(order) or _field(order)
        units = field[3]
        u = units.get(other.num) if other.den == 1 else None
        v = units.get(self.num) if self.den == 1 else None
        if u is not None:
            if v is not None:
                return field[4][u[0] + v[0]]
            return _map_columns(u[1], self) if u[0] else self  # 1 * self is self
        if v is not None:
            return _map_columns(v[1], other) if v[0] else other
        a, b = self.num, other.num
        n = len(a)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        for top, row in zip(prod[n:], field[1][n:2 * n - 1]):
            if top:
                for i, x in row:
                    prod[i] += top * x
        return _normalise(order, tuple(prod[:n]), self.den * other.den)

    __rmul__ = __mul__

    def multiplier(self):
        """The map z -> self * z for z of the same order, with self's kind read once.

        For one factor applied to many scalars: a unit's table entry, or a
        rational's numerator and denominator, is looked up here and not
        once per product.  Each result is canonical and equals self * z.
        """
        field = _FIELDS.get(self.order) or _field(self.order)
        if self.den == 1:
            unit = field[3].get(self.num)
            if unit is not None:
                e, cols = unit
                if e == 0:
                    return _identity
                units, elems = field[3], field[4]

                def by_unit(z):
                    if z.den == 1:
                        u = units.get(z.num)
                        if u is not None:
                            return elems[e + u[0]]
                    return _map_columns(cols, z)

                return by_unit
        if not any(self.num[1:]):
            order, p, q = self.order, self.num[0], self.den

            def by_rational(z):
                return _normalise(order, tuple([a * p for a in z.num]), z.den * q)

            return by_rational
        return self.__mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse through the norm: z^-1 = P / (z * P).

        P is the product of the conjugates sigma_k(z) for 1 < k < N coprime
        to N, so z * P is the norm of z from Q(zeta_N) to Q, a nonzero
        rational (Washington, Introduction to Cyclotomic Fields, 1982).
        Units +-zeta^k, most of the certificate's rref pivots, are looked
        up in the per-order table instead, and a rational inverts directly.
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic element is zero")
        order = self.order
        field = _FIELDS.get(order) or _field(order)
        if self.den == 1:
            unit = field[3].get(self.num)
            if unit is not None:
                return field[4][-unit[0]]
        head, rest = self.num[0], self.num[1:]
        if not any(rest):
            # rational, the common case of an rref pivot: (p/q)^-1 = q/p, already coprime
            return _make(order, (self.den if head > 0 else -self.den,) + rest, abs(head))
        others = [conjugate(self, k) for k in range(2, order) if math.gcd(k, order) == 1]
        product = math.prod(others[1:], start=others[0])
        norm = (self * product).as_rational()
        if norm is None:
            raise ArithmeticError("element not invertible; Phi_N should be irreducible")
        return product / norm

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a cyclotomic element by zero")
            p, q = other.numerator, other.denominator
            return self._scale(q, p) if p > 0 else self._scale(-q, -p)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        r = self.as_rational()
        if r is not None:
            return hash(r)
        return hash((self.order, self.num, self.den))

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coeffs))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [_ratio_str(c, self.den) for c in self.num]}


_new = object.__new__
_set_order = Cyclotomic.__dict__["order"].__set__
_set_num = Cyclotomic.__dict__["num"].__set__
_set_den = Cyclotomic.__dict__["den"].__set__


def _identity(z):
    return z


def _rational(value):
    """value if it is an int or a Fraction, else TypeError: a float or a string is no exact scalar."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError("a rational scalar is an int or a Fraction, not %s" % type(value).__name__)
    return value


def _make(order: int, num: tuple[int, ...], den: int) -> Cyclotomic:
    """Trusted constructor: (num, den) must already be canonical."""
    z = _new(Cyclotomic)
    _set_order(z, order)
    _set_num(z, num)
    _set_den(z, den)
    return z


def _normalise(order: int, num: tuple[int, ...], den: int) -> Cyclotomic:
    """The canonical element num/den, for den > 0."""
    if den == 1:
        return _make(order, num, 1)
    g = den
    for c in num:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return _make(order, num, den)
    # here g == den if num is all zeros, which gives the canonical (0, ..., 0)/1
    return _make(order, tuple(c // g for c in num), den // g)


# order N -> (powers, rows, zero, units, elems), built on first use by _field;
# past _FIELDS_MAX orders the oldest is dropped
_FIELDS: dict[int, tuple] = {}
_FIELDS_MAX = 256


def _field(N: int) -> tuple:
    """The per-order table of Q(zeta_N): (powers, rows, zero, units, elems).

    powers[k] is zeta^k for 0 <= k < N, each one shift of the one before.
    rows[k] is zeta^(k mod N) as the sparse (index, numerator) pairs of
    its power-basis vector, for 0 <= k < 2N: the rows are listed twice, so
    zeta^(k+j) needs no reduction mod N.  Phi_N is monic with integer
    coefficients, so the numerators are integers, and rows[phi:2*phi-1]
    reduce a product of degree up to 2*phi-2.  zero is the zero element.

    The units +-zeta^k form a cyclic group of order M generated by g = zeta
    (N even, where -1 = zeta^(N/2)) or g = -zeta (N odd, M = 2N); elems
    lists g^0 .. g^(M-1) twice, so g^e * g^f = elems[e + f] needs no
    reduction mod M, and g^-e = elems[-e].
    units maps the numerators of each unit (den 1) to its entry (e, cols):
    cols, the columns of multiplication by g^e = +-zeta^k, are the slice
    rows[k:k+phi] for +zeta^k and the same slice of one shared negation of
    rows for -zeta^k.
    """
    poly = cyclotomic_polynomial(N)
    deg = len(poly) - 1
    first = tuple(-c for c in poly[:-1])  # zeta^deg
    cur = [1] + [0] * (deg - 1)
    powers = []
    for _ in range(N):
        powers.append(_make(N, tuple(cur), 1))
        top, cur = cur[-1], [0] + cur[:-1]
        if top:
            cur = [a + top * b for a, b in zip(cur, first)]
    rows = tuple(tuple((i, x) for i, x in enumerate(z.num) if x) for z in powers) * 2
    if N % 2 == 0:
        elems = powers
        units = {z.num: (k, rows[k:k + deg]) for k, z in enumerate(powers)}
    else:
        negated = tuple(tuple((i, -x) for i, x in row) for row in rows[:N]) * 2
        elems = [powers[e % N] if e % 2 == 0 else -powers[e % N] for e in range(2 * N)]
        units = {z.num: (e, (negated if e % 2 else rows)[e % N:e % N + deg])
                 for e, z in enumerate(elems)}
    if len(_FIELDS) >= _FIELDS_MAX:
        del _FIELDS[next(iter(_FIELDS))]
    field = _FIELDS[N] = (tuple(powers), rows, _make(N, (0,) * deg, 1), units, tuple(elems) * 2)
    return field


def unit_power(z: Cyclotomic) -> tuple[int, int] | None:
    """(sign, k) with z = sign * zeta^k and 0 <= k < N, or None if z is no such unit.

    For even N, -1 = zeta^(N/2), so the sign is always +1.
    """
    if z.den != 1:
        return None
    N = z.order
    unit = (_FIELDS.get(N) or _field(N))[3].get(z.num)
    if unit is None:
        return None
    e = unit[0]
    return (-1 if e % 2 and N % 2 else 1), e % N


def _map_columns(cols, z: Cyclotomic) -> Cyclotomic:
    """z's numerators mapped through the integer matrix with sparse columns `cols`.

    The matrix is a unit's multiplication or an automorphism sigma_k, both
    in GL(phi, Z), which keeps the numerators' gcd with den, so the result
    is canonical without a gcd.
    """
    out = [0] * len(cols)
    for c, col in zip(z.num, cols):
        if c:
            for i, x in col:
                out[i] += c * x
    return _make(z.order, tuple(out), z.den)


def conjugate(z: Cyclotomic, k: int) -> Cyclotomic:
    """sigma_k(z) for the automorphism sigma_k: zeta -> zeta^k of Q(zeta_N), k coprime to N.

    Column i of sigma_k is the row of zeta^(ik mod N).
    """
    N = z.order
    if math.gcd(k, N) != 1:
        raise ValueError("exponent %d is not coprime to N=%d" % (k, N))
    rows = (_FIELDS.get(N) or _field(N))[1]
    return _map_columns([rows[i * k % N] for i in range(len(z.num))], z)


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms, written like a Fraction but without the '/1'."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else "%d/%d" % (num, den)


# the longest text an error message gives a bad JSON value
_SHOWN_MAX = 40


def json_shown(value) -> str:
    """A bad JSON value as an error message names it, in at most _SHOWN_MAX characters.

    A flat scalar (int, str, bool, float or None) shows its repr, cut short;
    anything else shows only its type, e.g. <list>, so a long or deeply
    nested value never makes a long message or exhausts the stack.
    """
    if type(value) is int and value.bit_length() > 3 * _SHOWN_MAX:
        return "<int of %d bits>" % value.bit_length()  # too long to show, or to convert at all
    if value is None or type(value) in (int, str, bool, float):
        text = repr(value[:_SHOWN_MAX] if type(value) is str else value)
        return text if len(text) <= _SHOWN_MAX else text[:_SHOWN_MAX - 3] + "..."
    return "<%s>" % type(value).__name__


def json_int(value) -> int:
    """An integer field of a JSON document; a float, bool, string or anything else raises ValueError."""
    if type(value) is not int:
        raise ValueError("expected an integer, got %s" % json_shown(value))
    return value


def _json_ratio(text) -> tuple[int, int]:
    """(num, den) of one coefficient string as Cyclotomic.to_json writes it: "p" or "p/q", q > 0.

    Anything else raises ValueError, a JSON number or bool included: a
    float would otherwise be read at its binary value.
    """
    if type(text) is not str:
        raise ValueError("coefficient %s is not a string \"p\" or \"p/q\"" % json_shown(text))
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not (_is_digits(digits) and (not slash or (_is_digits(den) and int(den)))):
        raise ValueError("coefficient %s is not an integer \"p\" or a ratio \"p/q\" with q > 0"
                         % json_shown(text))
    return int(num), int(den) if slash else 1


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def cyclotomic_from_json(data: dict, order: int | None = None) -> Cyclotomic:
    """Inverse of Cyclotomic.to_json; a malformed document raises ValueError.

    With `order` given, a document of any other order is rejected before
    its field is built, so a huge order fails at once.
    """
    try:
        found = json_int(data["order"])
        if order is not None and found != order:
            raise ValueError("coefficient of order %s where %d is expected" % (json_shown(found), order))
        coeffs = data["coeffs"]
        if type(coeffs) is not list or len(coeffs) != euler_phi(found):
            raise ValueError("coefficient vector has wrong length for Q(zeta_%d)" % found)
    except KeyError as err:
        raise ValueError("malformed cyclotomic %s: missing field %s" % (json_shown(data), err)) from None
    except TypeError as err:
        raise ValueError("malformed cyclotomic %s: %s" % (json_shown(data), err)) from None
    ratios = [_json_ratio(c) for c in coeffs]
    den = math.lcm(*(q for _, q in ratios))
    return _normalise(found, tuple(p * (den // q) for p, q in ratios), den)


class RootSpec(namedtuple("RootSpec", "l N zeta_exponent")):
    """The root of unity q = zeta_N^zeta_exponent at parameter l >= 2.

    The order N is l (l odd) or 2l.  The standard cases are q^l = 1 for
    odd l and q^(2l) = 1 for even l; N = 2l at odd l is the remark case,
    which the structural operations reject.  standard is read off (l, N)
    and cannot be set.  The constructor raises ValueError for any other
    pair or for a zeta_exponent not coprime to N, and stores the exponent
    mod N, so q is always a primitive N-th root of unity.
    """

    __slots__ = ()

    def __new__(cls, l: int, N: int, zeta_exponent: int = 1):
        if l < 2:
            raise ValueError("l must be at least 2")
        if N != 2 * l and not (N == l and l % 2):
            raise ValueError("unsupported pair l=%s, N=%s" % (json_shown(l), json_shown(N)))
        if math.gcd(zeta_exponent, N) != 1:
            raise ValueError("zeta_exponent %s is not coprime to N=%s"
                             % (json_shown(zeta_exponent), json_shown(N)))
        return tuple.__new__(cls, (l, N, zeta_exponent % N))

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, so it validates too
        return cls(*fields)

    @property
    def standard(self) -> bool:
        return self.N == self.l or self.l % 2 == 0


def make_root_spec(l: int, zeta_exponent: int | None = None) -> RootSpec:
    """The standard case: q of order l for odd l, 2l for even l."""
    return RootSpec(l, l if l % 2 else 2 * l, 1 if zeta_exponent is None else zeta_exponent)


def remark_root_spec(l: int, zeta_exponent: int | None = None) -> RootSpec:
    """The nonstandard case: l odd but q of order 2l (q^l = -1)."""
    if l < 3 or l % 2 == 0:
        raise ValueError("this case needs odd l >= 3")
    return RootSpec(l, 2 * l, 1 if zeta_exponent is None else zeta_exponent)


def root_spec_from_json(data: dict) -> RootSpec:
    return RootSpec(json_int(data["l"]), json_int(data["N"]), json_int(data.get("zeta_exponent", 1)))


def root_spec_to_json(spec: RootSpec) -> dict:
    return {"l": spec.l, "N": spec.N, "zeta_exponent": spec.zeta_exponent}


def zeta_pow(spec: RootSpec, k: int) -> Cyclotomic:
    """q^k as an exact field element."""
    N = spec.N
    return (_FIELDS.get(N) or _field(N))[0][(spec.zeta_exponent * k) % N]


@lru_cache(maxsize=256)
def p_expansion(spec: RootSpec, k: int) -> tuple[Cyclotomic, ...]:
    """Coefficients p_{k,j} of prod_{j=1..k} (1 + q^(2j-1) x) in x, length k+1.

    This is the expansion route; it never divides and is valid for every
    k, including k past l where the closed formula degenerates.  It is the
    only builder of q-product rows; the others follow exactly:

        a^k d^k = sum_j p_{k,j} (bc)^j
        d^k a^k = sum_j q^(-2kj) p_{k,j} (bc)^j    as q^(1-2j) = q^(-2k) q^(2(k-j)+1)
        [k j]_{q^-2} = q^(-j(2k-j)) p_{k,j}        the coproduct's Gaussian binomials
        (bc)^k = sum_t (-1)^(k-t) q^((k-t)(k-t-1) - k^2 - t^2) p_{k,t} a^t d^t

    The last inverts the lower-triangular system of the first, with each
    a^t d^t a word as written; the beta chart of basis.localize reads its
    words off it.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeffs = [Cyclotomic.one(spec.N)]
    for j in range(1, k + 1):
        f = zeta_pow(spec, 2 * j - 1)
        coeffs = ([coeffs[0]] + [coeffs[i] + coeffs[i - 1] * f for i in range(1, len(coeffs))]
                  + [coeffs[-1] * f])
    return tuple(coeffs)


def p_coeff(spec: RootSpec, k: int, j: int) -> Cyclotomic:
    """Closed formula q^(j^2) * prod_{r=j+1..k}(q^2r - 1) / prod_{s=1..k-j}(q^2s - 1).

    A numerator factor that vanishes (q^2r = 1, as at k = l) gives the exact
    zero before any product is formed; for j=0 the two products are
    identical and cancel before any evaluation.
    """
    if not (0 <= j <= k <= spec.l):
        raise ValueError("need 0 <= j <= k <= l, got j=%d k=%d l=%d" % (j, k, spec.l))
    one = Cyclotomic.one(spec.N)
    if j == 0:
        return one
    factors = [zeta_pow(spec, 2 * r) - one for r in range(j + 1, k + 1)]
    if any(f.is_zero() for f in factors):
        return Cyclotomic.zero(spec.N)
    num = zeta_pow(spec, j * j)
    for f in factors:
        num = num * f
    den = one
    for s in range(1, k - j + 1):
        den = den * (zeta_pow(spec, 2 * s) - one)
    if den.is_zero():
        raise ZeroDivisionError("vanishing denominator in p_coeff(k=%d, j=%d)" % (k, j))
    return num / den
