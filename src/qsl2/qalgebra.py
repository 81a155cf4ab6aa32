"""PBW normal-form engine for the quantum SL(2) coordinate ring.

Relations (q the chosen root of unity):

    ab = q ba   ac = q ca   bd = q db   bc = cb   cd = q dc
    ad - da = (q - q^-1) bc      ad - q bc = 1

Normal form: monomials a^i b^j c^k d^m with min(i, m) = 0, coefficients in
Q(zeta_N).  Mixed a,d powers contract through the product rows

    a^t d^t = prod_{j=1..t} (1 + q^(2j-1) bc) = sum_s p_{t,s} (bc)^s
    d^t a^t = prod_{j=1..t} (1 + q^(1-2j) bc) = sum_s q^(-2ts) p_{t,s} (bc)^s

which hold for every t with no division (p = cyclo.p_expansion).  The
module also carries the Hopf maps (coproduct, counit, antipode) and the
commutative coordinate ring of classical SL(2) used for Frobenius coefficients.

Every element type of the package is a finite sparse combination; the
term plumbing they share (zero pruning, addition, scaling, equality,
sorting and JSON) lives once, in _Terms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .cyclo import (
    Cyclotomic,
    RootSpec,
    cyclotomic_from_json,
    json_int,
    p_expansion,
    root_spec_from_json,
    root_spec_to_json,
    zeta_pow,
)

_SCALARS = (int, Fraction, Cyclotomic)
# largest exponent the parser (on a base other than q) and the JSON readers accept, and
# the largest `qsl2 ptable --k`; a^k*d^k and that table build the same row
# cyclo.p_expansion(spec, k) at about k^2 scalar products, alpha^k*delta^k k + 1 terms
EXPONENT_MAX = 1000
# largest number of term products the parser spends on one expression: before each
# product it forms (every * and every step of a power) it charges each pair of terms
# 1 + min(a-sum, d-sum), the a^t d^t the pair contracts; on one core of an Intel Xeon
# at l = 3, (a+b+c+d)^20 (27,796 charged) parses in 0.2 s and (1+a)^200 (40,198) in
# 0.3 s, while (a+d)^150, (1+a)^200*(1+d)^200 and (a+b+c+d)^1000 stop in under 0.5 s
POWER_PRODUCTS_MAX = 50_000


def _add_term(acc: dict, key, value) -> None:
    """acc[key] += value, creating the entry if it is missing."""
    acc[key] = acc[key] + value if key in acc else value


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


class _SortedTerms:
    """Sorted view and JSON writer for an immutable dict `terms` of key -> value.

    A JSON document is the head fields followed by one row per term, in
    sorted order; a row is the key's fields followed by the value's.
    """

    __slots__ = ()
    _ROWS = "terms"  # the JSON field that holds the rows

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @staticmethod
    def _sort_key(key):
        return key.sort_key()

    def sorted_terms(self) -> list:
        sort_key = self._sort_key
        return sorted(self.terms.items(), key=lambda t: sort_key(t[0]))

    @staticmethod
    def _key_json(key) -> dict:
        return key._asdict()

    @staticmethod
    def _value_json(value) -> dict:
        return {"coeff": value.to_json()}

    def to_json(self) -> dict:
        out = self._json_head()
        out[self._ROWS] = [{**self._key_json(k), **self._value_json(v)}
                           for k, v in self.sorted_terms()]
        return out


class _Terms(_SortedTerms):
    """An immutable finite combination over one root spec; zero values are never stored.

    Values are Cyclotomic scalars or ClassicalElements.  The attributes
    named in _HEAD fix the ambient module: two combinations add or compare
    only when they have the same concrete type and the same head.  A
    subclass normalises and validates keys in _key and gives its real
    product in _mul.

    The constructor cls(*head, terms) validates every key and value.
    Internal producers whose terms are normal by construction build through
    cls._like(*head, terms) instead, which only prunes zeros.
    """

    __slots__ = ("spec", "terms")
    _HEAD = ("spec",)

    def __init__(self, spec: RootSpec, terms: dict | None = None):
        _set_spec(self, spec)
        _set_terms(self, self._clean(terms or {}))

    def _key(self, key):
        return key

    @staticmethod
    def _value_ok(spec: RootSpec, value) -> bool:
        """Whether value is a coefficient over spec: a Cyclotomic of order spec.N."""
        return type(value) is Cyclotomic and value.order == spec.N

    def _clean(self, terms: dict) -> dict:
        key, value_ok, spec = self._key, self._value_ok, self.spec
        out = {}
        for k, v in terms.items():
            k = key(k)  # every term is checked, zero-valued ones too
            if not value_ok(spec, v):
                raise ValueError("coefficient of %s is not a coefficient over %s: %r" % (k, spec, v))
            if not v.is_zero():
                out[k] = v
        return out

    @classmethod
    def _like(cls, spec: RootSpec, terms: dict):
        """cls(spec, terms) for keys that are already normal: only zeros are pruned."""
        out = _new(cls)
        _set_spec(out, spec)
        _set_terms(out, _nonzero(terms))
        return out

    def __reduce__(self):
        # pickle would restore the slots through the immutability guard; rebuild through _like instead
        return (self._like, self._head() + (self.terms,))

    @classmethod
    def zero(cls, *head):
        return cls(*head)

    def is_zero(self) -> bool:
        return not self.terms

    def _head(self) -> tuple:
        return tuple(getattr(self, name) for name in self._HEAD)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        for name in self._HEAD:
            if getattr(self, name) != getattr(other, name):
                raise ValueError("operands have different %s" % name)

    def _coerce(self, other):
        return other if type(other) is type(self) else NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            _add_term(acc, k, v)
        return self._like(*self._head(), acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like(*self._head(), {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._like(*self._head(), {k: v * other for k, v in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def _mul(self, other):
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._head() == other._head() and self.terms == other.terms

    def __hash__(self):
        return hash((self._head(), tuple(self.sorted_terms())))

    def __repr__(self):
        return "%s<%d terms>" % (type(self).__name__, len(self.terms))

    # -- JSON -------------------------------------------------------------

    def _json_head(self) -> dict:
        return {"spec": root_spec_to_json(self.spec)}

    @staticmethod
    def _head_from_json(data: dict, spec: RootSpec | None) -> tuple:
        file_spec = root_spec_from_json(data["spec"]) if "spec" in data else spec
        if file_spec is None:
            raise ValueError("no root data in JSON and none supplied")
        if spec is not None and file_spec != spec:
            raise ValueError("JSON root data disagrees with the supplied spec")
        return (file_spec,)

    @classmethod
    def _key_from_json(cls, row: dict):
        return cls._KEY.from_json(row)

    @staticmethod
    def _value_from_json(row: dict, spec: RootSpec):
        return cyclotomic_from_json(row["coeff"], spec.N)

    @classmethod
    def from_json(cls, data: dict, spec: RootSpec | None = None):
        """Inverse of to_json; repeated keys are summed and a malformed document raises ValueError.

        So does a monomial exponent above EXPONENT_MAX, before any term is expanded.
        """
        terms: dict = {}
        try:
            head = cls._head_from_json(data, spec)
            for row in data[cls._ROWS]:
                _add_term(terms, cls._key_from_json(row), cls._value_from_json(row, head[0]))
        except KeyError as err:
            raise ValueError("malformed %s JSON: missing field %s" % (cls.__name__, err)) from None
        except TypeError as err:
            raise ValueError("malformed %s JSON: %s" % (cls.__name__, err)) from None
        return cls(*head, terms)


# the slot setters, so the trusted constructor _like skips the immutability guard
_new = object.__new__
_set_spec = _Terms.__dict__["spec"].__set__
_set_terms = _Terms.__dict__["terms"].__set__


class _Polynomial(_Terms):
    """A combination of monomials in four letters, the field names of _KEY.

    Scalars (int, Fraction, Cyclotomic) add as multiples of the unit.
    """

    __slots__ = ()

    @classmethod
    def monomial(cls, spec: RootSpec, mono, coeff=1):
        """coeff * mono; coeff is an int or Fraction (read as a rational) or a Cyclotomic of order spec.N."""
        if isinstance(coeff, (int, Fraction)):
            coeff = Cyclotomic.from_rational(spec.N, coeff)
        elif not cls._value_ok(spec, coeff):
            raise ValueError("scalar is not a coefficient over %s: %r" % (spec, coeff))
        return cls(spec, {mono: coeff})

    @classmethod
    def scalar(cls, spec: RootSpec, value):
        return cls.monomial(spec, cls._KEY(0, 0, 0, 0), value)

    @classmethod
    def one(cls, spec: RootSpec):
        return cls.scalar(spec, 1)

    @classmethod
    def generator(cls, spec: RootSpec, letter: str, exponent: int = 1):
        """letter^exponent, for a letter among the field names of _KEY."""
        if letter not in cls._KEY._fields:
            raise ValueError("unknown generator %r" % (letter,))
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be an integer >= 0, got %r" % (exponent,))
        # a power of one letter is a normal monomial on either side
        return cls._like(spec, {cls._KEY.of_letter(letter, exponent): Cyclotomic.one(spec.N)})

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            return self.scalar(self.spec, other)
        return super()._coerce(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        if n == 0:
            return self.one(self.spec)
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def __repr__(self):
        name = type(self).__name__
        if self.is_zero():
            return "%s<0>" % name
        bits = []
        for m, v in self.sorted_terms():
            mono = "*".join("%s^%d" % (s, e) if e > 1 else s
                            for s, e in zip(self._KEY._fields, m) if e) or "1"
            bits.append("(%r)*%s" % (v, mono))
        return "%s<%s>" % (name, " + ".join(bits))


class _Monomial:
    """Exponents of a monomial in four letters, the first and last being a, d or alpha, delta."""

    __slots__ = ()

    def degree(self) -> int:
        return sum(self)

    def sort_key(self):
        # graded, then lexicographic with the letters in field order
        return (sum(self), -self[0], -self[1], -self[2], -self[3])

    def is_reduced(self) -> bool:
        return min(self[0], self[3]) == 0 and min(self) >= 0

    @classmethod
    def of_letter(cls, letter: str, exponent: int):
        """letter^exponent, for a letter among the field names."""
        exponents = [0, 0, 0, 0]
        exponents[cls._fields.index(letter)] = exponent
        return tuple.__new__(cls, exponents)

    @classmethod
    def from_json(cls, fields: dict):
        """The monomial of a JSON object {letter: exponent}, each an integer <= EXPONENT_MAX, else ValueError."""
        exponents = []
        for name in cls._fields:
            e = json_int(fields[name])
            if e > EXPONENT_MAX:
                raise ValueError("exponent %d exceeds EXPONENT_MAX = %d" % (e, EXPONENT_MAX))
            exponents.append(e)
        return cls._make(exponents)

    @classmethod
    def reduced_up_to(cls, top: int) -> list:
        """Every reduced monomial with all exponents at most top, in lexicographic order."""
        r = range(top + 1)
        return [cls(i, j, k, m) for i in r for j in r for k in r for m in r if not (i and m)]


class QMonomial(_Monomial, namedtuple("QMonomial", "a b c d")):
    """Exponents of a normal-ordered monomial a^a b^b c^c d^d."""

    __slots__ = ()


@lru_cache(maxsize=2**16)
def _mono_mul(spec: RootSpec, x: QMonomial, y: QMonomial) -> tuple[tuple[QMonomial, Cyclotomic], ...]:
    """Product of two words a^i b^j c^k d^m, returned as normal (monomial, scalar) pairs.

    A word may hold both a and d; it is multiplied as it is written.  The
    cache keeps the products that are used again; the products formed only
    once, Delta's right legs (_coproduct_monomial) and the lifted products
    (frobenius._lifted_product), skip it through _mono_mul.__wrapped__.

    For x = a^i1 b^j1 c^k1 d^m1 and y = a^i2 b^j2 c^k2 d^m2, with
    t = min(i1+i2, m1+m2) and e = t(j1+k1+j2+k2) - i2(j1+k1) - m1(j2+k2),

        x*y = sum_s p_{t,s} q^(e + sigma s) a^(i1+i2-t) b^(j1+j2+s) c^(k1+k2+s) d^(m1+m2-t),

    where sigma = -2 max(m1, i2) if m1 i2 != 0 and sigma = 0 otherwise.
    When m1 i2 = 0, a^i2 moves left across b^j1 c^k1, d^m1 right across
    b^j2 c^k2, and a^t d^t contracts across the b, c block by the row p_t;
    when m1 i2 != 0, d^m1 a^i2 crosses by the row of min(m1, i2), which
    carries the extra q^(sigma s).  The formula needs that crossing to
    leave no a, d pair to contract, t = min(m1, i2); this holds for two
    normal words and for a lifted block against a word with exponents
    below l, and any other crossing raises RuntimeError.  A row below l
    has no zero entry (q-Lucas), so only a row t >= l is filtered.
    """
    i1, j1, k1, m1 = x
    i2, j2, k2, m2 = y
    t = min(i1 + i2, m1 + m2)
    e = t * (j1 + k1 + j2 + k2) - i2 * (j1 + k1) - m1 * (j2 + k2)
    a, b, c, d = i1 + i2 - t, j1 + j2, k1 + k2, m1 + m2 - t
    if not t:
        return ((QMonomial(a, b, c, d), zeta_pow(spec, e)),)
    sigma = 0
    if m1 and i2:
        if t != min(m1, i2):
            raise RuntimeError("the product %s * %s crosses into an a, d pair to contract; this is a bug"
                               % (x, y))
        sigma = -2 * max(m1, i2) % spec.N
    row = enumerate(p_expansion(spec, t))
    if t >= spec.l:
        row = [(s, ps) for s, ps in row if not ps.is_zero()]
    if sigma:
        return tuple((QMonomial(a, b + s, c + s, d), ps * zeta_pow(spec, e + sigma * s)) for s, ps in row)
    unit = zeta_pow(spec, e)
    return tuple((QMonomial(a, b + s, c + s, d), ps * unit) for s, ps in row)


class QElement(_Polynomial):
    """A finite Q(zeta_N)-combination of normal monomials."""

    __slots__ = ()
    _KEY = QMonomial

    def _key(self, m):
        if not isinstance(m, QMonomial):
            m = QMonomial(*m)
        if not m.is_reduced():
            raise ValueError("monomial %s is not in normal form" % (m,))
        return m

    def _mul(self, other):
        return qmul(self, other)

    def max_exponent(self) -> int:
        return max((max(m) for m in self.terms), default=0)


qelement_from_json = QElement.from_json


def qmul(x: QElement, y: QElement) -> QElement:
    """Product in the quantum coordinate ring."""
    x._check(y)
    return QElement._like(x.spec, _mul_terms(x.spec, x.terms, y.terms))


def _mul_terms(spec: RootSpec, x: dict, y: dict) -> dict:
    """The terms of x*y for dicts word -> scalar of normal words, one cached engine call per pair.

    The words are normal, and so is every word of the result, but
    distinct pairs may cancel: the result can hold zero scalars.  qmul
    and the parser (expr._Parser.times) both multiply through this loop.
    """
    acc: dict[QMonomial, Cyclotomic] = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            cxy = cx * cy
            for mz, cz in _mono_mul(spec, mx, my):
                v = cxy * cz
                acc[mz] = acc[mz] + v if mz in acc else v
    return acc


def straighten(word, spec: RootSpec) -> QElement:
    """Normal form of a free word in the generators, e.g. the string "abcd"."""
    acc = QElement.one(spec)
    for ch in word:
        acc = qmul(acc, QElement.generator(spec, ch))
    return acc


def random_qelement(spec: RootSpec, rng, nterms: int = 3, emax: int | None = None) -> QElement:
    """Random element with reduced monomials, exponents <= emax (default 2l).

    rng is a random.Random; the draws it makes are fixed, so a seed always
    gives the same element.
    """
    emax = 2 * spec.l if emax is None else emax
    terms: dict[QMonomial, Cyclotomic] = {}
    for _ in range(nterms):
        i = rng.randrange(0, emax + 1)
        m = rng.randrange(0, emax + 1)
        if i and m:
            m = 0
        mono = QMonomial(i, rng.randrange(0, emax + 1), rng.randrange(0, emax + 1), m)
        _add_term(terms, mono, zeta_pow(spec, rng.randrange(spec.N)) * Fraction(rng.randrange(-3, 4)))
    return QElement(spec, terms)


# ---------------------------------------------------------------------------
# Hopf structure


class TensorElement(_Terms):
    """An element of the two-fold tensor square, keyed by monomial pairs."""

    __slots__ = ()

    def _key(self, pair):
        m1, m2 = pair
        if not (m1.is_reduced() and m2.is_reduced()):
            raise ValueError("tensor legs must be normal monomials")
        return pair

    @staticmethod
    def _sort_key(pair):
        return (pair[0].sort_key(), pair[1].sort_key())

    @staticmethod
    def _key_json(pair) -> dict:
        return {"left": pair[0]._asdict(), "right": pair[1]._asdict()}

    @staticmethod
    def _key_from_json(row: dict):
        return QMonomial.from_json(row["left"]), QMonomial.from_json(row["right"])

    def _json_head(self) -> dict:
        return {}

    def _mul(self, other):
        return tensor_mul(self, other)


def tensor_mul(x: TensorElement, y: TensorElement) -> TensorElement:
    """Componentwise product (x1*y1) tensor (x2*y2), no braiding."""
    x._check(y)
    spec = x.spec
    acc: dict[tuple[QMonomial, QMonomial], Cyclotomic] = {}
    for (x1, x2), cx in x.terms.items():
        for (y1, y2), cy in y.terms.items():
            cxy = cx * cy
            for mz1, cz1 in _mono_mul(spec, x1, y1):
                c1 = cxy * cz1
                for mz2, cz2 in _mono_mul(spec, x2, y2):
                    key = (mz1, mz2)
                    v = c1 * cz2
                    acc[key] = acc[key] + v if key in acc else v
    return TensorElement._like(spec, acc)


@lru_cache(maxsize=256)
def _coproduct_half(spec: RootSpec, e1: int, e2: int) -> tuple:
    """Delta(a^e1 b^e2) grouped by left leg, as pairs (T, R_T).

    Delta(a^e1 b^e2) = sum_T a^(e1+e2-T) b^T (x) R_T and, with the same
    R_T, Delta(c^e1 d^e2) = sum_T c^(e1+e2-T) d^T (x) R_T, where

        R_T = sum_{t1+t2=T} [e1 t1][e2 t2] q^(-t1(e2-t2)) nf(a^(e1-t1) b^(e2-t2) c^t1 d^t2)

    is given as (monomial, scalar) pairs.  The power of q moves b^t1
    (d^t1) right across a^(e2-t2) (c^(e2-t2)) in the left leg, and the
    binomials are [e t]_{q^-2} = q^(-t(2e-t)) p_{e,t} (cyclo.p_expansion).
    The inner products a^x b^y * c^z d^w stay on the _mono_mul cache, as
    they are the same keys as the left-leg products of _coproduct_monomial:
    skipping it cut the traced seed-0 hopf cache only from 1380 to 1147
    entries, lost 200 of its 1555 hits and raised the counted scalar
    products from 30652 to 31108; over 10 hopf benchmark pairs it lowered
    peak RSS by 0.6 % but raised wall_s by 0.6 % and op_p50_ms by 1.0 %.
    """
    row1, row2 = p_expansion(spec, e1), p_expansion(spec, e2)
    groups: dict[int, dict[QMonomial, Cyclotomic]] = {}
    for t1, p1 in enumerate(row1):
        for t2, p2 in enumerate(row2):
            c = p1 * p2 * zeta_pow(spec, -t1 * (2 * e1 - t1) - t2 * (2 * e2 - t2) - t1 * (e2 - t2))
            if c.is_zero():
                continue
            acc = groups.setdefault(t1 + t2, {})
            for mono, v in _mono_mul(spec, QMonomial(e1 - t1, e2 - t2, 0, 0), QMonomial(0, 0, t1, t2)):
                _add_term(acc, mono, c * v)
    return tuple((T, tuple((m, v) for m, v in acc.items() if not v.is_zero()))
                 for T, acc in groups.items())


@lru_cache(maxsize=2**12)
def _orbit(m: QMonomial) -> tuple[QMonomial, QMonomial, QMonomial, QMonomial]:
    """(m, phi(m), psi(m), phi(psi(m))), the images of m under <phi, psi> (see coproduct)."""
    a, b, c, d = m
    make = QMonomial._make
    return (m, make((d, c, b, a)), make((a, c, b, d)), make((d, b, c, a)))


@lru_cache(maxsize=256)
def _coproduct_monomial(spec: RootSpec, mono: QMonomial) -> tuple:
    """Delta(a^i b^j c^k d^m) as normal ((left orbit, right orbit), scalar) terms.

    Delta is multiplicative, so this is the product of the two halves
    Delta(a^i b^j) and Delta(c^k d^m) (see _coproduct_half): for each pair
    of left legs the right legs are multiplied first and then crossed with
    the normal form of the left-leg product.  A right leg's a - d exponent
    difference fixes its T (or U), so no right-leg product R_T * R_U repeats
    within one build, and those products skip the _mono_mul cache.  Each
    entry also serves the other monomials of mono's orbit under <phi, psi>,
    so each leg L is stored as its orbit _orbit(L), from which coproduct
    reads the relabelled leg by index.
    """
    i, j, k, m = mono
    right_mul = _mono_mul.__wrapped__
    acc: dict[tuple[QMonomial, QMonomial], Cyclotomic] = {}
    cd = _coproduct_half(spec, k, m)
    for T, right_ab in _coproduct_half(spec, i, j):
        left_ab = QMonomial(i + j - T, T, 0, 0)
        for U, right_cd in cd:
            right: dict[QMonomial, Cyclotomic] = {}
            for r1, v1 in right_ab:
                for r2, v2 in right_cd:
                    v12 = v1 * v2
                    for r, v in right_mul(spec, r1, r2):
                        v = v12 * v
                        right[r] = right[r] + v if r in right else v
            for left, u in _mono_mul(spec, left_ab, QMonomial(0, 0, k + m - U, U)):
                unit = u.is_one()
                for r, v in right.items():
                    key = (left, r)
                    if not unit:
                        v = u * v
                    acc[key] = acc[key] + v if key in acc else v
    return tuple(((_orbit(L), _orbit(R)), v) for (L, R), v in acc.items() if not v.is_zero())


def coproduct(x: QElement) -> TensorElement:
    """The algebra map with Delta(a)=a@a+b@c, Delta(b)=a@b+b@d, Delta(c)=c@a+d@c, Delta(d)=c@b+d@d.

    Each generator's image is X + Y with (X, Y) = (a@a, b@c), (a@b, b@d),
    (c@a, d@c) or (c@b, d@d), and in every case YX = q^-2 XY.  So the
    q-binomial theorem gives Delta(x^n) = sum_k [n k]_{q^-2} X^(n-k) Y^k.
    Delta is linear over the bounded cache _coproduct_monomial, built once per
    orbit of the Klein four-group <phi, psi> and read at the least member r
    of _orbit(mono) = (mono, phi(mono), psi(mono), phi(psi(mono))), where

        phi(a^i b^j c^k d^m) = a^m b^k c^j d^i   (a<->d, b<->c)
        psi(a^i b^j c^k d^m) = a^i b^k c^j d^m   (b<->c)

    relabel a monomial with coefficient 1.  phi is an anti-automorphism, as
    it permutes the defining relations, so Delta o phi and (phi@phi) o Delta
    are anti-algebra maps that agree on a, b, c, d.  The relations are
    symmetric in b and c, so psi is an automorphism at every q, and it
    reverses Delta: Delta o psi = sigma o (psi@psi) o Delta, sigma the swap
    of the legs, as both sides are algebra maps that agree on the generators,
    e.g. sigma (psi@psi) Delta(b) = sigma(a@c + c@d) = c@a + d@c = Delta(c).
    So a term (L, R) of Delta(r) is, with the same scalar, the term

        (phi L, phi R) of Delta(phi r),   (psi R, psi L) of Delta(psi r),
        (phi psi R, phi psi L) of Delta(phi psi r).

    Each group element is an involution, so mono = g(r) for the g at the
    index of r in mono's orbit, and as Delta(r) stores each leg as its
    orbit, the relabelled legs are read at that index with no monomial
    formed.  One coefficient multiplies a whole Delta(r), so its multiplier
    is built once per term of x and applied in the same pass.
    """
    spec = x.spec
    acc: dict[tuple[QMonomial, QMonomial], Cyclotomic] = {}
    for mono, coeff in x.terms.items():
        orbit = _orbit(mono)
        r = min(orbit)
        g = orbit.index(r)
        swap = g > 1
        mul = coeff.multiplier()
        for (L, R), v in _coproduct_monomial(spec, r):
            key = (R[g], L[g]) if swap else (L[g], R[g])
            v = mul(v)
            acc[key] = acc[key] + v if key in acc else v
    return TensorElement._like(spec, acc)


def counit(x: QElement) -> Cyclotomic:
    """epsilon(a)=epsilon(d)=1, epsilon(b)=epsilon(c)=0, extended as a character."""
    acc = Cyclotomic.zero(x.spec.N)
    for mono, coeff in x.terms.items():
        if mono.b == 0 and mono.c == 0:
            acc = acc + coeff
    return acc


def antipode(x: QElement) -> QElement:
    """S(a)=d, S(b)=-q^-1 b, S(c)=-q c, S(d)=a, extended antimultiplicatively."""
    spec = x.spec
    acc: dict[QMonomial, Cyclotomic] = {}
    for mono, coeff in x.terms.items():
        i, j, k, m = mono
        # the reversed word a^m b^j c^k d^i is normal, since i*m = 0
        unit = zeta_pow(spec, k - j)
        _add_term(acc, QMonomial(m, j, k, i), coeff * (-unit if (j + k) % 2 else unit))
    return QElement._like(spec, acc)


# ---------------------------------------------------------------------------
# Classical (commutative) coordinate ring of SL(2)


class ClassicalMonomial(_Monomial, namedtuple("ClassicalMonomial", "alpha beta gamma delta")):
    """Exponents of alpha^p beta^r gamma^s delta^t with min(p, t) = 0."""

    __slots__ = ()


def _add_classical_term(acc: dict, m: ClassicalMonomial, v) -> None:
    """acc += v * m, with alpha^w delta^w rewritten as (1 + beta*gamma)^w so every key is reduced."""
    if not (m.alpha and m.delta):
        _add_term(acc, m, v)
        return
    w = min(m.alpha, m.delta)
    for i in range(w + 1):
        mm = ClassicalMonomial(m.alpha - w, m.beta + i, m.gamma + i, m.delta - w)
        _add_term(acc, mm, v if i in (0, w) else v * math.comb(w, i))


class ClassicalElement(_Polynomial):
    """A polynomial in alpha, beta, gamma, delta modulo alpha*delta - beta*gamma = 1.

    The constructor accepts any exponents >= 0 and reduces them to min(alpha, delta) = 0.
    """

    __slots__ = ()
    _KEY = ClassicalMonomial

    def _key(self, m):
        if not isinstance(m, ClassicalMonomial):
            m = ClassicalMonomial(*m)
        if min(m) < 0:
            raise ValueError("negative exponent in %s" % (m,))
        return m

    def _clean(self, terms: dict) -> dict:
        acc: dict[ClassicalMonomial, Cyclotomic] = {}
        for m, v in super()._clean(terms).items():
            _add_classical_term(acc, m, v)
        return _nonzero(acc)

    def _mul(self, other):
        return classical_mul(self, other)


def classical_mul(x: ClassicalElement, y: ClassicalElement) -> ClassicalElement:
    """Commutative product with determinant reduction."""
    x._check(y)
    acc: dict[ClassicalMonomial, Cyclotomic] = {}
    for mx, cx in x.terms.items():
        for my, cy in y.terms.items():
            mono = ClassicalMonomial(mx.alpha + my.alpha, mx.beta + my.beta,
                                     mx.gamma + my.gamma, mx.delta + my.delta)
            _add_classical_term(acc, mono, cx * cy)
    return ClassicalElement._like(x.spec, acc)
