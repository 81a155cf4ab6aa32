"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar in the package lives here.  Elements are stored in the power
basis 1, zeta, ..., zeta^(phi(N)-1) of Q[x]/Phi_N(x) with Fraction
coefficients, so equality and zero-testing are canonical and zeta is a
primitive N-th root of unity by construction.  No floating point is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _reduction_rows(N: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows expressing x^k for k in [phi, 2*phi-2] in the power basis."""
    poly = cyclotomic_polynomial(N)
    deg = len(poly) - 1
    rows = []
    cur = [Fraction(-c) for c in poly[:-1]]  # x^deg, Phi_N is monic
    rows.append(tuple(cur))
    for _ in range(deg + 1, 2 * deg - 1):
        top = cur[-1]
        nxt = [_ZERO] + cur[:-1]
        if top:
            first = rows[0]
            nxt = [nxt[i] + top * first[i] for i in range(deg)]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


@lru_cache(maxsize=None)
def _power_coeffs(N: int, k: int) -> tuple[Fraction, ...]:
    """x^k reduced mod Phi_N, as a basis vector."""
    deg = euler_phi(N)
    k %= N
    if k < deg:
        return tuple(_ONE if i == k else _ZERO for i in range(deg))
    rows = _reduction_rows(N)
    if k <= 2 * deg - 2:
        return rows[k - deg]
    # k < N can exceed 2*deg-2 (e.g. N=12); peel one power at a time.
    prev = _power_coeffs(N, k - 1)
    top = prev[-1]
    nxt = [_ZERO] + list(prev[:-1])
    if top:
        first = rows[0]
        nxt = [nxt[i] + top * first[i] for i in range(deg)]
    return tuple(nxt)


class Cyclotomic:
    """An element of Q(zeta_N) in the power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length for Q(zeta_%d)" % order)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, (_ZERO,) * euler_phi(order))

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls.from_rational(order, _ONE)

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        v = [_ZERO] * euler_phi(order)
        v[0] = Fraction(value)
        return cls(order, v)

    @classmethod
    def zeta(cls, order: int, k: int = 1) -> "Cyclotomic":
        return cls(order, _power_coeffs(order, k % order))

    def _check(self, other: "Cyclotomic"):
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders %d and %d" % (self.order, other.order))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        """The Fraction value if the element is rational, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        return Cyclotomic(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclotomic(self.order, tuple(a * f for a in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        prod = [_ZERO] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        if n > 1:
            rows = _reduction_rows(self.order)
            for k in range(2 * n - 2, n - 1, -1):
                top = prod[k]
                if top:
                    row = rows[k - n]
                    for i in range(n):
                        prod[i] += top * row[i]
        return Cyclotomic(self.order, tuple(prod[:n]))

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic element is zero")
        f = list(self.coeffs)
        g = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # Maintain s_i*f = r_i (mod Phi_N); stop at the constant gcd.
        r0, r1 = g, f
        s0, s1 = [_ZERO], [_ONE]
        while _poly_degree(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_degree(r1) != 0:
            raise ArithmeticError("element not invertible; Phi_N should be irreducible")
        lead = r1[0]
        n = euler_phi(self.order)
        inv_coeffs = [c / lead for c in s1] + [_ZERO] * n
        if _poly_degree(inv_coeffs) >= n:
            raise ArithmeticError("Bezout coefficient exceeded the basis degree")
        return Cyclotomic(self.order, inv_coeffs[:n])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclotomic(self.order, tuple(a / f for a in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coeffs))

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [_fraction_str(c) for c in self.coeffs]}


def _poly_degree(p) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else _ZERO) - (b[i] if i < len(b) else _ZERO) for i in range(n)]


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod(a, b):
    a = list(a)
    db = _poly_degree(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[db]
    q = [_ZERO] * max(1, len(a) - db)
    for k in range(_poly_degree(a), db - 1, -1):
        c = a[k] / lead
        if c:
            q[k - db] = c
            for i in range(db + 1):
                a[k - db + i] -= c * b[i]
    return q, a[:db] if db > 0 else [_ZERO]


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def cyclotomic_from_json(data: dict) -> Cyclotomic:
    return Cyclotomic(int(data["order"]), [_fraction_from_str(s) for s in data["coeffs"]])


@dataclass(frozen=True)
class RootSpec:
    """A choice of root of unity q = zeta_N^zeta_exponent for a given l.

    standard=True are the two main parity cases (l odd, N=l and l even,
    N=2l).  The diagnostic case l odd, N=2l is reachable only through
    remark_root_spec and is rejected by the structural operations.
    """

    l: int
    parity_case: str
    N: int
    zeta_exponent: int
    standard: bool = True


def make_root_spec(l: int, zeta_exponent: int | None = None) -> RootSpec:
    if l < 2:
        raise ValueError("l must be at least 2")
    parity = "odd" if l % 2 else "even"
    N = l if l % 2 else 2 * l
    if zeta_exponent is None:
        zeta_exponent = 1
    if math.gcd(zeta_exponent, N) != 1:
        raise ValueError("zeta_exponent %d is not coprime to N=%d" % (zeta_exponent, N))
    return RootSpec(l=l, parity_case=parity, N=N, zeta_exponent=zeta_exponent % N)


def remark_root_spec(l: int, zeta_exponent: int | None = None) -> RootSpec:
    """The nonstandard case: l odd but q of order 2l (q^l = -1)."""
    if l < 3 or l % 2 == 0:
        raise ValueError("this case needs odd l >= 3")
    N = 2 * l
    if zeta_exponent is None:
        zeta_exponent = 1
    if math.gcd(zeta_exponent, N) != 1:
        raise ValueError("zeta_exponent %d is not coprime to N=%d" % (zeta_exponent, N))
    return RootSpec(l=l, parity_case="odd", N=N, zeta_exponent=zeta_exponent % N, standard=False)


def root_spec_from_json(data: dict) -> RootSpec:
    l = int(data["l"])
    N = int(data["N"])
    ze = int(data.get("zeta_exponent", 1))
    if l % 2 and N == l:
        return make_root_spec(l, ze)
    if l % 2 == 0 and N == 2 * l:
        return make_root_spec(l, ze)
    if l % 2 and N == 2 * l:
        return remark_root_spec(l, ze)
    raise ValueError("inconsistent root data l=%d N=%d" % (l, N))


def root_spec_to_json(spec: RootSpec) -> dict:
    return {"l": spec.l, "N": spec.N, "zeta_exponent": spec.zeta_exponent}


def zeta_pow(spec: RootSpec, k: int) -> Cyclotomic:
    """q^k as an exact field element."""
    return Cyclotomic(spec.N, _power_coeffs(spec.N, (spec.zeta_exponent * k) % spec.N))


@lru_cache(maxsize=None)
def p_expansion(spec: RootSpec, k: int, inverse: bool = False) -> tuple[Cyclotomic, ...]:
    """Coefficients of prod_{j=1..k} (1 + q^(2j-1) x) in x, length k+1.

    With inverse=True the exponents are negated (the product giving d^k a^k
    instead of a^k d^k).  This is the expansion route; it never divides and
    is valid for every k, including k past l where the closed formula for
    the coefficients degenerates.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    one = Cyclotomic.one(spec.N)
    coeffs = [one]
    sign = -1 if inverse else 1
    for j in range(1, k + 1):
        f = zeta_pow(spec, sign * (2 * j - 1))
        nxt = [Cyclotomic.zero(spec.N) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] + c * f
        coeffs = nxt
    return tuple(coeffs)


def p_coeff(spec: RootSpec, k: int, j: int) -> Cyclotomic:
    """Closed formula q^(j^2) * prod_{r=j+1..k}(q^2r - 1) / prod_{s=1..k-j}(q^2s - 1).

    The numerator is evaluated first so the exact zeros at k=l survive; for
    j=0 the two products are identical and cancel before any evaluation.
    """
    if not (0 <= j <= k <= spec.l):
        raise ValueError("need 0 <= j <= k <= l, got j=%d k=%d l=%d" % (j, k, spec.l))
    one = Cyclotomic.one(spec.N)
    if j == 0:
        return one
    num = zeta_pow(spec, j * j)
    for r in range(j + 1, k + 1):
        num = num * (zeta_pow(spec, 2 * r) - one)
    if num.is_zero():
        return Cyclotomic.zero(spec.N)
    den = one
    for s in range(1, k - j + 1):
        den = den * (zeta_pow(spec, 2 * s) - one)
    if den.is_zero():
        raise ZeroDivisionError("vanishing denominator in p_coeff(k=%d, j=%d)" % (k, j))
    return num / den
