"""The l-th-power (Frobenius) subalgebra and module coordinates over it.

At the chosen root of unity the elements alpha = a^l, beta = b^l,
gamma = c^l, delta = d^l generate a copy of the classical SL(2)
coordinate ring: they commute pairwise, satisfy
alpha*delta - beta*gamma = 1, and for odd l are central.  For even l
they are not central (a^l picks up q^l = -1 past b and c), which is why
the left and right module structures differ by signs.

This module owns that module action: the two sides, the sided
coefficient container, the lifted products lift(m)*w and w*lift(m), and
central_reduce, which writes an element as a combination of lifted
classical coefficients times residual monomials with all exponents
below l.  No sign is kept in a separate table: the lifted products are
uncached engine products, and central_reduce reads each block phase off
one cached engine product.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import Cyclotomic, RootSpec, json_shown, p_expansion, root_spec_from_json
from .qalgebra import (
    ClassicalElement,
    ClassicalMonomial,
    QElement,
    QMonomial,
    TensorElement,
    _Terms,
    coproduct,
    qmul,
)
from .qalgebra import _mono_mul  # single-monomial products

SIDES = ("left", "right")


def _check_side(side: str):
    if side not in SIDES:
        raise ValueError("side must be 'left' or 'right', got %s" % json_shown(side))


class _SidedTerms(_Terms):
    """Classical coefficients keyed by basis data, acting on one side."""

    __slots__ = ("side",)
    _HEAD = ("spec", "side")

    def __init__(self, spec: RootSpec, side: str, terms: dict | None = None):
        _set_side(self, side)
        super().__init__(spec, terms)
        _check_side(side)

    @staticmethod
    def _value_ok(spec: RootSpec, value) -> bool:
        return type(value) is ClassicalElement and value.spec == spec

    @classmethod
    def _like(cls, spec: RootSpec, side: str, terms: dict):
        out = super()._like(spec, terms)
        _set_side(out, side)
        return out

    def _json_head(self) -> dict:
        return {"side": self.side}

    @classmethod
    def _head_from_json(cls, data: dict, spec: RootSpec | None) -> tuple:
        if spec is None:
            # each coefficient carries the root data; every row is checked against it as it is read
            spec = next((root_spec_from_json(row["coeff"]["spec"]) for row in data[cls._ROWS]
                         if "spec" in row["coeff"]), None)
        return super()._head_from_json({}, spec) + (data["side"],)

    @staticmethod
    def _value_from_json(row: dict, spec: RootSpec):
        return ClassicalElement.from_json(row["coeff"], spec)


_set_side = _SidedTerms.__dict__["side"].__set__


def _require_standard(spec: RootSpec, what: str):
    if not spec.standard:
        raise ValueError("%s requires a standard root case (got l=%d, N=%d)" % (what, spec.l, spec.N))


def lifted_monomial(l: int, m: ClassicalMonomial) -> QMonomial:
    """The word a^(lp) b^(lr) c^(ls) d^(lt) for alpha^p beta^r gamma^s delta^t.

    A reduced classical monomial has min(p, t) = 0, so the word is already
    a normal monomial and lift(m) is it with scalar 1.
    """
    return QMonomial(l * m.alpha, l * m.beta, l * m.gamma, l * m.delta)


def lift(g: ClassicalElement) -> QElement:
    """The algebra map sending alpha, beta, gamma, delta to a^l, b^l, c^l, d^l."""
    spec = g.spec
    _require_standard(spec, "lift")
    l = spec.l
    return QElement._like(spec, {lifted_monomial(l, m): v for m, v in g.terms.items()})


class ModuleElement(_SidedTerms):
    """Coordinates of an element over the l-th-power subalgebra.

    terms maps words a^i b^j c^k d^m (all exponents < l), which the
    engine multiplies as they are written, to classical coefficients;
    side records whether coefficients act by multiplication on the left
    or the right.  central_reduce always yields residual monomials
    (min(a,d) = 0); the beta-chart words of clear_denominators may hold
    both a and d.
    """

    __slots__ = ()

    def _key(self, mono):
        if not isinstance(mono, QMonomial):
            mono = QMonomial(*mono)
        if min(mono) < 0 or max(mono) >= self.spec.l:
            raise ValueError("module word %s needs every exponent in 0..%d"
                             % (mono, self.spec.l - 1))
        return mono

    @staticmethod
    def _key_json(mono) -> dict:
        return {"monomial": mono._asdict()}

    @staticmethod
    def _key_from_json(row: dict) -> QMonomial:
        return QMonomial.from_json(row["monomial"])


def _lifted_product(spec: RootSpec, m: ClassicalMonomial, word: QMonomial,
                    side: str) -> tuple[tuple[QMonomial, Cyclotomic], ...]:
    """lift(m) * word (left) or word * lift(m) (right), as normal (monomial, scalar) pairs.

    The word's exponents are below l, and it may hold both a and d, so the
    engine reads one row and one phase.  Few of these products recur
    (recompose, chart clearing, the alpha chart of localize and the
    certificate's columns), so they skip the _mono_mul cache.
    """
    lifted = lifted_monomial(spec.l, m)
    return _mono_mul.__wrapped__(spec, *((lifted, word) if side == "left" else (word, lifted)))


def central_reduce(x: QElement, side: str = "left") -> ModuleElement:
    """Split every monomial into l-th-power blocks times a residual monomial.

    The scalar picked up by placing the blocks on the requested side is
    computed by multiplying the lifted blocks against the residual with
    the engine and comparing against the original monomial.  These
    products recur as often as qmul's, so they stay on the _mono_mul cache.
    The blocks only commute past the residual's letters, for a phase
    q^(l*n) = +-1 at a standard root: 1 leaves the coefficient as it is
    and -1 negates it.
    """
    _check_side(side)
    spec = x.spec
    _require_standard(spec, "central_reduce")
    l = spec.l
    left = side == "left"
    acc: dict[QMonomial, dict[ClassicalMonomial, Cyclotomic]] = {}
    for mono, coeff in x.terms.items():
        i, j, k, m = mono
        blocks = ClassicalMonomial(i // l, j // l, k // l, m // l)
        residual = QMonomial(i % l, j % l, k % l, m % l)
        if any(blocks):
            lifted = lifted_monomial(l, blocks)
            prod = _mono_mul(spec, *((lifted, residual) if left else (residual, lifted)))
            if len(prod) != 1 or prod[0][0] != mono:
                raise RuntimeError("block extraction produced a non-monomial product for %s; this is a bug"
                                   % (mono,))
            phase = prod[0][1]
            if not phase.is_one():
                if phase != -1:
                    raise RuntimeError("block phase of %s is not +-1; this is a bug" % (mono,))
                coeff = -coeff
        # distinct monomials split into distinct (blocks, residual) pairs, and the
        # blocks of a normal monomial have min(alpha, delta) = 0, so each key is reduced
        acc.setdefault(residual, {})[blocks] = coeff
    return ModuleElement._like(spec, side, {w: ClassicalElement._like(spec, g) for w, g in acc.items()})


def module_recompose(me: _SidedTerms) -> QElement:
    """Multiply coefficients back on their side; inverse of central_reduce.

    me maps words to classical coefficients: a ModuleElement, or a
    basis.Decomposition, whose words are basis words.  Each coefficient
    term c * m gives the lifted product of m with the key word
    (_lifted_product), and all of them go straight into one sum.
    """
    spec = me.spec
    _require_standard(spec, "module_recompose")
    side = me.side
    acc: dict[QMonomial, Cyclotomic] = {}
    for mono, g in me.terms.items():
        for m, c in g.terms.items():
            for mz, cz in _lifted_product(spec, m, mono, side):
                v = c * cz
                acc[mz] = acc[mz] + v if mz in acc else v
    return QElement._like(spec, acc)


def is_central(x: QElement) -> bool:
    """Does x commute with all four generators?"""
    for ch in "abcd":
        g = QElement.generator(x.spec, ch)
        if qmul(x, g) != qmul(g, x):
            return False
    return True


class ClosureReport(namedtuple("ClosureReport", (
    "l", "order", "standard",
    "power",  # the exponent p whose powers are examined
    "powers_commute", "powers_central",
    "lth_det_coeffs",  # a^l d^l = sum_j coeff_j (bc)^j, as a tuple of Cyclotomic
    "power_det_coeffs",  # a^p d^p = sum_j coeff_j (bc)^j
    "determinant_closes",  # a^p d^p lies in the span of 1 and (bc)^p
    "coproduct_closes",  # Delta(a^p) == a^p @ a^p + b^p @ c^p
))):
    """What survives of the Frobenius picture for a given (l, order) pair."""

    __slots__ = ()


def closure_diagnostic(spec: RootSpec) -> ClosureReport:
    """Probe which parts of the l-th-power construction close for the root q of spec."""
    l = spec.l
    p = l if spec.standard else 2 * l

    gens = [QElement.generator(spec, ch, p) for ch in QMonomial._fields]
    powers_commute = all(
        qmul(gens[i], gens[j]) == qmul(gens[j], gens[i])
        for i in range(4) for j in range(i + 1, 4)
    )
    powers_central = all(is_central(g) for g in gens)

    lrow = p_expansion(spec, l)
    prow = p_expansion(spec, p)
    determinant_closes = all(prow[j].is_zero() for j in range(1, p))

    one = Cyclotomic.one(spec.N)
    expected = TensorElement(spec, {
        (QMonomial(p, 0, 0, 0), QMonomial(p, 0, 0, 0)): one,
        (QMonomial(0, p, 0, 0), QMonomial(0, 0, p, 0)): one,
    })
    coproduct_closes = coproduct(gens[0]) == expected

    return ClosureReport(
        l=l,
        order=spec.N,
        standard=spec.standard,
        power=p,
        powers_commute=powers_commute,
        powers_central=powers_central,
        lth_det_coeffs=tuple(lrow),
        power_det_coeffs=tuple(prow),
        determinant_closes=determinant_closes,
        coproduct_closes=coproduct_closes,
    )
