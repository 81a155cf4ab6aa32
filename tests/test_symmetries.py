"""Two symmetries of the whole stack, checked with no code shared with how it treats q or the sides.

Galois transport: sigma_E (zeta -> zeta^E, cyclo.conjugate) carries A at
q = zeta onto A at q = zeta^E, fixes every word and maps the basis onto
itself, so every result at zeta_exp E is sigma_E of the result at E = 1,
coefficient by coefficient.  Side equality: at odd l the l-th powers are
central, so the left and right module coordinates are the same.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import qelements
from qsl2 import (
    ClassicalElement,
    Decomposition,
    antipode,
    coproduct,
    decompose,
    make_root_spec,
    qmul,
)
from qsl2.cyclo import conjugate
from qsl2.expr import format_qelement, parse_qelement

# texts with classical letters, parentheses and powers of q that format_qelement never writes
TEXTS = ("alpha*(a + q^-1*d)^2*b - 2/3*(q)^-2*c*d", "(1 + b)^3*(c - d)", "-(a*d - q*b*c)^2 + 3/2",
         "beta^2*gamma*a + (q + q^(-3))*delta*c^2")


def _transported(x, E, spec):
    """sigma_E applied to every coefficient of x, read over spec (the root zeta^E)."""
    def conj(terms):
        return {k: conjugate(v, E) for k, v in terms.items()}

    if type(x) is Decomposition:
        return Decomposition(spec, x.side, {w: ClassicalElement(spec, conj(g.terms)) for w, g in x.terms.items()})
    return type(x)(spec, conj(x.terms))


@pytest.mark.parametrize("l, E", [(3, 2), (4, 3), (5, 2), (5, 3), (7, 3), (6, 5)])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_results_at_zeta_power_e_are_the_conjugates_of_those_at_e_1(l, E, data):
    base, spec = make_root_spec(l), make_root_spec(l, zeta_exponent=E)
    x, y = data.draw(qelements(base)), data.draw(qelements(base))
    text = data.draw(st.sampled_from(TEXTS + (format_qelement(x),)))
    assert parse_qelement(text, spec) == _transported(parse_qelement(text, base), E, spec), text
    tx, ty = _transported(x, E, spec), _transported(y, E, spec)
    assert qmul(tx, ty) == _transported(qmul(x, y), E, spec)
    assert coproduct(tx) == _transported(coproduct(x), E, spec)
    assert antipode(tx) == _transported(antipode(x), E, spec)
    for side in ("left", "right"):
        assert decompose(tx, side) == _transported(decompose(x, side), E, spec)


@pytest.mark.parametrize("l", [3, 5, 7, 9])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_left_and_right_coordinates_agree_at_odd_l(l, data):
    x = data.draw(qelements(make_root_spec(l)))
    assert decompose(x, "left").terms == decompose(x, "right").terms


def test_left_and_right_coordinates_differ_at_even_l():
    # at l = 4 a^4 picks up q^4 = -1 past b and c, so the two sides differ
    spec = make_root_spec(4)
    x = parse_qelement("a*b^4", spec)
    assert decompose(x, "left").terms != decompose(x, "right").terms
