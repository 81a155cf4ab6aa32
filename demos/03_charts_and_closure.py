"""Tour 3: localization charts and what breaks at the wrong root order.

Run with:  python demos/03_charts_and_closure.py
"""

from qsl2 import (
    ClassicalElement, QElement, RootSpec, clear_denominators, closure_diagnostic,
    lift, localize, make_root_spec, qmul,
)
from qsl2.cli import _closure_text
from qsl2.expr import format_classical, format_qelement, monomial_text

spec = make_root_spec(3)
D = QElement.generator(spec, "d")

print("inverting alpha: d becomes a polynomial in the chart")
le = localize(D, "alpha")
for mono, (g, k) in le.sorted_terms():
    suffix = " * alpha^-%d" % k if k else ""
    print("  %s : %s%s" % (monomial_text(mono) or "1",
                           format_classical(g), suffix))
cleared, k = clear_denominators(le)
al = ClassicalElement.generator(spec, "alpha")
assert cleared == qmul(lift(al**k), D)
print("clearing alpha^%d gives back alpha^%d * d = %s"
      % (k, k, format_qelement(cleared)))
print()

C = QElement.generator(spec, "c")
le = localize(C, "beta")
print("inverting beta instead, for c:")
for mono, (g, k) in le.sorted_terms():
    suffix = " * beta^-%d" % k if k else ""
    print("  %s : %s%s" % (monomial_text(mono) or "1",
                           format_classical(g), suffix))
be = ClassicalElement.generator(spec, "beta")
cleared, k = clear_denominators(le)
assert cleared == qmul(lift(be**k), C)
print()

print("what closes and what does not, by root order:")
for l, order in ((3, 3), (2, 4), (3, 6)):
    print()
    spec = RootSpec(l, order)
    print(_closure_text(spec, closure_diagnostic(spec)))
