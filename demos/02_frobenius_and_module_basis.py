"""Tour 2: the l-th-power subalgebra (central for odd l) and the rank-l^3 module basis.

Run with:  python demos/02_frobenius_and_module_basis.py
"""

from qsl2 import (
    ClassicalElement, QElement, central_reduce, decompose, enumerate_basis,
    is_central, lift, make_root_spec, module_recompose, qmul,
    recompose, straighten, verify_freeness,
)
from qsl2.expr import format_classical, format_qelement, quantum_monomial_text

for l in (3, 2):
    spec = make_root_spec(l)
    al = ClassicalElement.generator(spec, "alpha")
    print("l = %d: lift(alpha) = a^%d, central: %s"
          % (l, l, is_central(lift(al))))
print()

spec = make_root_spec(2)
x = straighten("aab", spec)
print("even case l = 2: a^2 b -> reduced over the l-th-power subalgebra")
for side in ("left", "right"):
    me = central_reduce(x, side)
    for mono, g in me.sorted_terms():
        print("  %-5s  %s * %s" % (side, format_classical(g),
                                   quantum_monomial_text(mono) or "1"))
    assert module_recompose(me) == x
print("the sign flips with the side because a^2 anticommutes with b.")
print()

spec = make_root_spec(3)
basis = enumerate_basis(3)
print("module basis at l = 3: %d elements (l^3 = 27)" % len(basis))
print("first few:", ", ".join(
    quantum_monomial_text(word) or "1" for word in basis[:6]), "...")
print()

A = QElement.generator(spec, "a")
dec = decompose(A, "left")
print("decompose(a), left side:")
for word, g in dec.sorted_terms():
    print("  %-12s %s" % (quantum_monomial_text(word) or "1", format_classical(g)))
assert recompose(dec) == A
print()

x = qmul(straighten("abc", spec), A) + A ** 4 * 2
assert recompose(decompose(x, "left")) == x
assert recompose(decompose(x, "right")) == x
print("random-ish element decomposes and recomposes exactly on both sides.")
print()

report = verify_freeness(2, "left", 2)
print("brute-force freeness certificate at l = 2:",
      "kernel dimension %d," % report.kernel_dimension,
      "%d/%d monomials spanned" % (report.monomials_spanned,
                                   report.monomials_checked))
if report.oracle_agreement != report.monomials_checked:
    print("decompose/oracle agreement: %d/%d" % (report.oracle_agreement,
                                                report.monomials_checked))
