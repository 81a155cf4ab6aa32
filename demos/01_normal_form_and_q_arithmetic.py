"""Tour 1: exact root-of-unity scalars and the noncommutative normal form.

Run with:  python demos/01_normal_form_and_q_arithmetic.py
"""

from qsl2 import (
    QElement, make_root_spec, p_coeff, p_expansion, qmul, straighten,
    zeta_pow,
)
from qsl2.expr import format_cyclotomic, format_qelement

spec = make_root_spec(3)  # l = 3, q a primitive cube root of unity
q = zeta_pow(spec, 1)
print("working at l = %d, q of order %d" % (spec.l, spec.N))
print("q^3 =", format_cyclotomic(spec, zeta_pow(spec, 3)))
print("1 + q + q^2 =", format_cyclotomic(spec, q * q + q + 1))
print()

A, B, C, D = (QElement.generator(spec, ch) for ch in "abcd")

print("the six q-commutation relations, plus the determinant:")
print("  b*a      ->", format_qelement(straighten("ba", spec)))
print("  c*a      ->", format_qelement(straighten("ca", spec)))
print("  d*b      ->", format_qelement(straighten("db", spec)))
print("  d*c      ->", format_qelement(straighten("dc", spec)))
print("  c*b      ->", format_qelement(straighten("cb", spec)))
print("  d*a      ->", format_qelement(straighten("da", spec)))
print("  a*d - q*b*c =", format_qelement(qmul(A, D) - qmul(B, C) * q))
print()

word = "abcd"
print("straightening the word %r:" % word)
print("  %s  ->  %s" % (word, format_qelement(straighten(word, spec))))
assert straighten(word, spec) == qmul(qmul(A, B), qmul(C, D))
print()

print("rows a^k d^k = sum_j p[k,j] (bc)^j, checked against the closed formula:")
for k in range(spec.l + 1):
    row = p_expansion(spec, k)
    assert all(row[j] == p_coeff(spec, k, j) for j in range(k + 1))
    terms = ", ".join(format_cyclotomic(spec, z) for z in row)
    print("  k=%d: [%s]" % (k, terms))
    assert qmul(A ** k, D ** k) == sum(
        (qmul(B, C) ** j * row[j] for j in range(k + 1)),
        QElement.zero(spec),
    )
print()
print("note p[3,1] = p[3,2] = 0: at k = l the middle of the row collapses,")
print("which is exactly what makes the l-th powers behave classically.")
