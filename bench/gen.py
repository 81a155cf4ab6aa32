"""Seeded inputs for the benchmark workloads.

The benchmark owns its generator so that moving or merging the package's
own random-element helpers cannot change the workloads.  An element is a
list of terms; the session workload hands the program their text in the
expression grammar, the Hopf workload builds the element from them
directly.  The same seed always gives the same stream.
"""

from __future__ import annotations

import random

# Coefficients are nonzero rationals or +-q^k.  The printer writes these
# without solving for q-coordinates, so text round trips stay out of the
# exact linear algebra layer.
_RATIONALS = ("1", "2", "3", "1/2", "2/3", "3/2")


def _coefficient(rng: random.Random, N: int) -> tuple[int, str, str]:
    """(sign, kind, value): kind "r" is a rational, kind "q" a power q^value."""
    sign = -1 if rng.random() < 0.5 else 1
    if rng.random() < 0.5:
        return sign, "r", rng.choice(_RATIONALS)
    return sign, "q", str(rng.randrange(1, N))


def _coefficient_text(sign: int, kind: str, value: str) -> str:
    body = value if kind == "r" else ("q" if value == "1" else "q^" + value)
    return body if sign > 0 else "-" + body


def _monomial_text(exps) -> str:
    parts = []
    for letter, e in zip("abcd", exps):
        if e == 1:
            parts.append(letter)
        elif e > 1:
            parts.append("%s^%d" % (letter, e))
    return "*".join(parts)


def _monomial(rng: random.Random, emax: int) -> tuple[int, int, int, int]:
    """A random normal monomial a^i b^j c^k d^m (i*m = 0), exponents <= emax."""
    i, m = rng.randint(0, emax), rng.randint(0, emax)
    if i and m:
        if rng.random() < 0.5:
            i = 0
        else:
            m = 0
    return i, rng.randint(0, emax), rng.randint(0, emax), m


def _population(name: str, ls, emax_per_l: int, ops: int, max_terms: int = 3) -> list:
    """A fixed list of `ops` elements, as [(l, [exponents, ...])], the same for every seed.

    Half the elements are at each l; sizes 1..max_terms occur equally
    often.  Op costs depend mostly on the exponents, so fixing the
    population keeps the mix of op sizes the same for every seed, while
    the order and the coefficients vary with the seed.
    """
    rng = random.Random("%s-population" % name)
    out = []
    for l in ls:
        for n in range(ops // len(ls)):
            size = n % max_terms + 1
            monos = set()
            while len(monos) < size:
                monos.add(_monomial(rng, emax_per_l * l))
            out.append((l, sorted(monos)))
    return out


def _terms(rng: random.Random, l: int, monos) -> list:
    """The monomials with seeded coefficients, as [(exponents, coefficient)]."""
    return [(exps, _coefficient(rng, root_order(l))) for exps in monos]


def terms_text(terms) -> str:
    """The terms in the expression grammar, e.g. "-q^2*a*b^3 + 3/2*c"."""
    out = []
    for exps, coeff in terms:
        ctext = _coefficient_text(*coeff)
        mono = _monomial_text(exps)
        out.append(ctext if not mono else "%s*%s" % (ctext, mono))
    return " + ".join(out).replace("+ -", "- ")


def root_order(l: int) -> int:
    """Order of q in the standard root case: l for odd l, 2l for even l."""
    return l if l % 2 else 2 * l


# workload -> the values of l it runs at
LS = {"certify": (3, 4), "session": (5, 7), "hopf": (4, 5)}
# one replay of a stream workload is exactly one pass over its population
SESSION_POPULATION = _population("session", LS["session"], 3, 300)
HOPF_POPULATION = _population("hopf", LS["hopf"], 1, 450)


def session_ops(seed: int) -> list:
    """One pass of (l, side, chart, terms) for the library-session workload.

    Exponents go up to 3l.  Along the population sides alternate element
    by element and charts every two elements; an element keeps its side
    and chart for every seed, so the seeded order does not change the mix.
    """
    rng = random.Random("session-%d" % seed)
    ops = [(l, ("left", "right")[n % 2], ("alpha", "beta")[(n // 2) % 2], _terms(rng, l, monos))
           for n, (l, monos) in enumerate(SESSION_POPULATION)]
    rng.shuffle(ops)
    return ops


def hopf_ops(seed: int) -> list:
    """One pass of (l, terms) for the Hopf-structure workload; exponents up to l."""
    rng = random.Random("hopf-%d" % seed)
    ops = [(l, _terms(rng, l, monos)) for l, monos in HOPF_POPULATION]
    rng.shuffle(ops)
    return ops


CERTIFY_CASES = tuple((l, side) for l in LS["certify"] for side in ("left", "right"))


def certify_rounds(seed: int):
    """Endless stream of rounds; each round is every (l, side) case in a seeded order."""
    rng = random.Random("certify-%d" % seed)
    while True:
        cases = list(CERTIFY_CASES)
        rng.shuffle(cases)
        yield cases
