from fractions import Fraction

import hypothesis.strategies as st

from qsl2 import QElement, QMonomial, make_root_spec, zeta_pow
from qsl2.qalgebra import random_qelement  # noqa: F401  (imported by the test modules)

SPEC2 = make_root_spec(2)
SPEC3 = make_root_spec(3)
SPEC5 = make_root_spec(5)

# one line per acceptance criterion, printed after the run (see test_acceptance)
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def reduced_monomials(spec, emax):
    return st.tuples(
        st.integers(0, emax), st.integers(0, emax),
        st.integers(0, emax), st.integers(0, emax),
    ).map(lambda t: QMonomial(t[0], t[1], t[2], 0 if t[0] else t[3]))


def coefficients(spec, span=3):
    return st.tuples(st.integers(0, spec.N - 1), st.integers(-span, span)).map(
        lambda kv: zeta_pow(spec, kv[0]) * Fraction(kv[1])
    )


def qelements(spec, emax=None, max_terms=3):
    emax = 2 * spec.l if emax is None else emax
    return st.dictionaries(
        reduced_monomials(spec, emax), coefficients(spec), max_size=max_terms
    ).map(lambda d: QElement(spec, {m: z for m, z in d.items() if not z.is_zero()}))


def words(max_len=6):
    return st.text(alphabet="abcd", min_size=0, max_size=max_len)
