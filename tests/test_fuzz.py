"""Fuzzing of the two text inputs: the expression parser and the JSON readers.

Every input must either give an element whose keys pass its own _key
check or raise ValueError; no other exception may escape.
"""

import copy
import re
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import SPEC3
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    Decomposition,
    ModuleElement,
    QElement,
    central_reduce,
    decompose,
    straighten,
    zeta_pow,
)
from qsl2.expr import parse_qelement
from qsl2.qalgebra import EXPONENT_MAX

# the grammar's tokens, an unknown letter and a stray character among them
_TOKENS = ("a", "b", "c", "d", "q", "alpha", "beta", "gamma", "delta", "α", "β", "γ", "δ",
           "0", "1", "2", "7", "+", "-", "*", "/", "^", "(", ")", " ", "x", ".")
# a power of a sum expands term by term, so exponents stay one digit and at most two per text
_LONG_EXPONENT = re.compile(r"\^\s*\(?\s*-?\s*\d\d")


def _assert_keys_pass(element):
    for key in element.terms:
        assert element._key(key) == key


@given(st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
def test_parser_returns_a_normal_element_or_raises_value_error(text):
    assume(text.count("^") <= 2 and not _LONG_EXPONENT.search(text))
    try:
        x = parse_qelement(text, SPEC3)
    except ValueError:
        return
    assert type(x) is QElement and x.spec == SPEC3
    _assert_keys_pass(x)


def _documents():
    spec = SPEC3
    x = straighten("abcd", spec) + straighten("ddc", spec) * Fraction(2, 3) + straighten("bbbbc", spec)
    g = ClassicalElement(spec, {ClassicalMonomial(1, 2, 0, 0): zeta_pow(spec, 1),
                                ClassicalMonomial(0, 0, 1, 2): zeta_pow(spec, 2)})
    return [(QElement, x.to_json()), (ClassicalElement, g.to_json()),
            (ModuleElement, central_reduce(x, "right").to_json()),
            (Decomposition, decompose(x, "left").to_json())]


DOCUMENTS = _documents()


def _paths(doc, prefix=()):
    """Every place in a JSON document: a dict key or a list index, as a path from the root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, EXPONENT_MAX + 2), st.integers(-10**20, 10**20),
    st.floats(allow_nan=False), st.text(max_size=4), st.sampled_from(["1/0", "1/2", "-0", "left", "A"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "l", "N"]), st.integers(0, 4)),
)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_json_readers_return_normal_elements_or_raise_value_error(data):
    cls, doc = data.draw(st.sampled_from(DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, last = data.draw(st.sampled_from(paths))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = data.draw(_JUNK)
    spec = data.draw(st.sampled_from([SPEC3, None]))
    try:
        out = cls.from_json(doc, spec)
    except ValueError:
        return
    assert type(out) is cls
    _assert_keys_pass(out)
