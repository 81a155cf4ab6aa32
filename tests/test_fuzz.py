"""Fuzzing of the two text inputs: the expression parser and the JSON readers.

Every input must either give an element whose keys pass its own _key
check or raise ValueError; no other exception may escape.
"""

import copy
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import SPEC3
from qsl2 import (
    ClassicalElement,
    ClassicalMonomial,
    Decomposition,
    ModuleElement,
    QElement,
    QMonomial,
    central_reduce,
    decompose,
    straighten,
    zeta_pow,
)
from qsl2.cyclo import json_shown
from qsl2.expr import NESTING_MAX, ExprSyntaxError, parse_qelement
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


@given(st.one_of(st.integers(0, 3 * NESTING_MAX), st.sampled_from([NESTING_MAX, NESTING_MAX + 1])),
       st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join))
@settings(max_examples=200, deadline=None)
def test_deeply_nested_text_parses_or_raises_value_error(depth, inner):
    # the descent recurses on each leading "(", so past NESTING_MAX it stops at once
    assume(inner.count("^") <= 2 and not _LONG_EXPONENT.search(inner))
    text = "(" * depth + inner + ")" * depth
    if depth > NESTING_MAX:
        with pytest.raises(ExprSyntaxError, match="NESTING_MAX") as info:
            parse_qelement(text, SPEC3)
        assert info.value.position == NESTING_MAX
        return
    try:
        x = parse_qelement(text, SPEC3)
    except ValueError:
        return
    assert type(x) is QElement
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


def _deep_list(depth):
    out = []
    for _ in range(depth):
        out = [out]
    return out


DEEP = _deep_list(5000)


@pytest.mark.parametrize("cls, doc", DOCUMENTS, ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_json_readers_name_a_deep_value_in_a_short_message(cls, doc):
    # a value nested past the recursion limit, put at every place of the document in turn (the
    # root data's l, every term field and the side among them), is named by its type alone
    paths = list(_paths(doc))
    assert any(path[-2:] == ("spec", "l") for path in paths)
    assert ("side",) in paths or cls in (QElement, ClassicalElement)
    for path in paths:
        bad = copy.deepcopy(doc)
        parent = bad
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = DEEP
        for spec in (SPEC3, None):
            with pytest.raises(ValueError) as info:
                cls.from_json(bad, spec)
            assert len(str(info.value)) <= 200, path


# one integer past the 4300-digit limit of Python's int-to-text conversion, and one of 3000 digits below it
HUGE = (10 ** 5000, 10 ** 2999)
# the integer fields a huge value is put at: every monomial exponent, the root data's l and N,
# and a coefficient's order
HUGE_FIELDS = set(QMonomial._fields) | set(ClassicalMonomial._fields) | {"l", "N", "order"}


@pytest.mark.parametrize("cls, doc", DOCUMENTS, ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_json_readers_name_a_huge_integer_in_a_short_message(cls, doc):
    paths = [path for path in _paths(doc) if path[-1] in HUGE_FIELDS]
    assert {"l", "order"} <= {path[-1] for path in paths}
    assert any(path[-1] in QMonomial._fields + ClassicalMonomial._fields for path in paths)
    for path in paths:
        for huge in HUGE:
            bad = copy.deepcopy(doc)
            parent = bad
            for k in path[:-1]:
                parent = parent[k]
            parent[path[-1]] = huge
            for spec in (SPEC3, None):
                with pytest.raises(ValueError) as info:
                    cls.from_json(bad, spec)
                assert len(str(info.value)) <= 200, path


def test_json_readers_keep_their_messages_for_ordinary_integers():
    row = {"a": EXPONENT_MAX + 1, "b": 0, "c": 0, "d": 0,
           "coeff": {"order": 5, "coeffs": ["1", "0", "0", "0"]}}
    with pytest.raises(ValueError, match=r"^exponent 1001 exceeds EXPONENT_MAX = 1000$"):
        QElement.from_json({"terms": [row]}, SPEC3)
    row["a"] = 1
    with pytest.raises(ValueError, match=r"^coefficient of order 5 where 3 is expected$"):
        QElement.from_json({"terms": [row]}, SPEC3)
    with pytest.raises(ValueError, match=r"^unsupported pair l=3, N=4$"):
        QElement.from_json({"spec": {"l": 3, "N": 4}, "terms": []})
    with pytest.raises(ValueError, match=r"^zeta_exponent 2 is not coprime to N=4$"):
        QElement.from_json({"spec": {"l": 2, "N": 4, "zeta_exponent": 2}, "terms": []})


def test_json_shown_is_short_for_any_value():
    assert json_shown(1.5) == "1.5" and json_shown("left") == "'left'" and json_shown(None) == "None"
    assert json_shown(True) == "True" and json_shown(-7) == "-7"
    assert json_shown("x" * 1000) == "'" + "x" * 36 + "..."
    assert json_shown(10 ** 5000) == "<int of 16610 bits>"
    assert json_shown(DEEP) == "<list>" and json_shown({"a": DEEP}) == "<dict>"
    assert all(len(json_shown(v)) <= 40 for v in (10 ** 35, -10 ** 35, 2.0 ** -1000, "é" * 100))
