import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whyd.errors import WhydError
from whyd.model import ground
from whyd.reports import (
    Report,
    emit_error,
    emit_report,
    fraction_text,
    provenance_for,
    sorted_atoms,
    sorted_families,
)


def test_fraction_text_exact_forms():
    assert fraction_text(Fraction(0)) == "0"
    assert fraction_text(Fraction(1)) == "1"
    assert fraction_text(Fraction(1, 2)) == "1/2"
    assert fraction_text(Fraction(1, 13)) == "1/13"


def test_sorted_atoms_canonical_order():
    atoms = [ground("b", "z"), ground("a", "q", "r"), ground("b", "a")]
    assert sorted_atoms(atoms) == ["a(q, r)", "b(a)", "b(z)"]


def test_sorted_families_sort_each_set_and_keep_the_given_order():
    # the engine returns families in canonical order; rendering keeps it
    families = [
        frozenset({ground("p", "b"), ground("p", "a")}),
        frozenset({ground("p", "c")}),
    ]
    assert sorted_families(families) == [["p(a)", "p(b)"], ["p(c)"]]


def test_emit_report_is_deterministic_and_newline_terminated():
    report = Report("causes", {"target": "ans", "causes": []}, {"program": "ab" * 32})
    first, second = emit_report(report), emit_report(report)
    assert first == second
    assert first.endswith("\n") and "\r" not in first
    document = json.loads(first)
    assert document["schema"] == "whyd/1"
    assert document["payload"]["causes"] == []


def test_unknown_task_rejected():
    with pytest.raises(WhydError):
        Report("explain", {})


def test_provenance_digests_are_sha256():
    digests = provenance_for({"data": b"hello"})
    assert digests == {"data": "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"}


def _dumps(document) -> str:
    """The reference the emitters match byte for byte."""
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# non-ASCII text, control characters, quotes and backslashes among any
# other character
_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é😀'), st.characters()), max_size=8)
_values = st.recursive(
    st.one_of(_texts, st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=12,
)


@given(st.dictionaries(_texts, _values, max_size=6), st.dictionaries(_texts, _texts, max_size=3), _texts, _texts)
def test_emitters_write_what_json_dumps_writes(payload, provenance, code, message):
    report = Report("causes", payload, provenance)
    document = {"schema": "whyd/1", "task": "causes", "payload": payload, "provenance": provenance}
    assert emit_report(report) == _dumps(document)
    exc = WhydError(message)
    exc.code = code
    assert emit_error(exc) == _dumps({"schema": "whyd/1", "error": {"code": code, "message": message}})


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1: "one"}, {"x"}], ids=["fraction", "float", "int-key", "set"])
def test_emit_report_rejects_what_it_does_not_write(value):
    # json.dumps writes a float or an int key; reports hold neither
    with pytest.raises(TypeError):
        emit_report(Report("causes", {"value": value}))
