"""Parse outcomes of seeded single-character edits, pinned in a table.

Each row of ``fixtures/parse_outcomes.jsonl`` is one edit of a fixture
program, instance, constraint file or CLI target: an insertion, deletion
or replacement of one character at one offset, drawn from a fixed seed.
Its outcome is either ``Type: message`` of the error the parser raises
or ``ok`` and a digest of the parsed value's ``repr`` (rules, or sorted
atoms with their labels), so messages, columns, error precedence and
parsed values all stay pinned.  Run this file as a script to write the
table from the current parser; a row that changes is a change of the
parser's behaviour, so rewrite the table only on purpose.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from whyd.errors import WhydError
from whyd.model import GroundAtom
from whyd.parsing import parse_constraints, parse_ground_atom, parse_instance_document, parse_program

FIXTURES = Path(__file__).parent / "fixtures"
TABLE = FIXTURES / "parse_outcomes.jsonl"
SEED = 15
EDITS = 400
# the grammar's characters, blanks, a comment and a directive start, and
# characters no token takes (``$``, a non-ASCII letter)
ALPHABET = "().,:-=!>#%'\\\n \t_aZ0$é"
TARGETS = [
    "ans(john, xml)",
    "ans(c, e)",
    "ans(john)",
    "access(joe, f1)",
    "e(b, e)",
    "course(com08, john, computing)",
    "ans",
    "v('a b', 'it\\'s')",
]


# named, not globbed, so that a new fixture moves no row
SOURCES = {
    "program": "access aj circuit dept_q dept_q1 dept_qprime graph repair rs",
    "instance": "access access_all_endogenous access_g0 aj aj_journal_exogenous circuit dept graph repair rs "
    "rs_abduce rs_nes rs_nes_abduce",
    "constraints": "dept keys repair",
}
SUFFIX = {"program": ".dl", "instance": ".facts", "constraints": ".ics"}


def _sources() -> list[tuple[str, str, str]]:
    """(kind, name, text) of every input the edits start from."""
    out = []
    for kind, names in SOURCES.items():
        for name in names.split():
            path = FIXTURES / (name + SUFFIX[kind])
            out.append((kind, path.name, path.read_text(encoding="utf-8")))
    out += [("target", f"target{i}", text) for i, text in enumerate(TARGETS)]
    return out


def edits() -> list[tuple[str, str, str, int, str, str]]:
    """(kind, name, op, offset, char, edited text) of each seeded edit."""
    rng = random.Random(SEED)
    sources = _sources()
    out = []
    for _ in range(EDITS):
        kind, name, text = rng.choice(sources)
        op = rng.choice(["insert", "delete", "replace"])
        if op == "insert":
            offset, char = rng.randrange(len(text) + 1), rng.choice(ALPHABET)
            edited = text[:offset] + char + text[offset:]
        else:
            offset = rng.randrange(len(text))
            char = rng.choice(ALPHABET) if op == "replace" else ""
            edited = text[:offset] + char + text[offset + 1 :]
        out.append((kind, name, op, offset, char, edited))
    return out


def _repr(atom: GroundAtom, label: str | None = None) -> str:
    """The atom as the table pins it: with the label its instance gives
    it, or None."""
    return f"GroundAtom(predicate={atom.predicate!r}, args={atom.args!r}, label={label!r})"


def _atoms(atoms, instance) -> list[str]:
    return [_repr(a, instance.label_of(a)) for a in sorted(atoms, key=GroundAtom.sort_key)]


def _value(kind: str, text: str) -> object:
    if kind == "program":
        program = parse_program(text)
        return [repr(program.rules), program.answer_predicate]
    if kind == "instance":
        document = parse_instance_document(text)
        instance = document.instance
        return [
            _atoms(instance.endogenous, instance),
            _atoms(instance.exogenous, instance),
            [_repr(a) for a in document.observations],
            sorted(document.exogenous_predicates),
        ]
    if kind == "constraints":
        return repr(parse_constraints(text))
    return _repr(parse_ground_atom(text))


def outcome(kind: str, text: str) -> str:
    try:
        value = _value(kind, text)
    except WhydError as err:
        return f"{type(err).__name__}: {err}"
    return "ok " + hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def rows() -> list[dict]:
    return [
        {"source": name, "edit": f"{op} {offset} {char!r}", "outcome": outcome(kind, edited)}
        for kind, name, op, offset, char, edited in edits()
    ]


_PINNED = [json.loads(line) for line in TABLE.read_text().splitlines()] if TABLE.exists() else []


def test_table_has_a_row_per_edit():
    assert len(_PINNED) == EDITS


@functools.cache
def _current() -> list[dict]:
    return rows()


@pytest.mark.parametrize("index", range(EDITS))
def test_edit_parses_as_pinned(index):
    assert _current()[index] == _PINNED[index]


if __name__ == "__main__":
    TABLE.write_text("".join(json.dumps(row) + "\n" for row in rows()))
    print(f"wrote {EDITS} rows to {TABLE}", file=sys.stderr)
