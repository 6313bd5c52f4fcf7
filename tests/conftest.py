from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from whyd.errors import NotAnAnswerError
from whyd.evaluator import fresh_predicate
from whyd.model import Atom, GroundAtom, Program, Rule
from whyd.parsing import (
    parse_constraints,
    parse_ground_atom,
    parse_instance_document,
    parse_program,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def load_program(name: str):
    return parse_program(fixture_text(name), name)


def load_document(name: str):
    return parse_instance_document(fixture_text(name), name)


def load_instance(name: str):
    return load_document(name).instance


def load_constraints(name: str):
    return parse_constraints(fixture_text(name), name)


def atom(text: str):
    return parse_ground_atom(text)


def specialize_to_answer(program: Program, answer: GroundAtom, avoid=()) -> tuple[Program, GroundAtom]:
    """Turn (program, ground answer atom) into an equivalent Boolean query,
    for the oracles, which take Boolean observations.

    Adds ``goal :- ans(c1, ..., cn)`` with a nullary goal predicate fresh
    for the program and the predicates ``avoid``; for an already-Boolean
    program queried on its own answer atom the program is returned
    unchanged.  An atom of another predicate or arity raises
    ``NotAnAnswerError``.
    """
    if answer.predicate != program.answer_predicate:
        raise NotAnAnswerError(f"{answer} is not over the answer predicate {program.answer_predicate}")
    arity = program.arity_of(answer.predicate)
    if arity is not None and arity != answer.arity:
        raise NotAnAnswerError(f"{answer} has arity {answer.arity}, but the answer predicate has arity {arity}")
    if program.is_boolean() and answer.arity == 0:
        return program, answer
    taken = {r.head.predicate for r in program.rules}
    taken.update(a.predicate for r in program.rules for a in r.body_atoms())
    taken.update(avoid)
    goal = fresh_predicate("goal", taken)
    goal_rule = Rule(Atom(goal, ()), (answer.to_atom(),))
    return Program(program.rules + (goal_rule,), goal), GroundAtom(goal, ())


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and what it wrote to stdout."""
    from whyd import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def count_facts_read(monkeypatch, count) -> None:
    """From now on, call ``count(n)`` each time a join kernel reads n
    facts through ``evaluator.Relation``: a relation it scans, or the
    bucket of an index it probes (a bucket the kernel fetched before its
    loops counts once).  The kernels themselves count nothing."""
    from whyd.evaluator import Relation

    kernel = "<whyd kernel>"  # the file name kernels are compiled under

    class Index(dict):
        def get(self, key, default=None):
            bucket = dict.get(self, key, default)
            if bucket and sys._getframe(1).f_code.co_filename == kernel:
                count(len(bucket))
            return bucket

    real_index, real_iter = Relation.index, Relation.__iter__

    def index(self, arity, positions):
        found = real_index(self, arity, positions)
        if found.__class__ is not Index:
            found = self._indexes[arity, positions] = Index(found)
        return found

    def scan(self):
        count(len(self.facts))
        return real_iter(self)

    monkeypatch.setattr(Relation, "index", index)
    monkeypatch.setattr(Relation, "__iter__", scan)


def count_searches(monkeypatch) -> list:
    """From now on, record the conflict of each minimal-set search that a
    cause analysis runs (``causality.minimal_sets``: plain causes,
    view-conditioned causes and causes under constraints all search
    there)."""
    from whyd import causality

    searches: list = []
    real = causality.minimal_sets
    monkeypatch.setattr(causality, "minimal_sets", lambda conflict: searches.append(conflict) or real(conflict))
    return searches
