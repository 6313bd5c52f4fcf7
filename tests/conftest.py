from __future__ import annotations

import importlib
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


def firing_pairs(graph) -> list[tuple[GroundAtom, tuple[GroundAtom, ...]]]:
    """Every firing of a numbered derivation graph (``evaluator.Graph``)
    as its head and body atoms, in id order."""
    atoms = graph.atoms
    return [(atoms[h], tuple(atoms[a] for a in body)) for h, row in enumerate(graph.rows) for body in row]


def problem_graph(problem):
    """The derivation graph a solve of the abduction problem records, and
    its goal (the observation atoms' ids): the fixpoint of its program
    over its extensional facts and then its other hypotheses."""
    from whyd.evaluator import evaluate_fixpoint

    model = evaluate_fixpoint(problem.program, [*problem.extensional, *problem.hypotheses - problem.extensional])
    return model.graph, [model.id_of(a) for a in problem.observation]


def tamper(monkeypatch, edit) -> None:
    """From now on, every fixpoint of the abduction layer records, in
    place of its derivation graph, the one whose firings ``edit`` leaves:
    it gets the list of ``firing_pairs`` and changes it in place.  Every
    atom keeps its id."""
    from whyd import abduction
    from whyd.evaluator import Graph

    real = abduction.evaluate_fixpoint

    def tampered(program, facts):
        model = real(program, facts)
        graph, id_of = model.graph, model.id_of
        pairs = firing_pairs(graph)
        edit(pairs)
        missing = [a for head, body in pairs for a in (head, *body) if id_of(a) < 0]
        if missing:
            raise KeyError(f"{missing[0]} is not an atom of the model")
        rows: list = [[] for _ in graph.atoms]
        for head, body in pairs:
            rows[id_of(head)].append(tuple(map(id_of, body)))
        model.graph = Graph(graph.atoms, graph.seeds, rows)
        return model

    monkeypatch.setattr(abduction, "evaluate_fixpoint", tampered)


def count_facts_read(monkeypatch, count) -> None:
    """From now on, call ``count(n)`` each time a join kernel reads n
    facts (ids of its pass's atoms) through ``evaluator.Relation``: a
    relation it scans, or the bucket of an index it probes (a bucket the
    kernel fetched before its loops counts once).  The kernels themselves
    count nothing."""
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


def count_searches(monkeypatch, module: str = "constraints") -> list[int]:
    """From now on, count the minimal-set searches run through the
    module's binding of ``hitting.minimal_sets``: one entry per search,
    the number of conflicts it has evaluated.  ``constraints`` runs one
    search per cause under constraints; ``hitting``, where
    ``minimal_hitting_sets`` calls it, sees every search, the one behind
    an answer's minimal deletions included."""
    target = importlib.import_module(f"whyd.{module}")
    real = target.minimal_sets
    searches: list[int] = []

    def counted(conflict):
        index = len(searches)
        searches.append(0)

        def tallied(gamma):
            searches[index] += 1
            return conflict(gamma)

        return real(tallied)

    monkeypatch.setattr(target, "minimal_sets", counted)
    return searches
