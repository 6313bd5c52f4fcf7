"""Datalog abduction: diagnoses, relevance, necessity, and the two
reductions between abduction and query-answer causality.

A diagnosis is a subset-minimal set of hypothesis atoms that, added to
the background theory (program plus extensional facts), entails the
observation.  Enumeration is an ascending-cardinality search over the
support set: hypotheses that occur in at least one derivation of the
observation from the full theory.  Anything outside the support can
never be part of a minimal diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    NotBooleanError,
    NotEntailedError,
    ObservationNotEntailableError,
    UnknownHypothesisError,
)
from .evaluator import _instantiate, _join, evaluate_fixpoint, fresh_predicate
from .hitting import minimal_hitting_sets, minimal_sets
from .model import Atom, GroundAtom, Instance, Program, Rule, canonical_family

Diagnosis = frozenset[GroundAtom]


def _conjunction_program(program: Program, observation: tuple[GroundAtom, ...]) -> tuple[Program, GroundAtom]:
    """Extend the program with ``obs_goal <- o1, ..., ok`` so entailment of
    the whole observation is one membership test."""
    taken = {r.head.predicate for r in program.rules}
    taken.update(a.predicate for r in program.rules for a in r.body_atoms())
    taken.update(a.predicate for a in observation)
    goal = fresh_predicate("obs_goal", taken)
    rule = Rule(Atom(goal, ()), tuple(o.to_atom() for o in observation))
    return Program(program.rules + (rule,), goal), GroundAtom(goal, ())


@dataclass(frozen=True)
class AbductionProblem:
    """``(program, extensional facts, hypotheses, observation)`` with the
    standing assumption that program + facts + all hypotheses entail the
    observation (checked at construction)."""

    program: Program
    extensional: frozenset[GroundAtom]
    hypotheses: frozenset[GroundAtom]
    observation: tuple[GroundAtom, ...]

    def __post_init__(self):
        # Hypotheses over rule-head predicates are tolerated: the marker
        # encoding of propositional Horn abduction needs them, and the
        # search only relies on monotonicity, never on head-freeness.
        if not self.observation:
            raise ObservationNotEntailableError("empty observation")
        goal_program, goal = _conjunction_program(self.program, self.observation)
        object.__setattr__(self, "_goal_program", goal_program)
        object.__setattr__(self, "_goal", goal)
        model = evaluate_fixpoint(goal_program, self.extensional | self.hypotheses)
        if goal not in model:
            raise ObservationNotEntailableError(
                "the observation is not entailed even with every hypothesis added"
            )
        object.__setattr__(self, "_full_model", model)

    # -- entailment plumbing -------------------------------------------------

    def _entails(self, delta: Diagnosis, memo: dict[Diagnosis, bool]) -> bool:
        cached = memo.get(delta)
        if cached is None:
            model = evaluate_fixpoint(self._goal_program, self.extensional | delta)  # type: ignore[attr-defined]
            cached = self._goal in model  # type: ignore[attr-defined]
            memo[delta] = cached
        return cached

    def _support(self) -> frozenset[GroundAtom]:
        """Hypotheses occurring in some derivation of the observation from
        the full theory, via backward reachability over every ground rule
        instance that fires in the full model."""
        relations = self._full_model.relations  # type: ignore[attr-defined]
        edges: dict[GroundAtom, list[tuple[GroundAtom, ...]]] = {}
        for rule in self._goal_program.rules:  # type: ignore[attr-defined]
            atoms = tuple(rule.body_atoms())
            sources = [relations.get(a.predicate, ()) for a in atoms]
            for binding, body in _join(atoms, sources, tuple(rule.comparisons())):
                edges.setdefault(_instantiate(rule.head, binding), []).append(body)

        reached: set[GroundAtom] = set()
        frontier = [GroundAtom(o.predicate, o.args) for o in self.observation]
        while frontier:
            atom = frontier.pop()
            if atom in reached:
                continue
            reached.add(atom)
            for body in edges.get(atom, ()):
                frontier.extend(b for b in body if b not in reached)
        # keep the hypothesis-side objects so tuple labels survive into
        # diagnoses and everything derived from them
        return frozenset(h for h in self.hypotheses if h in reached and h not in self.extensional)


@lru_cache(maxsize=None)
def solve_diagnoses(problem: AbductionProblem) -> tuple[Diagnosis, ...]:
    """All abductive diagnoses, in canonical order.  Never empty; equals
    ``(frozenset(),)`` when the background theory already entails the
    observation."""
    support = sorted(problem._support(), key=GroundAtom.sort_key)
    memo: dict[Diagnosis, bool] = {}
    found = minimal_sets(support, lambda delta: problem._entails(delta, memo))
    for delta in found:
        # membership-proof check: dropping any element must break entailment
        assert all(not problem._entails(delta - {d}, memo) for d in delta)
    return canonical_family(found)


def relevant_hypotheses(problem: AbductionProblem) -> frozenset[GroundAtom]:
    """Hypotheses contained in at least one diagnosis."""
    out: set[GroundAtom] = set()
    for delta in solve_diagnoses(problem):
        out |= delta
    return frozenset(out)


def necessary_hypotheses(problem: AbductionProblem) -> frozenset[GroundAtom]:
    """Hypotheses contained in every diagnosis."""
    solutions = solve_diagnoses(problem)
    common = set(solutions[0])
    for delta in solutions[1:]:
        common &= delta
    return frozenset(common)


def necessary_hypothesis_sets(problem: AbductionProblem) -> tuple[Diagnosis, ...]:
    """Subset-minimal sets of hypotheses whose removal leaves the
    observation unexplainable.  Removing N kills every diagnosis exactly
    when N hits every diagnosis, so these are the minimal hitting sets of
    the diagnosis family."""
    solutions = solve_diagnoses(problem)
    return canonical_family(minimal_hitting_sets(solutions))


def necessity_degree(problem: AbductionProblem, hypothesis: GroundAtom) -> Fraction:
    """1/|N| for the smallest necessary-hypothesis set containing the
    hypothesis, 0 when it is in none."""
    if hypothesis not in problem.hypotheses:
        raise UnknownHypothesisError(f"{hypothesis} is not a hypothesis of this problem")
    sizes = [len(n) for n in necessary_hypothesis_sets(problem) if hypothesis in n]
    if not sizes:
        return Fraction(0)
    return Fraction(1, min(sizes))


def to_causal_abduction(instance: Instance, program: Program) -> AbductionProblem:
    """The causal abduction problem of a Boolean query true in the
    instance: exogenous tuples become the extensional database, the
    endogenous ones the hypotheses, the answer atom the observation."""
    if not program.is_boolean():
        raise NotBooleanError(f"answer predicate {program.answer_predicate} is not nullary")
    ans = GroundAtom(program.answer_predicate, ())
    model = evaluate_fixpoint(program, instance)
    if ans not in model:
        raise NotEntailedError("the query is not true in the instance")
    return AbductionProblem(program, instance.exogenous, instance.endogenous, (ans,))


def from_abduction_to_causality(problem: AbductionProblem) -> tuple[Instance, Program]:
    """The causal reading of an abduction problem: a fresh Boolean query
    ``ans <- Obs`` over the instance whose exogenous part is the
    extensional database and whose endogenous part is the hypothesis set."""
    taken = {r.head.predicate for r in problem.program.rules}
    taken.update(a.predicate for r in problem.program.rules for a in r.body_atoms())
    taken.update(a.predicate for a in problem.observation)
    taken.update(a.predicate for a in problem.extensional | problem.hypotheses)
    ans = fresh_predicate("ans", taken)
    rule = Rule(Atom(ans, ()), tuple(o.to_atom() for o in problem.observation))
    program = Program(problem.program.rules + (rule,), ans)
    instance = Instance(endogenous=problem.hypotheses, exogenous=problem.extensional)
    return instance, program
