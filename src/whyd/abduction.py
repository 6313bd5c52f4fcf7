"""Datalog abduction: diagnoses, relevance, necessity, and the two
reductions between abduction and query-answer causality.

A diagnosis is a subset-minimal set of hypothesis atoms that, added to
the background theory (program plus extensional facts), entails the
observation.  The diagnoses are the observation's minimal
why-provenance: one pass annotates the ground derivation graph of the
full model (every hypothesis added) with antichains of hypothesis sets
in the absorptive PosBool semiring (Green, Karvounarakis & Tannen, PODS
2007), and the goal's antichain is the diagnosis family.  Each diagnosis
is then checked by direct evaluation before it is returned.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InternalInvariantError,
    NotBooleanError,
    NotEntailedError,
    ObservationNotEntailableError,
    UnknownHypothesisError,
)
from .evaluator import Relation, _instantiate, _join, _rule_plan, evaluate_fixpoint, fresh_predicate
from .hitting import _prune, minimal_hitting_sets
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


def _labelled(atoms: frozenset[GroundAtom]) -> dict[GroundAtom, GroundAtom] | None:
    """Each labelled atom keyed by its label-free equal, or None if none is."""
    return {a: a for a in atoms if a.label is not None} or None


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
        # provenance pass only relies on monotonicity, never on
        # head-freeness.
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
        # diagnoses are cached without tuple labels; these put them back
        object.__setattr__(self, "_labelled", _labelled(self.hypotheses))

    def relabelled(self, hypotheses: frozenset[GroundAtom]) -> "AbductionProblem":
        """The same problem over ``hypotheses``, equal to its own but
        labelled otherwise; its diagnoses hold those labelled atoms."""
        twin = copy.copy(self)
        object.__setattr__(twin, "hypotheses", hypotheses)
        object.__setattr__(twin, "_labelled", _labelled(hypotheses))
        return twin

    def _minimal_why(self) -> list[Diagnosis]:
        """The observation's minimal why-provenance over the hypotheses:
        the subset-minimal hypothesis sets that derive it.

        Every derivation from the background plus some hypotheses only
        uses ground rule instances that fire in the full model, so one
        join per rule over that model gives the whole derivation graph;
        only atoms reachable backward from the goal matter.  Each atom is
        annotated with an antichain in the absorptive PosBool semiring:
        background facts with {∅}, other hypotheses h with {{h}}, a
        firing with the pairwise unions of its body antichains, an atom
        with the minimal sets over its firings.  A worklist re-fires the
        users of every atom whose antichain changed until nothing does;
        antichains only move down a finite lattice, so it terminates."""
        model = self._full_model.relations  # type: ignore[attr-defined]
        relations = {p: Relation(facts) for p, facts in model.items()}
        empty = Relation(frozenset())
        firings: dict[GroundAtom, list[tuple[GroundAtom, ...]]] = {}
        for rule in self._goal_program.rules:  # type: ignore[attr-defined]
            plan = _rule_plan(rule)
            sources = [relations.get(a.predicate, empty) for a in plan.atoms]
            for binding, body in _join(plan, sources):
                firings.setdefault(_instantiate(rule.head, binding), []).append(body)

        goal: GroundAtom = self._goal  # type: ignore[attr-defined]
        # users[b]: the firings (head, body) of reached heads with b in the body
        users: dict[GroundAtom, list[tuple[GroundAtom, tuple[GroundAtom, ...]]]] = {}
        reached = {goal}
        frontier = [goal]
        while frontier:
            head = frontier.pop()
            for body in firings.get(head, ()):
                for atom in set(body):
                    users.setdefault(atom, []).append((head, body))
                    if atom not in reached:
                        reached.add(atom)
                        frontier.append(atom)

        why: dict[GroundAtom, list[Diagnosis]] = {}
        for atom in reached:
            # background facts and heads of atom-less firings need nothing
            if atom in self.extensional or () in firings.get(atom, ()):
                why[atom] = [frozenset()]
            elif atom in self.hypotheses:
                why[atom] = [frozenset({atom})]
        pending = list(why)
        queued = set(pending)
        while pending:
            atom = pending.pop()
            queued.discard(atom)
            for head, body in users.get(atom, ()):
                known = why.get(head, [])
                merged = _prune(known + _product([why.get(b, []) for b in body]))
                if set(merged) != set(known):
                    why[head] = merged
                    if head not in queued:
                        queued.add(head)
                        pending.append(head)
        return why.get(goal, [])


def _product(families: list[list[Diagnosis]]) -> list[Diagnosis]:
    """The minimal unions of one set from each antichain."""
    out: list[Diagnosis] = [frozenset()]
    for family in families:
        out = _prune([left | right for left in out for right in family])
    return out


def _render(delta: Diagnosis) -> str:
    return "{" + ", ".join(str(a) for a in sorted(delta, key=GroundAtom.sort_key)) + "}"


def solve_diagnoses(problem: AbductionProblem) -> tuple[Diagnosis, ...]:
    """All abductive diagnoses, in canonical order.  Never empty; equals
    ``(frozenset(),)`` when the background theory already entails the
    observation.

    The diagnoses come from one why-provenance pass; each is then checked
    directly, by evaluation: it entails the observation and no set with
    one element dropped does.  A failed check raises
    ``InternalInvariantError``.  Results are cached by problem value
    without tuple labels (``cache_info``, ``cache_clear``); the diagnoses
    returned hold the caller's labelled hypotheses."""
    found = _diagnoses(problem)
    labelled = problem._labelled  # type: ignore[attr-defined]
    if not labelled:
        return found
    return tuple(frozenset(labelled.get(h, h) for h in delta) for delta in found)


@lru_cache(maxsize=None)
def _diagnoses(problem: AbductionProblem) -> tuple[Diagnosis, ...]:
    found = problem._minimal_why()
    goal_program, goal = problem._goal_program, problem._goal  # type: ignore[attr-defined]

    def entails(delta: Diagnosis) -> bool:
        return goal in evaluate_fixpoint(goal_program, problem.extensional | delta)

    if not found:
        raise InternalInvariantError("no diagnosis found for an entailable observation")
    for delta in found:
        if not entails(delta):
            raise InternalInvariantError(f"diagnosis {_render(delta)} does not entail the observation")
        for d in delta:
            if entails(delta - {d}):
                raise InternalInvariantError(f"diagnosis {_render(delta)} is not minimal: {d} is redundant")
    return canonical_family(found)


solve_diagnoses.cache_info = _diagnoses.cache_info  # type: ignore[attr-defined]
solve_diagnoses.cache_clear = _diagnoses.cache_clear  # type: ignore[attr-defined]


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
