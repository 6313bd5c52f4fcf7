"""Datalog abduction: diagnoses, relevance, necessity, and the two
reductions between abduction and query-answer causality.

A diagnosis is a subset-minimal set of hypothesis atoms that, added to
the background theory (program plus extensional facts), entails the
observation.  The diagnoses are the observation's minimal
why-provenance: the fixpoint runs the caller's program over the facts
and every hypothesis and records the ground derivation graph of that
full model; one pass annotates the graph with antichains of hypothesis
sets in the absorptive PosBool semiring (Green, Karvounarakis & Tannen,
PODS 2007).  The observation atoms are the goals, and no goal rule is
built: the diagnosis family of a conjunction is the product of its
atoms' antichains, the minimal unions of one set from each.  The pass
sweeps the part of the graph the goals reach in derivation order, so
that off cycles each head is annotated once, and holds the sets as
bitmasks.  The same pass over every answer of a program at once gives
each answer's minimal support sets (``support_families``), behind
view-conditioned causes and side-effect-free deletions.  Each family is
checked by direct evaluation before it is returned: every set, and
every set with one element dropped, is a world, and all of them are
propagated over a ground program that the check derives again by joins.
Hypotheses are plain tuples, so a problem is a value: equal problems
share one cached family and one necessary-set search, whatever labels
their callers give the tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import (
    InternalInvariantError,
    NotBooleanError,
    NotEntailedError,
    ObservationNotEntailableError,
    UnknownHypothesisError,
)
from .evaluator import Firings, evaluate_fixpoint, fresh_predicate, ground, propagate, reached, reads_ahead
from .hitting import minimal_hitting_sets
from .model import Atom, GroundAtom, Instance, Program, Rule, canonical_family

Diagnosis = frozenset[GroundAtom]
# a conjunction of atoms whose minimal why-provenance is asked for
Goal = tuple[GroundAtom, ...]


@dataclass(frozen=True)
class AbductionProblem:
    """``(program, extensional facts, hypotheses, observation)`` with the
    standing assumption that program + facts + all hypotheses entail the
    observation (checked at construction).  ``firings`` is the recorded
    derivation graph (``MinimalModel.firings``) of that model under the
    caller's program itself; the observation atoms are its goals."""

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
        facts = self.extensional | self.hypotheses
        # every model atom is a fact or a recorded head
        firings = evaluate_fixpoint(self.program, facts).firings
        for atom in self.observation:
            if atom not in firings and atom not in facts:
                raise ObservationNotEntailableError(
                    "the observation is not entailed even with every hypothesis added"
                )
        object.__setattr__(self, "firings", firings)
        # the necessary-hypothesis sets, once searched for
        object.__setattr__(self, "_necessary", None)


def _minimal_why(
    firings: Firings,
    extensional: frozenset[GroundAtom],
    hypotheses: frozenset[GroundAtom],
    goals: Sequence[Goal],
) -> dict[Goal, list[Diagnosis]]:
    """Each goal's minimal why-provenance over the hypotheses: the
    subset-minimal hypothesis sets that derive all its atoms, given the
    derivation graph (``MinimalModel.firings``) of the model over the
    extensional facts and every hypothesis.

    Every derivation from the background plus some hypotheses only uses
    ground rule instances that fire in that model, so the graph holds
    them all; only the part the goals reach (``reached``) matters, and a
    head's bodies count as a set.  Each atom is annotated with an
    antichain in the absorptive PosBool semiring, its sets held as
    bitmasks over the reached hypotheses: background facts and heads of
    atom-less firings with {∅}, other hypotheses h with {{h}}, a firing
    with the pairwise unions of its body antichains, a head with the
    minimal sets over its own and its firings'.  One sweep in
    ``reached``'s order, which puts a head after the heads in its bodies,
    annotates each head once from its final inputs.  Only if some body
    reads a head at the same or a later position (a cycle) do further
    sweeps run, each annotating again the heads whose inputs changed,
    until no antichain changes; antichains only move down a finite lattice, so
    the sweeps stop.  A goal's family is the product of its atoms'
    antichains; a one-atom goal's is its atom's."""
    targets = list(chain.from_iterable(goals))
    graph = reached(firings, targets)
    atoms: list[GroundAtom] = []  # bit i: the i-th reached hypothesis
    why: dict[GroundAtom, list[int]] = {}
    for atom in {a for bodies in graph.values() for body in bodies for a in body}.union(graph, targets):
        if atom in extensional or () in graph.get(atom, ()):
            why[atom] = [0]
        elif atom in hypotheses:
            why[atom] = [1 << len(atoms)]
            atoms.append(atom)
        else:
            why[atom] = []
    # {∅} absorbs every set: heads annotated with it are final
    order = [(head, set(bodies)) for head, bodies in graph.items() if why[head] != [0]]
    cyclic = reads_ahead(graph)
    # a head is annotated again only if a body atom changed since it was
    # last annotated: at a later clock than its own
    changed_at = dict.fromkeys(why, 0)
    read_at: dict[GroundAtom, int] = {}
    clock = 0
    sweep = True
    while sweep:
        sweep = False
        for head, bodies in order:
            last = read_at.get(head)
            if last is not None and all(changed_at[a] <= last for body in bodies for a in body):
                continue
            known = why[head]
            why[head] = _prune(known + [d for body in bodies for d in _product([why[a] for a in body])])
            read_at[head] = clock
            if cyclic and set(why[head]) != set(known):
                clock += 1
                changed_at[head] = clock
                sweep = True
    out: dict[Goal, list[Diagnosis]] = {}
    for goal in goals:
        masks = why[goal[0]] if len(goal) == 1 else _product([why[a] for a in goal])
        out[goal] = [_decode(mask, atoms) for mask in masks]
    return out


def _prune(candidates: list[int]) -> list[int]:
    """The subset-minimal sets among the candidates, smallest first."""
    out: list[int] = []
    for cand in sorted(set(candidates), key=int.bit_count):
        if not any(prev & cand == prev for prev in out):
            out.append(cand)
    return out


def _product(families: list[list[int]]) -> list[int]:
    """The minimal unions of one set from each antichain."""
    out = [0]
    for family in families:
        if out == [0]:
            out = family
        elif family != [0]:
            out = _prune([left | right for left in out for right in family])
    return out


def _decode(mask: int, atoms: list[GroundAtom]) -> Diagnosis:
    """The atoms whose bits the mask sets (bit i: ``atoms[i]``)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(atoms[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _render(delta: Diagnosis) -> str:
    return "{" + ", ".join(str(a) for a in sorted(delta, key=GroundAtom.sort_key)) + "}"


def _render_goal(goal: Goal) -> str:
    return ", ".join(str(a) for a in goal)


def _check(
    program: Program, firings: Firings, extensional: frozenset[GroundAtom], families: Mapping[Goal, Sequence[Diagnosis]]
) -> None:
    """Check each goal's family directly, by evaluation: the family is not
    empty, each set entails every atom of the goal with the extensional
    facts, and no set with one element dropped does; raises
    ``InternalInvariantError``.

    Each set is a world, and the recorded graph ``firings`` is not
    trusted: the worlds' facts and the recorded heads are grounded again
    by joins, and no head derived there may lie outside them.  Then every
    derivation inside a world is one of those firings (a first one that
    is not would have its body, so its head, among them), and the worlds
    are propagated over the ground program the goals reach."""
    worlds: dict[Diagnosis, int] = {}
    for family in families.values():
        for delta in family:
            worlds.setdefault(delta, len(worlds))
            for d in delta:
                worlds.setdefault(delta - {d}, len(worlds))
    atoms = extensional.union(*worlds, firings.keys())
    grounded = ground(program, atoms)
    for head in grounded:
        if head not in atoms:
            raise InternalInvariantError(f"the recorded graph is not closed: it misses {head}")
    masks = propagate(reached(grounded, chain.from_iterable(families)), extensional, worlds)
    for goal, family in families.items():
        if not family:
            raise InternalInvariantError(f"no diagnosis found for {_render_goal(goal)}, which is entailable")
        held = -1  # the worlds holding every atom of the goal
        for atom in goal:
            held &= masks.get(atom, 0)
        for delta in family:
            if not held >> worlds[delta] & 1:
                raise InternalInvariantError(f"diagnosis {_render(delta)} does not entail {_render_goal(goal)}")
            for d in delta:
                if held >> worlds[delta - {d}] & 1:
                    raise InternalInvariantError(
                        f"diagnosis {_render(delta)} of {_render_goal(goal)} is not minimal: {d} is redundant"
                    )


@lru_cache(maxsize=None)
def solve_diagnoses(problem: AbductionProblem) -> tuple[Diagnosis, ...]:
    """All abductive diagnoses, in canonical order.  Never empty; equals
    ``(frozenset(),)`` when the background theory already entails the
    observation.

    The diagnoses come from one why-provenance pass and pass ``_check``
    before they are returned; a failed check raises
    ``InternalInvariantError``.  Results are cached by problem value
    (``cache_info``, ``cache_clear``), so equal problems share them."""
    goal = problem.observation
    found = _minimal_why(problem.firings, problem.extensional, problem.hypotheses, (goal,))
    _check(problem.program, problem.firings, problem.extensional, found)
    return canonical_family(found[goal])


def support_families(
    program: Program, fixed: frozenset[GroundAtom], deletable: frozenset[GroundAtom]
) -> dict[GroundAtom, tuple[Diagnosis, ...]]:
    """Every answer of the program over the fixed and deletable facts,
    mapped to its minimal support sets in canonical order: the
    subset-minimal sets of deletable facts that derive the answer
    together with the fixed ones.  One fixpoint, which records the
    derivation graph, and one provenance pass over it serve every answer,
    and ``_check`` verifies every family."""
    model = evaluate_fixpoint(program, fixed | deletable)
    goals = [(answer,) for answer in sorted(model.extension(program.answer_predicate), key=GroundAtom.sort_key)]
    found = _minimal_why(model.firings, fixed, deletable, goals)
    _check(program, model.firings, fixed, found)
    return {goal[0]: canonical_family(family) for goal, family in found.items()}


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
    the diagnosis family.  The search runs once per problem; the family
    is kept on it."""
    if problem._necessary is None:  # type: ignore[attr-defined]
        family = canonical_family(minimal_hitting_sets(solve_diagnoses(problem)))
        object.__setattr__(problem, "_necessary", family)
    return problem._necessary  # type: ignore[attr-defined]


def necessity_degree(problem: AbductionProblem, hypothesis: GroundAtom) -> Fraction:
    """1/|N| for the smallest necessary-hypothesis set containing the
    hypothesis, 0 when it is in none."""
    if hypothesis not in problem.hypotheses:
        raise UnknownHypothesisError(f"{hypothesis} is not a hypothesis of this problem")
    return necessity_degrees(problem.hypotheses, necessary_hypothesis_sets(problem))[hypothesis]


def necessity_degrees(hypotheses: Iterable[GroundAtom], necessary_sets: Iterable[Diagnosis]) -> dict[GroundAtom, Fraction]:
    """Every hypothesis's necessity degree, read off one search's necessary-hypothesis sets."""
    degrees = dict.fromkeys(hypotheses, Fraction(0))
    for n in sorted(necessary_sets, key=len, reverse=True):
        degrees.update(dict.fromkeys(n, Fraction(1, len(n))))
    return degrees


def to_causal_abduction(instance: Instance, program: Program) -> AbductionProblem:
    """The causal abduction problem of a Boolean query true in the
    instance: exogenous tuples become the extensional database, the
    endogenous ones the hypotheses, the answer atom the observation."""
    if not program.is_boolean():
        raise NotBooleanError(f"answer predicate {program.answer_predicate} is not nullary")
    ans = GroundAtom(program.answer_predicate, ())
    try:
        return AbductionProblem(program, instance.exogenous, instance.endogenous, (ans,))
    except ObservationNotEntailableError:
        raise NotEntailedError("the query is not true in the instance") from None


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
