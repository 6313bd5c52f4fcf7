"""Delete-propagation over views defined by monotone Datalog queries.

By default every tuple is deletable, matching the classical view-update
reading; ``endogenous_only=True`` restricts deletions to the endogenous
partition.  A deletion drops the answer exactly when it hits every
diagnosis of the answer's causal abduction problem, so the minimal
source-side-effect solutions are the minimal hitting sets of the
diagnoses: the problem's necessary-hypothesis sets, from one search
(``abduction.necessary_hypothesis_sets``).  Each is a cause together
with one of its subset-minimal contingency sets, and each such union is
one of them.  A view-side-effect-free
solution must hit every support set of the target answer and must not hit
every support set of any other answer, so the solutions are the minimal
hitting sets of the target's support family that pass the second test.
The support sets of every answer come from one provenance pass
(``abduction.support_masks``), and the view is the set of its
answers; the residual view of such a solution is the view without the
target, by definition.  Every other world tested here (the instance
without a solution, a candidate subinstance, that subinstance with one
tuple put back) lies inside the model of the whole instance, so all of
them come from one fixpoint of the instance and one propagation over
the part of its derivation graph that the answers reach, with no
further join (``_answer_worlds``).  That graph is over integers
(``evaluator.Graph``): a world is a list of ids, and the propagation
indexes lists by id.  The cause analysis keeps no graph: the minimal
deletions take their necessary sets from its cached problem and their
residual views from that fixpoint of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .abduction import necessary_hypothesis_sets, support_masks
from .causality import CauseAnalysis
from .errors import NotAnAnswerError, NotSubinstanceError, WhydError
from .evaluator import evaluate_fixpoint, propagate, reached
from .hitting import minimal_hitting_sets
from .model import GroundAtom, Instance, Program, decode, positions

SolutionKind = Literal["minimal_source", "minimum_source", "view_safe"]


@dataclass(frozen=True)
class DeletionSolution:
    removed: frozenset[GroundAtom]
    kind: SolutionKind
    residual_view: frozenset[GroundAtom]


def _working_instance(instance: Instance, endogenous_only: bool) -> Instance:
    return instance if endogenous_only else instance.all_endogenous()


def _answer_worlds(
    program: Program,
    instance: Instance,
    shared: Iterable[GroundAtom],
    atoms: Sequence[GroundAtom],
    worlds: Iterable[int],
) -> dict[GroundAtom, int]:
    """Every answer of the program on the instance, mapped to the bitmask
    of the worlds whose models hold it (bit i: the i-th world).  A world
    is a bitmask over ``atoms``, facts of the instance (bit i:
    ``atoms[i]``), with the shared facts added.  One fixpoint of the
    instance, then one propagation of the worlds over the part of its
    derivation graph that the answers reach."""
    model = evaluate_fixpoint(program, instance)
    id_of = model.id_of
    goals = [id_of(a) for a in model.extension(program.answer_predicate)]
    numbered = [id_of(a) for a in atoms]
    facts = [[numbered[bit] for bit in positions(world)] for world in worlds]
    masks = propagate(*reached(model.graph, goals), len(model.graph.atoms), map(id_of, shared), facts)
    return {model.graph.atoms[a]: masks[a] for a in goals}


def minimal_source_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """All subset-minimal deletion sets that drop the answer: the minimal
    hitting sets of its diagnoses, in canonical order."""
    working = _working_instance(instance, endogenous_only)
    solutions = necessary_hypothesis_sets(CauseAnalysis.for_query(working, program, answer).problem)
    # world i is the instance without the i-th solution
    touched = 0
    for removed in solutions.masks:
        touched |= removed
    views = _answer_worlds(
        program,
        working,
        working.atoms - decode(touched, solutions.atoms),
        solutions.atoms,
        [touched & ~removed for removed in solutions.masks],
    )
    return tuple(
        DeletionSolution(removed, "minimal_source", frozenset(a for a, mask in views.items() if mask >> i & 1))
        for i, removed in enumerate(solutions)
    )


def minimum_source_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """The minimum-cardinality members of the minimal family; their size is
    1 over the best responsibility among the causes."""
    minimal = minimal_source_solutions(instance, program, answer, endogenous_only=endogenous_only)
    if not minimal:
        return ()
    best = min(len(s.removed) for s in minimal)
    return tuple(
        DeletionSolution(s.removed, "minimum_source", s.residual_view)
        for s in minimal
        if len(s.removed) == best
    )


def check_source_solution(
    instance: Instance,
    subinstance: Instance,
    program: Program,
    answer: GroundAtom,
    mode: Literal["s", "c"],
) -> bool:
    """Membership test for the two source-side-effect decision problems:
    mode "s" asks whether the kept subinstance is subset-maximal among
    those dropping the answer, mode "c" whether it has maximum size."""
    if not subinstance.is_subinstance_of(instance):
        raise NotSubinstanceError("the candidate is not a subinstance")
    if mode not in ("s", "c"):
        raise WhydError(f"unknown mode {mode!r}")
    # world 0 is the subinstance; world i + 1 puts the i-th deleted tuple
    # back, for maximality: each must restore the answer (monotonicity
    # lifts this to all supersets)
    removed = tuple(instance.atoms - subinstance.atoms)
    worlds = [0, *(1 << i for i in range(len(removed)))]
    held = _answer_worlds(program, instance, subinstance.atoms, removed, worlds).get(answer)
    if held is None:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")
    if held & 1:
        return False
    if mode == "s":
        return held >> 1 == (1 << len(removed)) - 1
    minimum = minimum_source_solutions(instance, program, answer)
    return bool(minimum) and len(removed) == len(minimum[0].removed)


def vsef_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """All subset-minimal deletion sets that remove exactly the given
    answer from the view; empty iff the side-effect-free problem has no
    solution."""
    working = _working_instance(instance, endogenous_only)
    atoms, families = support_masks(program, working.exogenous, working.endogenous)
    if answer not in families:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")
    protected_families = [family for a, family in families.items() if a != answer]

    # losing the target is upward-closed in the removed set and keeping the
    # protected answers downward-closed: filtering minimal hitting sets is exact
    found = [
        removed
        for removed in minimal_hitting_sets(families[answer])
        if not any(all(delta & removed for delta in family) for family in protected_families)
    ]
    residual = frozenset(families.keys() - {answer})
    return tuple(DeletionSolution(decode(removed, atoms), "view_safe", residual) for removed in found)
