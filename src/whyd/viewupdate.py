"""Delete-propagation over views defined by monotone Datalog queries.

By default every tuple is deletable, matching the classical view-update
reading; ``endogenous_only=True`` restricts deletions to the endogenous
partition.  Minimal and minimum source-side-effect solutions come
straight from the causality machinery (a solution is a cause together
with one of its subset-minimal contingency sets).  A view-side-effect-free
solution must hit every support set of the target answer and must not hit
every support set of any other answer, so the solutions are the minimal
hitting sets of the target's support family that pass the second test.
The support sets of every answer come from one provenance pass
(``abduction.support_families``), and the view is the set of its
answers; the residual view of such a solution is the view without the
target, by definition.  Every other world tested here (the instance
without a solution, a candidate subinstance, that subinstance with one
tuple put back) lies inside the model of the whole instance, so all of
them come from one propagation over its derivation graph, with no join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .abduction import support_families
from .causality import CauseAnalysis
from .errors import NotAnAnswerError, NotSubinstanceError, WhydError
from .evaluator import evaluate_fixpoint, propagate, reached
from .hitting import minimal_hitting_sets
from .model import GroundAtom, Instance, Program, canonical_family

SolutionKind = Literal["minimal_source", "minimum_source", "view_safe"]


@dataclass(frozen=True)
class DeletionSolution:
    removed: frozenset[GroundAtom]
    kind: SolutionKind
    residual_view: frozenset[GroundAtom]


def _working_instance(instance: Instance, endogenous_only: bool) -> Instance:
    return instance if endogenous_only else instance.all_endogenous()


def minimal_source_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """All subset-minimal deletion sets that drop the answer: exactly the
    {cause} + contingency-set combinations."""
    working = _working_instance(instance, endogenous_only)
    analysis = CauseAnalysis.for_query(working, program, answer)
    removals: set[frozenset[GroundAtom]] = set()
    for tau in analysis.causes():
        for gamma in analysis.contingency_family(tau):
            removals.add(gamma | {tau})
    # world i is the instance without the i-th solution, inside the model
    # whose graph the analysis recorded
    solutions = canonical_family(removals)
    touched = frozenset().union(*solutions)
    firings = analysis.problem.firings
    masks = propagate(reached(firings, firings), instance.atoms - touched, [touched - r for r in solutions])
    views = [(GroundAtom(a.predicate, a.args), m) for a, m in masks.items() if a.predicate == program.answer_predicate]
    return tuple(
        DeletionSolution(removed, "minimal_source", frozenset(a for a, mask in views if mask >> i & 1))
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
    model = evaluate_fixpoint(program, instance)
    if answer.predicate != program.answer_predicate or answer not in model:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")
    # world 0 is the subinstance; world i + 1 puts the i-th deleted tuple
    # back, for maximality: each must restore the answer (monotonicity
    # lifts this to all supersets)
    removed = instance.atoms - subinstance.atoms
    worlds = [(), *([atom] for atom in removed)]
    held = propagate(reached(model.firings, [answer]), subinstance.atoms, worlds).get(answer, 0)
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
    families = support_families(program, working.exogenous, working.endogenous)
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
    return tuple(DeletionSolution(removed, "view_safe", residual) for removed in canonical_family(found))
