"""Delete-propagation over views defined by monotone Datalog queries.

By default every tuple is deletable, matching the classical view-update
reading; ``endogenous_only=True`` restricts deletions to the endogenous
partition.  A deletion drops the answer exactly when it hits every
diagnosis of the answer's causal abduction problem, so the minimal
source-side-effect solutions are the minimal hitting sets of the
diagnoses, the answer's minimal deletions: one search, kept with its
diagnosis family (``CauseAnalysis.deletions``), the same one the
answer's causes and contingency sets are read off.  The
view-side-effect-free solutions, and the view-conditioned causes read
off them (``vc``), are those of the answer's minimal deletions whose
residual view still holds every protected answer (``_view_safe``):
losing the target is upward-closed and keeping the other answers
downward-closed, so the filter is exact.  Every world tested here (the instance without a
deletion, a candidate subinstance, that subinstance with one tuple put
back) lies inside the model of the whole instance, so all of them come
from one fixpoint of the instance and one propagation over the part of
its derivation graph that the answers reach, with no further join
(``_answer_worlds``).  That graph is over integers (``evaluator.Graph``):
a world is a list of ids, and the propagation indexes lists by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .causality import CauseAnalysis
from .errors import NotAnAnswerError, NotSubinstanceError, WhydError
from .evaluator import evaluate_fixpoint, propagate, reached
from .model import GroundAtom, Instance, Program, decode, least_masks, positions

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
    masks = [0] * len(model.graph.atoms)  # each atom's worlds, by id
    for fact in shared:
        masks[id_of(fact)] = -1
    numbered = [id_of(a) for a in atoms]
    for i, world in enumerate(worlds):
        for bit in positions(world):
            masks[numbered[bit]] |= 1 << i
    propagate(*reached(model.graph, goals), masks)
    return {model.graph.atoms[a]: masks[a] for a in goals}


def _residual_views(
    program: Program, working: Instance, atoms: tuple[GroundAtom, ...], deletions: Sequence[int]
) -> dict[GroundAtom, int]:
    """Every answer of the program on the working instance, mapped to the
    bitmask of the deletions, masks over ``atoms``, whose residual
    instance still derives it (bit i: the i-th deletion)."""
    touched = 0
    for removed in deletions:
        touched |= removed
    return _answer_worlds(
        program,
        working,
        working.atoms - decode(touched, atoms),
        atoms,
        [touched & ~removed for removed in deletions],
    )


def _solutions(
    program: Program, working: Instance, atoms: tuple[GroundAtom, ...], deletions: Sequence[int], kind: SolutionKind
) -> tuple[DeletionSolution, ...]:
    """Each deletion, a bitmask over ``atoms``, as a solution of the kind
    with its residual view, in the order given."""
    if not deletions:
        return ()
    views = _residual_views(program, working, atoms, deletions)
    return tuple(
        DeletionSolution(decode(removed, atoms), kind, frozenset(a for a, mask in views.items() if mask >> i & 1))
        for i, removed in enumerate(deletions)
    )


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
    analysis = CauseAnalysis.for_query(working, program, answer)
    return _solutions(program, working, analysis.atoms, analysis.deletions, "minimal_source")


def minimum_source_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """The minimum-cardinality members of the minimal family, its first
    in canonical order, and only they are propagated for their residual
    views; their size is 1 over the best responsibility among the causes."""
    working = _working_instance(instance, endogenous_only)
    analysis = CauseAnalysis.for_query(working, program, answer)
    least = least_masks(analysis.deletions)
    return _solutions(program, working, analysis.atoms, least, "minimum_source")


def check_source_solution(
    instance: Instance,
    subinstance: Instance,
    program: Program,
    answer: GroundAtom,
    mode: Literal["s", "c"],
) -> bool:
    """Membership test for the two source-side-effect decision problems:
    mode "s" asks whether the kept subinstance is subset-maximal among
    those dropping the answer (one propagation, polynomial), mode "c"
    whether it has maximum size: it drops the answer and deletes as many
    tuples as the first of the answer's minimal deletions."""
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
    analysis = CauseAnalysis.for_query(instance.all_endogenous(), program, answer)
    least = least_masks(analysis.deletions)
    return bool(least) and len(removed) == least[0].bit_count()


def _view_safe(
    working: Instance, program: Program, answer: GroundAtom, protected: frozenset[GroundAtom] | None = None
) -> tuple[CauseAnalysis, list[int], frozenset[GroundAtom]]:
    """The answer's plain analysis over the working instance, those of its
    minimal deletions (masks over the analysis's atoms, in canonical
    order) whose residual view keeps every protected answer, by default
    every other answer, and the view.  Losing the answer is upward-closed
    and keeping the protected answers downward-closed, so a deletion
    that does both holds one of these: they are the minimal such
    deletions.  With none, the view is needed only to check an explicit
    protected set; left uncomputed, it is empty."""
    analysis = CauseAnalysis.for_query(working, program, answer)
    deletions = analysis.deletions
    if not deletions and protected is None:
        return analysis, [], frozenset()
    views = _residual_views(program, working, analysis.atoms, deletions)
    view = frozenset(views)
    if protected is None:
        protected = view - {answer}
    elif not protected <= view:
        stray = min(protected - view, key=GroundAtom.sort_key)
        raise NotAnAnswerError(f"protected atom {stray} is not an answer on this instance")
    kept = -1
    for a in protected:
        kept &= views[a]
    return analysis, [removed for i, removed in enumerate(deletions) if kept >> i & 1], view


def vsef_solutions(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    *,
    endogenous_only: bool = False,
) -> tuple[DeletionSolution, ...]:
    """All subset-minimal deletion sets that remove exactly the given
    answer from the view, in canonical order; empty iff the
    side-effect-free problem has no solution.  Their residual view is the
    view without the answer."""
    analysis, found, view = _view_safe(_working_instance(instance, endogenous_only), program, answer)
    residual = view - {answer}
    return tuple(DeletionSolution(decode(removed, analysis.atoms), "view_safe", residual) for removed in found)
