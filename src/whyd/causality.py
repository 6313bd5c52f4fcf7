"""Actual causes, contingency sets and responsibility for monotone
queries given as Datalog programs.

Engine strategy: build the causal abduction problem of the answer once
and take its diagnoses, the minimal endogenous support sets of the
answer.  The problem runs the caller's program as it is, with the
answer atom itself as the observation: no goal rule and no Boolean
program are built per request.  ``abduction.solve_diagnoses`` computes
the diagnoses in one why-provenance pass over the answer's ground
derivation graph, not by evaluating subsets of the instance.
Everything else is read off the diagnosis family:

  * the causes are the relevant hypotheses (union of the diagnoses);
  * a contingency set for a cause t must hit every diagnosis avoiding t
    while leaving some diagnosis through t intact.  These conditions are
    stated once, in ``CauseAnalysis.contingency_family``, as the conflict
    of a search for minimal sets (``hitting.minimal_sets``);
  * the responsibility of a cause is 1/(1 + size of its smallest set).

View-conditioned causes (``vc``) and causes under constraints
(``constraints``) are the same analysis with a side condition, one more
check on each contingency set, and share its search, its report loop and
its responsibility.

The plain analysis of one request is cached by value
(``CauseAnalysis.for_query``), keyed by the instance's endogenous and
exogenous tuple sets, so the cache keeps no caller's ``Instance``.  A
cause is a tuple; tuple labels live in the caller's ``Instance`` only,
so equal requests under other labels share one analysis and its result
objects, and each caller reads the labels through its own instance.
Notions that need the support sets of every answer of the view, not of
one, read them from ``abduction.support_families`` instead.

The brute-force subset enumeration lives in the test suite as an
independent oracle; keep it out of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .abduction import AbductionProblem, Diagnosis, solve_diagnoses
from .errors import (
    NotACauseError,
    NotAnAnswerError,
    NotEndogenousError,
    ObservationNotEntailableError,
)
from .evaluator import holds as model_holds
from .hitting import minimal_sets
from .model import GroundAtom, Instance, Program, canonical_family


@dataclass(frozen=True)
class CauseReport:
    """A cause with its family of subset-minimal contingency sets and its
    exact responsibility 1/(1 + size of the smallest set)."""

    cause: GroundAtom
    minimal_contingency_sets: tuple[frozenset[GroundAtom], ...]
    responsibility: Fraction

    def is_counterfactual(self) -> bool:
        return self.responsibility == 1


SideCondition = Callable[[frozenset[GroundAtom], GroundAtom], Optional[Iterable[GroundAtom]]]


class CauseAnalysis:
    """The causes of one answer, read off its diagnoses, with an optional
    side condition ``side(gamma, tau)`` on the contingency sets: one more
    conflict for the search (``hitting.minimal_sets``), checked after
    the plain ones.  A candidate cause whose family comes out empty is no
    cause under it.  ``for_query`` gives the plain analysis of a request,
    with ``problem``, its causal abduction problem."""

    problem: AbductionProblem

    def __init__(
        self,
        answer: GroundAtom,
        solutions: tuple[Diagnosis, ...],
        hypotheses: frozenset[GroundAtom],
        side: SideCondition | None = None,
    ):
        self.answer = answer
        self.solutions = solutions
        self.hypotheses = hypotheses
        self.side = side

    @staticmethod
    def for_query(instance: Instance, program: Program, answer: GroundAtom) -> "CauseAnalysis":
        """The plain analysis of a request, cached by value
        (``cache_info``, ``cache_clear``).  An atom of another predicate or
        arity than the answer predicate's raises ``NotAnAnswerError``."""
        return _analysis(instance.endogenous, instance.exogenous, program, answer)

    def causes(self) -> frozenset[GroundAtom]:
        return frozenset().union(*self.solutions)

    def contingency_family(self, tau: GroundAtom) -> tuple[frozenset[GroundAtom], ...]:
        """The minimal sets Gamma such that some diagnosis through tau
        misses Gamma (the answer survives deleting Gamma), every diagnosis
        avoiding tau meets it (deleting tau as well drops the answer), and
        the side condition holds."""
        through = [delta for delta in self.solutions if tau in delta]
        if not through:
            raise NotACauseError(f"{tau} is not an actual cause for {self.answer}")
        avoiding = sorted((delta for delta in self.solutions if tau not in delta), key=len)
        side = self.side

        def conflict(gamma: frozenset[GroundAtom]) -> Iterable[GroundAtom] | None:
            for delta in through:
                if delta.isdisjoint(gamma):
                    break
            else:
                return ()  # every diagnosis through tau is hit
            for delta in avoiding:
                if delta.isdisjoint(gamma):
                    return delta
            return None if side is None else side(gamma, tau)

        return canonical_family(minimal_sets(conflict))

    def responsibility(self, tau: GroundAtom) -> Fraction:
        """1/(1 + size of the smallest contingency set) for a cause, 0 for
        any other endogenous tuple."""
        if tau not in self.hypotheses:
            raise NotEndogenousError(f"{tau} is not an endogenous tuple")
        if tau not in self.causes():
            return Fraction(0)
        return _rho(self.contingency_family(tau))

    def reports(self) -> tuple[CauseReport, ...]:
        """Every cause with its family and responsibility, in canonical
        order.  Without a side condition a cause's family depends only on
        which diagnoses hold it, so each distinct set of diagnoses has its
        family computed once and shared by every cause in exactly those
        diagnoses."""
        through: dict[GroundAtom, list[int]] = {}
        for i, delta in enumerate(self.solutions):
            for tau in delta:
                through.setdefault(tau, []).append(i)
        shared: dict[object, tuple[tuple[frozenset[GroundAtom], ...], Fraction]] = {}
        out = []
        for tau in sorted(through, key=GroundAtom.sort_key):
            key = tuple(through[tau]) if self.side is None else tau
            if key not in shared:
                family = self.contingency_family(tau)
                shared[key] = family, _rho(family)
            family, rho = shared[key]
            if family:
                out.append(CauseReport(tau, family, rho))
        return tuple(out)


def _rho(family: Sequence[frozenset[GroundAtom]]) -> Fraction:
    return Fraction(1, 1 + min(len(g) for g in family)) if family else Fraction(0)


@lru_cache(maxsize=None)
def _analysis(
    endogenous: frozenset[GroundAtom], exogenous: frozenset[GroundAtom], program: Program, answer: GroundAtom
) -> CauseAnalysis:
    # keyed by the tuple sets, not the caller's Instance, so the cache
    # keeps no instance (its atom set and label maps) alive
    if answer.predicate != program.answer_predicate:
        raise NotAnAnswerError(f"{answer} is not over the answer predicate {program.answer_predicate}")
    arity = program.arity_of(answer.predicate)
    if arity is not None and arity != answer.arity:
        raise NotAnAnswerError(f"{answer} has arity {answer.arity}, but the answer predicate has arity {arity}")
    try:
        problem = AbductionProblem(program, exogenous, endogenous, (answer,))
    except ObservationNotEntailableError:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance") from None
    analysis = CauseAnalysis(answer, solve_diagnoses(problem), problem.hypotheses)
    analysis.problem = problem
    return analysis


CauseAnalysis.for_query.cache_info = _analysis.cache_info  # type: ignore[attr-defined]
CauseAnalysis.for_query.cache_clear = _analysis.cache_clear  # type: ignore[attr-defined]


def _require_answer(instance: Instance, program: Program, answer: GroundAtom) -> None:
    if answer.predicate != program.answer_predicate or not model_holds(program, instance, answer):
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")


def is_counterfactual_cause(
    instance: Instance, program: Program, answer: GroundAtom, tau: GroundAtom
) -> bool:
    """True iff removing the tuple alone drops the answer.  Checked by a
    direct evaluation, independently of the diagnosis machinery."""
    if tau not in instance.endogenous:
        raise NotEndogenousError(f"{tau} is not an endogenous tuple")
    _require_answer(instance, program, answer)
    return not model_holds(program, instance.without({tau}), answer)


def causes(instance: Instance, program: Program, answer: GroundAtom) -> frozenset[GroundAtom]:
    """All actual causes for the answer."""
    return CauseAnalysis.for_query(instance, program, answer).causes()


def minimal_contingency_sets(
    instance: Instance, program: Program, answer: GroundAtom, tau: GroundAtom
) -> tuple[frozenset[GroundAtom], ...]:
    """The family of subset-minimal contingency sets for a cause."""
    return CauseAnalysis.for_query(instance, program, answer).contingency_family(tau)


def responsibility(instance: Instance, program: Program, answer: GroundAtom, tau: GroundAtom) -> Fraction:
    """Exact responsibility: 1/(1 + size of smallest contingency set) for
    causes, 0 for endogenous non-causes."""
    return CauseAnalysis.for_query(instance, program, answer).responsibility(tau)


def most_responsible_causes(instance: Instance, program: Program, answer: GroundAtom) -> frozenset[GroundAtom]:
    """Causes attaining the maximal positive responsibility; empty iff
    there are no causes."""
    analysis = CauseAnalysis.for_query(instance, program, answer)
    best: Fraction = Fraction(0)
    winners: list[GroundAtom] = []
    for report in analysis.reports():
        if report.responsibility > best:
            best = report.responsibility
            winners = [report.cause]
        elif report.responsibility == best and best > 0:
            winners.append(report.cause)
    return frozenset(winners)


def cause_reports(instance: Instance, program: Program, answer: GroundAtom) -> tuple[CauseReport, ...]:
    return CauseAnalysis.for_query(instance, program, answer).reports()

