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
    stated once, as the conflict of a search for minimal sets
    (``contingency_conflict`` for ``hitting.minimal_sets``).  Causes
    under constraints and view-conditioned causes search with the same
    conflict and only add their own checks.

The analysis of one request is cached by value
(``CauseAnalysis.for_query``).  A cause is a tuple; tuple labels live in
the caller's ``Instance`` only, so equal requests under other labels
share one analysis and its result objects, and each caller reads the
labels through its own instance.  Notions that need the support sets of
every answer of the view, not of one, read them from
``abduction.support_families`` instead.

The brute-force subset enumeration lives in the test suite as an
independent oracle; keep it out of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .abduction import AbductionProblem, Diagnosis, solve_diagnoses
from .errors import (
    NotACauseError,
    NotAnAnswerError,
    NotEndogenousError,
    ObservationNotEntailableError,
)
from .evaluator import holds as model_holds
from .hitting import Conflict, minimal_sets
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


class CauseAnalysis:
    """Diagnosis-backed analysis for one (instance, program, answer): the
    causal abduction problem of the program over the instance, with the
    answer atom as its observation.  An atom of another predicate or
    arity than the answer predicate's raises ``NotAnAnswerError``."""

    def __init__(self, instance: Instance, program: Program, answer: GroundAtom):
        self.program = program
        self.answer = answer
        if answer.predicate != program.answer_predicate:
            raise NotAnAnswerError(f"{answer} is not over the answer predicate {program.answer_predicate}")
        arity = program.arity_of(answer.predicate)
        if arity is not None and arity != answer.arity:
            raise NotAnAnswerError(f"{answer} has arity {answer.arity}, but the answer predicate has arity {arity}")
        try:
            self.problem = AbductionProblem(program, instance.exogenous, instance.endogenous, (answer,))
        except ObservationNotEntailableError:
            raise NotAnAnswerError(f"{answer} is not an answer on this instance") from None

    @staticmethod
    def for_query(instance: Instance, program: Program, answer: GroundAtom) -> "CauseAnalysis":
        """The analysis of a request, cached by value (``cache_info``,
        ``cache_clear``)."""
        return _analysis(instance, program, answer)

    @property
    def solutions(self) -> tuple[Diagnosis, ...]:
        return solve_diagnoses(self.problem)

    def causes(self) -> frozenset[GroundAtom]:
        out: set[GroundAtom] = set()
        for delta in self.solutions:
            out |= delta
        return frozenset(out)

    def contingency_family(self, tau: GroundAtom) -> tuple[frozenset[GroundAtom], ...]:
        if not any(tau in delta for delta in self.solutions):
            raise NotACauseError(f"{tau} is not an actual cause for {self.answer}")
        return canonical_family(minimal_sets(contingency_conflict(self.solutions, tau)))

    def responsibility(self, tau: GroundAtom) -> Fraction:
        if tau not in self.problem.hypotheses:
            raise NotEndogenousError(f"{tau} is not an endogenous tuple")
        if tau not in self.causes():
            return Fraction(0)
        family = self.contingency_family(tau)
        return Fraction(1, 1 + min(len(g) for g in family))

    def reports(self) -> tuple[CauseReport, ...]:
        """Every cause with its family and responsibility, in canonical
        order.  A cause's family depends only on which diagnoses hold it,
        so each distinct set of diagnoses has its family computed once
        and shared by every cause in exactly those diagnoses."""
        solutions = self.solutions
        through: dict[GroundAtom, list[int]] = {}
        for i, delta in enumerate(solutions):
            for tau in delta:
                through.setdefault(tau, []).append(i)
        shared: dict[tuple[int, ...], tuple[tuple[frozenset[GroundAtom], ...], Fraction]] = {}
        out = []
        for tau in sorted(through, key=GroundAtom.sort_key):
            pattern = tuple(through[tau])
            if pattern not in shared:
                family = self.contingency_family(tau)
                shared[pattern] = family, Fraction(1, 1 + min(len(g) for g in family))
            out.append(CauseReport(tau, *shared[pattern]))
        return tuple(out)


def contingency_conflict(diagnoses: Sequence[Diagnosis], tau: GroundAtom) -> Conflict:
    """The conflict (``hitting.minimal_sets``) of the contingency sets of
    tau for an answer with these diagnoses.  Gamma is one when some
    diagnosis through tau misses it (the answer survives deleting Gamma)
    and every diagnosis avoiding tau meets it (deleting tau drops it)."""
    through = [delta for delta in diagnoses if tau in delta]
    avoiding = sorted((delta for delta in diagnoses if tau not in delta), key=len)

    def conflict(gamma: frozenset[GroundAtom]) -> Diagnosis | tuple[()] | None:
        for delta in through:
            if delta.isdisjoint(gamma):
                break
        else:
            return ()  # every diagnosis through tau is hit
        for delta in avoiding:
            if delta.isdisjoint(gamma):
                return delta
        return None

    return conflict


@lru_cache(maxsize=None)
def _analysis(instance: Instance, program: Program, answer: GroundAtom) -> CauseAnalysis:
    return CauseAnalysis(instance, program, answer)


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

