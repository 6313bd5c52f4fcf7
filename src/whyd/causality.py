"""Actual causes, contingency sets and responsibility for monotone
queries given as Datalog programs.

Engine strategy: build the causal abduction problem of the answer once
and take its diagnoses, the minimal endogenous support sets of the
answer.  The problem runs the caller's program as it is, with the
answer atom itself as the observation: no goal rule and no Boolean
program are built per request.  ``abduction.solve_diagnoses`` computes
the diagnoses in one why-provenance pass over the answer's ground
derivation graph, not by evaluating subsets of the instance.
Everything else is read off the diagnosis family, held as the bitmasks
the solve keeps over the hypotheses in canonical order
(``abduction.Family``), and atoms are decoded only for what is
returned:

  * the causes are the relevant hypotheses (union of the diagnoses);
  * a contingency set for a cause t must hit every diagnosis avoiding t
    while leaving some diagnosis through t intact.  These conditions are
    stated once, in ``CauseAnalysis._contingency_masks``, as the conflict
    of a search for minimal sets (``hitting.minimal_sets``), whose
    output order is the canonical order of the sets;
  * the responsibility of a cause is 1/(1 + size of its smallest set),
    the popcount of the family's first mask.

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
one, read them from ``abduction.support_masks`` instead.

The brute-force subset enumeration lives in the test suite as an
independent oracle; keep it out of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .abduction import AbductionProblem, solve_diagnoses
from .errors import (
    NotACauseError,
    NotAnAnswerError,
    NotEndogenousError,
    ObservationNotEntailableError,
)
from .evaluator import holds as model_holds
from .hitting import minimal_sets
from .model import GroundAtom, Instance, Program, decode, positions


@dataclass(frozen=True)
class CauseReport:
    """A cause with its family of subset-minimal contingency sets and its
    exact responsibility 1/(1 + size of the smallest set)."""

    cause: GroundAtom
    minimal_contingency_sets: tuple[frozenset[GroundAtom], ...]
    responsibility: Fraction

    def is_counterfactual(self) -> bool:
        return self.responsibility == 1


SideCondition = Callable[[int, int], Optional[int]]


class CauseAnalysis:
    """The causes of one answer, read off its diagnoses, with an optional
    side condition ``side(gamma, tau)`` on the contingency sets: one more
    conflict for the search (``hitting.minimal_sets``), checked after
    the plain ones.  The diagnoses, the contingency sets and the side
    condition's arguments and conflicts are bitmasks over ``atoms``,
    numbered as ``model.bit_order`` does; a set is decoded only to be
    returned.  A candidate cause whose family comes
    out empty is no cause under it.  ``for_query`` gives the plain
    analysis of a request, with ``problem``, its causal abduction
    problem."""

    problem: AbductionProblem

    def __init__(
        self,
        answer: GroundAtom,
        masks: Sequence[int],
        atoms: tuple[GroundAtom, ...],
        hypotheses: frozenset[GroundAtom],
        side: SideCondition | None = None,
    ):
        self.answer = answer
        self.masks = masks
        self.atoms = atoms
        self.hypotheses = hypotheses
        self.side = side

    @staticmethod
    def for_query(instance: Instance, program: Program, answer: GroundAtom) -> "CauseAnalysis":
        """The plain analysis of a request, cached by value
        (``cache_info``, ``cache_clear``).  An atom of another predicate or
        arity than the answer predicate's raises ``NotAnAnswerError``."""
        return _analysis(instance.endogenous, instance.exogenous, program, answer)

    def _bit(self, tau: GroundAtom) -> int:
        """The tuple's bit, 0 for one outside the numbering."""
        try:
            return 1 << self.atoms.index(tau)
        except ValueError:
            return 0

    def _union(self) -> int:
        union = 0
        for delta in self.masks:
            union |= delta
        return union

    def causes(self) -> frozenset[GroundAtom]:
        return decode(self._union(), self.atoms)

    def _contingency_masks(self, tau: int) -> list[int]:
        """The minimal sets Gamma, as masks, such that some diagnosis
        through tau (a bit) misses Gamma (the answer survives deleting
        Gamma), every diagnosis avoiding tau meets it (deleting tau as
        well drops the answer), and the side condition holds; in
        canonical order."""
        through = [delta for delta in self.masks if delta & tau]
        avoiding = sorted((delta for delta in self.masks if not delta & tau), key=int.bit_count)
        side = self.side

        def conflict(gamma: int) -> int | None:
            for delta in through:
                if not delta & gamma:
                    break
            else:
                return 0  # every diagnosis through tau is hit
            for delta in avoiding:
                if not delta & gamma:
                    return delta
            return None if side is None else side(gamma, tau)

        return minimal_sets(conflict)

    def contingency_family(self, tau: GroundAtom) -> tuple[frozenset[GroundAtom], ...]:
        """The cause's minimal contingency sets, in canonical order."""
        bit = self._bit(tau)
        if not bit & self._union():
            raise NotACauseError(f"{tau} is not an actual cause for {self.answer}")
        return tuple([decode(gamma, self.atoms) for gamma in self._contingency_masks(bit)])

    def responsibility(self, tau: GroundAtom) -> Fraction:
        """1/(1 + size of the smallest contingency set) for a cause, 0 for
        any other endogenous tuple."""
        if tau not in self.hypotheses:
            raise NotEndogenousError(f"{tau} is not an endogenous tuple")
        bit = self._bit(tau)
        if not bit & self._union():
            return Fraction(0)
        family = self._contingency_masks(bit)
        return Fraction(1, 1 + family[0].bit_count()) if family else Fraction(0)

    def reports(self) -> tuple[CauseReport, ...]:
        """Every cause with its family and responsibility, in canonical
        order.  Without a side condition a cause's family depends only on
        which diagnoses hold it, so each distinct set of diagnoses has its
        family computed once and shared by every cause in exactly those
        diagnoses."""
        through: dict[int, int] = {}  # a cause's bit -> the diagnoses holding it, bit i: the i-th
        for i, delta in enumerate(self.masks):
            for bit in positions(delta):
                through[bit] = through.get(bit, 0) | 1 << i
        shared: dict[int, tuple[tuple[frozenset[GroundAtom], ...], Fraction]] = {}
        out = []
        for bit in sorted(through, reverse=True):  # the higher bit, the earlier atom
            tau = self.atoms[bit]
            key = through[bit] if self.side is None else bit
            if key not in shared:
                family = self.contingency_family(tau)
                shared[key] = family, Fraction(1, 1 + len(family[0])) if family else Fraction(0)
            family, rho = shared[key]
            if family:
                out.append(CauseReport(tau, family, rho))
        return tuple(out)


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
    solutions = solve_diagnoses(problem)
    analysis = CauseAnalysis(answer, solutions.masks, solutions.atoms, problem.hypotheses)
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

