"""Actual causes, contingency sets and responsibility for monotone
queries given as Datalog programs.

Engine strategy: build the causal abduction problem of the answer once
and take its diagnoses, the minimal endogenous support sets of the
answer.  The problem runs the caller's program as it is, with the
answer atom itself as the observation: no goal rule and no Boolean
program are built per request.  ``abduction.solve_diagnoses`` computes
the diagnoses in one why-provenance pass over the answer's ground
derivation graph, not by evaluating subsets of the instance.
Everything else is read off the diagnosis family, held as bitmasks
over the hypotheses in canonical order (``abduction.Family``), and
atoms are decoded only for what is returned:

  * the causes are the relevant hypotheses (union of the diagnoses);
  * Gamma is a minimal contingency set for a cause t exactly when Gamma
    with t is a minimal deletion that drops the answer, a minimal
    hitting set of the diagnoses, so t's family is read off the
    answer's one cached search (``abduction._necessary_masks``);
  * the responsibility of a cause is 1/(1 + size of its smallest set).

View-conditioned causes (``vc``) read their families alike off the
answer's minimal deletions that keep the rest of the view, from the
same cached search; causes under constraints (``constraints``) run a
search per cause.  All share ``CauseAnalysis``.

The plain analysis of one request is cached by value
(``CauseAnalysis.for_query``), keyed by the instance's endogenous and
exogenous tuple sets, so the cache keeps no caller's ``Instance``; it
keeps the ``model.CACHE_SIZE`` analyses used last.  A
cause is a tuple; tuple labels live in the caller's ``Instance`` only,
so equal requests under other labels share one analysis and its result
objects, and each caller reads the labels through its own instance.

The brute-force subset enumeration lives in the test suite as an
independent oracle; keep it out of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .abduction import AbductionProblem, _necessary_masks, solve_diagnoses
from .errors import (
    NotACauseError,
    NotAnAnswerError,
    NotEndogenousError,
    ObservationNotEntailableError,
)
from .evaluator import holds as model_holds
from .model import CACHE_SIZE, GroundAtom, Instance, Program, decode, least_masks, positions


@dataclass(frozen=True)
class CauseReport:
    """A cause with its family of subset-minimal contingency sets and its
    exact responsibility 1/(1 + size of the smallest set)."""

    cause: GroundAtom
    minimal_contingency_sets: tuple[frozenset[GroundAtom], ...]
    responsibility: Fraction

    def is_counterfactual(self) -> bool:
        return self.responsibility == 1


def _read_off(deletions: Iterable[int], tau: int) -> list[int]:
    """The minimal contingency sets of the cause with bit tau, as masks:
    the minimal deletions that hold tau, each without tau.  Taking one
    bit out of each keeps their order, so deletions in canonical order
    give the family in canonical order."""
    return [n ^ tau for n in deletions if n & tau]


class CauseAnalysis:
    """The causes of one answer: its support sets (``masks``) and
    ``family(tau)``, the minimal contingency sets of the candidate cause
    with bit tau in canonical order.  Both are bitmasks over ``atoms``,
    numbered as ``model.bit_order`` does; a set is decoded only to be
    returned.  A candidate cause whose family comes out empty is no
    cause.  ``for_query`` gives the plain analysis of a request, with
    ``problem``, its causal abduction problem."""

    problem: AbductionProblem

    def __init__(
        self,
        answer: GroundAtom,
        masks: Sequence[int],
        atoms: tuple[GroundAtom, ...],
        hypotheses: frozenset[GroundAtom],
        family: Callable[[int], Sequence[int]],
    ):
        self.answer = answer
        self.masks = masks
        self.atoms = atoms
        self.hypotheses = hypotheses
        self.family = family

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

    @cached_property
    def _union(self) -> int:
        """The bits of the causes."""
        union = 0
        for delta in self.masks:
            union |= delta
        return union

    def causes(self) -> frozenset[GroundAtom]:
        return decode(self._union, self.atoms)

    def _decoded(
        self, bit: int, decoded: dict[tuple[int, ...], tuple[frozenset[GroundAtom], ...]]
    ) -> tuple[frozenset[GroundAtom], ...]:
        """The family of the cause with the bit, decoded once per distinct
        family: ``decoded`` maps the families already decoded, by their
        masks, to their sets."""
        masks = tuple(self.family(bit))
        family = decoded.get(masks)
        if family is None:
            family = decoded[masks] = tuple([decode(gamma, self.atoms) for gamma in masks])
        return family

    def contingency_family(self, tau: GroundAtom) -> tuple[frozenset[GroundAtom], ...]:
        """The cause's minimal contingency sets, in canonical order."""
        bit = self._bit(tau)
        if not bit & self._union:
            raise NotACauseError(f"{tau} is not an actual cause for {self.answer}")
        return self._decoded(bit, {})

    def responsibility(self, tau: GroundAtom) -> Fraction:
        """1/(1 + size of the smallest contingency set) for a cause, 0 for
        any other endogenous tuple."""
        if tau not in self.hypotheses:
            raise NotEndogenousError(f"{tau} is not an endogenous tuple")
        bit = self._bit(tau)
        if not bit & self._union:
            return Fraction(0)
        family = self.family(bit)
        return Fraction(1, 1 + family[0].bit_count()) if family else Fraction(0)

    def reports(self) -> tuple[CauseReport, ...]:
        """Every cause with its family and responsibility, in canonical
        order, each cause's family fetched by its bit.  Causes with equal
        families share one decoded family."""
        decoded: dict[tuple[int, ...], tuple[frozenset[GroundAtom], ...]] = {}
        rho: dict[int, Fraction] = {}  # the smallest set's size -> the responsibility
        out = []
        for i in reversed(positions(self._union)):  # the higher bit, the earlier atom
            family = self._decoded(1 << i, decoded)
            if family:
                size = len(family[0])
                if size not in rho:
                    rho[size] = Fraction(1, 1 + size)
                out.append(CauseReport(self.atoms[i], family, rho[size]))
        return tuple(out)


@lru_cache(maxsize=CACHE_SIZE)
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

    deletions: tuple[int, ...] | None = None

    def family(tau: int) -> list[int]:
        # the deletions are searched for on the first family asked for,
        # and looked up once per analysis
        nonlocal deletions
        if deletions is None:
            deletions = _necessary_masks(problem)
        return _read_off(deletions, tau)

    analysis = CauseAnalysis(answer, solutions.masks, solutions.atoms, problem.hypotheses, family)
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
    there are no causes.  A cause's responsibility is 1/|N| for the least
    minimal deletion N holding it, so these are the members of the
    least-size minimal deletions, which come first in the answer's search."""
    analysis = CauseAnalysis.for_query(instance, program, answer)
    union = 0
    for removed in least_masks(_necessary_masks(analysis.problem)):
        union |= removed
    return decode(union, analysis.atoms)


def cause_reports(instance: Instance, program: Program, answer: GroundAtom) -> tuple[CauseReport, ...]:
    return CauseAnalysis.for_query(instance, program, answer).reports()

