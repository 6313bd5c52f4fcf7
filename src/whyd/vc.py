"""View-conditioned causality: causes whose interventions preserve every
other answer of the query exactly.

A contingency set here must (i) keep the target answer before the cause
is removed, (ii) lose it afterwards, and (iii) leave the rest of the
view untouched afterwards.  (i) and (ii) are the plain contingency
conditions over the support sets of the answer, and (iii), which only
gets harder to meet as the set grows, is the side condition of a
``causality.CauseAnalysis`` that prunes.  The support sets of every
answer of the view come from one provenance pass
(``abduction.support_masks``), as bitmasks over one numbering of the
deletable tuples, so the side condition tests masks; the view is the set
of its answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abduction import support_masks
from .causality import CauseAnalysis, CauseReport
from .constraints import Constraint
from .errors import NotAnAnswerError, NotConjunctiveError, NotEndogenousError
from .evaluator import answers as evaluate_answers
from .evaluator import fresh_predicate
from .model import Atom, GroundAtom, Instance, Program


@dataclass(frozen=True)
class VcCauseReport(CauseReport):
    """A view-conditioned cause; ``vc_responsibility`` reads its
    responsibility."""

    @property
    def vc_responsibility(self) -> Fraction:
        return self.responsibility

    def is_vcc_cause(self) -> bool:
        """A view-conditioned counterfactual cause has the empty set among
        its contingency sets."""
        return self.is_counterfactual()


def _analysis(
    instance: Instance, program: Program, answer: GroundAtom, protected: frozenset[GroundAtom] | None
) -> CauseAnalysis:
    """The answer's diagnoses with (iii) as the side condition: a set
    whose deletion, with the cause, loses a protected answer is pruned."""
    atoms, families = support_masks(program, instance.exogenous, instance.endogenous)
    view = families.keys()
    if answer not in view:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")
    if protected is not None and not protected <= view:
        stray = min(protected - view, key=GroundAtom.sort_key)
        raise NotAnAnswerError(f"protected atom {stray} is not an answer on this instance")
    kept = (view - {answer}) if protected is None else protected
    protected_families = [families[a] for a in kept]

    def side(gamma: int, tau: int) -> int | None:
        removed = gamma | tau
        for family in protected_families:
            if all(delta & removed for delta in family):
                return 0  # (iii): a protected answer would be lost
        return None

    return CauseAnalysis(answer, families[answer], atoms, instance.endogenous, side)


def vc_causes(
    instance: Instance,
    program: Program,
    answer: GroundAtom,
    protected: frozenset[GroundAtom] | None = None,
) -> tuple[VcCauseReport, ...]:
    """All view-conditioned causes with their minimal contingency families
    and responsibilities.  ``protected`` defaults to every other answer;
    passing a smaller set relaxes the condition accordingly."""
    reports = _analysis(instance, program, answer, protected).reports()
    return tuple(VcCauseReport(r.cause, r.minimal_contingency_sets, r.responsibility) for r in reports)


def vc_cause_exists(instance: Instance, program: Program, answer: GroundAtom) -> bool:
    """Equivalent to the view-side-effect-free deletion problem having a
    solution over the endogenous tuples."""
    return bool(vc_causes(instance, program, answer))


def vc_responsibility(
    instance: Instance, program: Program, answer: GroundAtom, tau: GroundAtom
) -> Fraction:
    if tau not in instance.endogenous:
        raise NotEndogenousError(f"{tau} is not an endogenous tuple")
    return _analysis(instance, program, answer, None).responsibility(tau)


def encode_vc_as_tgd(
    instance: Instance, program: Program, answer: GroundAtom
) -> tuple[Instance, Constraint]:
    """The reduction of view-conditioned to constrained causality for a
    conjunctive query: materialize the protected view tuples as exogenous
    facts of a fresh predicate and require, via a tgd, that each of them
    stays derivable."""
    if not program.is_single_rule_cq():
        raise NotConjunctiveError("the tgd encoding needs a single-rule conjunctive query")
    view = evaluate_answers(program, instance)
    if answer not in view:
        raise NotAnAnswerError(f"{answer} is not an answer on this instance")
    rule = program.rules[0]
    taken = {rule.head.predicate} | {a.predicate for a in rule.body_atoms()}
    taken.update(a.predicate for a in instance.atoms)
    view_predicate = fresh_predicate("view", taken)
    view_facts = [GroundAtom(view_predicate, a.args) for a in view if a != answer]
    extended = Instance(instance.endogenous, instance.exogenous | frozenset(view_facts))
    tgd = Constraint.tgd(
        body=(Atom(view_predicate, rule.head.args),),
        head_atoms=tuple(rule.body_atoms()),
    )
    return extended, tgd
