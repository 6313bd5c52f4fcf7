"""Integrity constraints and causality in their presence.

Constraints are tgds, egds (FDs/keys expand to these) and denial
constraints.  Satisfaction is first-order evaluation over the finite
instance: a tgd's existential head variables must be witnessed by facts
that are already there.  No chase, no invented values; every
intervention in this package is a deletion, and a deletion breaks only
tgds.  One scan of the instance (``satisfies``) both checks the
constraints and keeps each tgd body match with the fact sets that
witness its head, read off a join of the tgd's body and head atoms
together.  Causes under constraints are a
``causality.CauseAnalysis`` with a minimal-set search per cause whose
conflict also asks that the deletion leave no kept match without a
witness; the admissible subinstances are filtered by the same test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from .errors import (
    InstanceViolatesSigmaError,
    NotConjunctiveError,
    NotEndogenousError,
    SchemaMismatchError,
    WhydError,
)
from .abduction import Family
from .causality import CauseAnalysis, CauseReport
from .evaluator import Relation, _matches, _plan, _Plan, _seed
from .hitting import minimal_sets
from .model import Atom, Comparison, GroundAtom, Instance, Program, Term, Variable, atom_bits, bit_order, decode


@dataclass(frozen=True)
class Constraint:
    """Tagged union of tgd / egd / denial constraint."""

    kind: str  # "tgd" | "egd" | "denial"
    body: tuple[Atom, ...]
    head_atoms: tuple[Atom, ...] = ()
    equality: tuple[Term, Term] | None = None

    @staticmethod
    def tgd(body: Sequence[Atom], head_atoms: Sequence[Atom]) -> "Constraint":
        if not body or not head_atoms:
            raise WhydError("a tgd needs a nonempty body and head")
        return Constraint("tgd", tuple(body), tuple(head_atoms))

    @staticmethod
    def egd(body: Sequence[Atom], left: Term, right: Term) -> "Constraint":
        if not body:
            raise WhydError("an egd needs a nonempty body")
        body_vars = {v for a in body for v in a.variables()}
        for term in (left, right):
            if isinstance(term, Variable) and term not in body_vars:
                raise WhydError(f"egd head variable {term} does not occur in the body")
        return Constraint("egd", tuple(body), equality=(left, right))

    @staticmethod
    def denial(body: Sequence[Atom]) -> "Constraint":
        if not body:
            raise WhydError("a denial constraint needs a nonempty body")
        return Constraint("denial", tuple(body))

    @staticmethod
    def functional_dependency(
        predicate: str, determinants: Sequence[int], dependents: Sequence[int], arity: int
    ) -> tuple["Constraint", ...]:
        """``determinants -> dependents`` on 1-based positions, as egds."""
        if max((*determinants, *dependents)) > arity:
            raise SchemaMismatchError(f"dependency position exceeds arity {arity} of {predicate}")
        left = Atom(predicate, tuple(Variable(f"X{i}") for i in range(1, arity + 1)))
        right_args = [
            Variable(f"X{i}") if i in determinants else Variable(f"Y{i}") for i in range(1, arity + 1)
        ]
        right = Atom(predicate, tuple(right_args))
        out = []
        for pos in dependents:
            out.append(Constraint.egd((left, right), Variable(f"X{pos}"), Variable(f"Y{pos}")))
        return tuple(out)

    @cached_property
    def _plans(self) -> tuple[_Plan, _Plan | None]:
        """The join plans of the body (an egd's ``left != right`` pushed
        down) and, for a tgd, of its body and head atoms together, whose
        matches are the body's matches that have a witness, each followed
        by the facts of one witness."""
        comparisons = (Comparison("!=", *self.equality),) if self.kind == "egd" else ()  # type: ignore[misc]
        joint = _plan((*self.body, *self.head_atoms)) if self.kind == "tgd" else None
        return _plan(self.body, comparisons), joint

    def existential_variables(self) -> frozenset[Variable]:
        if self.kind != "tgd":
            return frozenset()
        body_vars = {v for a in self.body for v in a.variables()}
        return frozenset(v for a in self.head_atoms for v in a.variables() if v not in body_vars)

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        if self.kind == "denial":
            return f"{body} => false."
        if self.kind == "egd":
            left, right = self.equality  # type: ignore[misc]
            return f"{body} => {left} = {right}."
        head = ", ".join(str(a) for a in self.head_atoms)
        if self.head_atoms[0].predicate == "false":  # bare, it would read as a denial's head
            head = "'false'" + head[len("false") :]
        return f"{body} => {head}."


@dataclass(frozen=True)
class FunctionalDependency:
    """``determinants -> dependents`` on 1-based positions of a predicate;
    expands to egds once the arity is known."""

    predicate: str
    determinants: tuple[int, ...]
    dependents: tuple[int, ...]

    def to_egds(self, arity: int) -> tuple[Constraint, ...]:
        return Constraint.functional_dependency(self.predicate, self.determinants, self.dependents, arity)


@dataclass(frozen=True)
class KeyConstraint:
    """Key positions (1-based) of a predicate; expands to one egd per
    non-key position once the arity is known."""

    predicate: str
    positions: tuple[int, ...]

    def to_egds(self, arity: int) -> tuple[Constraint, ...]:
        if max(self.positions) > arity:
            raise SchemaMismatchError(f"key position {max(self.positions)} exceeds arity {arity} of {self.predicate}")
        dependents = tuple(i for i in range(1, arity + 1) if i not in self.positions)
        if not dependents:
            return ()
        return Constraint.functional_dependency(self.predicate, self.positions, dependents, arity)


@dataclass(frozen=True)
class ConstraintSet:
    """Parsed constraints plus key/FD declarations (keys are kept around
    for key-preservation checks; semantically both are egd sugar)."""

    constraints: tuple[Constraint, ...] = ()
    keys: tuple[KeyConstraint, ...] = ()
    fds: tuple[FunctionalDependency, ...] = ()

    def expanded(self, arities: Mapping[str, int]) -> tuple[Constraint, ...]:
        out = list(self.constraints)
        for sugar in (*self.keys, *self.fds):
            arity = arities.get(sugar.predicate)
            if arity is not None:
                out.extend(sugar.to_egds(arity))
        return tuple(out)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)


Sigma = Union[ConstraintSet, Iterable[Constraint]]


def _constraints(sigma: Sigma, instance: Instance) -> tuple[Constraint, ...]:
    """The constraints, keys and FDs expanded to egds by the instance's
    arities, each constraint atom checked against those met before it."""
    arities: dict[str, int] = {}
    for atom in instance.atoms:
        arities.setdefault(atom.predicate, len(atom.args))
    constraints = sigma.expanded(arities) if isinstance(sigma, ConstraintSet) else tuple(sigma)
    for c in constraints:
        for atom in (*c.body, *c.head_atoms):
            known = arities.setdefault(atom.predicate, atom.arity)
            if known != atom.arity:
                raise SchemaMismatchError(
                    f"{atom.predicate} used with arity {atom.arity} in {c} but {known} elsewhere"
                )
    return constraints


@dataclass(frozen=True)
class Violation:
    constraint: Constraint
    witness: tuple[GroundAtom, ...]

    def __str__(self) -> str:
        facts = ", ".join(str(a) for a in sorted(self.witness, key=GroundAtom.sort_key))
        return f"{self.constraint} violated by {{{facts}}}"


_TgdMatch = tuple[frozenset[GroundAtom], tuple[frozenset[GroundAtom], ...]]


@dataclass(frozen=True)
class SatisfactionReport:
    """Whether the instance satisfies the constraints, with the violations
    in canonical order.  ``matches`` keeps each tgd body match with the
    fact sets that witness its head, for the deletion tests; it takes no
    part in the report's value."""

    ok: bool
    violations: tuple[Violation, ...] = ()
    matches: tuple[_TgdMatch, ...] = field(default=(), compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.ok


# a set of tuples: a frozenset of atoms, or a bitmask over one numbering
_Set = TypeVar("_Set", frozenset, int)


def _unwitnessed(matches: Iterable[tuple[_Set, Sequence[_Set]]], removed: _Set) -> _Set | None:
    """The first kept tgd body match that deleting ``removed`` leaves in
    place with every head witness gone, or None.  Deletions break only
    tgds, so the instance minus ``removed`` satisfies the constraints the
    instance satisfies iff there is none."""
    for match, witnesses in matches:
        if not match & removed and all(w & removed for w in witnesses):
            return match
    return None


def satisfies(instance: Instance, sigma: Sigma) -> SatisfactionReport:
    """Evaluate every constraint over the finite instance; tgd
    existentials range over existing facts only.  One pass over the
    instance checks the arities, finds the violations and keeps each tgd
    body match with the fact sets that witness its head, read off the
    matches of the tgd's body and head joined together.  A denial is
    violated by every body match, an egd by every body match whose two
    sides differ, a tgd by every body match with no witness."""
    constraints = _constraints(sigma, instance)
    ids, relations = _seed(instance.atoms)
    atoms = ids.atoms
    empty = Relation(atoms, ())
    violations: list[Violation] = []
    matches: list[_TgdMatch] = []
    for c in constraints:
        body_plan, joint_plan = c._plans
        sources = [relations.get(a.predicate, empty) for a in (*c.body, *c.head_atoms)]
        if joint_plan is None:
            violations += [Violation(c, match) for match in _matches(body_plan, atoms, sources)]
            continue
        # each body match with a witness -> its witnesses, each once
        witnessed: dict[tuple[GroundAtom, ...], dict[frozenset[GroundAtom], None]] = {}
        width = len(c.body)
        for joint in _matches(joint_plan, atoms, sources):
            witnessed.setdefault(joint[:width], {})[frozenset(joint[width:])] = None
        for match in _matches(body_plan, atoms, sources):
            witnesses = tuple(witnessed.get(match, ()))
            if not witnesses:
                violations.append(Violation(c, match))
            matches.append((frozenset(match), witnesses))
    violations.sort(key=lambda v: (str(v.constraint), tuple(a.sort_key() for a in v.witness)))
    return SatisfactionReport(not violations, tuple(violations), tuple(matches))


def _checked_scan(instance: Instance, sigma: Sigma) -> tuple[_TgdMatch, ...]:
    """The tgd body matches of ``satisfies``; an instance that violates
    the constraints raises ``InstanceViolatesSigmaError``."""
    check = satisfies(instance, sigma)
    if not check:
        raise InstanceViolatesSigmaError(str(check.violations[0]))
    return check.matches


# ---------------------------------------------------------------------------
# Causes under integrity constraints


@dataclass(frozen=True)
class ConstrainedCauseReport(CauseReport):
    """A cause under the constraints; ``responsibility_under_ics`` reads
    its responsibility."""

    @property
    def responsibility_under_ics(self) -> Fraction:
        return self.responsibility


class _ConstrainedAnalysis(CauseAnalysis):
    """The answer's diagnoses, each cause's family from a search of its
    own: deleting Gamma keeps the answer, deleting the cause too drops
    it, and neither deletion leaves a tgd body match without a head
    witness, which only deleting a tuple of the match cures, so its
    endogenous tuples other than the cause are the conflict.  The
    minimal deletions cannot express a test of Gamma alone, so no family
    is read off them.

    A deleted set holds diagnosis tuples and endogenous match tuples
    only, so those are numbered (``model.bit_order``), the diagnoses
    renumbered over them if there are more; a match with a witness that
    holds none of them never loses that witness, so it is dropped."""

    report = ConstrainedCauseReport

    def __init__(self, instance: Instance, program: Program, answer: GroundAtom, sigma: Sigma):
        matches = _checked_scan(instance, sigma)
        plain = CauseAnalysis.for_query(instance, program, answer)
        solutions = plain.solutions
        extra = {a for match, _ in matches for a in match} & instance.endogenous
        if not extra.issubset(solutions.atoms):
            atoms = bit_order(extra.union(solutions.atoms))
            bits = atom_bits(atoms)
            solutions = Family(solutions)  # the same sets, over the new numbering
            solutions.masks = tuple([sum(bits[a] for a in delta) for delta in solutions])
            solutions.atoms = atoms
        super().__init__(answer, solutions, plain.hypotheses)
        bits = atom_bits(self.atoms)
        self.kept = []  # the kept matches, with their witnesses, as masks
        for match, witnesses in matches:
            held = [sum(bits.get(a, 0) for a in w) for w in witnesses]
            if all(held):
                self.kept.append((sum(bits.get(a, 0) for a in match), held))

    def _family(self, tau: int) -> list[int]:
        through = [delta for delta in self.masks if delta & tau]
        avoiding = sorted((delta for delta in self.masks if not delta & tau), key=int.bit_count)

        def conflict(gamma: int) -> int | None:
            for delta in through:
                if not delta & gamma:
                    break
            else:
                return 0  # every diagnosis through tau is hit
            for delta in avoiding:
                if not delta & gamma:
                    return delta
            for removed in (gamma, gamma | tau):
                match = _unwitnessed(self.kept, removed)
                if match is not None:
                    return match & ~tau
            return None

        return minimal_sets(conflict)


def causes_under_ics(
    instance: Instance, program: Program, answer: GroundAtom, sigma: Sigma
) -> tuple[ConstrainedCauseReport, ...]:
    """Actual causes whose contingency sets keep the constraints satisfied
    both before and after the cause itself is removed."""
    return _ConstrainedAnalysis(instance, program, answer, sigma).reports()  # type: ignore[return-value]


def responsibility_under_ics(
    instance: Instance, program: Program, answer: GroundAtom, tau: GroundAtom, sigma: Sigma
) -> Fraction:
    if tau not in instance.endogenous:
        raise NotEndogenousError(f"{tau} is not an endogenous tuple")
    return _ConstrainedAnalysis(instance, program, answer, sigma).responsibility(tau)


def maximal_admissible_subinstances(
    instance: Instance, program: Program, answer: GroundAtom, sigma: Sigma
) -> tuple[Instance, ...]:
    """Maximal subinstances that drop the answer, filtered to those that
    still satisfy the constraints (the abductive route to causes under
    constraints).  The candidates are the answer's minimal deletions over
    every tuple, its one cached search; each is tested against the tgd
    body matches kept from one scan of the instance, with no join of its
    own."""
    matches = _checked_scan(instance, sigma)
    analysis = CauseAnalysis.for_query(instance.all_endogenous(), program, answer)
    deletions = [decode(removed, analysis.atoms) for removed in analysis.deletions]
    admissible = [instance.without(removed) for removed in deletions if _unwitnessed(matches, removed) is None]
    admissible.sort(key=lambda inst: tuple(sorted(a.sort_key() for a in inst.atoms)))
    return tuple(admissible)


def is_key_preserving(program: Program, keys: Iterable[KeyConstraint]) -> bool:
    """Syntactic check: every key position of every body atom is filled by
    a constant or a variable that also appears in the head."""
    if not program.is_single_rule_cq():
        raise NotConjunctiveError("key preservation is defined for single-rule conjunctive queries")
    rule = program.rules[0]
    head_vars = rule.head.variables()
    by_predicate: dict[str, list[KeyConstraint]] = {}
    for key in keys:
        by_predicate.setdefault(key.predicate, []).append(key)
    for atom in rule.body_atoms():
        for key in by_predicate.get(atom.predicate, ()):
            if max(key.positions) > atom.arity:
                raise SchemaMismatchError(
                    f"key position {max(key.positions)} exceeds arity {atom.arity} of {atom.predicate}"
                )
            for position in key.positions:
                term = atom.args[position - 1]
                if isinstance(term, Variable) and term not in head_vars:
                    return False
    return True
