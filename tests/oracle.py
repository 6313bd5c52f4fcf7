"""Brute-force oracles: definition-level subset enumeration.

Everything here is computed from scratch against ``naive_fixpoint``, the
naive reference evaluator defined below, with no use of whyd's join,
diagnosis or hitting-set machinery, so agreement with the engine is a
genuine cross-check.  Exponential on purpose; only call it on small
inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable

from whyd.constraints import Constraint
from whyd.model import Atom, Comparison, Constant, GroundAtom, Instance, Program, Rule, Variable


# -- naive reference evaluation ------------------------------------------------


def _value(term, assignment: dict[Variable, Constant]) -> Constant:
    return term if isinstance(term, Constant) else assignment[term]


def _holds(comparison: Comparison, assignment: dict[Variable, Constant]) -> bool:
    equal = _value(comparison.left, assignment) == _value(comparison.right, assignment)
    return equal if comparison.op == "=" else not equal


def _extend(pattern: Atom, fact: GroundAtom, assignment: dict[Variable, Constant]):
    """A copy of ``assignment`` under which pattern matches fact, or None."""
    if len(pattern.args) != len(fact.args):
        return None
    out = dict(assignment)
    for term, value in zip(pattern.args, fact.args):
        if isinstance(term, Constant):
            if term != value:
                return None
        elif out.setdefault(term, value) != value:
            return None
    return out


def _derive(rule: Rule, by_pred: dict[str, list[GroundAtom]]) -> Iterable[GroundAtom]:
    """Every head instance of ``rule``: the body atoms are matched level
    by level against the full relations, the comparisons checked last."""
    assignments: list[dict[Variable, Constant]] = [{}]
    for pattern in rule.body:
        if isinstance(pattern, Atom):
            assignments = [
                extended
                for assignment in assignments
                for fact in by_pred.get(pattern.predicate, ())
                if (extended := _extend(pattern, fact, assignment)) is not None
            ]
    comparisons = [c for c in rule.body if isinstance(c, Comparison)]
    for assignment in assignments:
        if all(_holds(c, assignment) for c in comparisons):
            yield GroundAtom(rule.head.predicate, tuple(_value(t, assignment) for t in rule.head.args))


def naive_fixpoint(program: Program, facts: Iterable[GroundAtom]) -> frozenset[GroundAtom]:
    """Reference evaluation: apply every rule to the full model until
    nothing new appears."""
    model = {GroundAtom(a.predicate, a.args) for a in facts}
    while True:
        by_pred: dict[str, list[GroundAtom]] = {}
        for atom in model:
            by_pred.setdefault(atom.predicate, []).append(atom)
        fresh = {head for rule in program.rules for head in _derive(rule, by_pred)} - model
        if not fresh:
            return frozenset(model)
        model |= fresh


def join_matches(atoms, sources, comparisons=(), binding=None) -> list[tuple[dict, tuple[GroundAtom, ...]]]:
    """Every (binding, matched facts) of the conjunction: each choice of
    one fact from ``sources[i]`` for every ``atoms[i]``, kept when the
    atoms match their facts under one binding extending ``binding`` and
    every comparison holds under it."""
    out = []
    for facts in product(*sources):
        assignment = dict(binding or {})
        for pattern, fact in zip(atoms, facts):
            assignment = _extend(pattern, fact, assignment)
            if assignment is None:
                break
        else:
            if all(_holds(c, assignment) for c in comparisons):
                out.append((assignment, tuple(facts)))
    return out


# -- definition-level oracles ---------------------------------------------------


def _subsets(items: list) -> Iterable[frozenset]:
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


def _minimal(sets: Iterable[frozenset]) -> list[frozenset]:
    pool = sorted(set(sets), key=len)
    out: list[frozenset] = []
    for cand in pool:
        if not any(prev < cand for prev in out):
            out.append(cand)
    return out


class Sweep:
    """Answer sets for every subset of the deletable atoms, evaluated
    naively once per subset."""

    def __init__(self, program: Program, fixed: Iterable[GroundAtom], deletable: Iterable[GroundAtom]):
        self.program = program
        self.fixed = frozenset(fixed)
        self.deletable = sorted(frozenset(deletable), key=GroundAtom.sort_key)
        self._answers: dict[frozenset, frozenset] = {}
        for removed in _subsets(self.deletable):
            model = naive_fixpoint(program, self.fixed | (frozenset(self.deletable) - removed))
            self._answers[removed] = frozenset(
                a for a in model if a.predicate == program.answer_predicate
            )

    def answers(self, removed: frozenset = frozenset()) -> frozenset:
        return self._answers[frozenset(GroundAtom(a.predicate, a.args) for a in removed)]

    def holds(self, answer: GroundAtom, removed: frozenset = frozenset()) -> bool:
        return GroundAtom(answer.predicate, answer.args) in self.answers(removed)


def causes(sweep: Sweep, answer: GroundAtom) -> frozenset[GroundAtom]:
    found = set()
    for tau in sweep.deletable:
        others = [a for a in sweep.deletable if a != tau]
        for gamma in _subsets(others):
            if sweep.holds(answer, gamma) and not sweep.holds(answer, gamma | {tau}):
                found.add(tau)
                break
    return frozenset(found)


def contingency_family(sweep: Sweep, answer: GroundAtom, tau: GroundAtom) -> list[frozenset]:
    others = [a for a in sweep.deletable if a != tau]
    valid = [
        gamma
        for gamma in _subsets(others)
        if sweep.holds(answer, gamma) and not sweep.holds(answer, gamma | {tau})
    ]
    return _minimal(valid)


def responsibility(sweep: Sweep, answer: GroundAtom, tau: GroundAtom) -> Fraction:
    family = contingency_family(sweep, answer, tau)
    if not family:
        return Fraction(0)
    return Fraction(1, 1 + min(len(g) for g in family))


def most_responsible_causes(sweep: Sweep, answer: GroundAtom) -> frozenset[GroundAtom]:
    rhos = {tau: responsibility(sweep, answer, tau) for tau in sweep.deletable}
    best = max(rhos.values(), default=Fraction(0))
    if best == 0:
        return frozenset()
    return frozenset(t for t, r in rhos.items() if r == best)


def minimal_deletions(sweep: Sweep, answer: GroundAtom) -> list[frozenset]:
    """Subset-minimal deletion sets dropping the answer."""
    valid = [removed for removed in _subsets(sweep.deletable) if not sweep.holds(answer, removed)]
    return _minimal(valid)


def vsef(sweep: Sweep, answer: GroundAtom) -> list[frozenset]:
    """Subset-minimal deletion sets removing exactly the answer."""
    target = sweep.answers() - {GroundAtom(answer.predicate, answer.args)}
    valid = [removed for removed in _subsets(sweep.deletable) if sweep.answers(removed) == target]
    return _minimal(valid)


def vc_cause_reports(sweep: Sweep, answer: GroundAtom) -> dict[GroundAtom, list[frozenset]]:
    """Per vc-cause, the subset-minimal contingency sets meeting all three
    view conditions."""
    view = sweep.answers()
    protected = view - {GroundAtom(answer.predicate, answer.args)}
    out: dict[GroundAtom, list[frozenset]] = {}
    for tau in sweep.deletable:
        others = [a for a in sweep.deletable if a != tau]
        valid = []
        for gamma in _subsets(others):
            if (
                sweep.holds(answer, gamma)
                and not sweep.holds(answer, gamma | {tau})
                and sweep.answers(gamma | {tau}) == protected
            ):
                valid.append(gamma)
        family = _minimal(valid)
        if family:
            out[tau] = family
    return out


# -- independent constraint satisfaction -------------------------------------


def _bindings(atoms: tuple[Atom, ...], facts: frozenset[GroundAtom]):
    """All assignments of facts to the pattern conjunction, by raw product."""
    pools = []
    for pattern in atoms:
        pools.append([f for f in facts if f.predicate == pattern.predicate and f.arity == pattern.arity])
    for chosen in product(*pools):
        assignment: dict[Variable, Constant] = {}
        ok = True
        for pattern, fact in zip(atoms, chosen):
            for term, value in zip(pattern.args, fact.args):
                if isinstance(term, Constant):
                    if term != value:
                        ok = False
                        break
                elif assignment.setdefault(term, value) != value:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield assignment


def constraint_holds(constraint: Constraint, facts: frozenset[GroundAtom]) -> bool:
    stripped = frozenset(GroundAtom(a.predicate, a.args) for a in facts)
    for assignment in _bindings(constraint.body, stripped):
        if constraint.kind == "denial":
            return False
        if constraint.kind == "egd":
            left, right = constraint.equality
            lval = left if isinstance(left, Constant) else assignment[left]
            rval = right if isinstance(right, Constant) else assignment[right]
            if lval != rval:
                return False
        else:
            witnessed = False
            for extension in _bindings(constraint.head_atoms, stripped):
                # variables shared with the body must take the body's values
                if all(extension[v] == assignment[v] for v in extension if v in assignment):
                    witnessed = True
                    break
            if not witnessed:
                return False
    return True


def sigma_holds(sigma: Iterable[Constraint], facts: frozenset[GroundAtom]) -> bool:
    return all(constraint_holds(c, facts) for c in sigma)


def causes_under_sigma(
    sweep: Sweep, answer: GroundAtom, sigma: Iterable[Constraint]
) -> dict[GroundAtom, list[frozenset]]:
    """Per constrained cause, its subset-minimal contingency sets."""
    sigma = list(sigma)
    base = sweep.fixed | frozenset(sweep.deletable)
    out: dict[GroundAtom, list[frozenset]] = {}
    for tau in sweep.deletable:
        others = [a for a in sweep.deletable if a != tau]
        valid = []
        for gamma in _subsets(others):
            if not sweep.holds(answer, gamma):
                continue
            if sweep.holds(answer, gamma | {tau}):
                continue
            if not sigma_holds(sigma, base - gamma):
                continue
            if not sigma_holds(sigma, base - gamma - {tau}):
                continue
            valid.append(gamma)
        family = _minimal(valid)
        if family:
            out[tau] = family
    return out


# -- abduction oracles --------------------------------------------------------


def diagnoses(program: Program, extensional, hypotheses, observation) -> list[frozenset]:
    extensional = frozenset(extensional)
    hyps = sorted(frozenset(hypotheses), key=GroundAtom.sort_key)
    goals = [GroundAtom(o.predicate, o.args) for o in observation]
    valid = []
    for delta in _subsets(hyps):
        model = naive_fixpoint(program, extensional | delta)
        if all(g in model for g in goals):
            valid.append(delta)
    return _minimal(valid)


def necessary_sets(program: Program, extensional, hypotheses, observation) -> list[frozenset]:
    """Subset-minimal N with no diagnosis left after removing N from the
    hypotheses; checked directly against the definition."""
    extensional = frozenset(extensional)
    hyps = frozenset(hypotheses)
    goals = [GroundAtom(o.predicate, o.args) for o in observation]
    valid = []
    for removed in _subsets(sorted(hyps, key=GroundAtom.sort_key)):
        model = naive_fixpoint(program, extensional | (hyps - removed))
        if not all(g in model for g in goals):
            valid.append(removed)
    return _minimal(valid)


def necessity_degree(program: Program, extensional, hypotheses, observation, h: GroundAtom) -> Fraction:
    sizes = [len(n) for n in necessary_sets(program, extensional, hypotheses, observation) if h in n]
    return Fraction(1, min(sizes)) if sizes else Fraction(0)


# -- propositional Horn abduction oracle --------------------------------------


def horn_closure(rules, facts: frozenset[str]) -> frozenset[str]:
    known = set(facts) | {h for h, body in rules if not body}
    grew = True
    while grew:
        grew = False
        for head, body in rules:
            if head not in known and all(b in known for b in body):
                known.add(head)
                grew = True
    return frozenset(known)


def phca_diagnoses(rules, hypotheses: frozenset[str], observations) -> list[frozenset]:
    valid = [
        delta
        for delta in _subsets(sorted(hypotheses))
        if set(observations) <= horn_closure(rules, frozenset(delta))
    ]
    return _minimal(valid)


def phca_relevant(rules, hypotheses: frozenset[str], observations) -> frozenset[str]:
    out: set[str] = set()
    for delta in phca_diagnoses(rules, hypotheses, observations):
        out |= delta
    return frozenset(out)


def instance_sweep(program: Program, instance: Instance, *, everything_deletable: bool = False) -> Sweep:
    if everything_deletable:
        return Sweep(program, frozenset(), instance.atoms)
    return Sweep(program, instance.exogenous, instance.endogenous)
