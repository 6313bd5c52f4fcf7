"""Bottom-up evaluation of positive Datalog to the minimal model.

The evaluation is semi-naive (per-predicate delta sets, joins in
textual body order).  ``_join`` is the one routine that matches a
conjunction of atoms against facts: the semi-naive rounds, the
derivation graph behind abduction's diagnoses and every integrity
constraint check go through it.  The naive reference evaluator that the
agreement tests and brute-force oracles use lives in ``tests/oracle.py``
and shares no code with this module.

Termination is guaranteed: the active domain is finite and rules are
positive, so the model can only grow and is bounded by the set of all
ground atoms over known predicates and constants.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotAnAnswerError, UnknownPredicateError
from .model import (
    Atom,
    Comparison,
    Constant,
    GroundAtom,
    Instance,
    Program,
    Rule,
    Variable,
)


class MinimalModel:
    """The least set of ground atoms closed under the program's rules.

    ``round_of`` maps each atom to the first iteration in which it was
    derived; input facts (and unconditional program facts) are round 0.
    """

    __slots__ = ("relations", "round_of")

    def __init__(self, relations: Mapping[str, frozenset[GroundAtom]], round_of: Mapping[GroundAtom, int]):
        self.relations = dict(relations)
        self.round_of = dict(round_of)

    def atoms(self) -> frozenset[GroundAtom]:
        out: set[GroundAtom] = set()
        for rel in self.relations.values():
            out |= rel
        return frozenset(out)

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self.relations.get(atom.predicate, frozenset())

    def extension(self, predicate: str) -> frozenset[GroundAtom]:
        return self.relations.get(predicate, frozenset())


def _strip_labels(atoms: Iterable[GroundAtom]) -> list[GroundAtom]:
    return [a if a.label is None else GroundAtom(a.predicate, a.args) for a in atoms]


def _match(pattern: Atom, fact: GroundAtom, binding: dict[Variable, Constant]) -> dict[Variable, Constant] | None:
    """Extend ``binding`` so that pattern matches fact, or None."""
    if len(pattern.args) != len(fact.args):
        return None
    new = binding
    copied = False
    for term, value in zip(pattern.args, fact.args):
        if isinstance(term, Constant):
            if term != value:
                return None
        else:
            bound = new.get(term)
            if bound is None:
                if not copied:
                    new = dict(new)
                    copied = True
                new[term] = value
            elif bound != value:
                return None
    return new


def _comparison_holds(cmp_: Comparison, binding: dict[Variable, Constant]) -> bool:
    left = cmp_.left if isinstance(cmp_.left, Constant) else binding[cmp_.left]
    right = cmp_.right if isinstance(cmp_.right, Constant) else binding[cmp_.right]
    return cmp_.holds(left, right)


def _instantiate(head: Atom, binding: dict[Variable, Constant]) -> GroundAtom:
    return GroundAtom(head.predicate, tuple(t if isinstance(t, Constant) else binding[t] for t in head.args))


def _comparison_plan(
    atoms: Sequence[Atom], comparisons: Sequence[Comparison], bound: Iterable[Variable]
) -> list[list[Comparison]] | None:
    """``plan[k]`` holds the comparisons whose variables are all bound
    once the first ``k`` atoms are matched; None when some comparison
    mentions a variable that nothing binds (an unsafe body)."""
    ready_at = dict.fromkeys(bound, 0)
    for k, atom in enumerate(atoms, 1):
        for term in atom.args:
            if isinstance(term, Variable):
                ready_at.setdefault(term, k)
    plan: list[list[Comparison]] = [[] for _ in range(len(atoms) + 1)]
    for cmp_ in comparisons:
        positions = [ready_at.get(v) for v in cmp_.variables()]
        if None in positions:
            return None
        plan[max(positions, default=0)].append(cmp_)
    return plan


def _join(
    atoms: Sequence[Atom],
    sources: Sequence[Iterable[GroundAtom]],
    comparisons: Sequence[Comparison] = (),
    binding: dict[Variable, Constant] | None = None,
) -> Iterator[tuple[dict[Variable, Constant], tuple[GroundAtom, ...]]]:
    """Every way of matching ``atoms[i]`` against a fact of ``sources[i]``
    that extends ``binding``, as (binding, matched facts), in textual
    atom order.  Each comparison is checked as soon as its variables are
    bound."""
    binding = binding or {}
    plan = None
    if comparisons:
        plan = _comparison_plan(atoms, comparisons, binding)
        if plan is None or not all(_comparison_holds(c, binding) for c in plan[0]):
            return
    last = len(atoms) - 1
    if last < 0:
        yield binding, ()
        return
    # depth-first over the atoms with an explicit stack of partial scans;
    # ``bindings[k]`` is the binding the first k atoms leave behind
    bindings = [binding] * (last + 1)
    matched: list = [None] * (last + 1)
    scans = [iter(sources[0])] * (last + 1)
    pos = 0
    while pos >= 0:
        pattern, current = atoms[pos], bindings[pos]
        checks = plan[pos + 1] if plan is not None else ()
        for fact in scans[pos]:
            extended = _match(pattern, fact, current)
            if extended is None or (checks and not all(_comparison_holds(c, extended) for c in checks)):
                continue
            matched[pos] = fact
            if pos == last:
                yield extended, tuple(matched)
                continue
            pos += 1
            bindings[pos] = extended
            scans[pos] = iter(sources[pos])
            break
        else:
            pos -= 1


def evaluate_fixpoint(program: Program, instance: Instance | Iterable[GroundAtom]) -> MinimalModel:
    """Least fixpoint of ``program`` over the given facts (semi-naive).

    Facts may mention intensional predicates; they simply seed the model,
    which is what the abduction-to-causality constructions rely on.
    """
    base = instance.atoms if isinstance(instance, Instance) else frozenset(instance)
    relations: dict[str, set[GroundAtom]] = {}
    round_of: dict[GroundAtom, int] = {}
    for atom in _strip_labels(base):
        relations.setdefault(atom.predicate, set()).add(atom)
        round_of[atom] = 0

    rules = []
    for rule in program.rules:
        atoms, comparisons = tuple(rule.body_atoms()), tuple(rule.comparisons())
        if atoms:
            rules.append((rule.head, atoms, comparisons))
            continue
        # no atom to carry a delta: such a rule fires once, in round 0
        for binding, _ in _join((), (), comparisons):
            fact = _instantiate(rule.head, binding)
            if fact not in round_of:
                relations.setdefault(fact.predicate, set()).add(fact)
                round_of[fact] = 0

    empty: frozenset[GroundAtom] = frozenset()
    delta: dict[str, set[GroundAtom]] = {p: set(rel) for p, rel in relations.items()}
    iteration = 0
    while delta:
        iteration += 1
        produced: set[GroundAtom] = set()
        for head, atoms, comparisons in rules:
            sources = [relations.get(a.predicate, empty) for a in atoms]
            for i, atom in enumerate(atoms):
                if atom.predicate not in delta:
                    continue
                full, sources[i] = sources[i], delta[atom.predicate]
                for binding, _ in _join(atoms, sources, comparisons):
                    produced.add(_instantiate(head, binding))
                sources[i] = full
        fresh = {a for a in produced if a not in round_of}
        delta = {}
        for atom in fresh:
            relations.setdefault(atom.predicate, set()).add(atom)
            round_of[atom] = iteration
            delta.setdefault(atom.predicate, set()).add(atom)

    frozen = {p: frozenset(rel) for p, rel in relations.items()}
    return MinimalModel(frozen, round_of)


def holds(program: Program, instance: Instance | Iterable[GroundAtom], atom: GroundAtom) -> bool:
    """True iff ``atom`` belongs to the minimal model."""
    known = program.arity_of(atom.predicate)
    base = instance.atoms if isinstance(instance, Instance) else frozenset(instance)
    if known is None and all(a.predicate != atom.predicate for a in base):
        raise UnknownPredicateError(f"predicate {atom.predicate} unknown to the program and instance")
    model = evaluate_fixpoint(program, base)
    return GroundAtom(atom.predicate, atom.args) in model


def answers(program: Program, instance: Instance | Iterable[GroundAtom]) -> frozenset[GroundAtom]:
    """Extension of the answer predicate in the minimal model; for a
    Boolean program this is a singleton or empty."""
    model = evaluate_fixpoint(program, instance)
    return model.extension(program.answer_predicate)


def answer_atom(program: Program, *symbols: str) -> GroundAtom:
    return GroundAtom(program.answer_predicate, tuple(Constant(s) for s in symbols))


_FRESH_GOAL = "goal"


def fresh_predicate(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def specialize_to_answer(program: Program, answer: GroundAtom) -> tuple[Program, GroundAtom]:
    """Turn (program, ground answer atom) into an equivalent Boolean query.

    Adds ``goal :- ans(c1, ..., cn)`` with a fresh nullary goal predicate;
    for an already-Boolean program queried on its own answer atom the
    program is returned unchanged.
    """
    if answer.predicate != program.answer_predicate:
        raise NotAnAnswerError(f"{answer} is not over the answer predicate {program.answer_predicate}")
    if program.is_boolean() and answer.arity == 0:
        return program, answer
    taken = {r.head.predicate for r in program.rules}
    taken.update(a.predicate for r in program.rules for a in r.body_atoms())
    goal = fresh_predicate(_FRESH_GOAL, taken)
    goal_rule = Rule(Atom(goal, ()), (answer.to_atom(),))
    boolean = Program(program.rules + (goal_rule,), goal)
    return boolean, GroundAtom(goal, ())
