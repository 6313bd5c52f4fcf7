"""Bottom-up evaluation of positive Datalog to the minimal model.

The evaluation is semi-naive, and it runs over a list of worlds (fact
sets) at once: each atom carries the bitmask of the worlds whose model
holds it, and a round's delta is the atoms whose mask grew (per
predicate; in the first round every fact is new, so each rule is joined
once over the full relations).  ``evaluate_fixpoint`` is the one-world
case; ``evaluate_worlds`` serves callers that need many related models,
such as abduction's check of every candidate set; the one-world pass
also records the model's derivation graph (``MinimalModel.firings``),
behind abduction's diagnoses.  ``_join`` is the one routine that
matches a conjunction of atoms against facts: the semi-naive rounds and
every integrity constraint check go through it.  It follows a plan
compiled once per rule or constraint (``_plan``): the delta atom first,
then greedily the atom with the most bound positions.  A step whose
positions are partly bound probes a hash index of its relation on them
(``Relation``); the first step of a plan with nothing bound scans.
Each step is compiled once with what ``_match`` must still check of a
fact it reads (arity, constants a scan has not filtered, positions a
repeated variable must agree on) and the positions that bind, and each
rule head with a template for ``_instantiate``.  The naive reference
evaluator that the agreement tests and brute-force
oracles use lives in ``tests/oracle.py`` and shares no code with this
module.

Termination is guaranteed: the active domain is finite and rules are
positive, so the masks can only grow and the model is bounded by the
set of all ground atoms over known predicates and constants.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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


Firings = dict[GroundAtom, list[tuple[GroundAtom, ...]]]


class MinimalModel:
    """The least set of ground atoms closed under the program's rules.

    ``firings`` is its ground derivation graph: each head, seeded or not,
    maps to the bodies (facts in textual atom order, ``()`` for a rule
    without atoms) of the rule instances that fire in the model; a body
    may be listed twice.
    """

    __slots__ = ("relations", "firings")

    def __init__(self, relations: Mapping[str, frozenset[GroundAtom]], firings: Firings):
        self.relations = dict(relations)
        self.firings = firings

    def atoms(self) -> frozenset[GroundAtom]:
        out: set[GroundAtom] = set()
        for rel in self.relations.values():
            out |= rel
        return frozenset(out)

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self.relations.get(atom.predicate, frozenset())

    def extension(self, predicate: str) -> frozenset[GroundAtom]:
        return self.relations.get(predicate, frozenset())


Key = tuple[str, ...]


class Relation:
    """The facts of one relation and the hash indexes built on them so far.

    ``index(arity, positions)`` maps the symbols at ``positions`` to the
    facts of that arity that carry them (symbols hash and compare faster
    than constants); facts of another arity can never match an atom of
    this arity and are left out.  An index is built on first use and kept
    current by ``update``, so it is built at most once per relation.
    Relations are scratch data of one join pass (a fixpoint or a
    constraint check): keep none longer.
    """

    __slots__ = ("facts", "_indexes")

    def __init__(self, facts: Collection[GroundAtom]):
        self.facts = facts
        self._indexes: dict[tuple[int, tuple[int, ...]], dict[Key, list[GroundAtom]]] = {}

    def index(self, arity: int, positions: tuple[int, ...]) -> dict[Key, list[GroundAtom]]:
        index = self._indexes.get((arity, positions))
        if index is None:
            index = self._indexes[arity, positions] = {}
            for fact in self.facts:
                args = fact.args
                if len(args) == arity:
                    key = tuple([args[p].symbol for p in positions])
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [fact]
                    else:
                        bucket.append(fact)
        return index

    def update(self, fresh: Collection[GroundAtom]) -> None:
        """Add facts not yet held to the facts, which must be a set, and
        to every index built so far."""
        self.facts.update(fresh)  # type: ignore[attr-defined]
        for (arity, positions), index in self._indexes.items():
            for fact in fresh:
                args = fact.args
                if len(args) == arity:
                    index.setdefault(tuple([args[p].symbol for p in positions]), []).append(fact)


class _Step:
    """One atom of a plan, compiled for ``_match``: its textual position
    and arity; the argument positions a probe looks it up on (none: the
    step scans its relation) with the constant's symbol or the bound
    variable at each; the constants a scan must still check, as
    (position, symbol); the later positions where a variable the step
    binds repeats, as (first position, later position); the
    (position, variable) pairs that bind; and the comparisons that
    become checkable once it is matched.

    A probe's facts have the step's arity and agree with its key, so a
    probe checks only repeated variables.  A scan step binds every
    variable it mentions: the planner probes any step after the first,
    and the first whenever the initial binding binds one of its
    variables."""

    __slots__ = ("atom", "arity", "key", "key_terms", "constants", "repeats", "binds", "checks")

    def __init__(self, atom: int, args: Sequence[Constant | Variable], key: tuple[int, ...], key_terms: tuple):
        self.atom = atom
        self.arity = len(args)
        self.key = key
        self.key_terms: tuple[str | Variable, ...] = key_terms
        self.constants: tuple[tuple[int, str], ...] = ()
        if not key:
            self.constants = tuple((p, t.symbol) for p, t in enumerate(args) if t.__class__ is Constant)
        bound = {v for v in key_terms if v.__class__ is Variable}
        first: dict[Variable, int] = {}
        repeats = []
        for p, t in enumerate(args):
            if t.__class__ is Variable and t not in bound:
                if t in first:
                    repeats.append((first[t], p))
                else:
                    first[t] = p
        self.repeats: tuple[tuple[int, int], ...] = tuple(repeats)
        self.binds: tuple[tuple[int, Variable], ...] = tuple((p, v) for v, p in first.items())
        self.checks: tuple[Comparison, ...] = ()


class _Plan:
    """A conjunction compiled for ``_join``: the steps in matching order,
    the comparisons checkable before any atom is matched, and whether
    every comparison ever is."""

    __slots__ = ("steps", "pre_checks", "safe")

    def __init__(self, steps, pre_checks, safe):
        self.steps: tuple[_Step, ...] = steps
        self.pre_checks: tuple[Comparison, ...] = pre_checks
        self.safe: bool = safe


def _plan(
    atoms: Sequence[Atom],
    comparisons: Sequence[Comparison] = (),
    first: int | None = None,
    bound: Iterable[Variable] = (),
) -> _Plan:
    """Compile the conjunction of ``atoms`` and ``comparisons`` for
    matching with the variables ``bound`` already bound: ``atoms[first]``
    (the delta of a semi-naive round) is matched first, then each time
    the atom with the most bound positions, textual order breaking ties.
    A step probes an index on its bound positions; it scans when it has
    none, and when it is the first step and the initial binding binds
    none of its variables."""
    # variables by name: names are interned strings, which hash and
    # compare much faster than Variable objects
    known = {v.name for v in bound}
    ready = dict.fromkeys(known, -1)
    names = [[None if isinstance(t, Constant) else t.name for t in a.args] for a in atoms]
    todo = list(range(len(atoms)))
    steps: list[_Step] = []
    while todo:
        if first is not None and not steps:
            i = first
        else:
            most = -1
            for j in todo:  # ascending, so ties go to the textual first
                count = sum(1 for n in names[j] if n is None or n in known)
                if count > most:
                    most, i = count, j
        todo.remove(i)
        args = atoms[i].args
        key, key_terms, probe = [], [], bool(steps)
        for p, n in enumerate(names[i]):
            if n is None:
                key.append(p)
                key_terms.append(args[p].symbol)
            elif n in known:
                key.append(p)
                key_terms.append(args[p])
                probe = True
        steps.append(_Step(i, args, tuple(key), tuple(key_terms)) if probe else _Step(i, args, (), ()))
        for n in names[i]:
            if n is not None and n not in known:
                known.add(n)
                ready[n] = len(steps) - 1

    checks: list[list[Comparison]] = [[] for _ in range(len(steps) + 1)]
    safe = True
    for cmp_ in comparisons:
        positions = [ready.get(t.name) for t in (cmp_.left, cmp_.right) if isinstance(t, Variable)]
        if None in positions:
            safe = False  # a variable nothing binds: an unsafe body
            continue
        checks[max(positions, default=-1) + 1].append(cmp_)
    for step, ready_here in zip(steps, checks[1:]):
        step.checks = tuple(ready_here)
    return _Plan(tuple(steps), tuple(checks[0]), safe)


def _rule_plan(rule: Rule, first: int | None = None) -> _Plan:
    """The plan of the rule's body with its delta at position ``first``
    (None: every atom reads the full relation), compiled on first use and
    kept on the rule for as long as it lives: ``rule._plans[i]`` with the
    delta at i, the last one with none."""
    plans = rule._plans
    slot = -1 if first is None else first
    if plans is not None and plans[slot] is not None:
        return plans[slot]
    atoms, comparisons = tuple(rule.body_atoms()), tuple(rule.comparisons())
    if plans is None:
        plans = [None] * (len(atoms) + 1)
        object.__setattr__(rule, "_plans", plans)
    if first is None and atoms:
        # with nothing bound the first choice is the atom with the most
        # constants, so this is the plan with that atom as the delta
        constants = [sum(isinstance(t, Constant) for t in a.args) for a in atoms]
        plans[slot] = _rule_plan(rule, max(range(len(atoms)), key=lambda i: (constants[i], -i)))
    else:
        plans[slot] = _plan(atoms, comparisons, first)
    return plans[slot]  # type: ignore[return-value]


def _strip_labels(atoms: Iterable[GroundAtom]) -> list[GroundAtom]:
    return [a if a.label is None else GroundAtom(a.predicate, a.args) for a in atoms]


def _match(step: _Step, fact: GroundAtom, binding: dict[Variable, Constant]) -> dict[Variable, Constant] | None:
    """``binding`` extended so that the step's atom matches ``fact``, or
    None.  Runs only the checks the step was compiled with; returns
    ``binding`` itself when the step binds nothing, and otherwise one
    copy extended with its binds."""
    args = fact.args
    if len(args) != step.arity:
        return None
    for p, symbol in step.constants:
        if args[p].symbol is not symbol:
            return None
    for p, q in step.repeats:
        if args[p].symbol is not args[q].symbol:
            return None
    binds = step.binds
    if not binds:
        return binding
    new = binding.copy()
    for p, variable in binds:
        new[variable] = args[p]
    return new


def _comparison_holds(cmp_: Comparison, binding: dict[Variable, Constant]) -> bool:
    left = cmp_.left if isinstance(cmp_.left, Constant) else binding[cmp_.left]
    right = cmp_.right if isinstance(cmp_.right, Constant) else binding[cmp_.right]
    return cmp_.holds(left, right)


class _Head:
    """A rule head compiled for ``_instantiate``: its predicate, and a
    function from a binding to its arguments (an ``itemgetter`` of the
    variables when every term is one)."""

    __slots__ = ("predicate", "args")

    def __init__(self, head: Atom):
        self.predicate = head.predicate
        terms = head.args
        if terms and all(t.__class__ is Variable for t in terms):
            get = itemgetter(*terms)
            # an itemgetter of one key returns the value, not a 1-tuple
            self.args = get if len(terms) > 1 else lambda binding: (get(binding),)
        else:
            self.args = lambda binding: tuple([t if t.__class__ is Constant else binding[t] for t in terms])


def _instantiate(head: _Head, binding: dict[Variable, Constant]) -> GroundAtom:
    return GroundAtom(head.predicate, head.args(binding))


def _facts(step: _Step, source: Relation, binding: dict[Variable, Constant]) -> Iterable[GroundAtom]:
    """The facts a step reads under ``binding``: those its source's index
    holds under the step's key, or all of them when it has none."""
    if not step.key:
        return source.facts
    key = tuple([t if t.__class__ is str else binding[t].symbol for t in step.key_terms])
    return source.index(step.arity, step.key).get(key, ())


def _join(
    plan: _Plan,
    sources: Sequence[Relation],
    binding: dict[Variable, Constant] | None = None,
) -> Iterator[tuple[dict[Variable, Constant], tuple[GroundAtom, ...]]]:
    """Every way of matching the plan's i-th atom (in textual order)
    against a fact of ``sources[i]`` that extends ``binding``, as
    (binding, matched facts), the facts in textual atom order (for a
    rule, a firing's body).
    ``binding`` binds the variables the plan was compiled with as bound.
    Each comparison is checked as soon as its variables are bound."""
    binding = binding or {}
    if not plan.safe or not all(_comparison_holds(c, binding) for c in plan.pre_checks):
        return
    steps = plan.steps
    last = len(steps) - 1
    if last < 0:
        yield binding, ()
        return
    # depth-first over the steps with an explicit stack of partial scans;
    # ``bindings[k]`` is the binding the first k steps leave behind
    bindings = [binding] * (last + 1)
    matched: list = [None] * (last + 1)
    scans = [iter(_facts(steps[0], sources[steps[0].atom], binding))] * (last + 1)
    pos = 0
    while pos >= 0:
        step, current = steps[pos], bindings[pos]
        checks = step.checks
        for fact in scans[pos]:
            extended = _match(step, fact, current)
            if extended is None or (checks and not all(_comparison_holds(c, extended) for c in checks)):
                continue
            matched[step.atom] = fact
            if pos == last:
                yield extended, tuple(matched)
                continue
            pos += 1
            bindings[pos] = extended
            scans[pos] = iter(_facts(steps[pos], sources[steps[pos].atom], extended))
            break
        else:
            pos -= 1


def _semi_naive(program: Program, masks: dict[GroundAtom, int], full: int) -> tuple[dict[str, Relation], Firings]:
    """The one semi-naive loop, over worlds (fact sets) at once.

    ``masks`` maps each label-free seed fact to the bitmask of the worlds
    that hold it (bit i: world i); ``full`` has a bit for every world.
    The loop grows ``masks`` in place to those of the worlds' minimal
    models (the Boolean semiring raised to the worlds): a firing's mask
    is the AND of its body atoms' masks and is ORed into the head's.  A
    round's delta is the atoms whose mask grew, and masks are read as the
    previous round left them, so a firing whose body last grew in round r
    is joined in round r + 1 with final masks.  The relations hold the
    union of the worlds' models, so joins, plans and indexes are those of
    one model.  Returns the relations and, for one world, the derivation
    graph (``MinimalModel.firings``): each firing is recorded when it is
    joined, in the round after its last body atom appeared."""
    single = full == 1
    firings: Firings = defaultdict(list)
    rules = []
    for rule in program.rules:
        atoms = tuple(rule.body_atoms())
        if atoms:
            rules.append((rule, atoms, [None] * len(atoms), _Head(rule.head)))
            continue
        # no atom to carry a delta: such a rule fires once, in round 0,
        # in every world
        for binding, body in _join(_rule_plan(rule), ()):
            fact = _instantiate(_Head(rule.head), binding)
            masks[fact] = full
            if single:
                firings[fact].append(body)
    seeds: dict[str, set[GroundAtom]] = {}
    for fact in masks:
        seeds.setdefault(fact.predicate, set()).add(fact)

    relations = {p: Relation(facts) for p, facts in seeds.items()}
    empty = Relation(frozenset())
    deltas: dict[str, Relation] = {}
    first = True
    while first or deltas:
        produced: dict[GroundAtom, int] = {}
        for rule, atoms, plans, head in rules:
            sources = [relations.get(a.predicate, empty) for a in atoms]
            if first:
                # every fact is new: one join over the full relations
                joins = [(_rule_plan(rule), -1)]
            else:
                joins = []
                for i, atom in enumerate(atoms):
                    if atom.predicate in deltas:
                        if plans[i] is None:
                            plans[i] = _rule_plan(rule, i)
                        joins.append((plans[i], i))
            for plan, i in joins:
                if i >= 0:
                    full_source, sources[i] = sources[i], deltas[atoms[i].predicate]
                if single:
                    # every mask is 1, and so is every firing's
                    for binding, body in _join(plan, sources):
                        fact = _instantiate(head, binding)
                        produced[fact] = 1
                        firings[fact].append(body)
                else:
                    for binding, body in _join(plan, sources):
                        mask = full
                        for fact in body:
                            mask &= masks[fact]
                        if mask:
                            fact = _instantiate(head, binding)
                            produced[fact] = produced.get(fact, 0) | mask
                if i >= 0:
                    sources[i] = full_source
        first = False
        # fresh: new to every world; grown: held before, in fewer worlds
        fresh: dict[str, set[GroundAtom]] = {}
        grown: dict[str, set[GroundAtom]] = {}
        for fact, mask in produced.items():
            old = masks.get(fact, 0)
            if not old:
                masks[fact] = mask
                fresh.setdefault(fact.predicate, set()).add(fact)
            elif old | mask != old:
                masks[fact] = old | mask
                grown.setdefault(fact.predicate, set()).add(fact)
        for p, facts in fresh.items():
            if p in relations:
                relations[p].update(facts)
            else:
                relations[p] = Relation(set(facts))
        for p, facts in grown.items():
            fresh.setdefault(p, set()).update(facts)
        deltas = {p: Relation(facts) for p, facts in fresh.items()}
    return relations, firings


def evaluate_fixpoint(program: Program, instance: Instance | Iterable[GroundAtom]) -> MinimalModel:
    """Least fixpoint of ``program`` over the given facts, with its
    derivation graph: the one-world case of the semi-naive loop.

    Facts may mention intensional predicates; they simply seed the model,
    which is what the abduction-to-causality constructions rely on.
    """
    base = instance.atoms if isinstance(instance, Instance) else instance
    relations, firings = _semi_naive(program, dict.fromkeys(_strip_labels(base), 1), 1)
    return MinimalModel({p: frozenset(rel.facts) for p, rel in relations.items()}, firings)


class WorldModels:
    """The minimal models of one program over several worlds, from one
    pass: ``relations`` holds their union by predicate, and ``masks``
    maps each atom of the union to the bitmask of the worlds whose model
    holds it (bit i: world i)."""

    __slots__ = ("relations", "masks")

    def __init__(self, relations: dict[str, frozenset[GroundAtom]], masks: dict[GroundAtom, int]):
        self.relations = relations
        self.masks = masks

    def holds(self, atom: GroundAtom, world: int) -> bool:
        return bool(self.masks.get(atom, 0) >> world & 1)

    def extension(self, predicate: str, world: int) -> frozenset[GroundAtom]:
        masks = self.masks
        return frozenset(a for a in self.relations.get(predicate, ()) if masks[a] >> world & 1)


def evaluate_worlds(
    program: Program, worlds: Sequence[Iterable[GroundAtom]], shared: Iterable[GroundAtom] = ()
) -> WorldModels:
    """The minimal model of ``program`` over each world, a fact set that
    also holds the ``shared`` facts, from one semi-naive pass (world i is
    bit i of every mask).  Worlds may repeat and may be empty."""
    if not worlds:
        return WorldModels({}, {})
    full = (1 << len(worlds)) - 1
    masks = dict.fromkeys(_strip_labels(shared), full)
    for i, world in enumerate(worlds):
        bit = 1 << i
        for fact in _strip_labels(world):
            masks[fact] = masks.get(fact, 0) | bit
    relations, _ = _semi_naive(program, masks, full)
    return WorldModels({p: frozenset(rel.facts) for p, rel in relations.items()}, masks)


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


_FRESH_GOAL = "goal"


def fresh_predicate(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def specialize_to_answer(
    program: Program, answer: GroundAtom, avoid: Iterable[str] = ()
) -> tuple[Program, GroundAtom]:
    """Turn (program, ground answer atom) into an equivalent Boolean query.

    Adds ``goal :- ans(c1, ..., cn)`` with a nullary goal predicate fresh
    for the program and the predicates ``avoid`` (those of the instance
    it runs on, where a ``goal`` fact would otherwise answer it); for an
    already-Boolean program queried on its own answer atom the program
    is returned unchanged.  An atom of another predicate or arity raises
    ``NotAnAnswerError``.
    """
    if answer.predicate != program.answer_predicate:
        raise NotAnAnswerError(f"{answer} is not over the answer predicate {program.answer_predicate}")
    arity = program.arity_of(answer.predicate)
    if arity is not None and arity != answer.arity:
        raise NotAnAnswerError(f"{answer} has arity {answer.arity}, but the answer predicate has arity {arity}")
    if program.is_boolean() and answer.arity == 0:
        return program, answer
    taken = {r.head.predicate for r in program.rules}
    taken.update(a.predicate for r in program.rules for a in r.body_atoms())
    taken.update(avoid)
    goal = fresh_predicate(_FRESH_GOAL, taken)
    goal_rule = Rule(Atom(goal, ()), (answer.to_atom(),))
    boolean = Program(program.rules + (goal_rule,), goal)
    return boolean, GroundAtom(goal, ())
