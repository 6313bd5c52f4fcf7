"""Bottom-up evaluation of positive Datalog to the minimal model.

The evaluation is semi-naive, one model at a time: a round's delta is
the atoms new to the model (per predicate; in the first round every fact
is new, so each rule is joined once over the full relations).
``evaluate_fixpoint`` also records the model's derivation graph
(``MinimalModel.firings``), behind abduction's diagnoses.  The models of
many worlds (fact sets) inside one model need no join of their own:
``propagate`` reads them off that model's ground program, ``reached``
keeps the part of it some goals need, and ``ground`` derives the ground
program again by one join of each rule, for callers that must not trust
a recorded graph.  ``_join`` is the one routine that
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
positive, so the model only grows and is bounded by the set of all
ground atoms over known predicates and constants.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
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


def _relations(facts: Iterable[GroundAtom]) -> dict[str, Relation]:
    by_predicate: dict[str, set[GroundAtom]] = {}
    for fact in facts:
        by_predicate.setdefault(fact.predicate, set()).add(fact)
    return {p: Relation(facts) for p, facts in by_predicate.items()}


def _compile(program: Program) -> list[tuple[Rule, tuple[Atom, ...], _Head]]:
    return [(rule, tuple(rule.body_atoms()), _Head(rule.head)) for rule in program.rules]


def _round(
    rules: list, relations: dict[str, Relation], deltas: dict[str, Relation] | None, firings: Firings
) -> dict[str, set[GroundAtom]]:
    """One round of joins of the ``_compile``d rules: with no ``deltas``
    each rule once over the full relations, else once per body atom with
    a delta, that atom reading it.  Appends each firing's body to
    ``firings[head]``; returns the heads by predicate."""
    heads: dict[str, set[GroundAtom]] = {}
    empty = Relation(frozenset())
    for rule, atoms, head in rules:
        if deltas is None:
            joins = [(_rule_plan(rule), -1)]
        else:
            joins = [(_rule_plan(rule, i), i) for i, a in enumerate(atoms) if a.predicate in deltas]
            if not joins:
                continue
        full = [relations.get(a.predicate, empty) for a in atoms]
        produced = heads.setdefault(head.predicate, set())
        for plan, i in joins:
            sources = full if i < 0 else [*full[:i], deltas[atoms[i].predicate], *full[i + 1 :]]  # type: ignore[index]
            for binding, body in _join(plan, sources):
                fact = _instantiate(head, binding)
                produced.add(fact)
                firings[fact].append(body)
    return heads


def _semi_naive(program: Program, facts: Iterable[GroundAtom]) -> tuple[dict[str, Relation], Firings]:
    """The one semi-naive loop: the minimal model over label-free seed
    facts, as relations, and its derivation graph (``MinimalModel.firings``),
    each firing recorded when joined.  Round 0 joins every rule over the
    seeds; a later round joins what reads the last one's new heads."""
    rules = _compile(program)
    firings: Firings = defaultdict(list)
    # a rule without atoms has no atom to carry a delta: it fires once,
    # before round 0, and its heads seed the model
    seeded = _round([r for r in rules if not r[1]], {}, None, firings)
    rules = [r for r in rules if r[1]]
    relations = _relations(chain(facts, *seeded.values()))
    for _, _, head in rules:
        relations.setdefault(head.predicate, Relation(set()))
    deltas: dict[str, Relation] | None = None
    while deltas is None or deltas:
        heads = _round(rules, relations, deltas, firings)
        deltas = {}
        for p, produced in heads.items():
            held = relations[p]
            fresh = produced - held.facts  # type: ignore[operator]
            if fresh:
                held.update(fresh)
                deltas[p] = Relation(fresh)
    return relations, firings


def evaluate_fixpoint(program: Program, instance: Instance | Iterable[GroundAtom]) -> MinimalModel:
    """Least fixpoint of ``program`` over the given facts, with its
    derivation graph.

    Facts may mention intensional predicates; they simply seed the model,
    which is what the abduction-to-causality constructions rely on.
    """
    base = instance.atoms if isinstance(instance, Instance) else instance
    relations, firings = _semi_naive(program, _strip_labels(base))
    return MinimalModel({p: frozenset(rel.facts) for p, rel in relations.items() if rel.facts}, firings)


def ground(program: Program, atoms: Iterable[GroundAtom]) -> Firings:
    """The ground program of ``program`` over ``atoms``, shaped as
    ``MinimalModel.firings``: every rule joined once over them, one naive
    round.  Over a closed model it is the model's derivation graph."""
    firings: Firings = defaultdict(list)
    _round(_compile(program), _relations(_strip_labels(atoms)), None, firings)
    return firings


def reached(firings: Firings, goals: Iterable[GroundAtom]) -> Firings:
    """The part of a derivation graph the goals reach backward, which every
    derivation of a goal uses: each head with its bodies, in depth-first
    post-order (off cycles, after the heads in its bodies)."""
    out: Firings = {}
    seen: set[GroundAtom] = set()
    stack = [goal for goal in goals if goal in firings]
    while stack:
        head = stack[-1]
        if head not in seen:
            # its unseen heads go above it and are done before it
            seen.add(head)
            stack += [a for body in firings[head] for a in body if a not in seen and a in firings]
        else:
            stack.pop()
            out.setdefault(head, firings[head])
    return out


def reads_ahead(firings: Firings) -> bool:
    """True if some body holds a head at its own head's position or a
    later one, so that one sweep in the map's order may read a head
    before its last change; in ``reached``'s order, only on a cycle."""
    later = set(firings)
    for head, bodies in firings.items():
        if not all(later.isdisjoint(body) for body in bodies):
            return True
        later.discard(head)
    return False


def propagate(
    firings: Firings, shared: Iterable[GroundAtom], worlds: Iterable[Iterable[GroundAtom]]
) -> dict[GroundAtom, int]:
    """The minimal models of worlds (fact sets, each with the shared
    facts) inside one model, read off its ground program ``firings`` with
    no join (Dowling & Gallier, JLP 1984): each atom of some world's model
    mapped to the bitmask of the worlds holding it (bit i: the i-th world;
    -1: all).  A firing's mask, the AND of its body's, is ORed into its
    head's, in one sweep in the map's order, and in further sweeps until
    none grows only if a body reads ahead (``reads_ahead``)."""
    masks = dict.fromkeys(shared, -1)
    for i, world in enumerate(worlds):
        for fact in world:
            masks[fact] = masks.get(fact, 0) | 1 << i
    again = reads_ahead(firings)
    grown = True
    while grown:
        grown = False
        for head, bodies in firings.items():
            old = masks.get(head, 0)
            mask = old
            for body in bodies:
                both = -1
                for atom in body:
                    both &= masks.get(atom, 0)
                mask |= both
            if mask != old:
                masks[head] = mask
                grown = again
    return masks


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
