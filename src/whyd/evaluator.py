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
a recorded graph.

One join engine matches a conjunction of atoms against facts: the
semi-naive rounds and every integrity constraint check go through it.
Each rule body (per delta position) and each constraint body and head is
compiled once, on first use, into a plan (``_plan``): the conjunction's
shape and its constants.  Each shape is compiled into a kernel
(``_kernel``), Python source generated for it: the delta atom first,
then greedily the atom with the most bound positions, one nested ``for``
per atom.  A step whose positions are partly bound probes a hash index
of its relation on them (``Relation``), fetched once before the loops;
the first step of a plan with nothing bound scans.  What a fact must
still satisfy is inlined: a scan's arity, and as ``is`` tests on
interned symbols the constants a scan has not filtered, the positions a
repeated variable must agree on and the comparisons.  Each variable is
read where the fact that binds it holds it: no binding is ever built.  A rule kernel builds
each head and records its firing inline; a constraint kernel yields
each match.  No symbol enters the source: plans of one shape share one
kernel and pass their constants as an argument.  The naive reference
evaluator that the agreement tests and brute-force oracles use lives in
``tests/oracle.py`` and shares no code with this module.

Termination is guaranteed: the active domain is finite and rules are
positive, so the model only grows and is bounded by the set of all
ground atoms over known predicates and constants.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import UnknownPredicateError, UnsafeRuleError
from .model import (
    Atom,
    Comparison,
    Constant,
    GroundAtom,
    Instance,
    Program,
    Rule,
    Variable,
    derived_atom,
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


Key = str | tuple[str, ...]  # one position: its symbol; several: a tuple


class Relation:
    """The facts of one relation and the hash indexes built on them so far.

    Iterating a relation reads all its facts.  ``index(arity, positions)``
    maps the symbols at ``positions`` (the symbol itself for one position,
    a tuple of them otherwise) to the facts of that arity that carry them
    (symbols hash and compare faster than constants); facts of another
    arity can never match an atom of this arity and are left out.  An
    index is built on first use and kept current by ``update``, so it is
    built at most once per relation.  Relations are scratch data of one
    join pass (a fixpoint or a constraint check): keep none longer.
    """

    __slots__ = ("facts", "_indexes")

    def __init__(self, facts: Collection[GroundAtom]):
        self.facts = facts
        self._indexes: dict[tuple[int, tuple[int, ...]], dict[Key, list[GroundAtom]]] = {}

    def __iter__(self) -> Iterator[GroundAtom]:
        return iter(self.facts)

    def index(self, arity: int, positions: tuple[int, ...]) -> dict[Key, list[GroundAtom]]:
        index = self._indexes.get((arity, positions))
        if index is None:
            index = self._indexes[arity, positions] = {}
            _add(index, arity, positions, self.facts)
        return index

    def update(self, fresh: Collection[GroundAtom]) -> None:
        """Add facts not yet held to the facts, which must be a set, and
        to every index built so far."""
        self.facts.update(fresh)  # type: ignore[attr-defined]
        for (arity, positions), index in self._indexes.items():
            _add(index, arity, positions, fresh)


def _add(index: dict[Key, list[GroundAtom]], arity: int, positions: tuple[int, ...], facts: Iterable[GroundAtom]):
    one = positions[0] if len(positions) == 1 else None
    for fact in facts:
        args = fact.args
        if len(args) == arity:
            key = args[one].symbol if one is not None else tuple([args[p].symbol for p in positions])
            bucket = index.get(key)
            if bucket is None:
                index[key] = [fact]
            else:
                bucket.append(fact)


class _Plan:
    """A conjunction compiled by ``_plan``: the kernel of its shape and
    the constants the kernel reads (``c``)."""

    __slots__ = ("kernel", "consts")

    def __init__(self, kernel, consts: tuple):
        self.kernel = kernel
        self.consts = consts


def _never(*args) -> tuple:
    """The kernel of a body with a comparison on a variable no atom binds
    (an unsafe body): it matches nothing."""
    return ()


def _plan(
    atoms: Sequence[Atom],
    comparisons: Sequence[Comparison] = (),
    first: int | None = None,
    outer: Sequence[Atom] = (),
    rule: Rule | None = None,
) -> _Plan:
    """Compile the conjunction of ``atoms`` and ``comparisons`` for
    matching the i-th atom against the facts of ``sources[i]``.  The
    ``outer`` atoms are matched already: the kernel receives their facts
    and reads the variables they bind off them.  With a ``rule``, whose
    body the atoms and comparisons are, the kernel fires it (``_round``);
    without, it yields each match (``_matches``).

    The plan's shape is the conjunction with its variables numbered in
    order of first occurrence and each constant replaced by its place in
    the tuple of the plan's constants; ``_kernel`` plans the shape and
    compiles one function for it, which every plan of that shape shares."""
    numbers: dict[str, int] = {}  # variable names, interned strings, hash faster than Variables
    consts: list = []

    def shape_of(terms, constant) -> tuple:
        out = []
        for t in terms:
            if t.__class__ is Variable:
                out.append(numbers.setdefault(t.name, len(numbers)))
            elif constant is None:
                out.append(None)  # an outer fact's constant is never read
            else:
                consts.append(constant(t))
                out.append(-len(consts))
        return tuple(out)

    symbol = attrgetter("symbol")
    outer_shape = tuple(shape_of(a.args, None) for a in outer)
    atom_shape = tuple(shape_of(a.args, symbol) for a in atoms)
    bound = len(numbers)
    comparison_shape = tuple((c.op == "=", *shape_of((c.left, c.right), symbol)) for c in comparisons)
    if any(n >= bound for _, *sides in comparison_shape for n in sides):
        return _Plan(_never, ())
    head = None
    if rule is not None:
        terms = shape_of(rule.head.args, lambda t: t)
        for t, n in zip(rule.head.args, terms):
            if n >= bound:
                raise UnsafeRuleError(rule, t)
        consts.append(rule.head.predicate)
        head = (terms, len(consts) - 1)
    return _Plan(_kernel((outer_shape, atom_shape, comparison_shape, first, head, len(consts))), tuple(consts))


# the nested loops of one generated function: CPython compiles no
# function with more than 20 statically nested blocks, so a longer plan
# is split into functions that call one another
_DEPTH = 16


def _tuple(items: Iterable[str]) -> str:
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


@lru_cache(maxsize=256)
def _kernel(shape: tuple):
    """The kernel of a plan shape (see ``_plan``), compiled once for every
    plan of that shape; the cache keeps the 256 shapes used last, and each
    plan keeps its own kernel.

    The atom ``first`` (the delta of a semi-naive round) is matched first,
    then each time the atom with the most bound positions, textual order
    breaking ties.  A step probes an index on its bound positions; it
    scans when it has none, and when it is the first step and the outer
    atoms bind none of its variables.  The kernel is Python source: one
    nested ``for`` per step, each index fetched before the loops, every
    check inlined (a scan's arity by ``len``; constants, repeated
    variables and comparisons, as soon as their variables are bound, as
    ``is`` tests on symbols).  A
    fact is named by its slot, the outer facts first and then the atoms'
    in textual order, and each variable is read at the (slot, position)
    of the fact that binds it.  The source holds only such indices and
    generated names; the constants come in the tuple ``c``.  A rule
    kernel ``k0(src, c, outer, produced, firings)`` adds each head to
    ``produced`` and appends its body to ``firings[head]``; a match kernel
    ``k0(src, c, outer)`` yields each match."""
    outer, atoms, comparisons, first, head, consts = shape
    where: dict[int, tuple[int, int]] = {}  # variable -> (slot, position) that binds it
    for slot, terms in enumerate(outer):
        for p, n in enumerate(terms):
            if n is not None:
                where.setdefault(n, (slot, p))
    base = len(outer)
    ready = dict.fromkeys(where, -1)  # variable -> the step that binds it
    todo = list(range(len(atoms)))
    order: list[tuple[int, tuple[int, ...] | None]] = []  # (atom, probed positions; None: a scan)
    while todo:
        if first is not None and not order:
            i = first
        else:
            most = -1
            for j in todo:  # ascending, so ties go to the textual first
                count = sum(1 for n in atoms[j] if n < 0 or n in where)
                if count > most:
                    most, i = count, j
        todo.remove(i)
        probe = bool(order) or any(n in where for n in atoms[i])
        order.append((i, tuple(p for p, n in enumerate(atoms[i]) if n < 0 or n in where) if probe else None))
        for p, n in enumerate(atoms[i]):
            if n >= 0 and n not in where:
                where[n] = (base + i, p)
                ready[n] = len(order) - 1
    checks: list[list[tuple]] = [[] for _ in range(len(order) + 1)]
    for cmp_ in comparisons:
        checks[max((ready[n] for n in cmp_[1:] if n >= 0), default=-1) + 1].append(cmp_)

    chunks = [order[s : s + _DEPTH] for s in range(0, len(order), _DEPTH)] or [[]]
    tail = ", produced, firings" if head is not None else ""
    unpack = [f"{''.join(f'c{k}, ' for k in range(consts))}= c"] if consts else []
    lines = []
    before = list(range(base))  # the slots bound before a function's loops
    for j, chunk in enumerate(chunks):
        used: set[int] = set()  # the slots whose arguments the function reads

        def arg(n: int) -> str:
            used.add(where[n][0])
            return "a%d[%d]" % where[n]

        def symbol(n: int) -> str:
            return f"c{-n - 1}" if n < 0 else arg(n) + ".symbol"

        def fails(cmp_: tuple) -> str:
            equal, left, right = cmp_
            return f"{symbol(left)} is {'not ' if equal else ''}{symbol(right)}"

        prechecks = [fails(cmp_) for cmp_ in checks[0]] if j == 0 else []
        fetches, loops = [], []
        for n, (i, key) in enumerate(chunk, start=j * _DEPTH):
            slot, terms = base + i, atoms[i]
            if key is None:
                used.add(slot)
                loop = f"for f{slot} in src[{i}]:"
                conds = [f"len(a{slot}) != {len(terms)}"]
                conds += [f"a{slot}[{p}].symbol is not {symbol(t)}" for p, t in enumerate(terms) if t < 0]
            else:
                probed = [symbol(terms[p]) for p in key]
                probe = probed[0] if len(probed) == 1 else _tuple(probed)
                fetch = f"src[{i}].index({len(terms)}, {key!r})"
                if all(terms[p] < 0 or where[terms[p]][0] in before for p in key):
                    fetches.append(f"x{slot} = {fetch}.get({probe}, ())")
                    loop = f"for f{slot} in x{slot}:"
                else:
                    fetches.append(f"x{slot} = {fetch}")
                    loop = f"for f{slot} in x{slot}.get({probe}, ()):"
                conds = []
            for p, t in enumerate(terms):
                if t >= 0 and where[t][0] == slot and where[t][1] != p:
                    used.add(slot)
                    conds.append(f"a{slot}[{p}].symbol is not {symbol(t)}")
            conds += [fails(cmp_) for cmp_ in checks[n + 1]]
            loops.append((loop, slot, conds))
        after = sorted(before + [base + i for i, _ in chunk])
        if j + 1 < len(chunks):
            call = f"k{j + 1}(src, c, {_tuple(f'f{s}' for s in after)}{tail})"
            innermost = [call if head is not None else "yield from " + call]
        else:
            matched = _tuple(f"f{base + i}" for i in range(len(atoms)))
            if head is None:
                innermost = [f"yield {matched}"]
            else:
                args = _tuple(f"c{-n - 1}" if n < 0 else arg(n) for n in head[0])
                innermost = [f"h = _atom(c{head[1]}, {args})", "add(h)", f"firings[h].append({matched})"]

        body = [f"{''.join(f'f{s}, ' for s in before)}= outer"] if before else []
        body += [f"a{s} = f{s}.args" for s in before if s in used]
        body += unpack
        body += ["add = produced.add"] if head is not None and j + 1 == len(chunks) else []
        body += [f"if {' or '.join(prechecks)}:", "    return"] if prechecks else []
        body += fetches
        indent = ""
        for loop, slot, conds in loops:
            body.append(indent + loop)
            indent += "    "
            if slot in used:
                body.append(f"{indent}a{slot} = f{slot}.args")
            if conds:
                body += [f"{indent}if {' or '.join(conds)}:", f"{indent}    continue"]
        body += [indent + line for line in innermost]
        lines.append(f"def k{j}(src, c, outer{tail}):")
        lines += ["    " + line for line in body]
        before = after
    namespace = {"_atom": derived_atom}
    exec(compile("\n".join(lines) + "\n", "<whyd kernel>", "exec"), namespace)
    return namespace["k0"]


def _matches(
    plan: _Plan, sources: Sequence[Relation], outer: Sequence[GroundAtom] = ()
) -> Iterator[tuple[GroundAtom, ...]]:
    """Each match of a plan compiled without a rule: the facts its atoms
    matched (the i-th from ``sources[i]``) in textual order, agreeing with
    the ``outer`` facts of its outer atoms."""
    return plan.kernel(sources, plan.consts, outer)


def _rule_plan(rule: Rule, first: int | None = None) -> _Plan:
    """The plan of the rule with its delta at body atom ``first`` (None:
    every atom reads the full relation), compiled on first use and kept
    on the rule for as long as it lives: ``rule._plans[i]`` with the
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
        plans[slot] = _plan(atoms, comparisons, first, rule=rule)
    return plans[slot]  # type: ignore[return-value]


def _relations(facts: Iterable[GroundAtom]) -> dict[str, Relation]:
    by_predicate: dict[str, set[GroundAtom]] = {}
    for fact in facts:
        by_predicate.setdefault(fact.predicate, set()).add(fact)
    return {p: Relation(facts) for p, facts in by_predicate.items()}


def _compile(program: Program) -> list[tuple[Rule, tuple[str, ...], str]]:
    return [(rule, tuple(a.predicate for a in rule.body_atoms()), rule.head.predicate) for rule in program.rules]


def _round(
    rules: list, relations: dict[str, Relation], deltas: dict[str, Relation] | None, firings: Firings
) -> dict[str, set[GroundAtom]]:
    """One round of joins of the ``_compile``d rules: with no ``deltas``
    each rule once over the full relations, else once per body atom with
    a delta, that atom reading it.  Appends each firing's body to
    ``firings[head]``; returns the heads by predicate."""
    heads: dict[str, set[GroundAtom]] = {}
    empty = Relation(frozenset())
    for rule, predicates, head in rules:
        if deltas is None:
            joins = [(_rule_plan(rule), -1)]
        else:
            joins = [(_rule_plan(rule, i), i) for i, p in enumerate(predicates) if p in deltas]
            if not joins:
                continue
        full = [relations.get(p, empty) for p in predicates]
        produced = heads.setdefault(head, set())
        for plan, i in joins:
            sources = full if i < 0 else [*full[:i], deltas[predicates[i]], *full[i + 1 :]]  # type: ignore[index]
            plan.kernel(sources, plan.consts, (), produced, firings)
    return heads


def _semi_naive(program: Program, facts: Iterable[GroundAtom]) -> tuple[dict[str, Relation], Firings]:
    """The one semi-naive loop: the minimal model over the seed facts, as
    relations, and its derivation graph (``MinimalModel.firings``),
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
        relations.setdefault(head, Relation(set()))
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
    relations, firings = _semi_naive(program, base)
    return MinimalModel({p: frozenset(rel.facts) for p, rel in relations.items() if rel.facts}, firings)


def ground(program: Program, atoms: Iterable[GroundAtom]) -> Firings:
    """The ground program of ``program`` over ``atoms``, shaped as
    ``MinimalModel.firings``: every rule joined once over them, one naive
    round.  Over a closed model it is the model's derivation graph."""
    firings: Firings = defaultdict(list)
    _round(_compile(program), _relations(atoms), None, firings)
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
    return atom in model


def answers(program: Program, instance: Instance | Iterable[GroundAtom]) -> frozenset[GroundAtom]:
    """Extension of the answer predicate in the minimal model; for a
    Boolean program this is a singleton or empty."""
    model = evaluate_fixpoint(program, instance)
    return model.extension(program.answer_predicate)


def fresh_predicate(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"
