"""Bottom-up evaluation of positive Datalog to the minimal model.

The evaluation is semi-naive, one model at a time.  Round 0 joins each
rule once over the full relations; a later round runs only the joins
its deltas, the atoms new in the last one, trigger: a rule with a body
atom over a delta's predicate, that atom reading the delta.  A join
pass numbers the atoms it holds where it deduplicates them: the seed
facts first, each once in the order given (a caller that gives its
extensional facts before its hypotheses can tell a fact's kind by its
id), then each head the first time a kernel derives it.  It numbers
them by key (``GroundAtom.key``: the predicate and the arguments'
interned symbols), a tuple that hashes and compares in C; a kernel
builds a head's key from the symbols it has read and builds the atom
only when the key is new.  Relations, index buckets and firing bodies
hold ids.  ``evaluate_fixpoint`` also records the model's derivation
graph (``Graph``), behind abduction's diagnoses: each firing's body is
appended to its head's list as the kernel fires it.  A graph is
scratch data of the solve that recorded it; no caller keeps one.  The
models of many worlds (fact sets) inside one model need no join of
their own: ``propagate`` reads them off that model's ground program,
in place, from the bitmasks of the worlds its caller starts each fact
in; ``reached`` keeps the part of it some goals need and says whether
that part is cyclic, and ``ground`` derives the ground program again by
one join of each rule, into a numbering of its own, for callers that
must not trust a recorded graph; over a closed model that round builds
no atom.  Only a join pass looks atoms up, by key; everything after it
indexes lists by id.

A pass may run under a goal's demand (``demand.demand_of``), the heads
some derivation of the goal can use, fixed before the pass runs.  Under
a demand a pass numbers the seeds as ever and a new head only if the
demand holds it; it maps any other head's key to the discard row -1, so
each later firing of it costs one lookup, and the kernels are the same.
No firing of a demanded head reads a head the demand drops, so the
model keeps every derivation of the goal.

One join engine matches a conjunction of atoms against facts: the
semi-naive rounds and every integrity constraint check go through it.
Each rule body (per delta position), each constraint body and each
tgd's body joined with its head is compiled once, on first use, into a
plan (``_plan``): the conjunction's shape and its constants.  Every
variable of a plan is bound by one of its atoms (``Program`` rejects an
unsafe rule, and a constraint's comparison is an egd's, over its body).
A shape is planned once, into the one plan form both executors read
(``_steps``): the delta atom first, then greedily the atom with the
most bound positions.  The first step scans; every later one probes a
hash index of its relation on its bound positions (``Relation``),
fetched once before the loops.  What a fact must still satisfy is
checked as soon as it can be: a scan's arity, and as ``is`` tests on
interned symbols the constants a scan has not filtered, the positions
a repeated variable must agree on and the comparisons.  Each variable
is read where the fact that binds it holds it: no binding is ever
built.  A rule join builds each head's key, builds and numbers the
head only if the key is new, and records its firing; a constraint join
yields each match as atoms.

Two executors run a shape's steps, and record the same firings in the
same order.  The compiled tier (``_compiled``) renders them as Python
source, one nested ``for`` per step with every check inlined; no symbol
enters the source, so plans of one shape share one kernel and pass
their constants as an argument.  The interpreted tier (``_interpret``)
walks the same steps with a stack of iterators.  A rule shape is
interpreted for its first ``COLD_RUNS`` runs and compiled at the next
one, or at once when a run's first step reads more than ``COLD_FACTS``
facts (``_Cold``): most shapes of a session run a few times, over few
facts, and never pay for a compile.  Constraint kernels are compiled at
once.  The naive reference evaluator that the agreement tests and
brute-force oracles use lives in ``tests/oracle.py`` and shares no code
with this module.

Termination is guaranteed: the active domain is finite and rules are
positive, so the model only grows and is bounded by the set of all
ground atoms over known predicates and constants.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .demand import Demand, demand_of, demanded
from .errors import UnknownPredicateError
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


class Graph:
    """A ground derivation graph over numbered atoms: ``atoms[i]`` is atom
    i, and the first ``seeds`` atoms are the seed facts of the pass that
    recorded it.  ``rows[i]`` lists atom i's firings, the bodies of the
    rule instances with it as their head, each a tuple of ids of its
    atoms in textual order (``()`` for a rule without atoms; a body may
    be listed twice); it is empty for an atom with no firing.  Every atom
    past the seeds has a firing."""

    __slots__ = ("atoms", "seeds", "rows")

    def __init__(self, atoms: list[GroundAtom], seeds: int, rows: list[list[tuple[int, ...]]]):
        self.atoms = atoms
        self.seeds = seeds
        self.rows = rows


class MinimalModel:
    """The least set of ground atoms closed under the program's rules:
    ``graph.atoms``, numbered by the pass that found them (``id_of``),
    with ``graph`` its ground derivation graph: each head, seeded or not,
    with the bodies of the rule instances that fire in the model.
    ``relations`` maps each predicate to its atoms."""

    __slots__ = ("graph", "_ids", "_extensions")

    def __init__(self, graph: Graph, ids: dict[tuple[str, ...], int], extensions: Mapping[str, Collection[int]]):
        self.graph = graph
        self._ids = ids  # each atom's key -> its id
        self._extensions = extensions

    def id_of(self, atom: GroundAtom) -> int:
        """The atom's id, its place in ``graph.atoms``; -1 for an atom the
        model does not hold."""
        return self._ids.get(atom.key, -1)

    @property
    def relations(self) -> dict[str, frozenset[GroundAtom]]:
        return {p: self.extension(p) for p, facts in self._extensions.items() if facts}

    def atoms(self) -> frozenset[GroundAtom]:
        return frozenset(self.graph.atoms)

    def __contains__(self, atom: GroundAtom) -> bool:
        return self._ids.get(atom.key, -1) >= 0

    def extension(self, predicate: str) -> frozenset[GroundAtom]:
        return frozenset(map(self.graph.atoms.__getitem__, self._extensions.get(predicate, ())))


Key = str | tuple[str, ...]  # one position: its symbol; several: a tuple


class Relation:
    """The facts of one relation, as ids of the numbered ``atoms`` of a
    join pass, and the hash indexes built on them so far.

    Iterating a relation reads all its facts.  ``index(arity, positions)``
    maps the symbols at ``positions`` (the symbol itself for one position,
    a tuple of them otherwise) to the facts of that arity that carry them
    (symbols hash and compare faster than constants); facts of another
    arity can never match an atom of this arity and are left out.  An
    index is built on first use and kept current by ``update``, so it is
    built at most once per relation.  Relations are scratch data of one
    join pass (a fixpoint or a constraint check): keep none longer.
    """

    __slots__ = ("atoms", "facts", "_indexes")

    def __init__(self, atoms: Sequence[GroundAtom], facts: Sequence[int]):
        self.atoms = atoms
        self.facts = facts
        self._indexes: dict[tuple[int, tuple[int, ...]], dict[Key, list[int]]] = {}

    def __iter__(self) -> Iterator[int]:
        return iter(self.facts)

    def index(self, arity: int, positions: tuple[int, ...]) -> dict[Key, list[int]]:
        index = self._indexes.get((arity, positions))
        if index is None:
            index = self._indexes[arity, positions] = {}
            _add(index, arity, positions, self.atoms, self.facts)
        return index

    def update(self, fresh: Sequence[int]) -> None:
        """Add facts new to the pass to the facts, which must be a list,
        and to every index built so far."""
        self.facts += fresh  # type: ignore[operator]
        for (arity, positions), index in self._indexes.items():
            _add(index, arity, positions, self.atoms, fresh)


def _add(
    index: dict[Key, list[int]], arity: int, positions: tuple[int, ...], atoms: Sequence[GroundAtom], facts: Iterable[int]
):
    one = positions[0] if len(positions) == 1 else None
    # a two-position key, the commonest tuple key, is built without a loop
    first, second = positions if len(positions) == 2 else (None, None)
    for fact in facts:
        args = atoms[fact].args
        if len(args) == arity:
            if one is not None:
                key = args[one].symbol
            elif first is not None:
                key = (args[first].symbol, args[second].symbol)
            else:
                key = tuple([args[p].symbol for p in positions])
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


def _plan(
    atoms: Sequence[Atom],
    comparisons: Sequence[Comparison] = (),
    first: int | None = None,
    rule: Rule | None = None,
) -> _Plan:
    """Compile the conjunction of ``atoms`` and ``comparisons``, every
    variable of the comparisons bound by an atom, for matching the i-th
    atom against the facts of ``sources[i]``.  With a ``rule``, whose body
    the atoms and comparisons are and whose head's variables they bind
    (a ``Program`` holds safe rules only), the kernel fires it
    (``_semi_naive``); without, it yields each match (``_matches``).

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
            else:
                consts.append(constant(t))
                out.append(-len(consts))
        return tuple(out)

    symbol = attrgetter("symbol")
    atom_shape = tuple(shape_of(a.args, symbol) for a in atoms)
    comparison_shape = tuple((c.op == "=", *shape_of((c.left, c.right), symbol)) for c in comparisons)
    head = None
    if rule is not None:
        terms = shape_of(rule.head.args, lambda t: t)
        consts.append(rule.head.predicate)
        head = (terms, len(consts) - 1)
    return _Plan(_kernel((atom_shape, comparison_shape, first, head, len(consts))), tuple(consts))


# the nested loops of one generated function: CPython compiles no
# function with more than 20 statically nested blocks, so a longer plan
# is split into functions that call one another
_DEPTH = 16

# The interpreted tier's bounds (``_kernel``), measured with Python 3.11
# on a 2-core x86 host.  Of the 229 rule shapes of a seed-1 bench session
# pass, 162 run at most 4 times, so 4 cold runs leave 71 to compile.  A
# compile costs 0.2-0.3 ms (``compile`` alone 0.13 ms), and an
# interpreted run about 1.4-1.8 times a compiled one: a fixpoint of the
# access join ran level either way at 50-100 group_user facts, compile
# included, and 20-40% slower interpreted from 200 on.
COLD_RUNS = 4  # runs interpreted before the shape is compiled
COLD_FACTS = 100  # a run whose first step reads more facts compiles at once


def _tuple(items: Iterable[str]) -> str:
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


@lru_cache(maxsize=256)
def _kernel(shape: tuple):
    """The kernel of a plan shape (see ``_plan``), made once for every
    plan of that shape; the cache keeps the 256 shapes used last, and each
    plan keeps its own kernel.  The shape is planned once (``_steps``), and
    both executors read those steps.  A match kernel is compiled at once
    (``_compiled``).  A rule kernel starts cold (``_Cold``): the shape's
    first ``COLD_RUNS`` runs are interpreted (``_interpret``), and it is
    compiled at the next run, or at once for a run whose first step reads
    more than ``COLD_FACTS`` facts; from then on its plans call the
    compiled function (``_rule_plan``).  A rule without atoms, which fires
    once per fixpoint, is compiled at once.  Both executors record the
    same firings in the same order.

    A match kernel ``k0(src, c, chain, A)`` yields each match as its
    facts' atoms.  A rule kernel ``k0(src, c, chain, A, ids, F)`` builds
    each head's key from the head predicate and the symbols it read and
    looks it up in the pass's ``_Numbering`` ``ids``; ``ids.new`` builds
    and numbers a head whose key is not numbered yet (or, under a demand
    that drops it, maps it to -1, whose row discards what it gets).  It
    appends the firing's body, the tuple of its facts, to the head's list
    ``F[id]``.
    ``chain`` is ``()``; a split plan's function passes the next the facts
    its loops bound."""
    atoms, _, _, head, consts = shape
    steps = _steps(shape)
    if head is None or not atoms:
        return _compiled(steps, consts)
    return _Cold(steps, consts)


def _steps(shape: tuple) -> tuple:
    """The one plan of a shape, as both executors read it: the checks
    before any step; per step its atom, arity, probed positions (None: a
    scan), the probe's key (``one``, the place of the one variable it
    reads, else ``probe``, the places of its symbols), whether that key
    is all constants, and its checks; the head's terms (None: a match
    kernel); the head predicate's place in ``c``; and the number of atoms.

    The atom ``first`` (the delta of a semi-naive round) is matched first,
    then each time the atom with the most bound positions, textual order
    breaking ties.  The first step scans; every later one probes an index
    on its bound positions.  A fact is named by its slot, its atom's place
    in textual order.  A term is read at the (slot, position) of the fact
    that binds its variable, or at (-1, k) for the constant ``c[k]``.  A
    check ``(slot, position, slot, position, equal)`` fails when its two
    symbols are identical and ``equal`` is False, or are not and it is
    True; a step checks a scan's constants, then the positions a repeated
    variable must agree on, then the comparisons whose variables it is
    the last to bind."""
    atoms, comparisons, first, head, _ = shape
    where: dict[int, tuple[int, int]] = {}  # variable -> (slot, position) that binds it
    pending = list(comparisons)

    def ref(n: int) -> tuple[int, int]:
        return (-1, -n - 1) if n < 0 else where[n]

    def bound() -> list[tuple]:
        """The checks of the pending comparisons whose variables are all
        bound, which leave ``pending`` (equal ones are due together)."""
        due = [cmp_ for cmp_ in pending if all(n < 0 or n in where for n in cmp_[1:])]
        pending[:] = [cmp_ for cmp_ in pending if cmp_ not in due]
        return [(*ref(left), *ref(right), equal) for equal, left, right in due]

    prechecks = tuple(bound())  # nothing is bound: constants only
    todo = list(range(len(atoms)))
    plan = []
    while todo:
        if first is not None and not plan:
            i = first
        else:
            most = -1
            for j in todo:  # ascending, so ties go to the textual first
                count = sum(1 for n in atoms[j] if n < 0 or n in where)
                if count > most:
                    most, i = count, j
        todo.remove(i)
        terms = atoms[i]
        if plan:
            positions = tuple(p for p, n in enumerate(terms) if n < 0 or n in where)
            probe, checks = tuple(ref(terms[p]) for p in positions), []
        else:
            positions, probe = None, ()
            checks = [(i, p, -1, -n - 1, True) for p, n in enumerate(terms) if n < 0]
        for p, n in enumerate(terms):
            if n >= 0 and n not in where:
                where[n] = (i, p)
        checks += [(i, p, *where[n], True) for p, n in enumerate(terms) if n >= 0 and where[n][0] == i and where[n][1] != p]
        checks += bound()
        fixed = all(s < 0 for s, _ in probe)
        one = probe[0] if len(probe) == 1 and not fixed else None
        plan.append((i, len(terms), positions, one, probe, fixed, tuple(checks)))
    if head is None:
        return prechecks, tuple(plan), None, None, len(atoms)
    return prechecks, tuple(plan), tuple(map(ref, head[0])), head[1], len(atoms)


def _compiled(steps: tuple, consts: int):
    """The kernel compiled from a shape's ``_steps``, with ``consts``
    constants: Python source with one nested ``for`` per step, each index
    fetched before the loops, and its bucket too when the probe's key is
    known there, every check inlined (a scan's arity by ``len``, the
    others as ``is`` tests on symbols).  A fact is an id, whose atom the
    kernel reads in the pass's numbered atoms ``A``.  The source holds
    only slots, positions and generated names; the constants come in the
    tuple ``c``."""
    prechecks, plan, head, predicate, width = steps
    chunks = [plan[s : s + _DEPTH] for s in range(0, len(plan), _DEPTH)] or [()]
    tail = ", ids, F" if head is not None else ""
    unpack = [f"{''.join(f'c{k}, ' for k in range(consts))}= c"] if consts else []
    lines = []
    before: list[int] = []  # the slots bound before a function's loops
    for j, chunk in enumerate(chunks):
        used: set[int] = set()  # the slots whose arguments the function reads

        def term(s: int, p: int) -> str:
            if s < 0:
                return f"c{p}"
            used.add(s)
            return f"a{s}[{p}]"

        def symbol(s: int, p: int) -> str:
            return f"c{p}" if s < 0 else term(s, p) + ".symbol"

        def fails(check: tuple) -> str:
            ls, lp, rs, rp, equal = check
            return f"{symbol(ls, lp)} is {'not ' if equal else ''}{symbol(rs, rp)}"

        fetches, loops = [], []
        for i, arity, positions, _, probe, _, checks in chunk:
            if positions is None:
                used.add(i)
                loop = f"for f{i} in src[{i}]:"
                conds = [f"len(a{i}) != {arity}"]
            else:
                probed = [symbol(s, p) for s, p in probe]
                key = probed[0] if len(probed) == 1 else _tuple(probed)
                fetch = f"src[{i}].index({arity}, {positions!r})"
                if all(s < 0 or s in before for s, _ in probe):
                    fetches.append(f"x{i} = {fetch}.get({key}, ())")
                    loop = f"for f{i} in x{i}:"
                else:
                    fetches.append(f"x{i} = {fetch}")
                    loop = f"for f{i} in x{i}.get({key}, ()):"
                conds = []
            loops.append((loop, i, conds + [fails(check) for check in checks]))
        after = sorted(before + [step[0] for step in chunk])
        if j + 1 < len(chunks):
            call = f"k{j + 1}(src, c, {_tuple(f'f{s}' for s in after)}, A{tail})"
            innermost = [call if head is not None else "yield from " + call]
        elif head is None:
            innermost = [f"yield {_tuple(f'A[f{i}]' for i in range(width))}"]
        else:
            terms = [term(s, p) for s, p in head]  # the head's constants are Constants
            key = _tuple([f"c{predicate}", *(t + ".symbol" for t in terms)])
            fired = _tuple(f"f{i}" for i in range(width))
            # one statement, the key bound in its test: a program compiles a
            # kernel per shape, at a cost that grows with the source
            innermost = [f"F[ids[k] if (k := {key}) in ids else ids.new(k, {_tuple(terms)})].append({fired})"]

        body = [f"{''.join(f'f{s}, ' for s in before)}= chain"] if before else []
        body += [f"a{s} = A[f{s}].args" for s in before if s in used]
        body += unpack
        if j == 0 and prechecks:
            body += [f"if {' or '.join(map(fails, prechecks))}:", "    return"]
        body += fetches
        indent = ""
        for loop, slot, conds in loops:
            body.append(indent + loop)
            indent += "    "
            if slot in used:
                body.append(f"{indent}a{slot} = A[f{slot}].args")
            if conds:
                body += [f"{indent}if {' or '.join(conds)}:", f"{indent}    continue"]
        body += [indent + line for line in innermost]
        lines.append(f"def k{j}(src, c, chain, A{tail}):")
        lines += ["    " + line for line in body]
        before = after
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", "<whyd kernel>", "exec"), namespace)
    return namespace["k0"]


class _Cold:
    """The kernel of a rule shape until it is compiled: a run is
    interpreted from the shape's ``steps`` while the shape has run at
    most ``COLD_RUNS`` times and the run's first step reads at most
    ``COLD_FACTS`` facts; the run past either compiles those steps, with
    the shape's ``consts`` constants (``compiled``), and every later run
    calls that.  The steps are dropped once compiled."""

    __slots__ = ("steps", "consts", "runs", "compiled")

    def __init__(self, steps: tuple, consts: int):
        self.steps = steps
        self.consts = consts
        self.runs = 0
        self.compiled = None

    def __call__(self, src, c, chain, A, ids, F) -> None:
        kernel = self.compiled
        if kernel is None:
            self.runs += 1
            steps = self.steps
            if self.runs <= COLD_RUNS and len(src[steps[1][0][0]].facts) <= COLD_FACTS:
                return _interpret(steps, src, c, A, ids, F)
            kernel = self.compiled = _compiled(steps, self.consts)
            self.steps = None
        kernel(src, c, chain, A, ids, F)


def _probed(probe: tuple, c: tuple, args: list) -> Key:
    """The key a step probes its index with: the symbols at ``probe``."""
    symbols = [c[p] if s < 0 else args[s][p].symbol for s, p in probe]
    return symbols[0] if len(symbols) == 1 else tuple(symbols)


_symbol = attrgetter("symbol")


def _interpret(steps: tuple, src: Sequence[Relation], c: tuple, A: list, ids: _Numbering, F: list) -> None:
    """One run of a rule shape's join from its ``_steps``, as its compiled
    kernel runs it: the same indexes fetched and the same facts read
    through the same relations, and the same firings recorded in the same
    order into the numbering ``ids`` and the rows ``F``.  The nested loops
    are a stack of iterators, one per step entered, so a run makes no
    closure and no reference cycle."""
    prechecks, plan, head, predicate, width = steps
    for ls, lp, rs, rp, equal in prechecks:  # nothing is bound: constants only
        if (c[lp] is c[rp]) is not equal:
            return
    args: list = [None] * width  # each atom's fact's arguments
    body: list = [0] * width  # each atom's fact
    # per step its relation (a scan), its index, or the bucket a probe
    # with a key known before the loops reads
    fetched: list = []
    for i, arity, positions, _, probe, fixed, _ in plan:
        if positions is None:
            fetched.append(src[i])
        else:
            index = src[i].index(arity, positions)
            fetched.append(index.get(_probed(probe, c, args), ()) if fixed else index)
    last = len(plan) - 1
    loops = [iter(fetched[0])]
    while loops:
        d = len(loops) - 1
        i, arity, positions, _, _, _, tests = plan[d]
        for f in loops[d]:
            a = args[i] = A[f].args
            if positions is None and len(a) != arity:
                continue
            for ls, lp, rs, rp, equal in tests:
                if ((c[lp] if ls < 0 else args[ls][lp].symbol) is (c[rp] if rs < 0 else args[rs][rp].symbol)) is not equal:
                    break
            else:
                body[i] = f
                if d < last:
                    break  # leaves the facts' loop: enter step d + 1
                terms = []
                for s, p in head:
                    terms.append(c[p] if s < 0 else args[s][p])
                key = (c[predicate], *map(_symbol, terms))
                n = ids.get(key)
                F[ids.new(key, tuple(terms)) if n is None else n].append(tuple(body))
        else:
            loops.pop()
            continue
        _, _, _, one, probe, fixed, _ = plan[d + 1]
        source = fetched[d + 1]
        if fixed:
            loops.append(iter(source))
        elif one is not None:
            loops.append(iter(source.get(args[one[0]][one[1]].symbol, ())))
        else:
            loops.append(iter(source.get(_probed(probe, c, args), ())))


def _matches(plan: _Plan, atoms: Sequence[GroundAtom], sources: Sequence[Relation]) -> Iterator[tuple[GroundAtom, ...]]:
    """Each match of a plan compiled without a rule: the facts its atoms
    matched (the i-th from ``sources[i]``, relations over the numbered
    ``atoms``), as atoms in textual order."""
    return plan.kernel(sources, plan.consts, (), atoms)


def _rule_plan(rule: Rule, first: int | None = None) -> _Plan:
    """The plan of the rule with its delta at body atom ``first`` (None:
    every atom reads the full relation), made on first use and kept on
    the rule for as long as it lives: ``rule._plans[i]`` with the delta
    at i, the last one with none.  A plan whose cold kernel has been
    compiled since is handed out with the compiled one in its place."""
    plans = rule._plans
    slot = -1 if first is None else first
    if plans is not None:
        plan = plans[slot]
        if plan is not None:
            kernel = plan.kernel
            if kernel.__class__ is _Cold and kernel.compiled is not None:
                plan.kernel = kernel.compiled  # its shape is hot: call it directly
            return plan
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


# the rows' last entry in a pass under a demand: the firings of every
# head it does not demand go there, and are dropped
_DISCARD: deque = deque(maxlen=0)


class _Numbering(dict):
    """The keys (``GroundAtom.key``) of the atoms of a join pass mapped to
    their ids, their places in ``atoms``; ``rows[i]`` lists the firings
    of atom i.  A rule kernel looks each head it derives up by its key,
    built from interned symbols, so a known head costs no atom; ``new``
    builds and numbers one that is not known yet.  Under a ``demand``
    (None: every head), ``new`` maps a head it does not demand to -1,
    the discard row that ends ``rows``, so that each later firing of it
    costs one lookup and is dropped."""

    __slots__ = ("atoms", "rows", "demand")

    def new(self, key: tuple[str, ...], args: tuple[Constant, ...]) -> int:
        """The id of a new atom, built from its key (the predicate
        first) and its arguments, or -1 for a head the demand rejects."""
        if self.demand is not None and not demanded(self.demand, key):
            self[key] = -1
            return -1
        n = self[key] = len(self.atoms)
        self.atoms.append(derived_atom(key[0], args, key))
        self.rows.insert(n, [])  # before the discard row, if any
        return n

    def graph(self, seeds: int) -> Graph:
        """The pass's derivation graph, its first ``seeds`` atoms its
        seeds; ends the pass."""
        if self.demand is not None:
            self.rows.pop()  # the discard row
        return Graph(self.atoms, seeds, self.rows)


def _seed(facts: Iterable[GroundAtom], demand: Demand | None = None) -> tuple[_Numbering, dict[str, Relation]]:
    """The facts of a join pass numbered in the order given, each once,
    whatever the demand, and the relations they make."""
    ids = _Numbering()
    ids.demand = demand
    atoms = ids.atoms = []
    by_predicate: dict[str, list[int]] = {}
    number, group = ids.setdefault, by_predicate.get
    n = 0
    for fact in facts:
        if number(fact.key, n) == n:
            atoms.append(fact)
            held = group(fact.predicate)
            if held is None:
                by_predicate[fact.predicate] = [n]
            else:
                held.append(n)
            n += 1
    ids.rows = [[] for _ in range(n)]
    if demand is not None:
        ids.rows.append(_DISCARD)
    return ids, {p: Relation(atoms, held) for p, held in by_predicate.items()}


def _first_round(rules: Sequence[Rule], relations: dict[str, Relation], ids: _Numbering) -> list[list[Relation]]:
    """Round 0: each rule joined once over the full relations, into
    ``ids``; returns the relations each rule's body atoms read."""
    empty = Relation(ids.atoms, ())
    fulls = [[relations.get(p, empty) for p in rule._predicates] for rule in rules]
    for rule, full in zip(rules, fulls):
        plan = _rule_plan(rule)
        plan.kernel(full, plan.consts, (), ids.atoms, ids, ids.rows)
    return fulls


def _grow(relations: dict[str, Relation], atoms: list[GroundAtom], start: int) -> dict[str, Relation]:
    """Add the atoms numbered from ``start`` on to their relations, and
    return them as the next round's deltas, by predicate."""
    fresh: dict[str, list[int]] = {}
    for n in range(start, len(atoms)):
        fresh.setdefault(atoms[n].predicate, []).append(n)
    for p, new in fresh.items():
        relations[p].update(new)
    return {p: Relation(atoms, new) for p, new in fresh.items()}


def _semi_naive(program: Program, facts: Iterable[GroundAtom], demand: Demand | None) -> MinimalModel:
    """The one semi-naive loop: the minimal model over the seed facts,
    numbered, with its derivation graph; under a demand, the part of it
    the demand holds.  Round 0 joins every rule over the full relations;
    a later round runs the joins its deltas trigger, in rule and then
    atom order, found in a map built once per pass (``triggers``)."""
    ids, relations = _seed(facts, demand)
    atoms, rows, seeds = ids.atoms, ids.rows, len(ids.atoms)
    for rule in program.rules:
        relations.setdefault(rule.head.predicate, Relation(atoms, []))
    # a rule without atoms has no atom to carry a delta: it fires once,
    # before round 0, and its heads seed the model
    bodiless = [rule for rule in program.rules if not rule._predicates]
    if bodiless:
        _first_round(bodiless, relations, ids)
        _grow(relations, atoms, seeds)
    rules = [rule for rule in program.rules if rule._predicates]
    start = len(atoms)
    # (rule's place, atom's place, rule, its full sources): the places
    # are unique, so sorting the joins of several deltas compares no rule
    triggers: dict[str, list[tuple[int, int, Rule, list[Relation]]]] = {}
    for r, (rule, full) in enumerate(zip(rules, _first_round(rules, relations, ids))):
        for i, p in enumerate(rule._predicates):
            triggers.setdefault(p, []).append((r, i, rule, full))
    while len(atoms) > start:
        deltas = _grow(relations, atoms, start)
        start = len(atoms)
        if len(deltas) == 1:
            joins = triggers.get(next(iter(deltas)), ())
        else:
            joins = sorted(join for p in deltas for join in triggers.get(p, ()))
        for _, i, rule, full in joins:
            sources = full.copy()
            sources[i] = deltas[rule._predicates[i]]
            plan = _rule_plan(rule, i)
            plan.kernel(sources, plan.consts, (), atoms, ids, rows)
    return MinimalModel(ids.graph(seeds), ids, {p: rel.facts for p, rel in relations.items()})


def evaluate_fixpoint(
    program: Program, instance: Instance | Iterable[GroundAtom], demand: Demand | None = None
) -> MinimalModel:
    """Least fixpoint of ``program`` over the given facts, with its
    derivation graph; the facts are numbered first, in the order given.
    Under a ``demand`` (``demand.demand_of``; None: every head) the
    model keeps the seeds and the heads the demand holds, each with every
    firing it has in the whole model: no firing of a demanded head reads
    a head the demand drops.  A dropped atom is not in the model
    (``id_of`` gives -1).

    Facts may mention intensional predicates; they simply seed the model,
    which is what the abduction-to-causality constructions rely on.
    """
    return _semi_naive(program, instance.atoms if isinstance(instance, Instance) else instance, demand)


def ground(program: Program, facts: Iterable[GroundAtom], demand: Demand | None = None) -> Graph:
    """The ground program of ``program`` over the facts: the fixpoint's
    round 0 alone (``_first_round``), into a numbering of its own whose
    seeds are the facts, each once in the order given; under a
    ``demand``, only the firings of the seeds and of the heads it holds.
    Over a closed model it is the model's derivation graph: it numbers no
    head past the seeds, so it builds no atom."""
    ids, relations = _seed(facts, demand)
    seeds = len(ids.atoms)
    _first_round(program.rules, relations, ids)
    return ids.graph(seeds)


# a derivation graph's part that some goals reach: each head's id with
# its bodies, as tuples of ids, in ``reached``'s order
Reached = list[tuple[int, Sequence[tuple[int, ...]]]]


def reached(graph: Graph, goals: Iterable[int]) -> tuple[Reached, bool]:
    """The part of a derivation graph the goals (ids) reach backward,
    which every derivation of a goal uses: each head with its bodies, in
    depth-first post-order (off cycles, after the heads in its bodies),
    and whether that part is cyclic.  It is exactly when the walk meets
    a head it is still expanding (a back edge): then, and only then, a
    body holds a head at its own head's position or a later one, so that
    one sweep in this order may read a head before its last change."""
    # 1 (True): a head not yet seen; 2: its bodies are pushed; 0
    # (False): it is out, or not a head
    rows = graph.rows
    state: list[int] = list(map(bool, rows))
    pending: dict[int, Sequence[tuple[int, ...]]] = {}
    out: Reached = []
    cyclic = False
    stack = [goal for goal in goals if state[goal]]
    while stack:
        head = stack[-1]
        if state[head] == 1:
            # its unseen heads go above it and are done before it; the
            # heads still being expanded are below it on the stack
            state[head] = 2
            bodies = pending[head] = rows[head]
            for body in bodies:
                for atom in body:
                    seen = state[atom]
                    if seen == 1:
                        stack.append(atom)
                    elif seen == 2:
                        cyclic = True
        else:
            stack.pop()
            if state[head]:
                state[head] = 0
                out.append((head, pending.pop(head)))
    return out, cyclic


def propagate(program: Reached, cyclic: bool, masks: list[int]) -> None:
    """The minimal models of worlds (fact sets) inside one model, read off
    its ground program with no join (Dowling & Gallier, JLP 1984).
    ``masks`` holds, by id, the bitmask of the worlds that hold each of
    the model's atoms as a fact (bit i: the i-th world; -1: all), and
    ends holding the worlds whose models hold it.  A firing's mask, the
    AND of its body's, is ORed into its head's, in one sweep in the
    program's order, and in further sweeps until none grows only if the
    program is ``cyclic`` (as ``reached`` reports): in any other order,
    pass True."""
    grown = True
    while grown:
        grown = False
        for head, bodies in program:
            old = masks[head]
            mask = old
            for body in bodies:
                both = -1
                for atom in body:
                    both &= masks[atom]
                mask |= both
            if mask != old:
                masks[head] = mask
                grown = cyclic


def holds(program: Program, instance: Instance | Iterable[GroundAtom], atom: GroundAtom) -> bool:
    """True iff ``atom`` belongs to the minimal model: its part that the
    atom's demand holds."""
    known = program.arity_of(atom.predicate)
    base = instance.atoms if isinstance(instance, Instance) else frozenset(instance)
    if known is None and all(a.predicate != atom.predicate for a in base):
        raise UnknownPredicateError(f"predicate {atom.predicate} unknown to the program and instance")
    model = evaluate_fixpoint(program, base, demand_of(program, (atom,)))
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
