"""Datalog abduction: diagnoses, relevance, necessity, and the two
reductions between abduction and query-answer causality.

A diagnosis is a subset-minimal set of hypothesis atoms that, added to
the background theory (program plus extensional facts), entails the
observation.  The diagnoses are the observation's minimal
why-provenance: the fixpoint runs the caller's program over the facts
and every hypothesis under the observation's demand (``demand``: the
heads some derivation of it can use) and records the ground derivation
graph of that model, each demanded head with every firing it has in the
full model; one pass annotates the graph with antichains of hypothesis
sets in the absorptive PosBool semiring (Green, Karvounarakis & Tannen,
PODS 2007).  The observation atoms are the goal, and no goal rule is
built: the diagnosis family of a conjunction is the product of its
atoms' antichains, the minimal unions of one set from each.  The pass
sweeps the part of the graph the goal reaches in derivation order, so
that off cycles each head is annotated once, and holds the sets as
bitmasks.  The graph is over integers (``evaluator.Graph``): the
fixpoint numbers the extensional facts first, then the other
hypotheses, then the derived atoms, so a fact's kind is an id range and
the pass indexes lists by id instead of hashing atoms.  The reached
hypotheses are numbered in descending canonical atom order, bit i for
the i-th (``model.bit_order``), so a family of masks sorted by
(popcount, -mask) is in canonical family order.  The graph lives only
as long as its solve: what is kept is the family, as masks next to the
hypothesis atoms (``Family``), decoded once into the frozensets callers
get; every later search (``hitting``) and constraint check reads the
masks.  Each family is checked by direct evaluation before it is
returned: every set, and every set with one element dropped, is a
world, and all of them are propagated over a ground program that the
check derives again by joins under the same demand, into a numbering
of its own that the recorded graph's atoms seed in the graph's order.
The worlds are bits, each set's own and its drops' in one span, so a
fact starts with the spans it lies in and a set is read off its span.
Hypotheses are plain
tuples, so a problem is a plain value, solved when it is built: equal
problems share one cached family and one cached hitting-set search of
it (``_necessary_masks``), whatever labels their callers give the tuples.
Every deletion notion of ``viewupdate`` and ``vc`` reads that search of
its answer's problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Sequence

from .demand import Demand, demand_of
from .errors import (
    InternalInvariantError,
    NotBooleanError,
    NotEntailedError,
    ObservationNotEntailableError,
    UnknownHypothesisError,
)
from .evaluator import Graph, evaluate_fixpoint, fresh_predicate, ground, propagate, reached
from .hitting import minimal_hitting_sets
from .model import CACHE_SIZE, Atom, GroundAtom, Instance, Program, Rule, canonical_masks, decode, positions

Diagnosis = frozenset[GroundAtom]
# a conjunction of atoms whose minimal why-provenance is asked for, as
# their ids in a derivation graph
Goal = tuple[int, ...]


@dataclass(frozen=True)
class AbductionProblem:
    """``(program, extensional facts, hypotheses, observation)`` with the
    standing assumption that program + facts + all hypotheses entail the
    observation.  Construction solves the problem (``solve_diagnoses``),
    which checks that assumption: a problem that exists has been solved,
    and its diagnoses stay cached until ``model.CACHE_SIZE`` problems
    solved since have pushed them out."""

    program: Program
    extensional: frozenset[GroundAtom]
    hypotheses: frozenset[GroundAtom]
    observation: tuple[GroundAtom, ...]

    def __post_init__(self):
        # Hypotheses over rule-head predicates are tolerated: the marker
        # encoding of propositional Horn abduction needs them, and the
        # provenance pass only relies on monotonicity, never on
        # head-freeness.
        if not self.observation:
            raise ObservationNotEntailableError("empty observation")
        solve_diagnoses(self)


def _minimal_why(graph: Graph, extensional: int, goal: Goal) -> tuple[list[int], list[int]]:
    """The goal's minimal why-provenance over the hypotheses: the
    subset-minimal hypothesis sets that derive all its atoms, given the
    derivation graph of the model over the extensional facts and every
    hypothesis, numbered so that ids below ``extensional`` are the
    extensional facts and the other seeds the hypotheses.  Returns the
    ids of the reached hypotheses and the family as bitmasks over them
    (bit i: the i-th); the ids come in descending canonical order of
    their atoms, the numbering of ``model.bit_order``.

    Every derivation from the background plus some hypotheses only uses
    ground rule instances that fire in that model, so the graph holds
    them all; only the part the goal reaches (``reached``) matters, and a
    head's bodies count as a set.  Each atom is annotated with an
    antichain in the absorptive PosBool semiring, its sets held as
    bitmasks over the reached hypotheses: background facts and heads of
    atom-less firings with {∅}, other hypotheses h with {{h}}, a firing
    with the pairwise unions of its body antichains, a head with the
    minimal sets over its own and its firings'.  One sweep in
    ``reached``'s order, which puts a head after the heads in its bodies,
    annotates each head once from its final inputs.  Only if some body
    reads a head at the same or a later position (a cycle) do further
    sweeps run, each annotating again the heads whose inputs changed,
    until no antichain changes; antichains only move down a finite lattice, so
    the sweeps stop.  The goal's family is the product of its atoms'
    antichains; a one-atom goal's is its atom's."""
    program, cyclic = reached(graph, goal)
    atoms, seeds = graph.atoms, graph.seeds
    hypotheses: list[int] = []
    why: list[list[int] | None] = [None] * len(atoms)
    for head, bodies in program:
        if () in bodies:
            why[head] = [0]
    # every reached head is a goal atom or in a reached body
    for atom in chain(goal, (a for _, bodies in program for body in bodies for a in body)):
        if why[atom] is None:
            if atom < extensional:
                why[atom] = [0]
            else:
                why[atom] = []
                if atom < seeds:
                    hypotheses.append(atom)
    # bit i: the i-th in descending canonical order (``model.bit_order``)
    hypotheses.sort(key=lambda h: atoms[h].sort_key(), reverse=True)
    for bit, atom in enumerate(hypotheses):
        why[atom] = [1 << bit]
    # {∅} absorbs every set: heads annotated with it are final
    order = [(head, set(bodies)) for head, bodies in program if why[head] != [0]]
    # a head is annotated again only if a body atom changed since it was
    # last annotated: at a later clock than its own
    changed_at = [0] * len(atoms)
    read_at = [-1] * len(atoms)
    clock = 0
    sweep = True
    while sweep:
        sweep = False
        for head, bodies in order:
            last = read_at[head]
            if last >= 0 and all(changed_at[a] <= last for body in bodies for a in body):
                continue
            known = why[head]
            why[head] = _prune(known + [d for body in bodies for d in _product([why[a] for a in body])])
            read_at[head] = clock
            if cyclic and set(why[head]) != set(known):
                clock += 1
                changed_at[head] = clock
                sweep = True
    family = why[goal[0]] if len(goal) == 1 else _product([why[a] for a in goal])
    return hypotheses, family  # type: ignore[return-value]


def _prune(candidates: list[int]) -> list[int]:
    """The subset-minimal sets among the candidates, smallest first."""
    if len(candidates) == 1:
        return candidates
    out: list[int] = []
    for cand in sorted(set(candidates), key=int.bit_count):
        if not any(prev & cand == prev for prev in out):
            out.append(cand)
    return out


def _product(families: list[list[int]]) -> list[int]:
    """The minimal unions of one set from each antichain."""
    out = [0]
    for family in families:
        if out == [0]:
            out = family
        elif len(out) == len(family) == 1:
            out = [out[0] | family[0]]
        elif family != [0]:
            out = _prune([left | right for left in out for right in family])
    return out


class Family(tuple):
    """A family of hypothesis sets in canonical order, as a tuple of
    frozensets, with the bitmasks it was decoded from: ``masks[i]`` is
    the i-th set over ``atoms``, the hypotheses numbered as
    ``model.bit_order`` does (bit j: ``atoms[j]``).  Equal to the plain
    tuple of its sets."""

    masks: tuple[int, ...]
    atoms: tuple[GroundAtom, ...]


def _family(masks: Iterable[int], atoms: tuple[GroundAtom, ...]) -> Family:
    """The family of the masks over ``atoms``, decoded in the order given."""
    masks = tuple(masks)
    family = Family([decode(mask, atoms) for mask in masks])
    family.masks, family.atoms = masks, atoms
    return family


def _render(delta: Diagnosis) -> str:
    return "{" + ", ".join(str(a) for a in sorted(delta, key=GroundAtom.sort_key)) + "}"


def _render_goal(graph: Graph, goal: Goal) -> str:
    return ", ".join(str(graph.atoms[a]) for a in goal)


def _check(
    program: Program,
    graph: Graph,
    extensional: int,
    goal: Goal,
    hypotheses: Sequence[int],
    family: Sequence[int],
    demand: Demand | None,
) -> None:
    """Check the goal's family (bitmasks over the hypotheses, as
    ``_minimal_why`` gives it) directly, by evaluation: the family is
    not empty, each set entails every atom of the goal with the
    extensional facts (the graph's first ids), and no set with one
    element dropped does; raises ``InternalInvariantError``.

    Each set is a world, and so is each set with its i-th atom dropped:
    set j, of k atoms, owns the k + 1 bits of worlds from ``o_j`` on,
    the set itself first.  The recorded ``graph`` is not trusted: its
    extensional facts, the worlds' facts and its other heads seed a
    numbering of the check's own, in the graph's order, and every rule
    is joined over them again under the ``demand`` the graph was
    recorded under; a demanded head numbered past those seeds is derived
    outside them.  Then every derivation inside a world is one of those
    firings (a first one that is not would have its body, so its head,
    among them), and the worlds are propagated over the ground program
    the goal reaches: an extensional fact starts in every world, a
    hypothesis in each span it lies in, but for the world that drops it.
    One list maps graph ids to check ids, so no atom is looked up in the
    check's numbering; a check id is the graph id unless some hypothesis
    in no world and with no firing is left out.  Set j passes iff
    the only world of its span whose model holds the goal is its first;
    otherwise the lowest other such world names the redundant atom."""
    if not family:
        raise InternalInvariantError(f"no diagnosis found for {_render_goal(graph, goal)}, which is entailable")
    used = 0  # the hypotheses of some world
    for delta in family:
        used |= delta
    keep = list(map(bool, graph.rows))  # the seeds: the heads, ...
    keep[:extensional] = [True] * extensional  # ... the extensional facts ...
    for bit in positions(used):  # ... and the worlds' facts
        keep[hypotheses[bit]] = True
    seeds = list(compress(range(len(keep)), keep))  # in the graph's ids
    new_id = [-1] * len(keep)  # a graph id -> its check id; -1: no seed
    for n, atom in enumerate(seeds):
        new_id[atom] = n
    check = ground(program, map(graph.atoms.__getitem__, seeds), demand)
    if check.seeds < len(seeds):
        raise InternalInvariantError("a hypothesis is given twice")
    if len(check.atoms) > check.seeds:
        raise InternalInvariantError(f"the recorded graph is not closed: it misses {check.atoms[check.seeds]}")
    masks = [-1] * extensional + [0] * (len(check.atoms) - extensional)  # each atom's worlds, by check id
    offset = 0
    for delta in family:
        bits = positions(delta)
        span = ((2 << len(bits)) - 1) << offset  # the set, then the set without its i-th atom
        for i, bit in enumerate(bits):
            masks[new_id[hypotheses[bit]]] |= span ^ 2 << offset + i
        offset += len(bits) + 1
    # a goal atom that is no seed is a hypothesis in no world
    numbered = [new_id[atom] for atom in goal]
    part, cyclic = reached(check, [atom for atom in numbered if atom >= 0])
    propagate(part, cyclic, masks)
    held = -1  # the worlds holding every atom of the goal
    for atom in numbered:
        held &= masks[atom] if atom >= 0 else 0
    offset = 0
    for delta in family:
        size = delta.bit_count()
        span = held >> offset & (2 << size) - 1
        offset += size + 1
        if span == 1:
            continue
        named = [graph.atoms[h] for h in hypotheses]
        if not span & 1:
            raise InternalInvariantError(
                f"diagnosis {_render(decode(delta, named))} does not entail {_render_goal(graph, goal)}"
            )
        rest = span ^ 1  # the worlds without one atom that hold the goal
        redundant = positions(delta)[(rest & -rest).bit_length() - 2]
        raise InternalInvariantError(
            f"diagnosis {_render(decode(delta, named))} of {_render_goal(graph, goal)} is not minimal:"
            f" {named[redundant]} is redundant"
        )


@lru_cache(maxsize=CACHE_SIZE)
def solve_diagnoses(problem: AbductionProblem) -> Family:
    """All abductive diagnoses, in canonical order, with their bitmasks
    (``Family``) over the reached hypotheses, numbered as
    ``model.bit_order`` does.  Never empty; equals ``(frozenset(),)``
    when the background theory already entails the observation.

    One fixpoint over the extensional facts and then the other
    hypotheses, under the observation's demand, records the derivation
    graph, one provenance pass over it
    gives the family (``_minimal_why``) and ``_check`` verifies it before
    it is returned, raising ``InternalInvariantError`` if it fails; the
    graph is then dropped.  An observation atom outside the model raises
    ``ObservationNotEntailableError``.  Results are cached by problem
    value (``cache_info``, ``cache_clear``), so equal problems share
    them; each problem's construction looks its own up.  The cache keeps
    the ``model.CACHE_SIZE`` problems used last: a problem pushed out is
    solved again when it is asked for again."""
    program, fixed = problem.program, problem.extensional
    demand = demand_of(program, problem.observation)
    model = evaluate_fixpoint(program, chain(fixed, problem.hypotheses - fixed), demand)
    goal = tuple(map(model.id_of, problem.observation))
    if -1 in goal:
        raise ObservationNotEntailableError("the observation is not entailed even with every hypothesis added")
    hypotheses, family = _minimal_why(model.graph, len(fixed), goal)
    _check(program, model.graph, len(fixed), goal, hypotheses, family, demand)
    return _family(canonical_masks(family), tuple([model.graph.atoms[h] for h in hypotheses]))


def relevant_hypotheses(problem: AbductionProblem) -> frozenset[GroundAtom]:
    """Hypotheses contained in at least one diagnosis."""
    solutions = solve_diagnoses(problem)
    union = 0
    for delta in solutions.masks:
        union |= delta
    return decode(union, solutions.atoms)


def necessary_hypotheses(problem: AbductionProblem) -> frozenset[GroundAtom]:
    """Hypotheses contained in every diagnosis."""
    solutions = solve_diagnoses(problem)
    common = -1
    for delta in solutions.masks:
        common &= delta
    return decode(common, solutions.atoms)


@lru_cache(maxsize=CACHE_SIZE)
def _necessary_masks(problem: AbductionProblem) -> tuple[int, ...]:
    """``necessary_hypothesis_sets`` as masks over the problem's
    ``solve_diagnoses`` atoms: its one hitting-set search, cached by
    problem value (the ``model.CACHE_SIZE`` problems used last)."""
    return tuple(minimal_hitting_sets(solve_diagnoses(problem).masks))


def necessary_hypothesis_sets(problem: AbductionProblem) -> Family:
    """Subset-minimal sets of hypotheses whose removal leaves the
    observation unexplainable, in canonical order, with their bitmasks.
    Removing N kills every diagnosis exactly when N hits every diagnosis,
    so these are the minimal hitting sets of the diagnosis family."""
    return _family(_necessary_masks(problem), solve_diagnoses(problem).atoms)


def necessity_degree(problem: AbductionProblem, hypothesis: GroundAtom) -> Fraction:
    """1/|N| for the smallest necessary-hypothesis set containing the
    hypothesis, 0 when it is in none: read off the masks, the first that
    holds its bit being the smallest (canonical order), with no set
    decoded."""
    if hypothesis not in problem.hypotheses:
        raise UnknownHypothesisError(f"{hypothesis} is not a hypothesis of this problem")
    try:
        bit = 1 << solve_diagnoses(problem).atoms.index(hypothesis)
    except ValueError:  # in no diagnosis, so in no minimal hitting set
        return Fraction(0)
    for n in _necessary_masks(problem):
        if n & bit:
            return Fraction(1, n.bit_count())
    return Fraction(0)


def necessity_degrees(hypotheses: Iterable[GroundAtom], necessary_sets: Iterable[Diagnosis]) -> dict[GroundAtom, Fraction]:
    """Every hypothesis's necessity degree, read off one search's necessary-hypothesis sets."""
    degrees = dict.fromkeys(hypotheses, Fraction(0))
    for n in sorted(necessary_sets, key=len, reverse=True):
        degrees.update(dict.fromkeys(n, Fraction(1, len(n))))
    return degrees


def to_causal_abduction(instance: Instance, program: Program) -> AbductionProblem:
    """The causal abduction problem of a Boolean query true in the
    instance: exogenous tuples become the extensional database, the
    endogenous ones the hypotheses, the answer atom the observation."""
    if not program.is_boolean():
        raise NotBooleanError(f"answer predicate {program.answer_predicate} is not nullary")
    ans = GroundAtom(program.answer_predicate, ())
    try:
        return AbductionProblem(program, instance.exogenous, instance.endogenous, (ans,))
    except ObservationNotEntailableError:
        raise NotEntailedError("the query is not true in the instance") from None


def from_abduction_to_causality(problem: AbductionProblem) -> tuple[Instance, Program]:
    """The causal reading of an abduction problem: a fresh Boolean query
    ``ans <- Obs`` over the instance whose exogenous part is the
    extensional database and whose endogenous part is the hypothesis set."""
    taken = {r.head.predicate for r in problem.program.rules}
    taken.update(a.predicate for r in problem.program.rules for a in r.body_atoms())
    taken.update(a.predicate for a in problem.observation)
    taken.update(a.predicate for a in problem.extensional | problem.hypotheses)
    ans = fresh_predicate("ans", taken)
    rule = Rule(Atom(ans, ()), tuple(o.to_atom() for o in problem.observation))
    program = Program(problem.program.rules + (rule,), ans)
    instance = Instance(endogenous=problem.hypotheses, exogenous=problem.extensional)
    return instance, program
