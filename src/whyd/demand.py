"""The heads a derivation of a goal can use: its demand.

A goal's demand is the bound-argument core of magic sets (Bancilhon,
Maier, Sagiv & Ullman, PODS 1986; Beeri & Ramakrishnan, JLP 1991): the
goal's symbols passed from each rule head to its intensional body atoms,
at the positions that hold a constant or a variable the head binds.  It
is passed from heads to bodies only, so no join finds it and it is fixed
before a join pass runs; a pass under it numbers only the heads it
holds (``evaluator``).  Every derivation of the goal uses only such
heads: the goal is one, and a body atom of a rule instance whose head is
one is one too.  A derived body atom left with no bound position makes
the demand unrestricted (None), as for a Boolean goal.

The demand of a goal is read off a template made once per goal predicate
and arity, with the goal's symbols left as parameters, and kept on the
``Program`` for as long as it lives (``Program._demands``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .model import Constant, GroundAtom, Program, Rule, Variable

# per predicate, the patterns of the heads demanded: a getter of a key's
# symbols at some positions (one symbol for one position, else a tuple)
# and the values it may give
Demand = dict[str, list[tuple[itemgetter, set]]]


def demand_of(program: Program, goals: Iterable[GroundAtom]) -> Demand | None:
    """The heads a derivation of the goals (ground atoms) can use, or None
    for every head: the union of each goal's demand, read off the
    program's template for the goal's predicate and arity (``_template``,
    made on first use and kept on the program) with the goal's symbols
    put in."""
    out: Demand = {}
    templates = program._demands
    for goal in goals:
        shape = (goal.predicate, len(goal.args))
        if shape not in templates:
            templates[shape] = _template(program, *shape)
        template = templates[shape]
        if template is None:
            return None
        constants, patterns = template
        values = goal.key[1:] + constants
        for predicate, getter, picks in patterns:
            out.setdefault(predicate, []).append((getter, {pick(values) for pick in picks}))
    return out


def demanded(demand: Demand, key: tuple[str, ...]) -> bool:
    """True iff the demand holds the head with this key (``GroundAtom.key``)."""
    for getter, values in demand.get(key[0], ()):
        if getter(key) in values:
            return True
    return False


def _template(program: Program, predicate: str, arity: int) -> tuple | None:
    """The demand of a goal over ``predicate`` with ``arity`` arguments,
    its symbols left as parameters, or None for every head.

    A pattern is a predicate, the positions it binds and a term at each:
    an int, the goal's argument below ``arity`` and else one of the
    program's constants.  The goal's pattern binds every position.  A
    rule whose head may match a demanded pattern binds each head variable
    at the pattern's positions to the term there (a head constant is
    taken to match a parameter, and a variable keeps its first term), and
    demands each of its intensional body atoms at the positions holding a
    constant or a bound variable.  A body atom left with no bound
    position (as under a Boolean goal) makes the demand None.  A pattern
    that another one covers (some of its positions, the same terms there)
    is dropped.  Returns the program's constants the patterns hold, and
    per predicate and positions a getter of a key's symbols there and,
    per pattern, a getter of its values from the goal's symbols followed
    by those constants."""
    if arity == 0:
        return None
    if program.arity_of(predicate) not in (None, arity):
        return (), ()  # no rule derives the goal
    heads: dict[str, list[Rule]] = {}
    for rule in program.rules:
        heads.setdefault(rule.head.predicate, []).append(rule)
    constants: dict[str, int] = {}  # the program's constants, each by its term
    start = (predicate, tuple(range(arity)), tuple(range(arity)))
    seen = {start}
    todo = [start]
    while todo:
        head_predicate, positions, terms = todo.pop()
        for rule in heads.get(head_predicate, ()):
            bound: dict[str, int] = {}  # a head variable's name -> its term
            args = rule.head.args
            for p, t in zip(positions, terms):
                h = args[p]
                if h.__class__ is Variable:
                    first = bound.setdefault(h.name, t)
                    clash = first != t and first >= arity and t >= arity
                else:
                    clash = t >= arity and constants.get(h.symbol) != t
                if clash:  # two distinct constants: the head never matches
                    break
            else:
                for atom in rule.body_atoms():
                    if atom.predicate not in heads:
                        continue
                    at = []  # each bound position with its term
                    for p, a in enumerate(atom.args):
                        if a.__class__ is Constant:
                            at.append((p, constants.setdefault(a.symbol, arity + len(constants))))
                        elif a.name in bound:
                            at.append((p, bound[a.name]))
                    if not at:
                        return None
                    pattern = (atom.predicate, tuple(p for p, _ in at), tuple(t for _, t in at))
                    if pattern not in seen:
                        seen.add(pattern)
                        todo.append(pattern)
    groups: dict[tuple[str, tuple[int, ...]], list[tuple[int, ...]]] = {}
    for pattern in sorted(seen):
        if not any(other != pattern and _covers(other, pattern) for other in seen):
            groups.setdefault(pattern[:2], []).append(pattern[2])
    patterns = tuple(
        (p, itemgetter(*[i + 1 for i in positions]), tuple(itemgetter(*terms) for terms in group))
        for (p, positions), group in groups.items()
    )
    return tuple(constants), patterns


def _covers(wide: tuple, narrow: tuple) -> bool:
    """True iff the pattern ``wide`` holds every head ``narrow`` does: it
    binds some of its positions, to the same terms."""
    terms = dict(zip(narrow[1], narrow[2]))
    return wide[0] == narrow[0] and all(terms.get(p, -1) == t for p, t in zip(wide[1], wide[2]))
