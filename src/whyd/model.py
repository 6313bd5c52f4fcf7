"""Terms, atoms, rules, programs and partitioned instances.

All values are immutable after construction and safe to share across
threads.  A tuple is the ground atom itself, a plain value of predicate
and arguments.  Labels (t1, t2, ...) only name tuples: an ``Instance``
keeps them, and they never take part in equality.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ArityMismatchError, UnsafeRuleError, WhydError

# the texts that print bare: a constant, and a predicate that reads back
# as the same name (a name token that is not a variable's)
_BARE_SYMBOL = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+")
_BARE_PREDICATE = re.compile(r"[a-z][A-Za-z0-9_-]*|[0-9]+")


def _quoted(text: str) -> str:
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _printed_predicate(predicate: str) -> str:
    return predicate if _BARE_PREDICATE.fullmatch(predicate) else _quoted(predicate)


# the entries each value-keyed cache of whyd keeps: the CLI's parsed
# inputs, the diagnoses and necessary-hypothesis sets of abduction
# problems, and the analyses of cause requests; the least recently used
# entry goes first
CACHE_SIZE = 1024

_set = object.__setattr__


class _Frozen:
    """Assignment raises once a value is built; copies and pickles go
    through the constructor (``__reduce__``)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Constant(_Frozen):
    """A domain element under the unique-names reading: distinct symbols
    denote distinct elements.  The symbol is interned, so two constants
    are equal iff their symbols are the same object; the hash is computed
    once."""

    __slots__ = ("symbol", "_hash")

    def __init__(self, symbol: str):
        if not symbol:
            raise WhydError("empty constant symbol")
        symbol = sys.intern(symbol)
        _set(self, "symbol", symbol)
        _set(self, "_hash", hash((symbol,)))

    def __eq__(self, other):
        if other.__class__ is Constant:
            return self.symbol is other.symbol
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Constant, (self.symbol,)

    def __str__(self) -> str:
        if _BARE_SYMBOL.fullmatch(self.symbol):
            return self.symbol
        return _quoted(self.symbol)

    def __repr__(self) -> str:
        return f"Constant({self.symbol!r})"


class Variable(_Frozen):
    """A rule variable, equal to every variable of the same (interned)
    name and to no constant; the hash is computed once."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not name:
            raise WhydError("empty variable name")
        name = sys.intern(name)
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def __eq__(self, other):
        if other.__class__ is Variable:
            return self.name is other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Variable, (self.name,)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


Term = Union[Constant, Variable]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms; ground iff every term is a constant."""

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "predicate", sys.intern(self.predicate))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> set[Variable]:
        return {t for t in self.args if isinstance(t, Variable)}

    def __str__(self) -> str:
        if not self.args:
            return _printed_predicate(self.predicate)
        return f"{_printed_predicate(self.predicate)}({', '.join(str(t) for t in self.args)})"


class GroundAtom(_Frozen):
    """An all-constant atom, i.e. a database tuple.  Its ``key``, the
    predicate followed by the arguments' symbols, is built once: the atom
    hashes as its key, equals exactly the atoms with the same key (a
    tuple compare of interned strings) and sorts by it (``sort_key``)."""

    __slots__ = ("predicate", "args", "key", "_hash")

    def __init__(self, predicate: str, args: tuple[Constant, ...]):
        predicate = sys.intern(predicate)
        key = [predicate]
        for t in args:
            if t.__class__ is not Constant:
                raise WhydError(f"non-constant argument in ground atom {predicate}")
            key.append(t.symbol)
        key = tuple(key)
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "key", key)
        _set(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is GroundAtom:
            return self.key == other.key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroundAtom, (self.predicate, self.args)

    def __repr__(self) -> str:
        return f"GroundAtom(predicate={self.predicate!r}, args={self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def sort_key(self) -> tuple[str, ...]:
        """The canonical order of atoms: by predicate, then by the
        arguments' symbols in order, a prefix first."""
        return self.key

    def to_atom(self) -> Atom:
        return Atom(self.predicate, self.args)

    def __str__(self) -> str:
        if not self.args:
            return _printed_predicate(self.predicate)
        return f"{_printed_predicate(self.predicate)}({', '.join(str(c) for c in self.args)})"


_new = object.__new__
# the slots' own setters, which skip _Frozen.__setattr__
_set_predicate = GroundAtom.predicate.__set__  # type: ignore[attr-defined]
_set_args = GroundAtom.args.__set__  # type: ignore[attr-defined]
_set_key = GroundAtom.key.__set__  # type: ignore[attr-defined]
_set_hash = GroundAtom._hash.__set__  # type: ignore[attr-defined]


def derived_atom(predicate: str, args: tuple[Constant, ...], key: tuple[str, ...] | None = None) -> GroundAtom:
    """``GroundAtom(predicate, args)`` without its checks, for heads the
    engine derives: ``predicate`` must already be interned and every
    argument a ``Constant``; a join pass, which has looked the head up by
    its ``key`` already, passes that too."""
    if key is None:
        key = (predicate, *[c.symbol for c in args])
    atom = _new(GroundAtom)
    _set_predicate(atom, predicate)
    _set_args(atom, args)
    _set_key(atom, key)
    _set_hash(atom, hash(key))
    return atom


def ground(predicate: str, *symbols: str) -> GroundAtom:
    """Shorthand constructor: ``ground("e", "a", "b")`` is e(a, b)."""
    return GroundAtom(predicate, tuple(Constant(s) for s in symbols))


# -- sets of atoms as bitmasks ---------------------------------------------
#
# A family of atom sets is held as bitmasks over a numbering of its atoms,
# bit i for ``atoms[i]``, with the atoms in descending canonical order
# (``bit_order``): of n atoms, the canonical i-th has bit n-1-i.  Two
# sets of equal size then compare as their masks do, the larger mask
# holding the smaller atom where they first differ, so masks sorted by
# (popcount, -mask) (``canonical_masks``) are the sets in canonical family
# order: smaller sets first, then by their sorted atoms.


def bit_order(atoms: Iterable[GroundAtom]) -> tuple[GroundAtom, ...]:
    """The atoms in descending canonical order, the numbering of a
    family's masks: bit i stands for the i-th."""
    return tuple(sorted(atoms, key=GroundAtom.sort_key, reverse=True))


def atom_bits(atoms: Sequence[GroundAtom]) -> dict[GroundAtom, int]:
    """Each atom of a numbering mapped to its bit."""
    return {atom: 1 << i for i, atom in enumerate(atoms)}


def positions(mask: int) -> list[int]:
    """The positions of the bits the mask sets, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def decode(mask: int, atoms: Sequence[GroundAtom]) -> frozenset[GroundAtom]:
    """The atoms whose bits the mask sets."""
    out = []
    while mask:
        low = mask & -mask
        out.append(atoms[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def canonical_masks(masks: Iterable[int]) -> list[int]:
    """The masks in canonical family order: fewer bits first, then larger masks."""
    out = sorted(masks, reverse=True)
    out.sort(key=int.bit_count)
    return out


def least_masks(masks: Sequence[int]) -> list[int]:
    """The masks with the fewest bits of a family in canonical order: its
    prefix of masks as small as the first."""
    return list(takewhile(lambda mask: mask.bit_count() == masks[0].bit_count(), masks))


@dataclass(frozen=True)
class Comparison:
    """Built-in equality or disequality between two terms."""

    op: str  # "=" or "!="
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in ("=", "!="):
            raise WhydError(f"unsupported built-in {self.op!r}")

    def variables(self) -> set[Variable]:
        return {t for t in (self.left, self.right) if isinstance(t, Variable)}

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


BodyItem = Union[Atom, Comparison]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[BodyItem, ...] = ()
    # the join plans the evaluator compiles for this rule on first use;
    # they live as long as the rule and take no part in equality
    _plans: list | None = field(default=None, init=False, repr=False, compare=False)
    # the predicates of the body atoms in body order, which the evaluator
    # reads on every join pass
    _predicates: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_predicates", tuple(a.predicate for a in self.body_atoms()))

    def body_atoms(self) -> Iterator[Atom]:
        return (b for b in self.body if isinstance(b, Atom))

    def comparisons(self) -> Iterator[Comparison]:
        return (b for b in self.body if isinstance(b, Comparison))

    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."


class Program:
    """A positive Datalog program with a designated answer predicate.

    Predicates occurring in rule heads are intensional; the answer
    predicate counts as intensional even when no rule defines it (the
    empty program is a legal Boolean query that is never true).
    """

    __slots__ = ("rules", "answer_predicate", "_arities", "_hash")

    def __init__(self, rules: Iterable[Rule], answer_predicate: str):
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.answer_predicate = sys.intern(answer_predicate)
        self._arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in (rule.head, *rule.body_atoms()):
                self._register(atom)
        # the rule order takes no part in equality; programs are cache
        # keys, so the hash is computed once
        self._hash = hash((frozenset(self.rules), self.answer_predicate))

    def _register(self, atom: Atom) -> None:
        known = self._arities.setdefault(atom.predicate, atom.arity)
        if known != atom.arity:
            raise ArityMismatchError(atom, known)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Program)
            and self._hash == other._hash
            and self.answer_predicate == other.answer_predicate
            and (self.rules == other.rules or frozenset(self.rules) == frozenset(other.rules))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: a copy hashes afresh
        return Program, (self.rules, self.answer_predicate)

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules, answer={self.answer_predicate})"

    def intensional_predicates(self) -> frozenset[str]:
        return frozenset(r.head.predicate for r in self.rules) | {self.answer_predicate}

    def extensional_predicates(self) -> frozenset[str]:
        mentioned = {a.predicate for r in self.rules for a in r.body_atoms()}
        return frozenset(mentioned - self.intensional_predicates())

    def arity_of(self, predicate: str) -> int | None:
        return self._arities.get(predicate)

    def is_boolean(self) -> bool:
        arity = self._arities.get(self.answer_predicate, 0)
        return arity == 0

    def is_single_rule_cq(self) -> bool:
        """True when the program is one nonrecursive rule defining the
        answer predicate over extensional atoms with no built-ins."""
        if len(self.rules) != 1:
            return False
        rule = self.rules[0]
        if rule.head.predicate != self.answer_predicate or rule.is_fact():
            return False
        if any(True for _ in rule.comparisons()):
            return False
        return all(a.predicate != self.answer_predicate for a in rule.body_atoms())


def validate_program(program: Program) -> None:
    """Check rule safety: every variable of a rule's head and comparisons
    occurs in a body atom.  Raises UnsafeRuleError, naming the first
    unbound variable by name; returns None when the program is well
    formed.  Arity clashes are rejected when the ``Program`` is built."""
    for rule in program.rules:
        # variable names, hashed in C (Variable.__hash__ is a Python
        # call); only an unsafe rule sorts, to name its first variable
        bound = {t.name for atom in rule.body_atoms() for t in atom.args if isinstance(t, Variable)}
        for terms in (rule.head.args, *((c.left, c.right) for c in rule.comparisons())):
            unbound = [t for t in terms if isinstance(t, Variable) and t.name not in bound]
            if unbound:
                raise UnsafeRuleError(rule, min(unbound, key=lambda v: v.name))


# the label maps of an instance that has none; never written to
_NO_LABELS: dict = {}


class Instance:
    """A finite set of tuples split into endogenous and exogenous parts,
    with optional labels (t1, t2, ...) naming some of them: a label on a
    tuple the instance does not hold, or on two distinct tuples, raises
    ``WhydError``.  Labels take no part in equality or hash.  An instance
    derived from another (``without``, ``with_endogenous``,
    ``all_endogenous``) shares its label maps and answers for the tuples
    it holds."""

    __slots__ = ("endogenous", "exogenous", "_atoms", "_label_of", "_by_label")

    def __init__(
        self,
        endogenous: Iterable[GroundAtom] = (),
        exogenous: Iterable[GroundAtom] = (),
        labels: Mapping[GroundAtom, str] = _NO_LABELS,
    ):
        self.endogenous: frozenset[GroundAtom] = frozenset(endogenous)
        self.exogenous: frozenset[GroundAtom] = frozenset(exogenous)
        overlap = self.endogenous & self.exogenous
        if overlap:
            atom = sorted(overlap, key=GroundAtom.sort_key)[0]
            raise WhydError(f"tuple {atom} is both endogenous and exogenous")
        self._atoms = self.endogenous | self.exogenous
        self._label_of: Mapping[GroundAtom, str] = dict(labels) if labels else _NO_LABELS
        self._by_label: dict[str, GroundAtom] = {} if labels else _NO_LABELS
        for atom, label in self._label_of.items():
            if atom not in self._atoms:
                raise WhydError(f"label {label} names {atom}, which is not in the instance")
            if self._by_label.setdefault(label, atom) != atom:
                raise WhydError(f"label {label} used for two distinct tuples")

    @property
    def atoms(self) -> frozenset[GroundAtom]:
        return self._atoms

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.endogenous == other.endogenous
            and self.exogenous == other.exogenous
        )

    def __hash__(self) -> int:
        return hash((self.endogenous, self.exogenous))

    def __repr__(self) -> str:
        return f"Instance({len(self.endogenous)} endogenous, {len(self.exogenous)} exogenous)"

    def label_of(self, atom: GroundAtom) -> str | None:
        """The label of a tuple of this instance, or None."""
        return self._label_of.get(atom) if atom in self._atoms else None

    def by_label(self, label: str) -> GroundAtom:
        atom = self._by_label.get(label)
        if atom is None or atom not in self._atoms:
            raise WhydError(f"no tuple labelled {label}")
        return atom

    def _sharing_labels(self, endogenous: frozenset[GroundAtom], exogenous: frozenset[GroundAtom]) -> "Instance":
        derived = Instance(endogenous, exogenous)
        derived._label_of, derived._by_label = self._label_of, self._by_label
        return derived

    def without(self, removed: Iterable[GroundAtom]) -> "Instance":
        removed = frozenset(removed)
        return self._sharing_labels(self.endogenous - removed, self.exogenous - removed)

    def with_endogenous(self, added: Iterable[GroundAtom]) -> "Instance":
        return self._sharing_labels(self.endogenous | frozenset(added), self.exogenous)

    def all_endogenous(self) -> "Instance":
        """The same tuples with the partition erased (everything deletable)."""
        if not self.exogenous:
            return self
        return self._sharing_labels(self._atoms, frozenset())

    def is_subinstance_of(self, other: "Instance") -> bool:
        return self._atoms <= other.atoms


def active_domain(instance: Instance) -> frozenset[Constant]:
    """Exactly the constants occurring in the instance's tuples."""
    return frozenset(c for atom in instance.atoms for c in atom.args)


def check_instance_against(program: Program, instance: Instance) -> None:
    """Arity check of instance tuples against the program's predicates,
    naming the first offending tuple in canonical order.  Facts over
    intensional predicates are allowed: they seed the model, which the
    abduction-to-causality constructions rely on."""
    bad = [a for a in instance.atoms if program.arity_of(a.predicate) not in (None, a.arity)]
    if bad:
        atom = min(bad, key=GroundAtom.sort_key)
        raise ArityMismatchError(atom, program.arity_of(atom.predicate))  # type: ignore[arg-type]
