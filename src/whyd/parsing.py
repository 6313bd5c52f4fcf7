"""Text formats for programs, instances and constraints.

Program grammar (comments start with ``%``):

    rule  :=  atom ":-" body "."  |  atom "."
    body  :=  lit ("," lit)*
    lit   :=  atom  |  term "!=" term  |  term "=" term
    atom  :=  name [ "(" term ("," term)* ")" ]

Variables start with an uppercase letter or ``_``; each lone ``_`` is
a variable of its own, named apart from its rule's other variables.
Constants are lowercase identifiers, numbers, or single-quoted strings.  The answer
predicate of a parsed program is the head predicate of its first rule.

Instance files hold facts (optionally labelled ``t1: e(a, b).``) plus
the directives ``#endogenous``, ``#exogenous``,
``#exogenous-predicates p, q`` and ``#observe``.  Facts before any
directive are endogenous.

Constraint files hold one constraint per line::

    dep(X, Y) => course(U, Y, X).     % tgd (U is existential)
    p(X, Y), p(X, Z) => Y = Z.        % egd
    r(X, a1), s(a1) => false.         % denial constraint
    #key s 1 2                        % key positions, expands to egds
    #fd p 1 -> 2                      % functional dependency, same

Key/FD directives are sugar for egds; the parsed set keeps the key
declarations so key-preservation checks can see them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from .constraints import Constraint, ConstraintSet, FunctionalDependency, KeyConstraint
from .errors import (
    DuplicateFactError,
    NonConjunctiveBodyError,
    ParseError,
    SourceSpan,
    WhydError,
)
from .model import (
    Atom,
    Comparison,
    Constant,
    GroundAtom,
    Instance,
    Program,
    Rule,
    Term,
    Variable,
    validate_program,
)

_TOKEN = re.compile(
    r"""
    (?P<eol>\n)
  | (?P<ws>[^\S\n]+)
  | (?P<comment>%[^\n]*)
  | (?P<directive>\#[^\n%]*)
  | (?P<implies>:-|=>|!=|->)
  | (?P<punct>[().,:=])
  | (?P<quoted>'(?:[^'\\]|\\.)*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*|[0-9]+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# a token: (kind, text, offset of its first character in the text)
_Token = tuple[str, str, int]


class _Tokenizer:
    """The tokens of a text, from one pass; a token's line and column are
    computed from its offset only when an error needs them.  In a
    line-based document (``lines``) each line end is an ``eol`` token
    with empty text, and a ``#`` that starts a line starts a directive."""

    def __init__(self, text: str, filename: str, lines: bool = False):
        self.text, self.filename = text, filename
        self.tokens: list[_Token] = []
        line_start = True
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            if kind == "eol":
                line_start = True
                if lines:
                    self.tokens.append(("eol", "", m.start()))
                continue
            tok = (kind, m.group(), m.start())
            if kind == "bad" or (kind == "directive" and not (lines and line_start)):
                raise ParseError(f"unexpected character {tok[1][0]!r}", self.span(tok))  # type: ignore[arg-type]
            line_start = False
            self.tokens.append(tok)  # type: ignore[arg-type]
        self.tokens.append(("eof", "", len(text)))
        self.index = 0

    def span(self, tok: _Token) -> SourceSpan:
        text, offset = self.text, tok[2]
        return SourceSpan(self.filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", self.span(tok))
        return tok


def _is_variable_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


_ANONYMOUS = Variable("_")


def _parse_term(tz: _Tokenizer) -> Term:
    """A term; each ``_`` is ``Variable("_")`` until ``_name_anonymous``
    names it."""
    kind, text, _ = tok = tz.next()
    if kind == "quoted":
        body = text[1:-1]
        return Constant(body.replace("\\'", "'").replace("\\\\", "\\"))
    if kind != "name":
        raise ParseError(f"expected a term, found {text!r}", tz.span(tok))
    if _is_variable_name(text):
        return Variable(text)
    return Constant(text)


def _name_anonymous(items: list) -> list:
    """The atoms and comparisons of one rule or constraint with each
    ``_`` replaced, in textual order, by its own variable: ``_Anon1``,
    ``_Anon2``, ..., skipping the names the items already use.  The
    names depend on nothing but the items, so equal texts parse equal."""
    taken = {v.name for item in items for v in item.variables()}
    if "_" not in taken:
        return items
    count = 0

    def rename(term: Term) -> Term:
        nonlocal count
        if term != _ANONYMOUS:
            return term
        count += 1
        while f"_Anon{count}" in taken:
            count += 1
        return Variable(f"_Anon{count}")

    out = []
    for item in items:
        if isinstance(item, Comparison):
            left = rename(item.left)
            out.append(Comparison(item.op, left, rename(item.right)))
        else:
            out.append(Atom(item.predicate, tuple([rename(t) for t in item.args])))
    return out


def _parse_atom_or_comparison(tz: _Tokenizer) -> Atom | Comparison:
    start = tz.peek()
    term = _parse_term(tz)
    nxt = tz.peek()[1]
    if nxt in ("=", "!="):
        tz.next()
        right = _parse_term(tz)
        return Comparison(nxt, term, right)
    if isinstance(term, Variable):
        raise ParseError(f"expected a predicate name, found variable {term}", tz.span(start))
    name = term.symbol
    if nxt != "(":
        return Atom(name, ())
    tz.next()
    args = [_parse_term(tz)]
    while tz.peek()[1] == ",":
        tz.next()
        args.append(_parse_term(tz))
    tz.expect(")")
    return Atom(name, tuple(args))


def _parse_atom(tz: _Tokenizer) -> Atom:
    item = _parse_atom_or_comparison(tz)
    if isinstance(item, Comparison):
        raise ParseError(f"expected an atom, found comparison {item}", tz.span(tz.peek()))
    return item


def parse_program(text: str, filename: str = "<program>") -> Program:
    """Parse and validate a program; its answer predicate is the head
    predicate of the first rule."""
    tz = _Tokenizer(text, filename)
    rules: list[Rule] = []
    while tz.peek()[0] != "eof":
        head = _parse_atom(tz)
        tok = tz.next()
        if tok[1] == ".":
            rules.append(Rule(*_name_anonymous([head])))
            continue
        if tok[1] != ":-":
            raise ParseError(f"expected '.' or ':-', found {tok[1]!r}", tz.span(tok))
        items: list[Atom | Comparison] = [head, _parse_atom_or_comparison(tz)]
        while tz.peek()[1] == ",":
            tz.next()
            items.append(_parse_atom_or_comparison(tz))
        tz.expect(".")
        head, *body = _name_anonymous(items)
        rules.append(Rule(head, tuple(body)))
    if not rules:
        raise ParseError("empty program", SourceSpan(filename, 1, 1))
    program = Program(rules, rules[0].head.predicate)
    validate_program(program)
    return program


def _require_ground(atom: Atom, span: Callable[[], SourceSpan], label: str | None = None) -> GroundAtom:
    """The atom as a fact with the given label; ``span`` locates the
    error when the atom has a variable."""
    if not atom.is_ground():
        raise ParseError(f"fact {atom} contains variables", span())
    return GroundAtom(atom.predicate, atom.args, label)  # type: ignore[arg-type]


@dataclass
class InstanceDocument:
    """An instance file: the partitioned instance plus any observations
    declared in a ``#observe`` section (used by the abduce task)."""

    instance: Instance
    observations: tuple[GroundAtom, ...] = ()
    exogenous_predicates: frozenset[str] = field(default_factory=frozenset)


def parse_instance_document(text: str, filename: str = "<instance>") -> InstanceDocument:
    # each fact maps to itself as last given, so the last label wins
    endogenous: dict[GroundAtom, GroundAtom] = {}
    exogenous: dict[GroundAtom, GroundAtom] = {}
    observations: list[GroundAtom] = []
    exo_predicates: set[str] = set()
    section = "endogenous"

    tz = _Tokenizer(text, filename, lines=True)
    while tz.peek()[0] != "eof":
        first = tz.peek()
        if first[0] == "eol":
            tz.next()
            continue
        if first[0] == "directive":
            tz.next()
            directive, _, rest = first[1].strip().partition(" ")
            if directive in ("#endogenous", "#exogenous", "#observe") and rest.strip():
                raise ParseError(f"unexpected input after {directive}", tz.span(first))
            if directive == "#endogenous":
                section = "endogenous"
            elif directive == "#exogenous":
                section = "exogenous"
            elif directive == "#observe":
                section = "observe"
            elif directive == "#exogenous-predicates":
                names = [n.strip() for n in rest.split(",") if n.strip()]
                if not names:
                    raise ParseError("#exogenous-predicates needs at least one name", tz.span(first))
                exo_predicates.update(names)
            else:
                raise ParseError(f"unknown directive {directive}", tz.span(first))
            continue

        label: str | None = None
        if first[0] == "name" and tz.tokens[tz.index + 1][1] == ":":
            label = tz.next()[1]
            tz.next()
        start = tz.peek()
        atom = _require_ground(_parse_atom(tz), lambda: tz.span(start), label)
        tz.expect(".")
        if tz.peek()[0] not in ("eol", "eof"):
            raise ParseError(f"trailing input after fact: {tz.peek()[1]!r}", tz.span(first))

        if section == "observe":
            observations.append(atom)
            continue
        bucket = exogenous if section == "exogenous" else endogenous
        other = endogenous if section == "exogenous" else exogenous
        if atom in other:
            raise DuplicateFactError(f"fact {atom} appears in both partitions", tz.span(first))
        bucket[atom] = atom

    for atom in list(endogenous):
        if atom.predicate in exo_predicates:
            if atom in exogenous:
                raise DuplicateFactError(f"fact {atom} appears in both partitions", SourceSpan(filename, 1, 1))
            exogenous[atom] = endogenous.pop(atom)

    instance = Instance(endogenous.values(), exogenous.values())
    return InstanceDocument(instance, tuple(observations), frozenset(exo_predicates))


def parse_instance(text: str, filename: str = "<instance>") -> Instance:
    return parse_instance_document(text, filename).instance


def parse_ground_atom(text: str, filename: str = "<atom>") -> GroundAtom:
    """One ground atom, as accepted for CLI targets, e.g. 'ans(john, xml)'."""
    tz = _Tokenizer(text, filename)
    atom = _require_ground(_parse_atom(tz), lambda: tz.span(tz.peek()))
    if tz.peek()[1] == ".":
        tz.next()
    if tz.peek()[0] != "eof":
        raise ParseError(f"trailing input after atom: {tz.peek()[1]!r}", tz.span(tz.peek()))
    return atom


def _parse_constraint(tz: _Tokenizer) -> Constraint:
    """The constraint at the tokenizer's position, through its ``.``."""
    start = tz.peek()
    body: list[Atom] = []
    while True:
        item = _parse_atom_or_comparison(tz)
        if isinstance(item, Comparison):
            raise NonConjunctiveBodyError(f"built-in {item} not allowed in a constraint body", tz.span(start))
        body.append(item)
        tok = tz.next()
        if tok[1] == ",":
            continue
        if tok[1] == "=>":
            break
        raise ParseError(f"expected ',' or '=>', found {tok[1]!r}", tz.span(tok))

    head_start = tz.peek()
    if head_start[1] == "false":
        tz.next()
        tz.expect(".")
        return Constraint.denial(tuple(_name_anonymous(body)))

    first = _parse_atom_or_comparison(tz)
    if isinstance(first, Comparison):
        if first.op != "=":
            raise ParseError("an egd head must be an equality", tz.span(head_start))
        tz.expect(".")
        *body, first = _name_anonymous([*body, first])
        return Constraint.egd(tuple(body), first.left, first.right)

    head_atoms = [first]
    while tz.peek()[1] == ",":
        tz.next()
        head_atoms.append(_parse_atom(tz))
    tz.expect(".")
    items = _name_anonymous([*body, *head_atoms])
    return Constraint.tgd(tuple(items[: len(body)]), tuple(items[len(body) :]))


_KEY_DIRECTIVE = re.compile(r"#key\s+(?P<pred>[a-z][A-Za-z0-9_-]*)\s+(?P<positions>\d+(\s+\d+)*)\s*$")
_FD_DIRECTIVE = re.compile(
    r"#fd\s+(?P<pred>[a-z][A-Za-z0-9_-]*)\s+(?P<lhs>\d+(\s+\d+)*)\s*->\s*(?P<rhs>\d+(\s+\d+)*)\s*$"
)


def parse_constraints(text: str, filename: str = "<constraints>") -> ConstraintSet:
    """Parse a constraint file.  Keys and FDs expand to egds; the key
    declarations themselves are kept for key-preservation checks."""
    constraints: list[Constraint] = []
    keys: list[KeyConstraint] = []
    fds: list[FunctionalDependency] = []
    tz = _Tokenizer(text, filename, lines=True)
    while tz.peek()[0] != "eof":
        first = tz.peek()
        if first[0] == "eol":
            tz.next()
            continue
        if first[0] != "directive":
            constraints.append(_parse_constraint(tz))
            if tz.peek()[0] not in ("eol", "eof"):
                raise ParseError(f"trailing input after constraint: {tz.peek()[1]!r}", tz.span(first))
            continue
        tz.next()
        line = first[1].strip()
        if line.startswith("#key"):
            m = _KEY_DIRECTIVE.match(line)
            if not m:
                raise ParseError("malformed #key directive", tz.span(first))
            positions = tuple(int(p) for p in m.group("positions").split())
            if any(p < 1 for p in positions):
                raise ParseError("key positions are 1-based", tz.span(first))
            keys.append(KeyConstraint(m.group("pred"), positions))
        elif line.startswith("#fd"):
            m = _FD_DIRECTIVE.match(line)
            if not m:
                raise ParseError("malformed #fd directive", tz.span(first))
            lhs = tuple(int(p) for p in m.group("lhs").split())
            rhs = tuple(int(p) for p in m.group("rhs").split())
            if any(p < 1 for p in (*lhs, *rhs)):
                raise ParseError("dependency positions are 1-based", tz.span(first))
            fds.append(FunctionalDependency(m.group("pred"), lhs, rhs))
        else:
            raise ParseError(f"unknown directive {line.split()[0]}", tz.span(first))
    return ConstraintSet(tuple(constraints), tuple(keys), tuple(fds))


# ---------------------------------------------------------------------------
# Serialization (canonical text; parse(serialize(x)) == x)


def serialize_program(program: Program) -> str:
    """Rules in stored order, except that rules defining the answer
    predicate come first so reparsing recovers the same answer predicate."""
    defining = [r for r in program.rules if r.head.predicate == program.answer_predicate]
    others = [r for r in program.rules if r.head.predicate != program.answer_predicate]
    if not defining:
        raise WhydError(
            f"program defines no rule for its answer predicate {program.answer_predicate}; cannot serialize"
        )
    return "\n".join(str(r) for r in defining + others) + "\n"


def serialize_instance(instance: Instance) -> str:
    def fact_line(atom: GroundAtom) -> str:
        prefix = f"{atom.label}: " if atom.label else ""
        return f"{prefix}{atom}."

    lines: list[str] = []
    for atom in sorted(instance.endogenous, key=GroundAtom.sort_key):
        lines.append(fact_line(atom))
    if instance.exogenous:
        lines.append("#exogenous")
        for atom in sorted(instance.exogenous, key=GroundAtom.sort_key):
            lines.append(fact_line(atom))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_constraints(constraints: ConstraintSet) -> str:
    lines = [str(c) for c in constraints.constraints]
    lines.extend(f"#key {k.predicate} {' '.join(str(p) for p in k.positions)}" for k in constraints.keys)
    lines.extend(
        f"#fd {f.predicate} {' '.join(str(p) for p in f.determinants)} -> {' '.join(str(p) for p in f.dependents)}"
        for f in constraints.fds
    )
    return "\n".join(lines) + ("\n" if lines else "")
