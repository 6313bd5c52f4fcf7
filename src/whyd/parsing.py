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
directive are endogenous.  A repeated fact keeps the label it was last
given, if any; a label may name one tuple only.

Constraint files hold one constraint per line::

    dep(X, Y) => course(U, Y, X).     % tgd (U is existential)
    p(X, Y), p(X, Z) => Y = Z.        % egd
    r(X, a1), s(a1) => false.         % denial constraint
    #key s 1 2                        % key positions, expands to egds
    #fd p 1 -> 2                      % functional dependency, same

Key/FD directives are sugar for egds; the parsed set keeps the key
declarations so key-preservation checks can see them.

Each text is read in one scan: ``_TOKEN.findall`` gives its tokens as
plain strings, a token's kind is read off its first character, and the
parser reads the list by index, building rules, constraints and ground
facts directly; each distinct symbol of a text becomes one ``Constant``.
Offsets are not kept: when an error is raised, the offending token's
line and column come from scanning the text again up to it.  A
character no token takes, or a ``#`` that does not start a line of an
instance or constraint file, is the error of its text wherever it
stands, before any other.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass, field
from typing import Callable, TypeVar

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
)

_T = TypeVar("_T")

# one token: a line end, a directive, an operator or punctuation, a
# quoted symbol, a name, a character no token takes, or the empty token
# at the end of the text
_TOKEN_BODY = r"""(\n|\#[^\n%]*|:-|=>|!=|->|[().,:=]|'(?:[^'\\]|\\.)*'|[A-Za-z_][A-Za-z0-9_-]*|[0-9]+|\S|\Z)"""
# in a line-based document, blanks and a comment before each token, so
# that line ends are tokens
_LINE_TOKEN = re.compile(r"[^\S\n]*(?:%[^\n]*)?" + _TOKEN_BODY, re.DOTALL)
# in other texts, every blank and comment before each token, line ends
# included, so that no token is a line end; the text's end may give two
# empty tokens, and no parser reads past the first
_TOKEN = re.compile(r"(?:\s|%[^\n]*)*" + _TOKEN_BODY, re.DOTALL)
_NAME_START = frozenset(string.ascii_letters + string.digits + "_")
_VARIABLE_START = frozenset(string.ascii_uppercase + "_")
_PUNCTUATION = frozenset([":-", "=>", "!=", "->", "(", ")", ".", ",", ":", "="])
_ANONYMOUS = Variable("_")


def _shown(token: str) -> str:
    """A token as error messages quote it; a line end shows as ``''``."""
    return "" if token == "\n" else token


class _Source:
    """The tokens of one text, from one scan, and the terms met so far:
    each distinct symbol becomes one ``Constant``.  A line-based document
    (``lines``) has line-end tokens, and a ``#`` that starts one of its
    lines starts a directive; other texts skip line ends as blanks."""

    __slots__ = ("text", "filename", "lines", "pattern", "tokens", "terms")

    def __init__(self, text: str, filename: str, lines: bool):
        self.text, self.filename, self.lines = text, filename, lines
        self.pattern = _LINE_TOKEN if lines else _TOKEN
        self.tokens = self.pattern.findall(text)
        self.terms: dict[str, Term] = {}

    def span(self, i: int) -> SourceSpan:
        """The line and column of token ``i``, found by scanning again."""
        matches = self.pattern.finditer(self.text)
        text, offset = self.text, next(itertools.islice(matches, i, None)).start(1)
        return SourceSpan(self.filename, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    def error(self, cls: type[ParseError], message: str, i: int) -> ParseError:
        return cls(message, self.span(i))

    def expect(self, i: int, text: str) -> None:
        if self.tokens[i] != text:
            raise self.error(ParseError, f"expected {text!r}, found {_shown(self.tokens[i])!r}", i)

    def term(self, i: int) -> Term:
        """The term of token ``i``, not met before; each ``_`` is
        ``Variable("_")`` until ``_name_anonymous`` names it."""
        token = self.tokens[i]
        first = token[:1]
        if first == "'" and len(token) > 1:
            term: Term = Constant(token[1:-1].replace("\\'", "'").replace("\\\\", "\\"))
        elif first in _VARIABLE_START:
            term = Variable(token)
        elif first in _NAME_START:
            term = Constant(token)
        else:
            raise self.error(ParseError, f"expected a term, found {_shown(token)!r}", i)
        self.terms[token] = term
        return term

    def misplaced(self) -> int | None:
        """The first token no text may hold where it stands: a character
        no token takes, or a ``#`` that does not start a line of a
        line-based document."""
        tokens = self.tokens
        for i, token in enumerate(tokens):
            first = token[:1]
            if first == "#":
                if self.lines and (i == 0 or tokens[i - 1] == "\n"):
                    continue
            elif first in _NAME_START or token in _PUNCTUATION or first in ("", "\n"):
                continue
            elif first == "'" and len(token) > 1:
                continue
            return i
        return None


def _parsed(parse: Callable[[_Source], _T], text: str, filename: str, lines: bool = False) -> _T:
    """``parse`` over the tokens of ``text``.  A character no token takes,
    or a misplaced ``#``, is the error wherever it stands, before any
    error the parse met."""
    source = _Source(text, filename, lines)
    try:
        return parse(source)
    except WhydError:
        i = source.misplaced()
        if i is None:
            raise
        raise ParseError(f"unexpected character {source.tokens[i][0]!r}", source.span(i)) from None


def _name_anonymous(source: _Source, items: list) -> list:
    """The atoms and comparisons of one rule or constraint with each
    ``_`` replaced, in textual order, by its own variable: ``_Anon1``,
    ``_Anon2``, ..., skipping the names the items already use.  The
    names depend on nothing but the items, so equal texts parse equal."""
    if "_" not in source.terms:  # no ``_`` in the whole text
        return items
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


# an atom as the parser reads it: its predicate and its terms
_Parts = tuple[str, tuple[Term, ...]]


def _item(source: _Source, i: int) -> tuple[_Parts | Comparison, int]:
    """The atom or comparison at token ``i`` and the index after it."""
    tokens, terms = source.tokens, source.terms
    term = terms.get(tokens[i]) or source.term(i)
    op = tokens[i + 1]
    if op == "=" or op == "!=":
        right = terms.get(tokens[i + 2]) or source.term(i + 2)
        return Comparison(op, term, right), i + 3
    if term.__class__ is not Constant:
        raise source.error(ParseError, f"expected a predicate name, found variable {term}", i)
    if op != "(":
        return (term.symbol, ()), i + 1  # type: ignore[union-attr]
    args = []
    i += 2
    while True:
        args.append(terms.get(tokens[i]) or source.term(i))
        if tokens[i + 1] != ",":
            break
        i += 2
    i += 1
    if tokens[i] != ")":
        raise source.error(ParseError, f"expected ')', found {_shown(tokens[i])!r}", i)
    return (term.symbol, tuple(args)), i + 1  # type: ignore[union-attr]


def _atom(source: _Source, i: int) -> tuple[_Parts, int]:
    item, i = _item(source, i)
    if item.__class__ is Comparison:
        raise source.error(ParseError, f"expected an atom, found comparison {item}", i)
    return item, i  # type: ignore[return-value]


def _fact(source: _Source, i: int, error_after: bool = False) -> tuple[GroundAtom, int]:
    """The atom at token ``i`` as a fact, and the index after it.  A
    variable in it is an error at the atom's first token, or at the
    token after it (``error_after``)."""
    parts, end = _atom(source, i)
    try:
        return GroundAtom(*parts), end  # type: ignore[arg-type]
    except WhydError:
        at = end if error_after else i
        raise source.error(ParseError, f"fact {Atom(*parts)} contains variables", at) from None


def parse_program(text: str, filename: str = "<program>") -> Program:
    """Parse a program, which ``Program`` validates (arities, then rule
    safety); its answer predicate is the head predicate of the first
    rule."""
    return _parsed(_program, text, filename)


def _program(source: _Source) -> Program:
    tokens = source.tokens
    rules: list[Rule] = []
    i = 0
    while tokens[i]:
        head, i = _atom(source, i)
        if tokens[i] == ".":
            rules.append(Rule(*_name_anonymous(source, [Atom(*head)])))
            i += 1
            continue
        if tokens[i] != ":-":
            raise source.error(ParseError, f"expected '.' or ':-', found {tokens[i]!r}", i)
        items: list[Atom | Comparison] = [Atom(*head)]
        while True:
            item, i = _item(source, i + 1)
            items.append(item if item.__class__ is Comparison else Atom(*item))  # type: ignore[arg-type,misc]
            if tokens[i] != ",":
                break
        source.expect(i, ".")
        i += 1
        atom, *body = _name_anonymous(source, items)
        rules.append(Rule(atom, tuple(body)))
    if not rules:
        raise ParseError("empty program", SourceSpan(source.filename, 1, 1))
    return Program(rules, rules[0].head.predicate)


@dataclass(frozen=True)
class InstanceDocument:
    """An instance file: the partitioned instance plus any observations
    declared in a ``#observe`` section (used by the abduce task).
    Frozen: the CLI hands one parsed document to every request on the
    same text."""

    instance: Instance
    observations: tuple[GroundAtom, ...] = ()
    exogenous_predicates: frozenset[str] = field(default_factory=frozenset)


def parse_instance_document(text: str, filename: str = "<instance>") -> InstanceDocument:
    return _parsed(_instance_document, text, filename, lines=True)


def _instance_document(source: _Source) -> InstanceDocument:
    tokens = source.tokens
    endogenous: set[GroundAtom] = set()
    exogenous: set[GroundAtom] = set()
    # each fact's last label; the fact each label was last given to
    labels: dict[GroundAtom, str] = {}
    labelled: dict[str, GroundAtom] = {}
    observations: list[GroundAtom] = []
    exo_predicates: set[str] = set()
    # the facts of the section being read go to ``bucket`` (observations
    # when it is None) and must not be in ``other``
    bucket: set[GroundAtom] | None = endogenous
    other = exogenous
    i = 0
    while True:
        token = tokens[i]
        if token == "\n":
            i += 1
            continue
        if not token:
            break
        first = i
        if token[0] == "#":
            i += 1
            directive, _, rest = token.strip().partition(" ")
            if directive in ("#endogenous", "#exogenous", "#observe") and rest.strip():
                raise source.error(ParseError, f"unexpected input after {directive}", first)
            if directive == "#endogenous":
                bucket, other = endogenous, exogenous
            elif directive == "#exogenous":
                bucket, other = exogenous, endogenous
            elif directive == "#observe":
                bucket = None
            elif directive == "#exogenous-predicates":
                names = [n.strip() for n in rest.split(",") if n.strip()]
                if not names:
                    raise source.error(ParseError, "#exogenous-predicates needs at least one name", first)
                exo_predicates.update(names)
            else:
                raise source.error(ParseError, f"unknown directive {directive}", first)
            continue

        label: str | None = None
        if tokens[i + 1] == ":" and token[0] in _NAME_START:
            label = token
            i += 2
        atom, i = _fact(source, i)
        source.expect(i, ".")
        i += 1
        if tokens[i] != "\n" and tokens[i]:
            raise source.error(ParseError, f"trailing input after fact: {tokens[i]!r}", first)

        if bucket is None:
            observations.append(atom)
            continue
        if atom in other:
            raise source.error(DuplicateFactError, f"fact {atom} appears in both partitions", first)
        bucket.add(atom)
        if label is None:
            labels.pop(atom, None)
            continue
        holder = labelled.get(label)
        if holder is not None and holder != atom and labels.get(holder) == label:
            raise source.error(ParseError, f"label {label} is already on {holder}", first)
        labels[atom] = label
        labelled[label] = atom

    for atom in list(endogenous):
        if atom.predicate in exo_predicates:
            if atom in exogenous:
                raise DuplicateFactError(
                    f"fact {atom} appears in both partitions", SourceSpan(source.filename, 1, 1)
                )
            endogenous.remove(atom)
            exogenous.add(atom)

    instance = Instance(endogenous, exogenous, labels)
    return InstanceDocument(instance, tuple(observations), frozenset(exo_predicates))


def parse_instance(text: str, filename: str = "<instance>") -> Instance:
    return parse_instance_document(text, filename).instance


def parse_ground_atom(text: str, filename: str = "<atom>") -> GroundAtom:
    """One ground atom, as accepted for CLI targets, e.g. 'ans(john, xml)'."""
    return _parsed(_ground_atom, text, filename)


def _ground_atom(source: _Source) -> GroundAtom:
    tokens = source.tokens
    atom, i = _fact(source, 0, error_after=True)
    if tokens[i] == ".":
        i += 1
    if tokens[i]:
        raise source.error(ParseError, f"trailing input after atom: {tokens[i]!r}", i)
    return atom


def _constraint(source: _Source, i: int) -> tuple[Constraint, int]:
    """The constraint at token ``i``, through its ``.``, and the index
    after it."""
    tokens = source.tokens
    start = i
    body: list[Atom] = []
    while True:
        item, i = _item(source, i)
        if item.__class__ is Comparison:
            raise source.error(NonConjunctiveBodyError, f"built-in {item} not allowed in a constraint body", start)
        body.append(Atom(*item))  # type: ignore[misc]
        if tokens[i] == "=>":
            break
        if tokens[i] != ",":
            raise source.error(ParseError, f"expected ',' or '=>', found {_shown(tokens[i])!r}", i)
        i += 1

    i += 1
    if tokens[i] == "false":
        source.expect(i + 1, ".")
        return Constraint.denial(tuple(_name_anonymous(source, body))), i + 2

    head_start = i
    first, i = _item(source, i)
    if first.__class__ is Comparison:
        if first.op != "=":  # type: ignore[union-attr]
            raise source.error(ParseError, "an egd head must be an equality", head_start)
        source.expect(i, ".")
        *body, equality = _name_anonymous(source, [*body, first])
        return Constraint.egd(tuple(body), equality.left, equality.right), i + 1

    head_atoms = [Atom(*first)]  # type: ignore[misc]
    while tokens[i] == ",":
        parts, i = _atom(source, i + 1)
        head_atoms.append(Atom(*parts))
    source.expect(i, ".")
    items = _name_anonymous(source, [*body, *head_atoms])
    return Constraint.tgd(tuple(items[: len(body)]), tuple(items[len(body) :])), i + 1


_KEY_DIRECTIVE = re.compile(r"#key\s+(?P<pred>[a-z][A-Za-z0-9_-]*)\s+(?P<positions>\d+(\s+\d+)*)\s*$")
_FD_DIRECTIVE = re.compile(
    r"#fd\s+(?P<pred>[a-z][A-Za-z0-9_-]*)\s+(?P<lhs>\d+(\s+\d+)*)\s*->\s*(?P<rhs>\d+(\s+\d+)*)\s*$"
)


def parse_constraints(text: str, filename: str = "<constraints>") -> ConstraintSet:
    """Parse a constraint file.  Keys and FDs expand to egds; the key
    declarations themselves are kept for key-preservation checks."""
    return _parsed(_constraints, text, filename, lines=True)


def _constraints(source: _Source) -> ConstraintSet:
    tokens = source.tokens
    constraints: list[Constraint] = []
    keys: list[KeyConstraint] = []
    fds: list[FunctionalDependency] = []
    i = 0
    while tokens[i]:
        token, first = tokens[i], i
        if token == "\n":
            i += 1
            continue
        if token[0] != "#":
            constraint, i = _constraint(source, i)
            constraints.append(constraint)
            if tokens[i] != "\n" and tokens[i]:
                raise source.error(ParseError, f"trailing input after constraint: {tokens[i]!r}", first)
            continue
        i += 1
        line = token.strip()
        if line.startswith("#key"):
            m = _KEY_DIRECTIVE.match(line)
            if not m:
                raise source.error(ParseError, "malformed #key directive", first)
            positions = tuple(int(p) for p in m.group("positions").split())
            if any(p < 1 for p in positions):
                raise source.error(ParseError, "key positions are 1-based", first)
            keys.append(KeyConstraint(m.group("pred"), positions))
        elif line.startswith("#fd"):
            m = _FD_DIRECTIVE.match(line)
            if not m:
                raise source.error(ParseError, "malformed #fd directive", first)
            lhs = tuple(int(p) for p in m.group("lhs").split())
            rhs = tuple(int(p) for p in m.group("rhs").split())
            if any(p < 1 for p in (*lhs, *rhs)):
                raise source.error(ParseError, "dependency positions are 1-based", first)
            fds.append(FunctionalDependency(m.group("pred"), lhs, rhs))
        else:
            raise source.error(ParseError, f"unknown directive {line.split()[0]}", first)
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
        label = instance.label_of(atom)
        prefix = f"{label}: " if label else ""
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
