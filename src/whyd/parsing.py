"""Text formats for programs, instances and constraints.

Program grammar (comments start with ``%``):

    rule  :=  atom ":-" body "."  |  atom "."
    body  :=  lit ("," lit)*
    lit   :=  atom  |  term "!=" term  |  term "=" term
    atom  :=  name [ "(" term ("," term)* ")" ]

Variables start with an uppercase letter or ``_``; constants are
lowercase identifiers, numbers, or single-quoted strings.  The answer
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
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<implies>:-|=>|!=|->)
  | (?P<punct>[().,:=])
  | (?P<quoted>'(?:[^'\\]|\\.)*')
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*|[0-9]+)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    span: SourceSpan


class _Tokenizer:
    def __init__(self, text: str, filename: str):
        self.tokens: list[_Token] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", SourceSpan(filename, line, col))
            kind = m.lastgroup or ""
            chunk = m.group()
            if kind not in ("ws", "comment"):
                self.tokens.append(_Token(kind, chunk, SourceSpan(filename, line, col)))
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
        self.tokens.append(_Token("eof", "", SourceSpan(filename, line, col)))
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.span)
        return tok


def _is_variable_name(name: str) -> bool:
    return name[0].isupper() or name[0] == "_"


def _strip_comment(line: str) -> str:
    """Drop a % comment, ignoring % inside quoted constants."""
    quoted = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and quoted:
            i += 2
            continue
        if ch == "'":
            quoted = not quoted
        elif ch == "%" and not quoted:
            return line[:i]
        i += 1
    return line


_anon_counter = 0


def _parse_term(tz: _Tokenizer) -> Term:
    global _anon_counter
    tok = tz.next()
    if tok.kind == "quoted":
        body = tok.text[1:-1]
        return Constant(body.replace("\\'", "'").replace("\\\\", "\\"))
    if tok.kind != "name":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.span)
    if _is_variable_name(tok.text):
        if tok.text == "_":
            _anon_counter += 1
            return Variable(f"_Anon{_anon_counter}")
        return Variable(tok.text)
    return Constant(tok.text)


def _parse_atom_or_comparison(tz: _Tokenizer) -> Atom | Comparison:
    start = tz.peek()
    term = _parse_term(tz)
    nxt = tz.peek()
    if nxt.text in ("=", "!="):
        tz.next()
        right = _parse_term(tz)
        return Comparison(nxt.text, term, right)
    if isinstance(term, Variable):
        raise ParseError(f"expected a predicate name, found variable {term}", start.span)
    name = term.symbol
    if tz.peek().text != "(":
        return Atom(name, ())
    tz.next()
    args = [_parse_term(tz)]
    while tz.peek().text == ",":
        tz.next()
        args.append(_parse_term(tz))
    tz.expect(")")
    return Atom(name, tuple(args))


def _parse_atom(tz: _Tokenizer) -> Atom:
    item = _parse_atom_or_comparison(tz)
    if isinstance(item, Comparison):
        raise ParseError(f"expected an atom, found comparison {item}", tz.peek().span)
    return item


def parse_program(text: str, filename: str = "<program>") -> Program:
    """Parse and validate a program; its answer predicate is the head
    predicate of the first rule."""
    tz = _Tokenizer(text, filename)
    rules: list[Rule] = []
    while tz.peek().kind != "eof":
        head = _parse_atom(tz)
        tok = tz.next()
        if tok.text == ".":
            rules.append(Rule(head, ()))
            continue
        if tok.text != ":-":
            raise ParseError(f"expected '.' or ':-', found {tok.text!r}", tok.span)
        body: list[Atom | Comparison] = [_parse_atom_or_comparison(tz)]
        while tz.peek().text == ",":
            tz.next()
            body.append(_parse_atom_or_comparison(tz))
        tz.expect(".")
        rules.append(Rule(head, tuple(body)))
    if not rules:
        raise ParseError("empty program", SourceSpan(filename, 1, 1))
    program = Program(rules, rules[0].head.predicate)
    validate_program(program)
    return program


def _require_ground(atom: Atom, span: SourceSpan) -> GroundAtom:
    if not atom.is_ground():
        raise ParseError(f"fact {atom} contains variables", span)
    return GroundAtom(atom.predicate, atom.args)  # type: ignore[arg-type]


@dataclass
class InstanceDocument:
    """An instance file: the partitioned instance plus any observations
    declared in a ``#observe`` section (used by the abduce task)."""

    instance: Instance
    observations: tuple[GroundAtom, ...] = ()
    exogenous_predicates: frozenset[str] = field(default_factory=frozenset)


def parse_instance_document(text: str, filename: str = "<instance>") -> InstanceDocument:
    endogenous: dict[GroundAtom, str | None] = {}
    exogenous: dict[GroundAtom, str | None] = {}
    observations: list[GroundAtom] = []
    exo_predicates: set[str] = set()
    section = "endogenous"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("#"):
            directive, _, rest = line.partition(" ")
            if directive in ("#endogenous", "#exogenous", "#observe") and rest.strip():
                raise ParseError(
                    f"unexpected input after {directive}", SourceSpan(filename, lineno, 1)
                )
            if directive == "#endogenous":
                section = "endogenous"
            elif directive == "#exogenous":
                section = "exogenous"
            elif directive == "#observe":
                section = "observe"
            elif directive == "#exogenous-predicates":
                names = [n.strip() for n in rest.split(",") if n.strip()]
                if not names:
                    raise ParseError("#exogenous-predicates needs at least one name", SourceSpan(filename, lineno, 1))
                exo_predicates.update(names)
            else:
                raise ParseError(f"unknown directive {directive}", SourceSpan(filename, lineno, 1))
            continue

        tz = _Tokenizer(line, filename)
        label: str | None = None
        if tz.peek().kind == "name" and tz.tokens[tz.index + 1].text == ":":
            label_tok = tz.next()
            tz.next()
            label = label_tok.text
        span = tz.peek().span
        span = SourceSpan(filename, lineno, span.column)
        atom = _require_ground(_parse_atom(tz), span).with_label(label)
        tz.expect(".")
        if tz.peek().kind != "eof":
            raise ParseError(f"trailing input after fact: {tz.peek().text!r}", SourceSpan(filename, lineno, 1))

        if section == "observe":
            observations.append(atom)
            continue
        bucket = exogenous if section == "exogenous" else endogenous
        other = endogenous if section == "exogenous" else exogenous
        if atom in other:
            raise DuplicateFactError(f"fact {atom} appears in both partitions", SourceSpan(filename, lineno, 1))
        bucket[atom] = label

    for atom in list(endogenous):
        if atom.predicate in exo_predicates:
            if atom in exogenous:
                raise DuplicateFactError(f"fact {atom} appears in both partitions", SourceSpan(filename, 1, 1))
            exogenous[atom] = endogenous.pop(atom)

    instance = Instance(
        (a.with_label(lbl) for a, lbl in endogenous.items()),
        (a.with_label(lbl) for a, lbl in exogenous.items()),
    )
    return InstanceDocument(instance, tuple(observations), frozenset(exo_predicates))


def parse_instance(text: str, filename: str = "<instance>") -> Instance:
    return parse_instance_document(text, filename).instance


def parse_ground_atom(text: str, filename: str = "<atom>") -> GroundAtom:
    """One ground atom, as accepted for CLI targets, e.g. 'ans(john, xml)'."""
    tz = _Tokenizer(text, filename)
    atom = _require_ground(_parse_atom(tz), tz.peek().span)
    if tz.peek().text == ".":
        tz.next()
    if tz.peek().kind != "eof":
        raise ParseError(f"trailing input after atom: {tz.peek().text!r}", tz.peek().span)
    return atom


def _parse_constraint_line(line: str, filename: str, lineno: int) -> Constraint:
    tz = _Tokenizer(line, filename)
    body: list[Atom] = []
    while True:
        item = _parse_atom_or_comparison(tz)
        if isinstance(item, Comparison):
            raise NonConjunctiveBodyError(
                f"built-in {item} not allowed in a constraint body", SourceSpan(filename, lineno, 1)
            )
        body.append(item)
        tok = tz.next()
        if tok.text == ",":
            continue
        if tok.text == "=>":
            break
        raise ParseError(f"expected ',' or '=>', found {tok.text!r}", tok.span)

    head_start = tz.peek()
    if head_start.text == "false":
        tz.next()
        tz.expect(".")
        return Constraint.denial(tuple(body))

    first = _parse_atom_or_comparison(tz)
    if isinstance(first, Comparison):
        if first.op != "=":
            raise ParseError("an egd head must be an equality", head_start.span)
        tz.expect(".")
        return Constraint.egd(tuple(body), first.left, first.right)

    head_atoms = [first]
    while tz.peek().text == ",":
        tz.next()
        head_atoms.append(_parse_atom(tz))
    tz.expect(".")
    return Constraint.tgd(tuple(body), tuple(head_atoms))


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("#key"):
            m = _KEY_DIRECTIVE.match(line)
            if not m:
                raise ParseError("malformed #key directive", SourceSpan(filename, lineno, 1))
            positions = tuple(int(p) for p in m.group("positions").split())
            if any(p < 1 for p in positions):
                raise ParseError("key positions are 1-based", SourceSpan(filename, lineno, 1))
            keys.append(KeyConstraint(m.group("pred"), positions))
            continue
        if line.startswith("#fd"):
            m = _FD_DIRECTIVE.match(line)
            if not m:
                raise ParseError("malformed #fd directive", SourceSpan(filename, lineno, 1))
            lhs = tuple(int(p) for p in m.group("lhs").split())
            rhs = tuple(int(p) for p in m.group("rhs").split())
            if any(p < 1 for p in (*lhs, *rhs)):
                raise ParseError("dependency positions are 1-based", SourceSpan(filename, lineno, 1))
            fds.append(FunctionalDependency(m.group("pred"), lhs, rhs))
            continue
        if line.startswith("#"):
            raise ParseError(f"unknown directive {line.split()[0]}", SourceSpan(filename, lineno, 1))
        constraints.append(_parse_constraint_line(line, filename, lineno))
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
