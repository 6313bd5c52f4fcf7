"""Propositional Horn clause abduction and its Datalog encoding.

The encoding normalizes the rule set to the 3-bounded form (long bodies
are split with fresh variables, short ones padded with the always-true
marker), then ships each rule as an extensional fact of a fixed
4-ary predicate consumed by a two-rule recursive program.  Relevance of
a hypothesis h then coincides with relevance of its marker atom in the
resulting Datalog abduction problem.

Text format: one clause per line, ``head <- body1 body2``; a bare name
is a fact.  ``#hyp`` and ``#obs`` lines start the hypothesis and
observation sections, which list variable names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abduction import AbductionProblem
from .errors import NonHornClauseError, ParseError, SourceSpan, WhydError
from .model import Atom, Constant, GroundAtom, Program, Rule, Variable

HornRule = tuple[str, tuple[str, ...]]


@dataclass(frozen=True)
class PropositionalHornAbduction:
    """(Var, H, SD, O): variables, hypotheses, definite Horn rules and the
    observed variables, with H and O disjoint."""

    variables: frozenset[str]
    hypotheses: frozenset[str]
    rules: tuple[HornRule, ...]
    observations: tuple[str, ...]

    def __post_init__(self):
        if not self.observations:
            raise WhydError("empty observation")
        if self.hypotheses & set(self.observations):
            raise WhydError("hypotheses and observations must be disjoint")
        mentioned = set(self.hypotheses) | set(self.observations)
        for head, body in self.rules:
            mentioned.add(head)
            mentioned.update(body)
        if not mentioned <= self.variables:
            missing = sorted(mentioned - self.variables)[0]
            raise WhydError(f"{missing} is not a declared variable")


def parse_phca(text: str, filename: str = "<phca>") -> PropositionalHornAbduction:
    rules: list[HornRule] = []
    hypotheses: list[str] = []
    observations: list[str] = []
    section = "rules"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line == "#hyp":
            section = "hyp"
            continue
        if line == "#obs":
            section = "obs"
            continue
        if line.startswith("#"):
            raise ParseError(f"unknown directive {line}", SourceSpan(filename, lineno, 1))
        if section == "hyp":
            hypotheses.extend(line.split())
            continue
        if section == "obs":
            observations.extend(line.split())
            continue
        head, arrow, body = line.partition("<-")
        head_names = head.split()
        if len(head_names) != 1:
            raise NonHornClauseError(
                f"a definite Horn clause has exactly one head, got {head.strip()!r}",
                SourceSpan(filename, lineno, 1),
            )
        rules.append((head_names[0], tuple(body.split()) if arrow else ()))
    variables = {h for h, _ in rules} | {b for _, body in rules for b in body}
    variables.update(hypotheses)
    variables.update(observations)
    return PropositionalHornAbduction(
        frozenset(variables), frozenset(hypotheses), tuple(rules), tuple(observations)
    )


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    taken.add(f"{base}{i}")
    return f"{base}{i}"


def three_bounded(problem: PropositionalHornAbduction) -> tuple[tuple[HornRule, ...], str]:
    """Equivalent rules with exactly three body variables each: long
    bodies are split through fresh variables, short ones padded with a
    fresh always-true marker.  Returns the rules and the marker name."""
    taken = set(problem.variables)
    true_marker = _fresh_name("true", taken)
    out: list[HornRule] = []
    for head, body in problem.rules:
        work = list(body)
        while len(work) > 3:
            aux = _fresh_name("_split", taken)
            out.append((aux, (work[0], work[1])))
            work = [aux] + work[2:]
        out.append((head, tuple(work)))
    padded = [(head, tuple(body) + (true_marker,) * (3 - len(body))) for head, body in out]
    return tuple(padded), true_marker


# t(X0) <- t(X1), t(X2), t(X3), r(X0, X1, X2, X3): the one recursive rule
# of every encoding, shared so that its join plans are compiled once
_X0, _X1, _X2, _X3 = (Variable(n) for n in ("X0", "X1", "X2", "X3"))
_T_RULE = Rule(
    Atom("t", (_X0,)),
    (Atom("t", (_X1,)), Atom("t", (_X2,)), Atom("t", (_X3,)), Atom("r", (_X0, _X1, _X2, _X3))),
)


def encode_phca(problem: PropositionalHornAbduction) -> AbductionProblem:
    """The Datalog abduction problem whose relevant marker atoms are
    exactly the relevant hypotheses of the propositional problem."""
    rules, true_marker = three_bounded(problem)
    program = Program((Rule(Atom("t", (Constant(true_marker),)), ()), _T_RULE), "t")
    extensional = frozenset(
        GroundAtom("r", (Constant(head), Constant(b1), Constant(b2), Constant(b3)))
        for head, (b1, b2, b3) in rules
    )
    hypotheses = frozenset(GroundAtom("t", (Constant(h),)) for h in sorted(problem.hypotheses))
    observation = tuple(GroundAtom("t", (Constant(o),)) for o in problem.observations)
    return AbductionProblem(program, extensional, hypotheses, observation)
