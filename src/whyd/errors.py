"""Exception hierarchy.

Every exception carries a stable ``code`` string so the CLI can emit
machine-readable error objects without string-matching messages.
"""

from __future__ import annotations

from dataclasses import dataclass


class WhydError(Exception):
    code = "Error"


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(WhydError):
    code = "SyntaxError"

    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        self.message = message
        super().__init__(f"{span}: {message}" if span else message)


class NonConjunctiveBodyError(ParseError):
    code = "NonConjunctiveBody"


class DuplicateFactError(ParseError):
    code = "DuplicateFactAcrossPartitions"


class ValidationError(WhydError):
    code = "ValidationError"


class UnsafeRuleError(ValidationError):
    code = "UnsafeRule"

    def __init__(self, rule, variable):
        self.rule = rule
        self.variable = variable
        super().__init__(f"unsafe rule: variable {variable} not bound by a positive body atom in {rule}")


class ArityMismatchError(ValidationError):
    code = "ArityMismatch"

    def __init__(self, atom, expected: int):
        self.atom = atom
        self.expected = expected
        super().__init__(f"{atom} has arity {len(atom.args)}, expected {expected}")


class UnknownPredicateError(WhydError):
    code = "UnknownPredicate"


class NotAnAnswerError(WhydError):
    code = "NotAnAnswer"


class NotEndogenousError(WhydError):
    code = "NotEndogenous"


class NotACauseError(WhydError):
    code = "NotACause"


class ObservationNotEntailableError(WhydError):
    code = "ObservationNotEntailable"


class UnknownHypothesisError(WhydError):
    code = "UnknownHypothesis"


class NotBooleanError(WhydError):
    code = "NotBoolean"


class NotEntailedError(WhydError):
    code = "NotEntailed"


class NonHornClauseError(WhydError):
    code = "NonHornClause"


class NotSubinstanceError(WhydError):
    code = "NotSubinstance"


class NotConjunctiveError(WhydError):
    code = "NotConjunctive"


class SchemaMismatchError(WhydError):
    code = "SchemaMismatch"


class InstanceViolatesSigmaError(WhydError):
    code = "InstanceViolatesSigma"


class InternalInvariantError(WhydError):
    """A result failed the check the engine runs on it before returning;
    this is a bug in whyd, not in the input."""

    code = "InternalInvariant"
