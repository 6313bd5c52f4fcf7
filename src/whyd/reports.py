"""Structured result reports with deterministic JSON serialization.

Two runs on identical inputs produce byte-identical output: keys are
sorted, every atom list is in canonical order (predicate name, then
argument symbols), and responsibilities are exact fraction strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring as _string
from typing import Any, Iterable, Mapping

from .errors import WhydError
from .model import GroundAtom, family_key

SCHEMA = "whyd/1"

TASKS = (
    "eval",
    "causes",
    "responsibility",
    "mrc",
    "vc-causes",
    "abduce",
    "delprop",
    "check-ics",
    "encode-phca",
)


@dataclass(frozen=True)
class Report:
    task: str
    payload: Mapping[str, Any]
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise WhydError(f"unknown report task {self.task!r}")


def fraction_text(value: Fraction) -> str:
    return str(value)


def sorted_atoms(atoms: Iterable[GroundAtom]) -> list[str]:
    return [str(a) for a in sorted(atoms, key=GroundAtom.sort_key)]


def sorted_families(families: Iterable[frozenset[GroundAtom]]) -> list[list[str]]:
    return [sorted_atoms(s) for s in sorted(families, key=family_key)]


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance_for(named_inputs: Mapping[str, bytes]) -> dict[str, str]:
    return {name: file_digest(data) for name, data in sorted(named_inputs.items())}


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, sort_keys=True,
    indent=2, ensure_ascii=False)`` writes it at nesting ``indent``: str,
    int, bool, None, lists, tuples and dicts with str keys; any other
    value raises ``TypeError``."""
    if isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(_string(key))
            out.append(": ")
            _write(value[key], inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text(document: dict[str, Any]) -> str:
    out: list[str] = []
    _write(document, "", out)
    out.append("\n")
    return "".join(out)


def emit_report(report: Report) -> str:
    """Canonical UTF-8 JSON with LF line endings and a trailing newline:
    ``json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline, byte for byte.  It is written here, as the stdlib's
    indenting encoder is pure Python and about twice as slow."""
    document = {
        "schema": SCHEMA,
        "task": report.task,
        "payload": report.payload,
        "provenance": dict(report.provenance),
    }
    return _text(document)


def emit_error(exc: WhydError) -> str:
    """The error object of a failed command, written as ``emit_report``
    writes a report."""
    document = {
        "schema": SCHEMA,
        "error": {"code": exc.code, "message": str(exc)},
    }
    return _text(document)
