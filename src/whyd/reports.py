"""Structured result reports with deterministic JSON serialization.

Two runs on identical inputs produce byte-identical output: keys are
sorted, every atom list is in canonical order (predicate name, then
argument symbols), and responsibilities are exact fraction strings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
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


def emit_report(report: Report) -> str:
    """Canonical UTF-8 JSON with LF line endings and a trailing newline."""
    document = {
        "schema": SCHEMA,
        "task": report.task,
        "payload": report.payload,
        "provenance": dict(report.provenance),
    }
    return json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
