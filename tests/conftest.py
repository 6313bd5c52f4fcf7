from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from whyd.parsing import (
    parse_constraints,
    parse_ground_atom,
    parse_instance_document,
    parse_program,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text()


def load_program(name: str):
    return parse_program(fixture_text(name), name)


def load_document(name: str):
    return parse_instance_document(fixture_text(name), name)


def load_instance(name: str):
    return load_document(name).instance


def load_constraints(name: str):
    return parse_constraints(fixture_text(name), name)


def atom(text: str):
    return parse_ground_atom(text)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and what it wrote to stdout."""
    from whyd import cli

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def count_facts_read(monkeypatch, count) -> None:
    """From now on, call ``count(n)`` each time a join kernel reads n
    facts through ``evaluator.Relation``: a relation it scans, or the
    bucket of an index it probes (a bucket the kernel fetched before its
    loops counts once).  The kernels themselves count nothing."""
    from whyd.evaluator import Relation

    kernel = "<whyd kernel>"  # the file name kernels are compiled under

    class Index(dict):
        def get(self, key, default=None):
            bucket = dict.get(self, key, default)
            if bucket and sys._getframe(1).f_code.co_filename == kernel:
                count(len(bucket))
            return bucket

    real_index, real_iter = Relation.index, Relation.__iter__

    def index(self, arity, positions):
        found = real_index(self, arity, positions)
        if found.__class__ is not Index:
            found = self._indexes[arity, positions] = Index(found)
        return found

    def scan(self):
        count(len(self.facts))
        return real_iter(self)

    monkeypatch.setattr(Relation, "index", index)
    monkeypatch.setattr(Relation, "__iter__", scan)
