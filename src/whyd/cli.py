"""The ``whyd`` command line tool.

One binary, subcommand style; outputs are deterministic JSON reports on
stdout (human-readable summaries behind ``--pretty``), diagnostics on
stderr.  Exit codes: 0 success, 2 usage or input-format errors, 3
semantic errors.  Both failing codes also write a machine-readable error
object to stdout, command lines that argparse rejects included.

A command line is parsed in one of two ways, to the same namespace.  A
plain one (a known subcommand, then each option spelled in full and
given once, its value valid and every required option present) is read
off the subcommand's option table, which ``_table`` derives once per
process from the argparse parser, so the grammar is declared once.
argparse parses every other command line: it alone writes ``--help``
and rejects, and it takes abbreviations, ``-pFILE``, repeated options,
``--`` and values that start with ``-``.

Each subcommand has one handler (``_HANDLERS``): it reads its inputs in
the order that decides which error a faulty command line reports, calls
the layers through their modules (so a patched module function is the
one called) and returns its payload, which ``_run`` puts in a ``Report``.

Every call reads its input files afresh, so an edited file is seen at
once and its bytes feed the provenance digests, but a long-lived caller
of ``main`` parses each distinct input text once: the parsed program,
instance document, constraint set, PHCA problem or command-line atom is
kept in a bounded cache keyed by the input's kind and text, not its path
(``model.CACHE_SIZE`` entries, the least recently used dropped first).
A text that fails to parse is not kept, so its error is raised again,
positioned in the file of the current call.  The arity check of the
data against the program runs once per distinct pair of their texts,
kept in a cache of the same bound; a pair that fails it is not kept, so
it fails again on every call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from . import abduction, causality, constraints, phca, vc, viewupdate
from .errors import ParseError, WhydError
from .evaluator import answers as evaluate_answers
from .model import CACHE_SIZE, GroundAtom, Instance, Program, check_instance_against
from .parsing import (
    InstanceDocument,
    parse_constraints,
    parse_ground_atom,
    parse_instance_document,
    parse_program,
    serialize_program,
)
from .reports import (
    Report,
    emit_error,
    emit_report,
    fraction_text,
    provenance_for,
    sorted_atoms,
    sorted_families,
)

# each --mode and the viewupdate function that answers it
_DELPROP_MODES = {
    "minimal-source": "minimal_source_solutions",
    "minimum-source": "minimum_source_solutions",
    "view-safe": "vsef_solutions",
}


def _count(text: str) -> int:
    """The argparse type of the count options: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


class _UsageError(WhydError):
    code = "UsageError"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise ``_UsageError``, so they
    end in the JSON error object as every other usage error does; its
    subcommand parsers are of the same class.  ``commands`` maps each
    subcommand to its parser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):
        raise _UsageError(message)


@functools.cache  # parsing keeps no state on it; --help writes to the sys.stdout of its call
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="whyd",
        description="Causal explanations for Datalog query answers: causes, "
        "responsibility, abduction, delete propagation, and constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, *, program=True, data=True, target=False, tuple_=False, ics=None, help=""):
        p = sub.add_parser(name, help=help)
        if program:
            p.add_argument("-p", "--program", required=True, help="program file")
        if data:
            p.add_argument("-d", "--data", required=True, help="instance file")
        if target:
            p.add_argument("-t", "--target", required=True, help="ground answer atom, e.g. 'ans(john, xml)'")
        if tuple_:
            p.add_argument("--tuple", required=True, help="ground database tuple under scrutiny")
        if ics is not None:  # "optional" or "required"
            p.add_argument("-c", "--constraints", required=ics == "required", help="constraint file")
        p.add_argument("--pretty", action="store_true", help="human-readable summary instead of JSON")
        return p

    add("eval", help="answers of the query on the instance")
    p = add("causes", target=True, ics="optional", help="actual causes with contingency sets and responsibilities")
    p.add_argument("--max-contingency-sets", type=_count, default=None, help="cap reported families (sets a truncation flag)")
    p = add("responsibility", target=True, tuple_=True, ics="optional", help="exact responsibility of one tuple")
    p = add("mrc", target=True, help="most responsible causes")
    p = add("vc-causes", target=True, help="view-conditioned causes")
    p.add_argument("--max-contingency-sets", type=_count, default=None, help="cap reported families (sets a truncation flag)")
    p = add("abduce", help="abductive diagnoses for the #observe section of the instance file")
    p.add_argument("--obs-bound", type=_count, default=None, help="reject observations with more atoms than this")
    p = add("delprop", target=True, help="delete-propagation solutions")
    p.add_argument("--mode", choices=sorted(_DELPROP_MODES), required=True)
    p.add_argument("--endogenous-only", action="store_true", help="only delete endogenous tuples")
    p = add("check-ics", program=False, ics="required", help="check the instance against the constraints")
    p = sub.add_parser("encode-phca", help="encode a propositional Horn abduction problem and solve it")
    p.add_argument("-i", "--input", required=True, help="PHCA file ('a <- b c' lines, #hyp / #obs sections)")
    p.add_argument("--pretty", action="store_true")
    parser.commands = sub.choices
    return parser


@dataclass(frozen=True)
class _Input:
    """An input file as read, or a command-line atom (kind ``atom``, path
    ``<atom>``): its kind, its text and its path.  The path only
    positions a parse error and takes no part in equality, so
    ``_parsed`` shares one parse among equal texts."""

    kind: str
    text: str
    path: str = field(compare=False)


_CHUNK = 1 << 16  # bytes per read: a larger buffer costs more to allocate than most inputs to read


def _read(sources: dict[str, bytes], kind: str, path: str) -> _Input:
    """An input file, read afresh; its raw bytes go into ``sources`` for
    the provenance digests."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _CHUNK):  # a directory opens, and fails here
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a path with an embedded NUL byte
        raise _UsageError(f"cannot read {path!r}: {exc}") from exc
    data = b"".join(chunks)
    sources[kind] = data
    try:
        return _Input(kind, data.decode("utf-8"), path)
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from exc


@functools.lru_cache(maxsize=CACHE_SIZE)
def _parsed(source: _Input) -> Any:
    """The parse of an input, shared by every call on an equal text; a
    failed parse is not kept."""
    kind, text, path = source.kind, source.text, source.path
    if kind == "program":
        return parse_program(text, path)
    if kind == "data":
        return parse_instance_document(text, path)
    if kind == "constraints":
        return parse_constraints(text, path)
    if kind == "atom":
        return parse_ground_atom(text, path)
    return phca.parse_phca(text, path)


def _atom(text: str) -> GroundAtom:
    """A ground atom given on the command line (``-t``, ``--tuple``)."""
    return _parsed(_Input("atom", text, "<atom>"))


def _cause_payload(reports, cap: int | None, responsibility_key: str) -> list[dict[str, Any]]:
    out = []
    for report in reports:
        family = sorted_families(report.minimal_contingency_sets)
        out.append(
            {
                "tuple": str(report.cause),
                responsibility_key: fraction_text(report.responsibility),
                "contingency_sets": family[:cap],
                "truncated": cap is not None and len(family) > cap,
            }
        )
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def _checked(program_input: _Input, data_input: _Input) -> tuple[Program, InstanceDocument]:
    """The parsed program and instance document, the data's arities
    checked against the program once per pair of texts; a failing pair
    is not kept."""
    program, document = _parsed(program_input), _parsed(data_input)
    check_instance_against(program, document.instance)
    return program, document


def _load(args, sources: dict[str, bytes]) -> tuple[Program, InstanceDocument]:
    program_input = _read(sources, "program", args.program)
    data_input = _read(sources, "data", args.data)
    return _checked(program_input, data_input)


def _query(args, sources: dict[str, bytes]) -> tuple[Program, Instance, GroundAtom]:
    """The program, the instance and the ``-t`` answer atom, in that order."""
    program, document = _load(args, sources)
    return program, document.instance, _atom(args.target)


def _eval(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, document = _load(args, sources)
    return {"answers": sorted_atoms(evaluate_answers(program, document.instance))}


def _causes(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, instance, target = _query(args, sources)
    if args.constraints:
        sigma = _parsed(_read(sources, "constraints", args.constraints))
        reports, key = constraints.causes_under_ics(instance, program, target, sigma), "responsibility_under_ics"
    else:
        reports, key = causality.cause_reports(instance, program, target), "responsibility"
    return {"target": str(target), "causes": _cause_payload(reports, args.max_contingency_sets, key)}


def _responsibility(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, instance, target = _query(args, sources)
    tau = _atom(args.tuple)
    if args.constraints:
        sigma = _parsed(_read(sources, "constraints", args.constraints))
        rho = constraints.responsibility_under_ics(instance, program, target, tau, sigma)
    else:
        rho = causality.responsibility(instance, program, target, tau)
    return {"target": str(target), "tuple": str(tau), "responsibility": fraction_text(rho)}


def _mrc(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, instance, target = _query(args, sources)
    winners = causality.most_responsible_causes(instance, program, target)
    rho = causality.responsibility(instance, program, target, next(iter(winners))) if winners else Fraction(0)
    return {"target": str(target), "causes": sorted_atoms(winners), "responsibility": fraction_text(rho)}


def _vc_causes(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, instance, target = _query(args, sources)
    reports = vc.vc_causes(instance, program, target)
    entries = _cause_payload(reports, args.max_contingency_sets, "vc_responsibility")
    causes = [entry | {"vcc": frozenset() in r.minimal_contingency_sets} for r, entry in zip(reports, entries)]
    return {"target": str(target), "causes": causes}


def _abduce(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, document = _load(args, sources)
    if not document.observations:
        raise _UsageError("the instance file has no #observe section")
    if args.obs_bound is not None and len(document.observations) > args.obs_bound:
        raise _UsageError(f"observation has {len(document.observations)} atoms, bound is {args.obs_bound}")
    instance = document.instance
    problem = abduction.AbductionProblem(program, instance.exogenous, instance.endogenous, document.observations)
    necessary_sets = abduction.necessary_hypothesis_sets(problem)
    degrees = abduction.necessity_degrees(problem.hypotheses, necessary_sets)
    return {
        "observation": sorted_atoms(document.observations),
        "diagnoses": sorted_families(abduction.solve_diagnoses(problem)),
        "relevant": sorted_atoms(abduction.relevant_hypotheses(problem)),
        "necessary": sorted_atoms(abduction.necessary_hypotheses(problem)),
        "necessary_sets": sorted_families(necessary_sets),
        "necessity_degrees": {str(h): fraction_text(degrees[h]) for h in sorted(degrees, key=GroundAtom.sort_key)},
    }


def _delprop(args, sources: dict[str, bytes]) -> dict[str, Any]:
    program, instance, target = _query(args, sources)
    solve = getattr(viewupdate, _DELPROP_MODES[args.mode])
    solutions = solve(instance, program, target, endogenous_only=args.endogenous_only)
    return {
        "target": str(target),
        "mode": args.mode,
        "exists": bool(solutions),
        "solutions": [
            {"removed": sorted_atoms(s.removed), "residual_view": sorted_atoms(s.residual_view)}
            for s in solutions
        ],
    }


def _check_ics(args, sources: dict[str, bytes]) -> dict[str, Any]:
    data_input = _read(sources, "data", args.data)
    constraints_input = _read(sources, "constraints", args.constraints)
    result = constraints.satisfies(_parsed(data_input).instance, _parsed(constraints_input))
    return {
        "satisfied": result.ok,
        "violations": [
            {"constraint": str(v.constraint), "witness": sorted_atoms(v.witness)} for v in result.violations
        ],
    }


def _encode_phca(args, sources: dict[str, bytes]) -> dict[str, Any]:
    encoded = phca.encode_phca(_parsed(_read(sources, "input", args.input)))
    return {
        "program": serialize_program(encoded.program).splitlines(),
        "extensional": sorted_atoms(encoded.extensional),
        "hypotheses": sorted_atoms(encoded.hypotheses),
        "observation": sorted_atoms(encoded.observation),
        "diagnoses": sorted_families(abduction.solve_diagnoses(encoded)),
        "relevant": sorted_atoms(abduction.relevant_hypotheses(encoded)),
    }


_HANDLERS = {
    "eval": _eval,
    "causes": _causes,
    "responsibility": _responsibility,
    "mrc": _mrc,
    "vc-causes": _vc_causes,
    "abduce": _abduce,
    "delprop": _delprop,
    "check-ics": _check_ics,
    "encode-phca": _encode_phca,
}


def _run(args) -> Report:
    sources: dict[str, bytes] = {}
    payload = _HANDLERS[args.command](args, sources)
    return Report(args.command, payload, provenance_for(sources))


def _summary(report: Report) -> str:
    lines = [f"task: {report.task}"]
    payload = report.payload

    def bullet_list(name: str, values) -> None:
        lines.append(f"{name}:")
        for value in values:
            lines.append(f"  - {value}")

    if report.task == "eval":
        bullet_list("answers", payload["answers"])
    elif report.task in ("causes", "vc-causes"):
        key = "responsibility" if report.task == "causes" else "vc_responsibility"
        alt = "responsibility_under_ics"
        for entry in payload["causes"]:
            rho = entry.get(key, entry.get(alt))
            sets = "; ".join("{" + ", ".join(g) + "}" for g in entry["contingency_sets"]) or "{}"
            lines.append(f"  {entry['tuple']}  rho={rho}  contingency sets: {sets}")
        if not payload["causes"]:
            lines.append("  (no causes)")
    elif report.task == "delprop":
        lines.append(f"exists: {payload['exists']}")
        for entry in payload["solutions"]:
            lines.append("  remove {" + ", ".join(entry["removed"]) + "}")
    elif report.task == "abduce":
        bullet_list("diagnoses", ["{" + ", ".join(d) + "}" for d in payload["diagnoses"]])
        lines.append(f"relevant: {', '.join(payload['relevant']) or '(none)'}")
        lines.append(f"necessary: {', '.join(payload['necessary']) or '(none)'}")
    elif report.task == "check-ics":
        lines.append(f"satisfied: {payload['satisfied']}")
        for violation in payload["violations"]:
            lines.append(f"  violated: {violation['constraint']} by {{{', '.join(violation['witness'])}}}")
    else:
        for key in sorted(payload):
            lines.append(f"{key}: {payload[key]}")
    return "\n".join(lines) + "\n"


@functools.cache
def _table(command: str) -> tuple[dict[str, argparse.Action], dict[str, Any], frozenset[str]]:
    """The subcommand's options as its argparse parser declares them: the
    option strings of each option that stores a value or a constant,
    mapped to its action; the namespace of no options, ``command``
    first, as the full parse orders it; and the required dests.  An
    option of any other kind, ``--help`` among them, stays out of the
    map, so argparse parses a command line that uses it."""
    options: dict[str, argparse.Action] = {}
    defaults: dict[str, Any] = {"command": command}
    required = set()
    for action in _build_parser().commands[command]._actions:
        if action.default is argparse.SUPPRESS:
            continue
        defaults[action.dest] = action.default
        if action.required:
            required.add(action.dest)
        if isinstance(action, (argparse._StoreAction, argparse._StoreConstAction)):
            options.update(dict.fromkeys(action.option_strings, action))
    return options, defaults, frozenset(required)


def _plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace of a command line in the plain grammar, read off its
    subcommand's ``_table``, or None for any other: a known subcommand,
    then options each spelled in full and given once, as ``-x V``,
    ``--long V`` or ``--long=V``, a separate value not starting with
    ``-``, each value of its type and among its choices, and every
    required option present."""
    if not argv or argv[0] not in _build_parser().commands:
        return None
    options, defaults, required = _table(argv[0])
    values = defaults.copy()
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            name, eq, value = token.partition("=")
            action = options.get(name) if eq and name[:2] == "--" else None
            # a flag takes no value; a lone "--" is argparse's own separator
            if action is None or action.nargs == 0 or value == "--":
                return None
        elif action.nargs == 0:
            value = action.const
        else:
            value = next(tokens, "-")  # a missing value declines as one starting with "-"
            if value[:1] == "-":
                return None
        if action.dest in seen:
            return None
        seen.add(action.dest)
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace ``_build_parser().parse_args(argv)`` gives.  A plain
    command line is read off its subcommand's option table (``_plain``);
    argparse parses every other one, with the subcommand's own parser
    when ``argv`` starts with one, and so writes every ``--help`` and
    every rejection."""
    args = _plain(argv)
    if args is not None:
        return args
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        report = _run(args)
    except WhydError as exc:
        print(f"whyd: {exc}", file=sys.stderr)
        sys.stdout.write(emit_error(exc))
        return 2 if isinstance(exc, (_UsageError, ParseError)) else 3
    if getattr(args, "pretty", False):
        sys.stdout.write(_summary(report))
    else:
        sys.stdout.write(emit_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
