import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whyd import cli

from conftest import FIXTURES, GOLDEN, run_cli as _run


def _fx(name: str) -> str:
    return str(FIXTURES / name)


# every fixture in the repo gets a golden report driven through the CLI
GOLDEN_CASES = {
    "eval_aj": ["eval", "-p", _fx("aj.dl"), "-d", _fx("aj.facts")],
    "eval_access": ["eval", "-p", _fx("access.dl"), "-d", _fx("access.facts")],
    "eval_graph": ["eval", "-p", _fx("graph.dl"), "-d", _fx("graph.facts")],
    "eval_repair": ["eval", "-p", _fx("repair.dl"), "-d", _fx("repair.facts")],
    "causes_aj": ["causes", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"],
    "causes_aj_journal_exogenous": [
        "causes", "-p", _fx("aj.dl"), "-d", _fx("aj_journal_exogenous.facts"), "-t", "ans(john, xml)",
    ],
    "causes_graph": ["causes", "-p", _fx("graph.dl"), "-d", _fx("graph.facts"), "-t", "ans(c, e)"],
    "causes_dept_q_psi": [
        "causes", "-p", _fx("dept_q.dl"), "-d", _fx("dept.facts"), "-c", _fx("dept.ics"), "-t", "ans(john)",
    ],
    "causes_dept_q1_psi": [
        "causes", "-p", _fx("dept_q1.dl"), "-d", _fx("dept.facts"), "-c", _fx("dept.ics"), "-t", "ans(john)",
    ],
    "responsibility_graph_t2": [
        "responsibility", "-p", _fx("graph.dl"), "-d", _fx("graph.facts"), "-t", "ans(c, e)", "--tuple", "e(b, e)",
    ],
    "responsibility_dept_t4_psi": [
        "responsibility", "-p", _fx("dept_q1.dl"), "-d", _fx("dept.facts"), "-c", _fx("dept.ics"),
        "-t", "ans(john)", "--tuple", "course(com08, john, computing)",
    ],
    "mrc_graph": ["mrc", "-p", _fx("graph.dl"), "-d", _fx("graph.facts"), "-t", "ans(c, e)"],
    "mrc_aj": ["mrc", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"],
    "vc_access_joe": ["vc-causes", "-p", _fx("access.dl"), "-d", _fx("access.facts"), "-t", "access(joe, f1)"],
    "vc_access_g0": ["vc-causes", "-p", _fx("access.dl"), "-d", _fx("access_g0.facts"), "-t", "access(joe, f1)"],
    "vc_aj": ["vc-causes", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"],
    "abduce_circuit": ["abduce", "-p", _fx("circuit.dl"), "-d", _fx("circuit.facts")],
    "abduce_rs": ["abduce", "-p", _fx("rs.dl"), "-d", _fx("rs_abduce.facts")],
    "abduce_rs_nes": ["abduce", "-p", _fx("rs.dl"), "-d", _fx("rs_nes_abduce.facts")],
    "delprop_aj_minimal": [
        "delprop", "--mode", "minimal-source", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)",
    ],
    "delprop_graph_minimum": [
        "delprop", "--mode", "minimum-source", "-p", _fx("graph.dl"), "-d", _fx("graph.facts"), "-t", "ans(c, e)",
    ],
    "delprop_access_tom_view_safe": [
        "delprop", "--mode", "view-safe", "-p", _fx("access.dl"), "-d", _fx("access.facts"), "-t", "access(tom, f3)",
    ],
    "delprop_access_joe_view_safe_endogenous": [
        "delprop", "--mode", "view-safe", "--endogenous-only",
        "-p", _fx("access.dl"), "-d", _fx("access.facts"), "-t", "access(joe, f1)",
    ],
    "delprop_aj_endogenous": [
        "delprop", "--mode", "minimal-source", "--endogenous-only",
        "-p", _fx("aj.dl"), "-d", _fx("aj_journal_exogenous.facts"), "-t", "ans(john, xml)",
    ],
    "check_ics_dept": ["check-ics", "-d", _fx("dept.facts"), "-c", _fx("dept.ics")],
    "check_ics_repair": ["check-ics", "-d", _fx("repair.facts"), "-c", _fx("repair.ics")],
    "encode_phca_example": ["encode-phca", "-i", _fx("phca_example.txt")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    code, output = _run(GOLDEN_CASES[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text()
    assert output == expected


@pytest.mark.parametrize("name", ["causes_aj", "abduce_circuit", "vc_access_g0"])
def test_reports_are_deterministic(name):
    first = _run(GOLDEN_CASES[name])
    second = _run(GOLDEN_CASES[name])
    assert first == second


def test_golden_values_spot_checks():
    code, output = _run(GOLDEN_CASES["causes_aj"])
    payload = json.loads(output)["payload"]
    assert [c["responsibility"] for c in payload["causes"]] == ["1/2"] * 4
    code, output = _run(GOLDEN_CASES["abduce_circuit"])
    payload = json.loads(output)["payload"]
    assert payload["diagnoses"] == [["faulty(or)"]]
    code, output = _run(GOLDEN_CASES["responsibility_dept_t4_psi"])
    assert json.loads(output)["payload"]["responsibility"] == "1/3"
    code, output = _run(GOLDEN_CASES["encode_phca_example"])
    assert json.loads(output)["payload"]["diagnoses"] == [["t(c)"]]
    code, output = _run(GOLDEN_CASES["delprop_access_tom_view_safe"])
    assert json.loads(output)["payload"]["exists"] is False


def test_schema_field_present():
    _, output = _run(GOLDEN_CASES["eval_aj"])
    document = json.loads(output)
    assert document["schema"] == "whyd/1"
    assert set(document["provenance"]) == {"program", "data"}


def _error_object(captured, code: str) -> dict:
    """The JSON error object on stdout; the stderr line says the same."""
    document = json.loads(captured.out)
    assert document["schema"] == "whyd/1"
    assert document["error"]["code"] == code
    assert captured.err == f"whyd: {document['error']['message']}\n"
    return document["error"]


def test_exit_code_2_on_missing_file(capsys):
    code = cli.main(["eval", "-p", _fx("aj.dl"), "-d", _fx("missing.facts")])
    assert code == 2
    error = _error_object(capsys.readouterr(), "UsageError")
    assert error["message"] == f"cannot read {_fx('missing.facts')}: No such file or directory"


@pytest.mark.parametrize("option", ["-p", "-d"])
def test_exit_code_2_on_a_directory(option, tmp_path, capsys):
    # a directory opens for reading; the read fails
    argv = ["eval", "-p", _fx("aj.dl"), "-d", _fx("aj.facts")]
    argv[argv.index(option) + 1] = str(tmp_path)
    assert cli.main(argv) == 2
    error = _error_object(capsys.readouterr(), "UsageError")
    assert error["message"] == f"cannot read {tmp_path}: Is a directory"


def test_exit_code_2_on_a_path_with_a_nul_byte(capsys):
    # open raises ValueError, not OSError, for such a path; a shell cannot
    # pass one, a caller of main can
    code = cli.main(["eval", "-p", "a\x00b", "-d", "x"])
    assert code == 2
    error = _error_object(capsys.readouterr(), "UsageError")
    assert error["message"] == "cannot read 'a\\x00b': embedded null byte"


def test_exit_code_2_on_parse_error(tmp_path, capsys):
    # a failed parse is not kept: the error comes again on every call,
    # positioned in that call's file, and the file parses once fixed
    for name in ("bad.dl", "worse.dl"):
        bad = tmp_path / name
        bad.write_text("ans :- .")
        code = cli.main(["eval", "-p", str(bad), "-d", _fx("aj.facts")])
        assert code == 2
        error = _error_object(capsys.readouterr(), "SyntaxError")
        assert error["message"].startswith(f"{bad}:1:")
    bad.write_text("ans :- author(A, J).")
    assert _run(["eval", "-p", str(bad), "-d", _fx("aj.facts")])[0] == 0


def test_exit_code_2_reports_the_parse_error_subclass_code(tmp_path, capsys):
    bad = tmp_path / "bad.ics"
    bad.write_text("dep(X, Y), X != Y => false.\n")
    code = cli.main(
        ["causes", "-p", _fx("dept_q.dl"), "-d", _fx("dept.facts"), "-c", str(bad), "-t", "ans(john)"]
    )
    assert code == 2
    _error_object(capsys.readouterr(), "NonConjunctiveBody")


def test_exit_code_2_on_one_label_for_two_tuples(tmp_path, capsys):
    bad = tmp_path / "bad.facts"
    bad.write_text("t1: e(a, b).\nt1: e(b, c).\n")
    code = cli.main(["eval", "-p", _fx("graph.dl"), "-d", str(bad)])
    assert code == 2
    error = _error_object(capsys.readouterr(), "SyntaxError")
    assert error["message"] == f"{bad}:2:1: label t1 is already on e(a, b)"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-p", "BAD", "-d", _fx("aj.facts")],
        ["eval", "-p", _fx("aj.dl"), "-d", "BAD"],
        ["causes", "-p", _fx("dept_q.dl"), "-d", _fx("dept.facts"), "-c", "BAD", "-t", "ans(john)"],
        ["encode-phca", "-i", "BAD"],
    ],
    ids=["program", "data", "constraints", "phca-input"],
)
def test_exit_code_2_on_non_utf8_input(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ans :- e(\xff).\n")
    code = cli.main([str(bad) if arg == "BAD" else arg for arg in argv])
    assert code == 2
    error = _error_object(capsys.readouterr(), "UsageError")
    assert error["message"] == f"cannot read {bad}: not UTF-8 (byte 9)"


def test_exit_code_2_on_a_stray_phca_arrow(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a <- b <- c\n#hyp\nb c\n#obs\na\n")
    assert cli.main(["encode-phca", "-i", str(bad)]) == 2
    error = _error_object(capsys.readouterr(), "SyntaxError")
    assert error["message"] == f"{bad}:1:8: unexpected '<-' past the clause's first"


def test_exit_code_2_on_usage_error(capsys):
    # argparse's own rejections end in the error object like any other
    code = cli.main(["delprop", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"])
    assert code == 2
    assert "--mode" in _error_object(capsys.readouterr(), "UsageError")["message"]


def test_each_subcommand_has_one_handler_and_one_report_task():
    from whyd import reports

    assert set(cli._HANDLERS) == set(cli._build_parser().commands) == set(reports.TASKS)
    assert len(cli._HANDLERS) == 9


def _precedence_cases(tmp_path):
    """Command lines with two faults each, and the error each reports:
    inputs are read and parsed in a fixed order per subcommand."""
    bad_facts, bad_program = tmp_path / "bad.facts", tmp_path / "bad.dl"
    bad_facts.write_text("e(a, b\n")
    bad_program.write_text("ans(X) :- e(X\n")
    missing = str(tmp_path / "missing.file")
    graph = ["-p", _fx("graph.dl"), "-d", _fx("graph.facts")]
    read_error = ("UsageError", f"cannot read {missing}: No such file or directory")
    return {
        "check-ics": (["check-ics", "-d", str(bad_facts), "-c", missing], *read_error),
        "causes": (["causes", *graph, "-t", "ans(", "-c", missing], "SyntaxError", "<atom>:1:5: expected a term, found ''"),
        "responsibility": (
            ["responsibility", *graph, "-t", "ans(c, e)", "--tuple", "e(", "-c", missing],
            "SyntaxError",
            "<atom>:1:3: expected a term, found ''",
        ),
        "eval": (["eval", "-p", str(bad_program), "-d", missing], *read_error),
    }


@pytest.mark.parametrize("command", ["check-ics", "causes", "responsibility", "eval"])
def test_the_first_fault_read_is_the_one_reported(command, tmp_path, capsys):
    argv, code, message = _precedence_cases(tmp_path)[command]
    assert cli.main(argv) == 2
    assert _error_object(capsys.readouterr(), code)["message"] == message


def test_repeated_calls_keep_no_parser_state(capsys):
    assert _run(GOLDEN_CASES["causes_aj"] + ["--pretty"])[0] == 0
    assert _run(GOLDEN_CASES["causes_aj"]) == (0, (GOLDEN / "causes_aj.json").read_text())
    capsys.readouterr()
    code = cli.main(["delprop", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"])
    assert code == 2
    assert "--mode" in _error_object(capsys.readouterr(), "UsageError")["message"]
    assert _run(GOLDEN_CASES["causes_aj"]) == (0, (GOLDEN / "causes_aj.json").read_text())


def test_one_file_pair_is_parsed_once_across_commands(monkeypatch):
    # four questions of one (program, data) pair: each text is read every
    # time and parsed once, and so is each atom given on the command line
    from whyd import parsing

    parses = []
    for name in ("_program", "_instance_document", "_ground_atom"):
        real = getattr(parsing, name)
        monkeypatch.setattr(parsing, name, lambda source, real=real, name=name: parses.append(name) or real(source))
    cli._parsed.cache_clear()
    cli._checked.cache_clear()
    pair = ["-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john, xml)"]
    for command in (
        ["causes"],
        ["mrc"],
        ["responsibility", "--tuple", "author(john, tkde)"],
        ["delprop", "--mode", "minimal-source"],
    ):
        code, output = _run([*command, *pair])
        assert code == 0, output
    assert sorted(parses) == ["_ground_atom", "_ground_atom", "_instance_document", "_program"]
    # a malformed atom is not kept: each call raises its error again
    bad = ["causes", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(john,"]
    first, second = _run(bad), _run(bad)
    assert first == second and first[0] == 2 and "<atom>:1:" in first[1], first


def test_a_rewritten_input_file_is_read_again(tmp_path):
    program, data = tmp_path / "q.dl", tmp_path / "q.facts"
    program.write_text("ans(X) :- e(X, Y).\n")
    data.write_text("e(a, b).\n")
    argv = ["eval", "-p", str(program), "-d", str(data)]
    first = json.loads(_run(argv)[1])
    data.write_text("e(a, b).\ne(c, d).\n")
    second = json.loads(_run(argv)[1])
    assert (first["payload"]["answers"], second["payload"]["answers"]) == (["ans(a)"], ["ans(a)", "ans(c)"])
    assert first["provenance"]["program"] == second["provenance"]["program"]
    assert first["provenance"]["data"] != second["provenance"]["data"]


def test_golden_commands_repeated_in_one_process_keep_their_bytes():
    # every golden command twice, in a shuffled order, so that most calls
    # find their inputs already parsed by an earlier one
    names = sorted(GOLDEN_CASES) * 2
    random.Random(7).shuffle(names)
    for name in names:
        assert _run(GOLDEN_CASES[name]) == (0, (GOLDEN / f"{name}.json").read_text()), name


@pytest.mark.parametrize("argv", [["--help"], ["causes", "--help"], ["delprop", "-h"]])
def test_help_exits_0_with_its_text(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: whyd") and captured.err == ""


def test_check_ics_requires_its_constraints(capsys):
    # the help shows -c as required, and a command line without it is
    # rejected by the parser, as a usage error
    with pytest.raises(SystemExit):
        cli.main(["check-ics", "--help"])
    assert capsys.readouterr().out.startswith("usage: whyd check-ics [-h] -d DATA -c CONSTRAINTS [--pretty]\n")
    assert cli.main(["check-ics", "-d", _fx("dept.facts")]) == 2
    error = _error_object(capsys.readouterr(), "UsageError")
    assert error["message"] == "the following arguments are required: -c/--constraints"


def test_exit_code_3_with_error_object_on_non_answer(capsys):
    code = cli.main(["causes", "-p", _fx("aj.dl"), "-d", _fx("aj.facts"), "-t", "ans(nobody, xml)"])
    assert code == 3
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["error"]["code"] == "NotAnAnswer"
    assert "nobody" in captured.err


@pytest.mark.parametrize("command", ["eval", "abduce"])
def test_exit_code_3_on_fact_arity_mismatch(command, tmp_path, capsys):
    program, data = tmp_path / "q.dl", tmp_path / "q.facts"
    program.write_text("ans(X) :- e(X).\n")
    data.write_text("e(c).\ne(a, b).\nf(a, b, c).\n#observe\nans(c).\n")
    for _ in range(2):  # a failing pair is not kept: every call fails the check again
        code = cli.main([command, "-p", str(program), "-d", str(data)])
        assert code == 3
        assert _error_object(capsys.readouterr(), "ArityMismatch")["message"] == "e(a, b) has arity 2, expected 1"


def test_data_is_checked_against_the_program_once_per_pair(monkeypatch, tmp_path):
    checks = []
    real = cli.check_instance_against
    monkeypatch.setattr(cli, "check_instance_against", lambda *args: checks.append(args) or real(*args))
    cli._checked.cache_clear()
    program, other, data = tmp_path / "q.dl", tmp_path / "q2.dl", tmp_path / "q.facts"
    program.write_text("ans(X) :- e(X, Y).\n")
    other.write_text("ans(Y) :- e(X, Y).\n")
    data.write_text("e(a, b).\n")
    for path in (program, other, program, other, program):
        code, output = _run(["eval", "-p", str(path), "-d", str(data)])
        assert code == 0, output
    assert len(checks) == 2


@pytest.mark.parametrize("command", [["vc-causes"], ["delprop", "--mode", "view-safe"]])
def test_answer_held_as_a_fact_is_answered(command, tmp_path):
    # ans(c) is a stored fact that no rule derives; it stays in the view
    program, data = tmp_path / "q.dl", tmp_path / "q.facts"
    program.write_text("ans(X) :- e(X, Y).\n")
    data.write_text("e(a, b).\nans(c).\n")
    code, output = _run([*command, "-p", str(program), "-d", str(data), "-t", "ans(a)"])
    assert code == 0, output
    assert "e(a, b)" in output


def test_exit_code_3_on_violated_constraints(capsys):
    code = cli.main([
        "causes", "-p", _fx("repair.dl"), "-d", _fx("repair.facts"), "-c", _fx("repair.ics"), "-t", "v(a1)",
    ])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "InstanceViolatesSigma"


def test_max_contingency_sets_truncates():
    code, output = _run(GOLDEN_CASES["causes_aj"] + ["--max-contingency-sets", "1"])
    assert code == 0
    for entry in json.loads(output)["payload"]["causes"]:
        assert entry["truncated"] is True
        assert len(entry["contingency_sets"]) == 1
        assert entry["responsibility"] == "1/2"  # responsibility stays exact


def test_obs_bound_enforced(capsys):
    code = cli.main(GOLDEN_CASES["abduce_circuit"] + ["--obs-bound", "0"])
    assert code == 2
    assert "bound is 0" in _error_object(capsys.readouterr(), "UsageError")["message"]


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN_CASES["causes_aj"] + ["--max-contingency-sets", "-1"],
        GOLDEN_CASES["vc_aj"] + ["--max-contingency-sets", "-1"],
        GOLDEN_CASES["abduce_circuit"] + ["--obs-bound", "-1"],
        GOLDEN_CASES["causes_aj"] + ["--max-contingency-sets", "one"],
    ],
    ids=["causes", "vc-causes", "abduce", "not-a-number"],
)
def test_exit_code_2_on_bad_count(argv, capsys):
    assert cli.main(argv) == 2
    assert "non-negative integer" in _error_object(capsys.readouterr(), "UsageError")["message"]


def test_pretty_summary():
    code, output = _run(GOLDEN_CASES["causes_aj"] + ["--pretty"])
    assert code == 0
    assert "rho=1/2" in output
    assert not output.lstrip().startswith("{")


def test_console_script_entry_point():
    # the child finds whyd under src/ whether or not PYTHONPATH names it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "whyd.cli", "eval", "-p", _fx("rs.dl"), "-d", _fx("rs.facts")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["payload"]["answers"] == ["ans"]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN_CASES.items()):
        code, output = _run(argv)
        assert code == 0, (name, code)
        (GOLDEN / f"{name}.json").write_text(output)
        print(f"wrote {name}.json")


if __name__ == "__main__":
    regenerate()


def test_exit_code_3_when_a_result_fails_its_check(tmp_path, monkeypatch, capsys):
    from whyd import abduction

    program, data = tmp_path / "inv.dl", tmp_path / "inv.facts"
    program.write_text("inv_q :- inv_h(X).\n")
    data.write_text("inv_h(a).\n#observe\ninv_q.\n")
    def fake(graph, extensional, goal):
        return [], [0]

    monkeypatch.setattr(abduction, "_minimal_why", fake)
    code = cli.main(["abduce", "-p", str(program), "-d", str(data)])
    assert code == 3
    assert "does not entail" in _error_object(capsys.readouterr(), "InternalInvariant")["message"]


def test_goal_fact_is_not_mistaken_for_the_answer(tmp_path):
    # the fresh Boolean goal must avoid the instance's predicates too
    program, data = tmp_path / "g.dl", tmp_path / "g.facts"
    program.write_text("ans(X) :- r(X, Y).\n")
    data.write_text("r(a, b).\nr(a, c).\ngoal.\n")
    code, output = _run(["causes", "-p", str(program), "-d", str(data), "-t", "ans(a)"])
    assert code == 0
    causes = json.loads(output)["payload"]["causes"]
    assert [(c["tuple"], c["responsibility"]) for c in causes] == [("r(a, b)", "1/2"), ("r(a, c)", "1/2")]


@pytest.mark.parametrize("section", ["#exogenous", "#endogenous"])
def test_obs_goal_fact_is_not_mistaken_for_the_observation(section, tmp_path):
    program, data = tmp_path / "o.dl", tmp_path / "o.facts"
    program.write_text("q(X) :- e(X, Y), f(Y).\n")
    data.write_text(f"{section}\nobs_goal.\n#endogenous\ne(a, b).\nf(b).\n#observe\nq(a).\n")
    code, output = _run(["abduce", "-p", str(program), "-d", str(data)])
    assert code == 0
    assert json.loads(output)["payload"]["diagnoses"] == [["e(a, b)", "f(b)"]]


_TARGETED = {
    "causes": ["causes"],
    "causes-ics": ["causes", "-c", "ICS"],
    "responsibility": ["responsibility", "--tuple", "e(a, b)"],
    "responsibility-ics": ["responsibility", "--tuple", "e(a, b)", "-c", "ICS"],
    "mrc": ["mrc"],
    "vc-causes": ["vc-causes"],
    **{f"delprop-{mode}": ["delprop", "--mode", mode] for mode in sorted(cli._DELPROP_MODES)},
}


@pytest.mark.parametrize("name", sorted(_TARGETED))
def test_target_of_the_wrong_arity_is_not_an_answer(name, tmp_path, capsys):
    program, data, ics = tmp_path / "a.dl", tmp_path / "a.facts", tmp_path / "a.ics"
    program.write_text("ans(X) :- e(X, Y).\n")
    data.write_text("e(a, b).\nf(a).\n")
    ics.write_text("e(X, Y) => f(X).\n")
    argv = [str(ics) if arg == "ICS" else arg for arg in _TARGETED[name]]
    code = cli.main(argv + ["-p", str(program), "-d", str(data), "-t", "ans(a, b)"])
    assert code == 3
    assert _error_object(capsys.readouterr(), "NotAnAnswer")["message"].startswith("ans(a, b) ")


# -- the exit-code contract on arbitrary input ---------------------------------

_CONTRACT_CASES = [
    ("aj.dl", "aj.facts", "ans(john, xml)", "author(john, tkde)"),
    ("access.dl", "access.facts", "access(joe, f1)", "group_user(joe, g1)"),
    ("graph.dl", "graph.facts", "ans(c, e)", "e(a, b)"),
    ("rs.dl", "rs_abduce.facts", "ans", "r(a2, a1)"),
    ("circuit.dl", "circuit.facts", "zero(d)", "one(a)"),
    ("dept_q.dl", "dept.facts", "ans(john)", "dep(computing, john)"),
    ("repair.dl", "repair.facts", "v(a1)", "r(a2, a1)"),
]
_CONTRACT_ICS = ["dept.ics", "keys.ics", "repair.ics"]
_CONTRACT_COMMANDS = [
    "eval",
    "causes",
    "causes -c",
    "responsibility",
    "responsibility -c",
    "mrc",
    "vc-causes",
    "abduce",
    "delprop",
    "check-ics -c",
    "encode-phca",
]


def _mangled(draw, data: bytes) -> bytes:
    """``data`` itself (half the time), cut short, or arbitrary text or
    bytes."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "cut", "text", "bytes"]))
    if how == "keep":
        return data
    if how == "cut":
        return data[: draw(st.integers(0, len(data)))]
    if how == "text":
        return draw(st.text(max_size=60)).encode("utf-8", "surrogatepass")
    return draw(st.binary(max_size=60))


@st.composite
def _contract_inputs(draw):
    """A subcommand with a fixture's program, facts and constraints and
    the PHCA example, each kept, cut short or replaced by arbitrary text
    or bytes, and a target and a tuple of the same fixture, any fixture
    or arbitrary text."""
    program, data, own_target, own_tuple = draw(st.sampled_from(_CONTRACT_CASES))
    command = draw(st.sampled_from(_CONTRACT_COMMANDS))
    program_bytes = _mangled(draw, (FIXTURES / program).read_bytes())
    data_bytes = _mangled(draw, (FIXTURES / data).read_bytes())
    ics_bytes = _mangled(draw, (FIXTURES / draw(st.sampled_from(_CONTRACT_ICS))).read_bytes())
    targets, tuples = [case[2] for case in _CONTRACT_CASES], [case[3] for case in _CONTRACT_CASES]
    target = draw(st.one_of(st.just(own_target), st.sampled_from(targets), st.text(max_size=40)))
    tuple_ = draw(st.one_of(st.just(own_tuple), st.sampled_from(tuples), st.text(max_size=40)))
    mode = draw(st.sampled_from(sorted(cli._DELPROP_MODES)))
    phca_bytes = _mangled(draw, (FIXTURES / "phca_example.txt").read_bytes())
    edit = draw(st.sampled_from(["keep"] * 8 + list(_ARGV_EDITS)))
    pick = draw(st.integers(0, 20))
    return command, program_bytes, data_bytes, ics_bytes, phca_bytes, target, tuple_, mode, edit, pick


# malformed command lines: a required option dropped, an unknown option,
# an unknown subcommand, a --mode outside its choices (or on a subcommand
# that has no --mode)
_ARGV_EDITS = ("drop", "option", "command", "choice")
_UNKNOWN_COMMANDS = ["explain", "", "-x", "EVAL", "causes2"]


def _contract_argv(command, paths, target, tuple_, mode, edit="keep", pick=0) -> list[str]:
    """The argv of a ``_CONTRACT_COMMANDS`` entry on the input files
    ``paths`` (program, data, constraints, PHCA), well formed or made
    malformed by ``edit``; ``pick`` chooses where an edit applies."""
    program, data, ics, phca = map(str, paths)
    name, _, constrained = command.partition(" ")
    if name == "encode-phca":
        argv = [name, "-i", phca]
    elif name == "check-ics":
        argv = [name, "-d", data]
    else:
        argv = [name, "-p", program, "-d", data]
    if name not in ("eval", "abduce", "check-ics", "encode-phca"):
        argv.append(f"--target={target}")  # one argument, even when it starts with "-"
    if name == "responsibility":
        argv.append(f"--tuple={tuple_}")
    if constrained:
        argv += ["-c", ics]
    if name == "delprop":
        argv += ["--mode", "most-source" if edit == "choice" else mode]
    elif edit == "choice":
        argv += ["--mode", "view-safe"]  # an option the subcommand does not have
    if edit == "drop":
        required = [i for i, arg in enumerate(argv) if arg in ("-p", "-d", "-i", "--mode")]
        i = required[pick % len(required)]
        del argv[i : i + 2]
    elif edit == "option":
        argv.insert(1 + pick % len(argv), "--no-such-option")
    elif edit == "command":
        argv[0] = _UNKNOWN_COMMANDS[pick % len(_UNKNOWN_COMMANDS)]
    return argv


def test_every_input_ends_in_exit_0_2_or_3(tmp_path_factory):
    # any call exits 0, 2 or 3 without raising, and a failing one writes
    # the JSON error object; no result fails its own check, and a
    # malformed command line is a usage error
    import io
    from contextlib import redirect_stderr, redirect_stdout

    folder = tmp_path_factory.mktemp("contract")
    program, data, ics = folder / "input.dl", folder / "input.facts", folder / "input.ics"
    phca = folder / "input.txt"

    @settings(max_examples=500, deadline=None)
    @given(_contract_inputs())
    def run(case):
        command, program_bytes, data_bytes, ics_bytes, phca_bytes, target, tuple_, mode, edit, pick = case
        program.write_bytes(program_bytes)
        data.write_bytes(data_bytes)
        ics.write_bytes(ics_bytes)
        phca.write_bytes(phca_bytes)
        argv = _contract_argv(command, (program, data, ics, phca), target, tuple_, mode, edit, pick)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, code)
        if edit != "keep":
            assert code == 2 and json.loads(out.getvalue())["error"]["code"] == "UsageError", argv
        if code:
            document = json.loads(out.getvalue())
            assert document["schema"] == "whyd/1"
            assert set(document["error"]) == {"code", "message"}
            assert document["error"]["code"] != "InternalInvariant", argv
            assert err.getvalue() == f"whyd: {document['error']['message']}\n"

    run()


def _parsed(parse, argv):
    """``parse(argv)``'s namespace, the message it rejects ``argv`` with,
    or the exit code and text of its help."""
    import io
    from contextlib import redirect_stdout

    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return parse(argv)
    except cli._UsageError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()


def _plain_shapes() -> list[tuple[list[str], bool]]:
    """Command lines around the plain grammar, each with whether the
    subcommand's option table reads it (else argparse parses it)."""
    program, data, ics = _fx("aj.dl"), _fx("aj.facts"), _fx("dept.ics")
    causes = ["causes", "-p", program, "-d", data, "-t", "ans(john, xml)"]
    delprop = ["delprop", "-p", program, "-d", data, "-t", "ans(john, xml)"]
    return [
        # --long=value, the value starting with "-" or empty included
        (["causes", f"--program={program}", f"--data={data}", "--target=ans(john, xml)"], True),
        (["causes", "-p", program, "-d", data, "--target=-x"], True),
        (["causes", "-p", program, "-d", data, "--target="], True),
        (["causes", "-p", program, "-d", data, "--target=a=b"], True),
        ([*causes, "--max-contingency-sets=2"], True),
        ([*causes, f"--constraints={ics}"], True),
        ([*delprop, "--mode=view-safe"], True),
        ([*delprop, "--mode=most-source"], False),
        ([*causes, "--max-contingency-sets=-1"], False),
        ([*causes, "--pretty=yes"], False),
        (["causes", "-p", program, "-d", data, "--target=--"], False),
        (["causes", f"-p={program}", "-d", data, "-t", "ans(john, xml)"], False),
        # abbreviations and an attached short value
        (["causes", "--prog", program, "-d", data, "-t", "ans(john, xml)"], False),
        ([*causes, "--max-c", "2"], False),
        ([*causes, "--max-c=2"], False),
        (["causes", f"-p{program}", "-d", data, "-t", "ans(john, xml)"], False),
        # repeats
        ([*causes, "-t", "ans(john, xml)"], False),
        ([*causes, "--program", program], False),
        ([*causes, "--pretty", "--pretty"], False),
        ([*delprop, "--mode", "view-safe", "--endogenous-only", "--endogenous-only"], False),
        # "--" and help
        (["causes", "--", "-p", program], False),
        ([*causes, "--"], False),
        (["causes", "-h"], False),
        ([*causes, "--help"], False),
        (["-h"], False),
        # a separate value that starts with "-"
        ([*causes, "--max-contingency-sets", "-1"], False),
        (["causes", "-p", program, "-d", data, "-t", "-x"], False),
        (["causes", "-p", program, "-d", data, "-t", "-"], False),
        (["causes", "-p", program, "-d", data, "-t"], False),
        # a separate empty value
        (["causes", "-p", program, "-d", data, "-t", ""], True),
        # no subcommand, a subcommand alone, a stray argument
        ([], False),
        (["causes"], False),
        (["encode-phca"], False),
        ([*causes, "stray"], False),
        (["--pretty", *causes], False),
    ]


def test_one_level_parse_gives_the_full_parse():
    # main reads a plain command line off the subcommand's option table
    # and parses any other with the subcommand's parser alone; the
    # namespace, the rejection or the help is the one the two-level
    # parse gives
    full = cli._build_parser().parse_args
    paths = [_fx(name) for name in ("aj.dl", "aj.facts", "dept.ics", "phca_example.txt")]
    shapes = [
        _contract_argv(command, paths, target, "-e(a)", mode, edit, pick)
        for command in _CONTRACT_COMMANDS
        for target in ("ans(john, xml)", "-x")
        for mode in sorted(cli._DELPROP_MODES)
        for edit in ("keep", *_ARGV_EDITS)
        for pick in range(4)
    ]
    extras = [
        ["--pretty", "--max-contingency-sets", "2"],
        ["--max-contingency-sets", "-1"],
        ["--pretty", "--pretty"],
        ["-t", "ans(a)"],
    ]
    for argv in GOLDEN_CASES.values():
        assert cli._parse(argv) == full(argv), argv
    rejected = 0
    for argv in [*(argv + extra for argv in GOLDEN_CASES.values() for extra in extras), *shapes]:
        one_level = _parsed(cli._parse, argv)
        assert one_level == _parsed(full, argv), argv
        rejected += isinstance(one_level, str)
    assert 0 < rejected < len(shapes)
    for argv, plain in _plain_shapes():
        assert _parsed(cli._parse, argv) == _parsed(full, argv), argv
        assert (cli._plain(argv) is not None) == plain, argv


def test_plain_command_lines_never_reach_argparse(monkeypatch):
    # with argparse's parse disabled every golden command still runs, so
    # the option table read it; every malformed contract command line
    # reaches argparse, and every well-formed one does not
    import argparse

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain command line")

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        for name, argv in sorted(GOLDEN_CASES.items()):
            assert _run(argv) == (0, (GOLDEN / f"{name}.json").read_text()), name
            assert _run([*argv, "--pretty"])[0] == 0, name

    calls = []
    real = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_known_args", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
    )
    paths = [_fx(name) for name in ("aj.dl", "aj.facts", "dept.ics", "phca_example.txt")]
    for command in _CONTRACT_COMMANDS:
        for target in ("ans(john, xml)", "-x"):
            for edit in ("keep", *_ARGV_EDITS):
                for pick in range(4):
                    argv = _contract_argv(command, paths, target, "-e(a)", "view-safe", edit, pick)
                    calls.clear()
                    parsed = _parsed(cli._parse, argv)
                    assert bool(calls) == (edit != "keep"), argv
                    assert isinstance(parsed, str) == (edit != "keep"), argv
