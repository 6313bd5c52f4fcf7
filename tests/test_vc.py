import json
from fractions import Fraction

import pytest

from whyd import abduction, cli, evaluator, viewupdate
from whyd.causality import CauseAnalysis, cause_reports, causes, responsibility
from whyd.constraints import causes_under_ics
from whyd.errors import InternalInvariantError, NotAnAnswerError, NotConjunctiveError, NotEndogenousError
from whyd.model import GroundAtom, Instance, ground
from whyd.parsing import parse_program
from whyd.vc import (
    encode_vc_as_tgd,
    vc_cause_exists,
    vc_causes,
    vc_responsibility,
)
from whyd.viewupdate import vsef_solutions

import corpus
import oracle
from conftest import FIXTURES, atom, count_searches, load_instance, load_program


def _report_map(reports):
    return {str(r.cause): r for r in reports}


def _family(sets):
    return {frozenset(str(a) for a in s) for s in sets}


def test_aj_has_no_vc_cause():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    assert vc_causes(instance, program, atom("ans(john, xml)")) == ()
    assert not vc_cause_exists(instance, program, atom("ans(john, xml)"))


def test_access_joe_f1_unique_vcc_cause():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    reports = vc_causes(instance, program, atom("access(joe, f1)"))
    assert _report_map(reports).keys() == {"group_user(joe, g1)"}
    (report,) = reports
    assert report.minimal_contingency_sets == (frozenset(),)
    assert report.vc_responsibility == 1
    assert report.is_vcc_cause()


def test_access_tom_f3_has_no_vc_cause():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    assert not vc_cause_exists(instance, program, atom("access(tom, f3)"))


def test_access_g0_vc_responsibility_drops_to_one_half():
    program, instance = load_program("access.dl"), load_instance("access_g0.facts")
    report = _report_map(vc_causes(instance, program, atom("access(joe, f1)")))["group_user(joe, g1)"]
    assert report.vc_responsibility == Fraction(1, 2)
    assert _family(report.minimal_contingency_sets) == {
        frozenset({"group_user(joe, g0)"}),
        frozenset({"group_file(f1, g0)"}),
    }
    assert not report.is_vcc_cause()
    assert vc_responsibility(instance, program, atom("access(joe, f1)"), ground("group_user", "joe", "g1")) == Fraction(1, 2)


def test_vc_causes_take_one_search(monkeypatch):
    # access_g0 has four candidate causes: their families and
    # responsibilities are read off the answer's minimal deletions, the
    # search plain causes run, so after cause_reports of the same answer
    # neither vc_causes nor vc_responsibility searches again
    program, instance = load_program("access.dl"), load_instance("access_g0.facts")
    answer = atom("access(joe, f1)")
    _clear_caches()
    searches = count_searches(monkeypatch, "hitting")
    cause_reports(instance, program, answer)
    assert len(searches) == 1
    reports = vc_causes(instance, program, answer)
    tau = ground("group_user", "joe", "g1")
    assert vc_responsibility(instance, program, answer, tau) == _report_map(reports)[str(tau)].vc_responsibility
    assert len(searches) == 1


def test_vc_responsibility_zero_for_non_vc_cause():
    program, instance = load_program("access.dl"), load_instance("access_all_endogenous.facts")
    # group_user(john, g1) is an actual cause for (john, f1) but removing
    # it can never keep the rest of the view intact while losing (joe, f1)
    assert vc_responsibility(instance, program, atom("access(joe, f1)"), ground("group_user", "john", "g1")) == 0


def test_vc_responsibility_rejects_exogenous_tuple():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    with pytest.raises(NotEndogenousError):
        vc_responsibility(instance, program, atom("access(joe, f1)"), ground("group_file", "f1", "g1"))


def test_file_side_tuple_is_a_vcc_cause_when_everything_is_endogenous():
    # once the file table is deletable too, removing group_file(f1, g1)
    # loses (joe, f1) while (john, f1) and (tom, f1) survive via g3, so it
    # qualifies as a second view-conditioned counterfactual cause;
    # brute-force enumeration agrees
    program, instance = load_program("access.dl"), load_instance("access_all_endogenous.facts")
    answer = atom("access(joe, f1)")
    reports = _report_map(vc_causes(instance, program, answer))
    assert set(reports) == {"group_user(joe, g1)", "group_file(f1, g1)"}
    assert all(r.vc_responsibility == 1 for r in reports.values())
    sweep = oracle.instance_sweep(program, instance)
    assert {str(t) for t in oracle.vc_cause_reports(sweep, answer)} == set(reports)


def test_vc_requires_answer():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    with pytest.raises(NotAnAnswerError):
        vc_causes(instance, program, atom("access(joe, f3)"))


def test_boolean_single_answer_view_reduces_to_plain_causes():
    program, instance = load_program("rs.dl"), load_instance("rs.facts")
    reports = _report_map(vc_causes(instance, program, atom("ans")))
    assert set(reports) == {str(c) for c in causes(instance, program, atom("ans"))}
    for name, report in reports.items():
        tau = next(a for a in instance.endogenous if str(a) == name)
        assert report.vc_responsibility == responsibility(instance, program, atom("ans"), tau)


def test_vc_causes_subset_of_causes_with_smaller_responsibility():
    for seed in range(50):
        case = corpus.generate_case(seed)
        plain = causes(case.instance, case.program, case.answer)
        for report in vc_causes(case.instance, case.program, case.answer):
            assert report.cause in plain, case
            assert report.vc_responsibility <= responsibility(
                case.instance, case.program, case.answer, report.cause
            ), case


def test_protected_answers_parameter_relaxes_the_condition():
    program, instance = load_program("access.dl"), load_instance("access_all_endogenous.facts")
    answer = atom("access(joe, f1)")
    unconditional = vc_causes(instance, program, answer, protected=frozenset())
    assert {str(r.cause) for r in unconditional} == {str(c) for c in causes(instance, program, answer)}
    default = vc_causes(instance, program, answer)
    assert {str(r.cause) for r in default} <= {str(r.cause) for r in unconditional}


def test_vc_matches_oracle_on_random_corpus():
    for seed in range(60):
        case = corpus.generate_case(seed, max_endogenous=6)
        sweep = oracle.instance_sweep(case.program, case.instance)
        expected = oracle.vc_cause_reports(sweep, case.answer)
        reports = _report_map(vc_causes(case.instance, case.program, case.answer))
        assert set(reports) == {str(t) for t in expected}, case
        for tau, family in expected.items():
            assert set(reports[str(tau)].minimal_contingency_sets) == set(family), case


# -- tgd encoding -------------------------------------------------------------


def test_encode_access_matches_direct_vc():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    answer = atom("access(joe, f1)")
    extended, tgd = encode_vc_as_tgd(instance, program, answer)
    assert len(extended.exogenous - instance.exogenous) == 6  # one view fact per other answer
    under = causes_under_ics(extended, program, answer, [tgd])
    direct = vc_causes(instance, program, answer)
    assert {str(r.cause) for r in under} == {str(r.cause) for r in direct}
    assert [r.responsibility_under_ics for r in under] == [r.vc_responsibility for r in direct]


def test_encode_aj_yields_no_causes_under_the_tgd():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    extended, tgd = encode_vc_as_tgd(instance, program, answer)
    assert causes_under_ics(extended, program, answer, [tgd]) == ()


def test_encode_single_answer_view_reduces_to_plain_causes():
    program = load_program("rs.dl")
    instance = load_instance("rs_nes.facts")
    extended, tgd = encode_vc_as_tgd(instance, program, atom("ans"))
    assert extended == instance  # no other answers, so no view facts
    under = causes_under_ics(extended, program, atom("ans"), [tgd])
    assert {str(r.cause) for r in under} == {str(c) for c in causes(instance, program, atom("ans"))}


def test_encode_rejects_recursive_programs():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    with pytest.raises(NotConjunctiveError):
        encode_vc_as_tgd(instance, program, atom("ans(c, e)"))


def test_encoding_agrees_with_vc_on_random_cq_corpus():
    checked = 0
    seed = 0
    while checked < 30 and seed < 400:
        case = corpus.generate_case(seed, max_endogenous=5)
        seed += 1
        if not case.is_cq:
            continue
        checked += 1
        extended, tgd = encode_vc_as_tgd(case.instance, case.program, case.answer)
        under = causes_under_ics(extended, case.program, case.answer, [tgd])
        direct = vc_causes(case.instance, case.program, case.answer)
        assert {r.cause for r in under} == {r.cause for r in direct}, case
        assert {r.cause: set(r.minimal_contingency_sets) for r in under} == {
            r.cause: set(r.minimal_contingency_sets) for r in direct
        }, case
    assert checked == 30


def test_equal_instances_labelled_otherwise_get_their_own_labels():
    program, plain = load_program("access.dl"), load_instance("access_g0.facts")
    ordered = sorted(plain.endogenous, key=GroundAtom.sort_key)
    names = {a: f"z{i}" for i, a in enumerate(ordered)}
    labelled = Instance(plain.endogenous, plain.exogenous, names)
    reports = vc_causes(labelled, program, atom("access(joe, f1)"))
    assert reports and vc_causes(plain, program, atom("access(joe, f1)")) == reports
    # the labelled caller names every cause and contingency tuple; the
    # unlabelled one names none
    for report in reports:
        for a in report.cause, *(a for gamma in report.minimal_contingency_sets for a in gamma):
            assert labelled.label_of(a) == names[a] and plain.label_of(a) is None


def test_vc_causes_with_an_answer_held_as_a_fact():
    # ans(c) is a stored fact that no rule derives; deleting e(a, b)
    # drops ans(a) and keeps it
    program = parse_program("ans(X) :- e(X, Y).")
    e, c = ground("e", "a", "b"), ground("ans", "c")
    for instance in (Instance([e], [c]), Instance([e, c])):
        (report,) = vc_causes(instance, program, atom("ans(a)"))
        assert report.cause == e
        assert report.minimal_contingency_sets == (frozenset(),)
        for endogenous_only in (False, True):
            (solution,) = vsef_solutions(instance, program, atom("ans(a)"), endogenous_only=endogenous_only)
            assert solution.removed == {e}
            assert solution.residual_view == {c}


# -- the answer's own analysis and one pass for the residual views ------------


def _clear_caches():
    """Forget every solve, analysis and search, so the next request runs
    them all."""
    abduction.solve_diagnoses.cache_clear()
    abduction._necessary_masks.cache_clear()
    CauseAnalysis.for_query.cache_clear()


def test_vc_causes_costs_one_pass_for_the_whole_view(monkeypatch):
    # a cold request runs two fixpoints: the answer's solve, and one for
    # the residual views of all its minimal deletions at once
    program, instance = load_program("access.dl"), load_instance("access.facts")
    view = sorted(evaluator.answers(program, instance), key=GroundAtom.sort_key)
    calls = []
    real = evaluator.evaluate_fixpoint

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (evaluator, abduction, viewupdate):
        monkeypatch.setattr(module, "evaluate_fixpoint", counted)
    for answer in view:
        _clear_caches()
        calls.clear()
        vc_causes(instance, program, answer)
        assert 0 < len(calls) <= 2, (answer, len(calls))


def test_an_answer_with_no_minimal_deletion_runs_no_residual_view(monkeypatch):
    # ans(a) holds on the exogenous e(a, b) alone: nothing endogenous
    # drops it, so the residual views are never needed; a cold vc_causes
    # runs only the answer's solve, and the warm requests after it none
    program = parse_program("ans(X) :- e(X, Y).")
    instance = Instance([ground("e", "b", "c")], [ground("e", "a", "b")])
    answer = atom("ans(a)")
    calls = []
    real = evaluator.evaluate_fixpoint

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (evaluator, abduction, viewupdate):
        monkeypatch.setattr(module, "evaluate_fixpoint", counted)
    _clear_caches()
    counts = []
    for request in (vc_causes, viewupdate.minimal_source_solutions, vsef_solutions):
        calls.clear()
        kwargs = {} if request is vc_causes else {"endogenous_only": True}
        assert request(instance, program, answer, **kwargs) == ()
        counts.append(len(calls))
    assert counts == [1, 0, 0], counts
    # an explicit protected atom is still checked against the view
    with pytest.raises(NotAnAnswerError, match="protected atom ans\\(z\\)"):
        vc_causes(instance, program, answer, frozenset({atom("ans(z)")}))


def test_view_support_families_are_checked(monkeypatch, capsys):
    # pad the answer's family with every deletable tuple: with nothing
    # cached, each caller of the answer's solve must reject it, the CLI
    # with exit 3
    real = abduction._minimal_why

    def padded(graph, extensional, goal):
        hypotheses, family = real(graph, extensional, goal)
        # the deletable tuples are the graph's seeds past the extensional ones
        hypotheses += [h for h in range(extensional, graph.seeds) if h not in hypotheses]
        return hypotheses, [delta | (1 << len(hypotheses)) - 1 for delta in family]

    monkeypatch.setattr(abduction, "_minimal_why", padded)
    _clear_caches()
    program, instance = load_program("access.dl"), load_instance("access.facts")
    answer = atom("access(tom, f3)")
    with pytest.raises(InternalInvariantError, match="not minimal"):
        vc_causes(instance, program, answer)
    for endogenous_only in (True, False):
        with pytest.raises(InternalInvariantError, match="not minimal"):
            vsef_solutions(instance, program, answer, endogenous_only=endogenous_only)
    argv = ["vc-causes", "-p", str(FIXTURES / "access.dl"), "-d", str(FIXTURES / "access.facts"), "-t", str(answer)]
    assert cli.main(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "InternalInvariant" and "not minimal" in error["message"]
