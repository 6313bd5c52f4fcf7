from fractions import Fraction

import pytest

from whyd.causality import (
    causes,
    minimal_contingency_sets,
    most_responsible_causes,
    responsibility,
)
from whyd.errors import NotAnAnswerError, NotSubinstanceError
from whyd.evaluator import answers
from whyd.model import Instance, ground
from whyd.parsing import parse_program
from whyd.vc import vc_cause_exists
from whyd.viewupdate import (
    check_source_solution,
    minimal_source_solutions,
    minimum_source_solutions,
    vsef_solutions,
)

import corpus
import oracle
from conftest import atom, load_instance, load_program


def _removed(solutions):
    return {frozenset(str(a) for a in s.removed) for s in solutions}


AJ_SOLUTIONS = {
    frozenset({"author(john, tods)", "author(john, tkde)"}),
    frozenset({"journal(tods, xml, 32)", "journal(tkde, xml, 30)"}),
    frozenset({"author(john, tkde)", "journal(tods, xml, 32)"}),
    frozenset({"author(john, tods)", "journal(tkde, xml, 30)"}),
}


def test_aj_minimal_source_solutions():
    # the all-journal solution must remove both rows that support the
    # answer: (tods,xml,32) and (tkde,xml,30); brute force pins the pair
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    solutions = minimal_source_solutions(instance, program, atom("ans(john, xml)"))
    assert _removed(solutions) == AJ_SOLUTIONS
    sweep = oracle.instance_sweep(program, instance, everything_deletable=True)
    assert {s.removed for s in solutions} == set(oracle.minimal_deletions(sweep, atom("ans(john, xml)")))


def test_single_support_answer_has_single_tuple_solution():
    program = load_program("rs.dl")
    instance = Instance([ground("r", "a2", "a1"), ground("s", "a1")])
    solutions = minimal_source_solutions(instance, program, atom("ans"))
    assert _removed(solutions) == {frozenset({"r(a2, a1)"}), frozenset({"s(a1)"})}
    lonely = Instance([ground("r", "a2", "a1"), ground("s", "a1"), ground("s", "a9")])
    only = minimal_source_solutions(lonely, program, atom("ans"))
    assert _removed(only) == {frozenset({"r(a2, a1)"}), frozenset({"s(a1)"})}


def test_graph_minimal_source_includes_t2():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    solutions = minimal_source_solutions(instance, program, atom("ans(c, e)"))
    labelled = {frozenset(map(instance.label_of, s.removed)) for s in solutions}
    assert frozenset({"t2"}) in labelled
    assert labelled == {
        frozenset({"t2"}),
        frozenset({"t1", "t4", "t6"}),
        frozenset({"t1", "t6", "t7"}),
        frozenset({"t4", "t5", "t6"}),
        frozenset({"t5", "t6", "t7"}),
    }
    sweep = oracle.instance_sweep(program, instance, everything_deletable=True)
    assert {s.removed for s in solutions} == set(oracle.minimal_deletions(sweep, atom("ans(c, e)")))


def test_graph_minimum_source_is_t2():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    solutions = minimum_source_solutions(instance, program, atom("ans(c, e)"))
    assert _removed(solutions) == {frozenset({"e(b, e)"})}


def test_aj_minimum_source_keeps_all_four():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    solutions = minimum_source_solutions(instance, program, atom("ans(john, xml)"))
    assert _removed(solutions) == AJ_SOLUTIONS
    assert all(len(s.removed) == 2 for s in solutions)


def test_minimum_solution_size_is_inverse_of_best_responsibility():
    for prog_name, inst_name, answer in (
        ("aj.dl", "aj.facts", atom("ans(john, xml)")),
        ("graph.dl", "graph.facts", atom("ans(c, e)")),
    ):
        program, instance = load_program(prog_name), load_instance(inst_name)
        flattened = instance.all_endogenous()
        minimum = minimum_source_solutions(instance, program, answer)
        mrc = most_responsible_causes(flattened, program, answer)
        best = responsibility(flattened, program, answer, next(iter(mrc)))
        assert len(minimum[0].removed) == 1 / best


def test_endogenous_only_mode_restricts_deletions():
    # with the journal rows exogenous the only subset-minimal endogenous
    # deletion removes both of the author's rows
    program, instance = load_program("aj.dl"), load_instance("aj_journal_exogenous.facts")
    solutions = minimal_source_solutions(instance, program, atom("ans(john, xml)"), endogenous_only=True)
    assert _removed(solutions) == {frozenset({"author(john, tods)", "author(john, tkde)"})}


def test_check_source_solution_modes():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    s1 = {ground("author", "john", "tods"), ground("author", "john", "tkde")}
    keep_s1 = instance.without(s1)
    assert check_source_solution(instance, keep_s1, program, answer, "s")
    assert check_source_solution(instance, keep_s1, program, answer, "c")
    overshoot = instance.without(s1 | {ground("author", "tom", "tkde")})
    assert not check_source_solution(instance, overshoot, program, answer, "s")
    assert not check_source_solution(instance, overshoot, program, answer, "c")
    too_little = instance.without({ground("author", "john", "tods")})
    assert not check_source_solution(instance, too_little, program, answer, "s")


def test_check_source_solution_rejects_non_subinstance():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    alien = Instance([ground("author", "nobody", "nowhere")])
    with pytest.raises(NotSubinstanceError):
        check_source_solution(instance, alien, program, atom("ans(john, xml)"), "s")


def test_check_source_solution_agrees_with_oracle():
    import random

    for seed in range(25):
        case = corpus.generate_case(seed, max_endogenous=5)
        sweep = oracle.instance_sweep(case.program, case.instance, everything_deletable=True)
        minimal = set(oracle.minimal_deletions(sweep, case.answer))
        minimum_size = min(len(s) for s in minimal)
        rng = random.Random(seed)
        pool = sorted(case.instance.atoms, key=lambda a: a.sort_key())
        for _ in range(12):
            removed = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            candidate = case.instance.without(removed)
            expect_s = removed in minimal
            expect_c = expect_s and len(removed) == minimum_size
            assert check_source_solution(case.instance, candidate, case.program, case.answer, "s") == expect_s
            assert check_source_solution(case.instance, candidate, case.program, case.answer, "c") == expect_c


def _residual_view_cases():
    """Corpus cases, half of them with another answer seeded as an
    endogenous fact over the answer predicate, and ``ans(X) :- e(X, Y).``
    over ``e(a, b). ans(c).``, whose answer fact no rule derives."""
    import random

    cases = []
    for seed in range(40):
        case = corpus.generate_case(seed, max_endogenous=5)
        instance = case.instance
        others = sorted(answers(case.program, instance) - {case.answer}, key=lambda a: a.sort_key())
        if seed % 2 and others:
            instance = Instance(instance.endogenous | {random.Random(seed).choice(others)}, instance.exogenous)
        cases.append((case.program, instance, case.answer))
    program = parse_program("ans(X) :- e(X, Y).")
    # the residual view of removing e(a, b) is {ans(c)}
    cases.append((program, Instance([ground("e", "a", "b"), ground("ans", "c")]), atom("ans(a)")))
    return cases


def test_residual_views_match_the_oracle():
    # each minimal source-side-effect solution's residual view is the
    # view of the instance without it, evaluated naively
    seeded = 0
    for program, instance, answer in _residual_view_cases():
        seeded += any(a.predicate == "ans" for a in instance.atoms)
        for endogenous_only in (False, True):
            sweep = oracle.instance_sweep(program, instance, everything_deletable=not endogenous_only)
            solutions = minimal_source_solutions(instance, program, answer, endogenous_only=endogenous_only)
            assert {s.removed for s in solutions} == set(oracle.minimal_deletions(sweep, answer))
            for s in solutions:
                assert s.residual_view == sweep.answers(s.removed), (program, instance, s.removed)
    assert seeded >= 10, seeded


def test_minimal_deletions_are_causes_with_their_contingency_sets():
    # the two sides of the reduction between minimal source-side-effect
    # deletions and causes: the minimal hitting sets of the diagnoses
    # that ``minimal_source_solutions`` returns are exactly the unions of
    # a cause with one of its minimal contingency sets, and both are the
    # oracle's minimal deletions
    checked = 0
    for seed in range(60):
        case = corpus.generate_case(seed, max_endogenous=6)
        for endogenous_only in (False, True):
            working = case.instance if endogenous_only else case.instance.all_endogenous()
            via_causes = {
                gamma | {tau}
                for tau in causes(working, case.program, case.answer)
                for gamma in minimal_contingency_sets(working, case.program, case.answer, tau)
            }
            solutions = minimal_source_solutions(
                case.instance, case.program, case.answer, endogenous_only=endogenous_only
            )
            sweep = oracle.instance_sweep(case.program, case.instance, everything_deletable=not endogenous_only)
            brute = set(oracle.minimal_deletions(sweep, case.answer))
            assert {s.removed for s in solutions} == via_causes == brute, case
            checked += bool(via_causes)
    assert checked >= 80, checked


def test_access_tom_f3_has_no_view_safe_solution():
    program = load_program("access.dl")
    for fixture in ("access.facts", "access_all_endogenous.facts"):
        instance = load_instance(fixture)
        assert vsef_solutions(instance, program, atom("access(tom, f3)")) == ()
        assert vsef_solutions(instance, program, atom("access(tom, f3)"), endogenous_only=True) == ()


def test_access_joe_f1_view_safe_solutions():
    program = load_program("access.dl")
    partitioned = load_instance("access.facts")
    assert _removed(vsef_solutions(partitioned, program, atom("access(joe, f1)"), endogenous_only=True)) == {
        frozenset({"group_user(joe, g1)"})
    }
    # with every tuple deletable a second, file-side solution exists
    flattened = load_instance("access_all_endogenous.facts")
    assert _removed(vsef_solutions(flattened, program, atom("access(joe, f1)"))) == {
        frozenset({"group_user(joe, g1)"}),
        frozenset({"group_file(f1, g1)"}),
    }
    sweep = oracle.instance_sweep(program, flattened, everything_deletable=True)
    assert {s.removed for s in vsef_solutions(flattened, program, atom("access(joe, f1)"))} == set(
        oracle.vsef(sweep, atom("access(joe, f1)"))
    )


def test_aj_has_no_view_safe_solution():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    assert vsef_solutions(instance, program, atom("ans(john, xml)")) == ()


def test_vsef_requires_answer():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    with pytest.raises(NotAnAnswerError):
        vsef_solutions(instance, program, atom("ans(nobody, xml)"))


def test_solution_bridges_to_causality():
    for prog_name, inst_name, answer in (
        ("aj.dl", "aj.facts", atom("ans(john, xml)")),
        ("graph.dl", "graph.facts", atom("ans(c, e)")),
        ("access.dl", "access_all_endogenous.facts", atom("access(john, f1)")),
    ):
        program, instance = load_program(prog_name), load_instance(inst_name)
        flattened = instance.all_endogenous()
        expected = set()
        for tau in causes(flattened, program, answer):
            for gamma in minimal_contingency_sets(flattened, program, answer, tau):
                expected.add(gamma | {tau})
        solutions = minimal_source_solutions(instance, program, answer)
        assert {s.removed for s in solutions} == expected
        union = frozenset().union(*(s.removed for s in solutions))
        assert union <= causes(flattened, program, answer)
        minimum = minimum_source_solutions(instance, program, answer)
        touched = frozenset().union(*(s.removed for s in minimum))
        assert most_responsible_causes(flattened, program, answer) == frozenset(
            t for t in touched if responsibility(flattened, program, answer, t) ==
            Fraction(1, len(minimum[0].removed))
        )


def test_vsef_existence_matches_vc_existence_on_fixtures():
    program = load_program("access.dl")
    for fixture in ("access.facts", "access_g0.facts"):
        instance = load_instance(fixture)
        for answer in sorted(answers(program, instance), key=lambda a: a.sort_key()):
            endo_vsef = bool(vsef_solutions(instance, program, answer, endogenous_only=True))
            assert endo_vsef == vc_cause_exists(instance, program, answer)


def test_solutions_verify_their_kind_contract():
    program, instance = load_program("access.dl"), load_instance("access_all_endogenous.facts")
    answer = atom("access(joe, f1)")
    view = answers(program, instance)
    for solution in minimal_source_solutions(instance, program, answer):
        assert answer not in solution.residual_view
    for solution in vsef_solutions(instance, program, answer):
        assert solution.residual_view == view - {answer}


def _vsef_against_oracle(endogenous_only: bool, max_endogenous: int, seeds: int) -> int:
    """Check ``seeds`` corpus cases; the number of them with a solution
    that deletes an exogenous tuple."""
    exogenous = 0
    for seed in range(seeds):
        case = corpus.generate_case(seed, max_endogenous=max_endogenous)
        sweep = oracle.instance_sweep(case.program, case.instance, everything_deletable=not endogenous_only)
        solutions = vsef_solutions(case.instance, case.program, case.answer, endogenous_only=endogenous_only)
        assert {s.removed for s in solutions} == set(oracle.vsef(sweep, case.answer)), case
        assert all(s.residual_view == sweep.answers(s.removed) for s in solutions), case
        exogenous += any(s.removed & case.instance.exogenous for s in solutions)
    return exogenous


def test_endogenous_only_vsef_matches_partitioned_oracle():
    assert _vsef_against_oracle(endogenous_only=True, max_endogenous=6, seeds=30) == 0


def test_vsef_matches_everything_deletable_oracle():
    assert _vsef_against_oracle(endogenous_only=False, max_endogenous=5, seeds=100) >= 5
