import gc
import inspect
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from whyd import abduction, causality, evaluator, model
from whyd.abduction import AbductionProblem, necessary_hypothesis_sets, solve_diagnoses
from whyd.causality import (
    CauseAnalysis,
    cause_reports,
    causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    most_responsible_causes,
    responsibility,
)
from whyd.errors import NotACauseError, NotAnAnswerError, NotEndogenousError
from whyd.evaluator import holds
from whyd.model import CACHE_SIZE, GroundAtom, Instance, Program, ground
from whyd.parsing import parse_instance, parse_program
from whyd.viewupdate import minimal_source_solutions, vsef_solutions

import corpus
import oracle
from conftest import atom, count_searches, load_instance, load_program


def _strs(atoms):
    return {str(a) for a in atoms}


def _family(sets):
    return {frozenset(str(a) for a in s) for s in sets}


# -- counterfactual causes -----------------------------------------------------


def test_graph_t2_is_counterfactual():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    assert is_counterfactual_cause(instance, program, atom("ans(c, e)"), instance.by_label("t2"))


def test_graph_t1_is_not_counterfactual():
    # two other c-to-e paths survive when only t1 is removed
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    assert not is_counterfactual_cause(instance, program, atom("ans(c, e)"), instance.by_label("t1"))


def test_aj_author_john_tods_is_not_counterfactual():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    assert not is_counterfactual_cause(
        instance, program, atom("ans(john, xml)"), ground("author", "john", "tods")
    )


def test_counterfactual_rejects_exogenous_tuple():
    program, instance = load_program("aj.dl"), load_instance("aj_journal_exogenous.facts")
    with pytest.raises(NotEndogenousError):
        is_counterfactual_cause(instance, program, atom("ans(john, xml)"), ground("journal", "tkde", "xml", "30"))


def test_counterfactual_rejects_non_answer():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    with pytest.raises(NotAnAnswerError):
        is_counterfactual_cause(instance, program, atom("ans(nobody, xml)"), ground("author", "john", "tods"))


# -- cause sets -----------------------------------------------------------------


def test_aj_causes_all_endogenous():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    assert _strs(causes(instance, program, atom("ans(john, xml)"))) == {
        "author(john, tods)",
        "author(john, tkde)",
        "journal(tkde, xml, 30)",
        "journal(tods, xml, 32)",
    }


def test_aj_causes_author_only():
    program, instance = load_program("aj.dl"), load_instance("aj_journal_exogenous.facts")
    assert _strs(causes(instance, program, atom("ans(john, xml)"))) == {
        "author(john, tods)",
        "author(john, tkde)",
    }


def test_graph_causes():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    found = causes(instance, program, atom("ans(c, e)"))
    assert found == {instance.by_label(f"t{i}") for i in (1, 2, 4, 5, 6, 7)}


def test_causes_rejects_non_answer():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    with pytest.raises(NotAnAnswerError):
        causes(instance, program, atom("ans(a, c)"))


# -- contingency sets ------------------------------------------------------------


def test_aj_contingency_sets_for_author_john_tods():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    family = minimal_contingency_sets(instance, program, atom("ans(john, xml)"), ground("author", "john", "tods"))
    assert _family(family) == {
        frozenset({"author(john, tkde)"}),
        frozenset({"journal(tkde, xml, 30)"}),
    }


def test_graph_t2_has_empty_contingency_set():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    family = minimal_contingency_sets(instance, program, atom("ans(c, e)"), instance.by_label("t2"))
    assert family == (frozenset(),)


def test_repair_contingency_family_oracle_checked():
    # the smallest contingency set for r(a2, a1) has size 1; the full
    # subset-minimal family is {{r(a3, a1)}}, as brute force confirms
    program, instance = load_program("repair.dl"), load_instance("repair.facts")
    answer, tau = atom("v(a1)"), ground("r", "a2", "a1")
    family = minimal_contingency_sets(instance, program, answer, tau)
    sweep = oracle.instance_sweep(program, instance)
    assert set(family) == set(oracle.contingency_family(sweep, answer, tau))
    assert _family(family) == {frozenset({"r(a3, a1)"})}
    assert responsibility(instance, program, answer, tau) == Fraction(1, 2)
    assert responsibility(instance, program, answer, ground("s", "a1")) == 1


def test_contingency_sets_reject_non_cause():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    with pytest.raises(NotACauseError):
        minimal_contingency_sets(instance, program, atom("ans(c, e)"), instance.by_label("t3"))


def test_every_reported_contingency_set_is_minimal_and_valid():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    for report in cause_reports(instance, program, answer):
        for gamma in report.minimal_contingency_sets:
            assert holds(program, instance.without(gamma), answer)
            assert not holds(program, instance.without(gamma | {report.cause}), answer)
            for element in gamma:
                shrunk = gamma - {element}
                assert holds(program, instance.without(shrunk | {report.cause}), answer)


# -- responsibility ---------------------------------------------------------------


def test_aj_responsibilities_are_one_half():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    for cause in causes(instance, program, answer):
        assert responsibility(instance, program, answer, cause) == Fraction(1, 2)


def test_graph_responsibilities():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    answer = atom("ans(c, e)")
    assert responsibility(instance, program, answer, instance.by_label("t2")) == 1
    assert responsibility(instance, program, answer, instance.by_label("t3")) == 0


def test_responsibility_requires_answer():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    with pytest.raises(NotAnAnswerError):
        responsibility(instance, program, atom("ans(a, c)"), instance.by_label("t1"))


# -- most responsible causes -------------------------------------------------------


def test_graph_most_responsible_is_t2():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    assert most_responsible_causes(instance, program, atom("ans(c, e)")) == {instance.by_label("t2")}


def test_aj_most_responsible_is_every_cause():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    assert most_responsible_causes(instance, program, answer) == causes(instance, program, answer)


def test_no_causes_when_exogenous_part_entails_answer():
    program = load_program("rs.dl")
    instance = Instance(
        [ground("r", "a1", "a4")],
        [ground("r", "a2", "a1"), ground("s", "a1")],
    )
    assert causes(instance, program, atom("ans")) == frozenset()
    assert most_responsible_causes(instance, program, atom("ans")) == frozenset()


# -- invariants ---------------------------------------------------------------------


def test_nonemptiness_iff_endogenous_support_needed():
    for seed in range(60):
        case = corpus.generate_case(seed)
        found = causes(case.instance, case.program, case.answer)
        exogenous_only = holds(case.program, case.instance.exogenous, case.answer)
        assert bool(found) == (not exogenous_only), case


def test_counterfactual_iff_responsibility_one_iff_empty_contingency():
    for seed in range(40):
        case = corpus.generate_case(seed)
        for tau in sorted(case.instance.endogenous, key=lambda a: a.sort_key()):
            cf = is_counterfactual_cause(case.instance, case.program, case.answer, tau)
            rho = responsibility(case.instance, case.program, case.answer, tau)
            assert cf == (rho == 1), case
            if rho > 0:
                family = minimal_contingency_sets(case.instance, case.program, case.answer, tau)
                assert cf == (frozenset() in family), case


def test_cause_monotonicity_under_endogenous_insertion():
    import random

    for seed in range(50):
        case = corpus.generate_case(seed)
        rng = random.Random(seed + 999)
        signatures = sorted({(a.predicate, a.arity) for a in case.instance.atoms})
        extra = corpus._random_facts(rng, signatures, 2) - case.instance.atoms
        grown = case.instance.with_endogenous(extra)
        before = causes(case.instance, case.program, case.answer)
        after = causes(grown, case.program, case.answer)
        assert before <= after, case


def test_oracle_equivalence_on_random_corpus():
    # mrc is read off the least-size minimal deletions, so the corpus must
    # hold answers whose minimal deletions have more than one size
    two_sizes = 0
    for seed in range(80):
        case = corpus.generate_case(seed, max_endogenous=6)
        sweep = oracle.instance_sweep(case.program, case.instance)
        two_sizes += len({len(d) for d in oracle.minimal_deletions(sweep, case.answer)}) > 1
        assert causes(case.instance, case.program, case.answer) == oracle.causes(sweep, case.answer), case
        for tau in sorted(case.instance.endogenous, key=lambda a: a.sort_key()):
            assert responsibility(case.instance, case.program, case.answer, tau) == oracle.responsibility(
                sweep, case.answer, tau
            ), case
            if oracle.responsibility(sweep, case.answer, tau) > 0:
                engine_family = set(minimal_contingency_sets(case.instance, case.program, case.answer, tau))
                assert engine_family == set(oracle.contingency_family(sweep, case.answer, tau)), case
        assert most_responsible_causes(case.instance, case.program, case.answer) == oracle.most_responsible_causes(
            sweep, case.answer
        ), case
    assert two_sizes >= 2, two_sizes


def test_goal_fact_in_the_instance_is_not_a_cause():
    # the analysis observes the answer atom itself: facts over names a
    # goal predicate might take are tuples like any other
    program = parse_program("ans(X) :- r(X, Y).")
    instance = parse_instance("r(a, b).\nr(a, c).\ngoal.\ngoal_1.\n")
    reports = cause_reports(instance, program, atom("ans(a)"))
    assert [(str(r.cause), r.responsibility) for r in reports] == [("r(a, b)", Fraction(1, 2)), ("r(a, c)", Fraction(1, 2))]


_CHAIN_8 = "".join(f"e(c{i}, c{i + 1}).\n" for i in range(8))
_LADDER_6 = "".join(f"e(l, l{j}).\ne(l{j}, lt).\n" for j in range(6))


def _clear_caches() -> None:
    for cache in (solve_diagnoses, abduction._necessary_masks, CauseAnalysis.for_query):
        cache.cache_clear()


@pytest.mark.parametrize("facts, target", [(_CHAIN_8, "ans(c0, c8)"), (_LADDER_6, "ans(l, lt)")], ids=["chain-8", "ladder-6"])
def test_one_hitting_set_search_per_answer(monkeypatch, facts, target):
    """Every causal notion of one answer and its minimal deletions are
    read off one search, the minimal hitting sets of its diagnoses: a
    cause with one of its minimal contingency sets is a minimal deletion.
    The families ``reports`` gives are the ones each cause gets on its
    own."""
    program, instance, answer = load_program("graph.dl"), parse_instance(facts), atom(target)
    _clear_caches()
    searches = count_searches(monkeypatch, "hitting")
    reports = cause_reports(instance, program, answer)
    assert most_responsible_causes(instance, program, answer) == {r.cause for r in reports}
    assert len(reports) == len(instance.endogenous)
    for report in reports:
        assert report.minimal_contingency_sets == minimal_contingency_sets(instance, program, answer, report.cause)
        assert report.responsibility == responsibility(instance, program, answer, report.cause)
    solutions = minimal_source_solutions(instance, program, answer)
    assert {s.removed for s in solutions} == {g | {r.cause} for r in reports for g in r.minimal_contingency_sets}
    assert len(searches) == 1


def _diamonds(k: int) -> tuple[Instance, GroundAtom]:
    """k two-path diamonds in series from v0 to vk, with no shortcut: 2^k
    diagnoses, and each of the 4k edges a cause."""
    facts = "".join(f"e(v{i}, a{i}).\ne(a{i}, v{i + 1}).\ne(v{i}, b{i}).\ne(b{i}, v{i + 1}).\n" for i in range(k))
    return parse_instance(facts), atom(f"ans(v0, v{k})")


def _ladder(k: int) -> tuple[Instance, GroundAtom]:
    return parse_instance("".join(f"e(l, l{j}).\ne(l{j}, lt).\n" for j in range(k))), atom("ans(l, lt)")


@pytest.mark.parametrize(
    "shape, k, bound, rho",
    # the one search on ladder-8 branches on the 8 rungs in turn, 2^j
    # sets at level j: 2^9 - 1 conflicts; diamonds-7 evaluates 2,215,
    # where a search per diagnosis pattern evaluated 91,882
    [(_ladder, 8, 2**9 - 1, Fraction(1, 8)), (_diamonds, 7, 3000, Fraction(1, 2))],
    ids=["ladder-8", "diamonds-7"],
)
def test_cause_reports_evaluate_few_conflicts(monkeypatch, shape, k, bound, rho):
    program = load_program("graph.dl")
    instance, answer = shape(k)
    _clear_caches()
    searches = count_searches(monkeypatch, "hitting")
    reports = cause_reports(instance, program, answer)
    assert len(reports) == len(instance.endogenous)
    assert {r.responsibility for r in reports} == {rho}
    assert len(searches) == 1 and searches[0] <= bound, searches


@pytest.mark.parametrize("k", [1, 2, 3])
def test_diamonds_match_the_oracle(k):
    program = load_program("graph.dl")
    instance, answer = _diamonds(k)
    sweep = oracle.instance_sweep(program, instance)
    expected = {tau: oracle.contingency_family(sweep, answer, tau) for tau in oracle.causes(sweep, answer)}
    reports = cause_reports(instance, program, answer)
    assert {r.cause: set(r.minimal_contingency_sets) for r in reports} == {t: set(f) for t, f in expected.items()}
    assert [r.responsibility for r in reports] == [Fraction(1, 1 + min(map(len, expected[r.cause]))) for r in reports]


def test_most_responsible_causes_look_no_cause_up(monkeypatch):
    """The most responsible causes are the members of the least-size
    minimal deletions, read off as bits: no cause is looked up among the
    analysis's atoms, which took n(n - 1)/2 comparisons on chain-n."""
    program, answer = load_program("graph.dl"), atom("ans(c0, c12)")
    instance = parse_instance("".join(f"e(c{i}, c{i + 1}).\n" for i in range(12)))
    assert len(causes(instance, program, answer)) == 12  # the analysis, cached
    calls = 0
    real = GroundAtom.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return real(self, other)

    monkeypatch.setattr(GroundAtom, "__eq__", counted)
    winners = most_responsible_causes(instance, program, answer)
    monkeypatch.undo()
    assert calls == 0
    assert winners == instance.endogenous


def test_cause_reports_order_each_hypothesis_once(monkeypatch):
    """The hypotheses are put in canonical order once, when the solve
    numbers them; the search, the families and the reports keep that
    order as bitmasks, so no output set is sorted by atom again."""
    program, instance, answer = load_program("graph.dl"), parse_instance(_LADDER_6), atom("ans(l, lt)")
    calls = 0
    real = GroundAtom.sort_key

    def counted(self):
        nonlocal calls
        calls += 1
        return real(self)

    CauseAnalysis.for_query.cache_clear()
    solve_diagnoses.cache_clear()
    monkeypatch.setattr(GroundAtom, "sort_key", counted)
    reports = cause_reports(instance, program, answer)
    monkeypatch.undo()
    assert len(reports) == len(instance.endogenous) == 12
    assert sum(len(g) for r in reports for g in r.minimal_contingency_sets) > len(instance.endogenous)
    assert 0 < calls <= len(instance.endogenous), calls


def test_the_analysis_cache_keeps_no_caller_instance():
    class Tracked(Instance):
        """An instance that takes weak references (``Instance`` has slots)."""

    program = load_program("graph.dl")
    parsed = parse_instance("t1: e(wk0, wk1).\nt2: e(wk0, wk2).\nt3: e(wk1, wk2).\n")
    instance = Tracked(parsed.endogenous, parsed.exogenous, {a: parsed.label_of(a) for a in parsed.endogenous})
    tracked = weakref.ref(instance)
    reports = cause_reports(instance, program, atom("ans(wk0, wk2)"))
    assert [instance.label_of(r.cause) for r in reports] == ["t1", "t2", "t3"]
    del instance
    assert tracked() is None


def test_a_cached_chain_request_keeps_a_compact_graph():
    # 500 distinct chain-8 requests, after 50 that compile and warm up
    # everything shared: what the caches keep for each, by tracemalloc
    # (not RSS), is at most 10 KiB; a cached problem holds no derivation
    # graph, only its diagnoses and its analysis.  Blocks allocated at
    # the line of ``Constant`` that interns its symbol are not counted:
    # that call only grows the interpreter's table of interned strings,
    # which doubles when it fills (about 1.9 MiB at once after a long
    # test session, in a window or not depending on what ran before),
    # while the strings themselves are allocated where they are parsed
    program = load_program("graph.dl")
    source, first = inspect.getsourcelines(model.Constant.__init__)
    [line] = [first + i for i, text in enumerate(source) if "sys.intern(" in text]
    interning = (tracemalloc.Filter(False, model.__file__, line),)

    def request(tag: str) -> None:
        instance = parse_instance("".join(f"e({tag}n{i}, {tag}n{i + 1}).\n" for i in range(8)))
        cause_reports(instance, program, atom(f"ans({tag}n0, {tag}n8)"))

    try:
        for i in range(50):
            request(f"mw{i}")
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(interning)
            for i in range(500):
                request(f"mk{i}")
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(interning)
        finally:
            tracemalloc.stop()
    finally:
        solve_diagnoses.cache_clear()
        causality.CauseAnalysis.for_query.cache_clear()
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename")) / 500
    assert kept <= 10 * 1024, f"{kept / 1024:.1f} KiB a request"


def test_the_value_caches_stay_within_their_bound():
    # more distinct two-edge requests than the bound: no cache keeps more
    # than CACHE_SIZE entries, and the first request, pushed out of every
    # cache, gives its report again
    program = load_program("graph.dl")
    caches = (solve_diagnoses, abduction._necessary_masks, causality.CauseAnalysis.for_query)

    def request(tag: str) -> tuple:
        instance = parse_instance(f"e({tag}a, {tag}b).\ne({tag}b, {tag}c).\n")
        target = atom(f"ans({tag}a, {tag}c)")
        necessary_hypothesis_sets(causality.CauseAnalysis.for_query(instance, program, target).problem)
        return cause_reports(instance, program, target)

    try:
        first = request("cb0x")
        assert len(first) == 2
        for i in range(CACHE_SIZE + 8):
            request(f"cb{i}y")
        assert [cache.cache_info().currsize for cache in caches] == [CACHE_SIZE] * 3
        misses = solve_diagnoses.cache_info().misses
        assert request("cb0x") == first
        assert solve_diagnoses.cache_info().misses == misses + 1
    finally:
        for cache in caches:
            cache.cache_clear()


def test_no_request_keeps_a_derivation_graph(monkeypatch):
    # a derivation graph lives only as long as its solve: after distinct
    # cause reports, a direct solve and minimal and view-safe deletions,
    # all of them cached, the collector finds none of their graphs alive
    made = []

    class Tracked(evaluator.Graph):
        """A graph that takes weak references (``Graph`` has slots)."""

        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(evaluator, "Graph", Tracked)
    program = load_program("graph.dl")

    def chain(tag: str) -> tuple[Instance, GroundAtom]:
        instance = parse_instance("".join(f"e({tag}{i}, {tag}{i + 1}).\n" for i in range(4)))
        return instance, atom(f"ans({tag}0, {tag}4)")

    try:
        instance, answer = chain("kga")
        assert len(cause_reports(instance, program, answer)) == 4
        instance, answer = chain("kgb")
        assert len(solve_diagnoses(AbductionProblem(program, instance.exogenous, instance.endogenous, (answer,)))) == 1
        instance, answer = chain("kgc")
        assert len(minimal_source_solutions(instance, program, answer)) == 4
        instance, answer = chain("kgd")
        assert len(vsef_solutions(instance, program, answer)) == 0
        gc.collect()
        assert made and [ref() for ref in made] == [None] * len(made)
    finally:
        solve_diagnoses.cache_clear()
        causality.CauseAnalysis.for_query.cache_clear()


def test_a_second_request_over_a_program_builds_no_program_and_compiles_no_plan(monkeypatch):
    # the analysis runs the caller's program as it is: once its rules'
    # plans are compiled, a request on another instance builds no
    # program and compiles nothing
    program = parse_program(
        "gate_ans(X, Y) :- gate_p(X, Y).\ngate_p(X, Y) :- gate_e(X, Y).\ngate_p(X, Y) :- gate_p(X, Z), gate_e(Z, Y).\n"
    )
    diamond = "gate_e({0}a, {0}b).\ngate_e({0}b, {0}c).\ngate_e({0}a, {0}d).\ngate_e({0}d, {0}c).\n"
    first, second = parse_instance(diamond.format("x")), parse_instance(diamond.format("y"))
    assert len(cause_reports(first, program, atom("gate_ans(xa, xc)"))) == 4
    programs, plans = [], []
    real_init, real_plan = Program.__init__, evaluator._plan
    monkeypatch.setattr(Program, "__init__", lambda self, *args: programs.append(args) or real_init(self, *args))
    monkeypatch.setattr(evaluator, "_plan", lambda *args, **kwargs: plans.append(args) or real_plan(*args, **kwargs))
    reports = cause_reports(second, program, atom("gate_ans(ya, yc)"))
    assert [str(r.cause) for r in reports] == ["gate_e(ya, yb)", "gate_e(ya, yd)", "gate_e(yb, yc)", "gate_e(yd, yc)"]
    assert all(r.responsibility == Fraction(1, 2) for r in reports)
    assert programs == [] and plans == []
