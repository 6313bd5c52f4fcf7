"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random corpora
are seeded, so every run checks the identical case set.
"""

from fractions import Fraction
from functools import lru_cache

from whyd.abduction import (
    AbductionProblem,
    from_abduction_to_causality,
    necessary_hypotheses,
    necessary_hypothesis_sets,
    necessity_degree,
    relevant_hypotheses,
    solve_diagnoses,
    to_causal_abduction,
)
from whyd.causality import (
    cause_reports,
    causes,
    is_counterfactual_cause,
    minimal_contingency_sets,
    responsibility,
)
from whyd.constraints import causes_under_ics, maximal_admissible_subinstances, responsibility_under_ics
from whyd.evaluator import evaluate_fixpoint, specialize_to_answer
from whyd.model import GroundAtom, ground
from whyd.parsing import (
    parse_constraints,
    parse_instance,
    parse_program,
    serialize_constraints,
    serialize_instance,
    serialize_program,
)
from whyd.phca import encode_phca
from whyd.vc import vc_cause_exists, vc_causes, vc_responsibility, encode_vc_as_tgd
from whyd.viewupdate import minimal_source_solutions, minimum_source_solutions, vsef_solutions

import corpus
import oracle
from oracle import naive_fixpoint
from conftest import atom, fixture_text, load_constraints, load_document, load_instance, load_program


def _ok(criterion: int, message: str) -> None:
    print(f"acceptance criterion {criterion}: PASS ({message})")


def _strs(atoms):
    return {str(a) for a in atoms}


def _family(sets):
    return {frozenset(str(a) for a in s) for s in sets}


# -- 1 ---------------------------------------------------------------------------


def test_criterion_01_author_journal_example():
    program = load_program("aj.dl")
    instance = load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    found = causes(instance, program, answer)
    assert _strs(found) == {
        "author(john, tods)",
        "author(john, tkde)",
        "journal(tkde, xml, 30)",
        "journal(tods, xml, 32)",
    }
    assert all(responsibility(instance, program, answer, c) == Fraction(1, 2) for c in found)
    partitioned = load_instance("aj_journal_exogenous.facts")
    assert _strs(causes(partitioned, program, answer)) == {
        "author(john, tods)",
        "author(john, tkde)",
    }
    _ok(1, "4 causes at 1/2; 2 author causes once journals are exogenous")


# -- 2 ---------------------------------------------------------------------------


def test_criterion_02_graph_example():
    program = load_program("graph.dl")
    instance = load_instance("graph.facts")
    answer = atom("ans(c, e)")
    assert causes(instance, program, answer) == {
        instance.by_label(f"t{i}") for i in (1, 2, 4, 5, 6, 7)
    }
    assert responsibility(instance, program, answer, instance.by_label("t2")) == 1
    assert responsibility(instance, program, answer, instance.by_label("t3")) == 0
    _ok(2, "recursive reachability causes and responsibilities exact")


# -- 3 ---------------------------------------------------------------------------


def test_criterion_03_circuit_abduction_and_causal_image():
    program = load_program("circuit.dl")
    document = load_document("circuit.facts")
    problem = AbductionProblem(
        program, document.instance.exogenous, document.instance.endogenous, document.observations
    )
    assert _family(solve_diagnoses(problem)) == {frozenset({"faulty(or)"})}
    image_instance, image_program = from_abduction_to_causality(problem)
    goal = GroundAtom(image_program.answer_predicate, ())
    assert causes(image_instance, image_program, goal) == {ground("faulty", "or")}
    assert responsibility(image_instance, image_program, goal, ground("faulty", "or")) == 1
    _ok(3, "single diagnosis faulty(or); unique cause with responsibility 1")


# -- 4 ---------------------------------------------------------------------------


def test_criterion_04_rs_fixtures():
    program = load_program("rs.dl")
    plain = to_causal_abduction(load_instance("rs.facts"), program)
    assert _family(solve_diagnoses(plain)) == {
        frozenset({"s(a1)", "r(a2, a1)"}),
        frozenset({"s(a3)", "r(a3, a3)"}),
    }
    assert _strs(relevant_hypotheses(plain)) == {"s(a1)", "r(a2, a1)", "s(a3)", "r(a3, a3)"}
    assert necessary_hypotheses(plain) == frozenset()

    nes = to_causal_abduction(load_instance("rs_nes.facts"), program)
    assert _family(solve_diagnoses(nes)) == {
        frozenset({"s(a3)", "r(a1, a3)"}),
        frozenset({"s(a3)", "r(a2, a3)"}),
    }
    assert _strs(necessary_hypotheses(nes)) == {"s(a3)"}
    assert _family(necessary_hypothesis_sets(nes)) == {
        frozenset({"s(a3)"}),
        frozenset({"r(a1, a3)", "r(a2, a3)"}),
    }
    assert necessity_degree(nes, ground("s", "a3")) == 1
    assert necessity_degree(nes, ground("r", "a1", "a3")) == Fraction(1, 2)
    assert necessity_degree(nes, ground("r", "a2", "a3")) == Fraction(1, 2)
    _ok(4, "diagnoses, relevance, necessity sets and degrees all exact")


# -- shared random corpus for 5 and 6 ---------------------------------------------


@lru_cache(maxsize=None)
def _corpus_200():
    cases = [corpus.generate_case(seed) for seed in range(180)]
    cases += [
        corpus.generate_case(seed, max_endogenous=9, allow_exogenous=False)
        for seed in range(180, 200)
    ]
    assert len(cases) == 200
    for case in cases:
        assert len(case.instance.endogenous) <= 10 and len(case.program.rules) <= 4
    return cases


@lru_cache(maxsize=None)
def _partitioned_sweep(index: int) -> oracle.Sweep:
    case = _corpus_200()[index]
    return oracle.instance_sweep(case.program, case.instance)


@lru_cache(maxsize=None)
def _flat_sweep(index: int) -> oracle.Sweep:
    case = _corpus_200()[index]
    if not case.instance.exogenous:
        return _partitioned_sweep(index)
    return oracle.instance_sweep(case.program, case.instance, everything_deletable=True)


# -- 5 ---------------------------------------------------------------------------


def test_criterion_05_reduction_identities_on_200_cases():
    mismatches = 0
    cq_checked = 0
    for case in _corpus_200():
        instance, program, answer = case.instance, case.program, case.answer
        boolean, goal = specialize_to_answer(program, answer)
        problem = AbductionProblem(boolean, instance.exogenous, instance.endogenous, (goal,))

        # causes coincide with the relevant hypotheses of the causal problem
        if causes(instance, program, answer) != relevant_hypotheses(problem):
            mismatches += 1

        # counterfactual causes are exactly the necessary hypotheses, and
        # necessity degree equals responsibility, tuple by tuple
        necessary = necessary_hypotheses(problem)
        for tau in instance.endogenous:
            if is_counterfactual_cause(instance, program, answer, tau) != (tau in necessary):
                mismatches += 1
            if necessity_degree(problem, tau) != responsibility(instance, program, answer, tau):
                mismatches += 1

        # minimal source deletions are exactly the cause + contingency combinations
        flattened = instance.all_endogenous()
        pairs = set()
        for tau in causes(flattened, program, answer):
            for gamma in minimal_contingency_sets(flattened, program, answer, tau):
                pairs.add(gamma | {tau})
        if {s.removed for s in minimal_source_solutions(instance, program, answer)} != pairs:
            mismatches += 1

        # a view-side-effect-free deletion exists iff a vc-cause exists
        vsef_exists = bool(vsef_solutions(instance, program, answer, endogenous_only=True))
        if vsef_exists != vc_cause_exists(instance, program, answer):
            mismatches += 1

        # the tgd encoding turns vc-causality into constrained causality
        if case.is_cq:
            cq_checked += 1
            extended, tgd = encode_vc_as_tgd(instance, program, answer)
            under = causes_under_ics(extended, program, answer, [tgd])
            direct = vc_causes(instance, program, answer)
            if {r.cause: set(r.minimal_contingency_sets) for r in under} != {
                r.cause: set(r.minimal_contingency_sets) for r in direct
            }:
                mismatches += 1
            if [r.responsibility_under_ics for r in under] != [r.vc_responsibility for r in direct]:
                mismatches += 1

    assert mismatches == 0
    assert cq_checked >= 50
    _ok(5, f"all reduction identities hold on 200 cases ({cq_checked} CQ encodings)")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_06_brute_force_oracle_equivalence():
    mismatches = 0
    for index, case in enumerate(_corpus_200()):
        instance, program, answer = case.instance, case.program, case.answer
        sweep = _partitioned_sweep(index)

        if causes(instance, program, answer) != oracle.causes(sweep, answer):
            mismatches += 1
        for tau in instance.endogenous:
            if responsibility(instance, program, answer, tau) != oracle.responsibility(sweep, answer, tau):
                mismatches += 1
            brute_family = oracle.contingency_family(sweep, answer, tau)
            if brute_family:
                engine_family = set(minimal_contingency_sets(instance, program, answer, tau))
                if engine_family != set(brute_family):
                    mismatches += 1

        boolean, goal = specialize_to_answer(program, answer)
        problem = AbductionProblem(boolean, instance.exogenous, instance.endogenous, (goal,))
        brute_diagnoses = oracle.diagnoses(boolean, instance.exogenous, instance.endogenous, [goal])
        if set(solve_diagnoses(problem)) != set(brute_diagnoses):
            mismatches += 1

        flat = _flat_sweep(index)
        engine_minimal = {s.removed for s in minimal_source_solutions(instance, program, answer)}
        if engine_minimal != set(oracle.minimal_deletions(flat, answer)):
            mismatches += 1
        minimum = {s.removed for s in minimum_source_solutions(instance, program, answer)}
        brute_minimal = oracle.minimal_deletions(flat, answer)
        best = min(len(s) for s in brute_minimal)
        if minimum != {s for s in brute_minimal if len(s) == best}:
            mismatches += 1
        engine_vsef = {s.removed for s in vsef_solutions(instance, program, answer)}
        if engine_vsef != set(oracle.vsef(flat, answer)):
            mismatches += 1

    assert mismatches == 0
    _ok(6, "engine equals full-subset enumeration on every notion, 200 cases")


# -- 7 ---------------------------------------------------------------------------


def test_criterion_07_access_fixtures():
    program = load_program("access.dl")
    instance = load_instance("access.facts")
    assert vsef_solutions(instance, program, atom("access(tom, f3)"), endogenous_only=True) == ()
    assert not vc_cause_exists(instance, program, atom("access(tom, f3)"))

    reports = vc_causes(instance, program, atom("access(joe, f1)"))
    assert [str(r.cause) for r in reports] == ["group_user(joe, g1)"]
    assert reports[0].minimal_contingency_sets == (frozenset(),)
    assert reports[0].vc_responsibility == 1
    assert _family(
        s.removed for s in vsef_solutions(instance, program, atom("access(joe, f1)"), endogenous_only=True)
    ) == {frozenset({"group_user(joe, g1)"})}

    extended = load_instance("access_g0.facts")
    tau = ground("group_user", "joe", "g1")
    assert vc_responsibility(extended, program, atom("access(joe, f1)"), tau) == Fraction(1, 2)
    report = next(r for r in vc_causes(extended, program, atom("access(joe, f1)")) if r.cause == tau)
    assert _family(report.minimal_contingency_sets) == {
        frozenset({"group_user(joe, g0)"}),
        frozenset({"group_file(f1, g0)"}),
    }
    _ok(7, "view-conditioned analysis of the access view matches throughout")


# -- 8 ---------------------------------------------------------------------------


def test_criterion_08_department_fixtures():
    instance = load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    john = atom("ans(john)")
    t1, t4, t8 = (instance.by_label(l) for l in ("t1", "t4", "t8"))

    q = load_program("dept_q.dl")
    q_reports = causes_under_ics(instance, q, john, sigma)
    assert {r.cause for r in q_reports} == {t1}

    q1 = load_program("dept_q1.dl")
    q1_reports = {r.cause: r for r in causes_under_ics(instance, q1, john, sigma)}
    assert set(q1_reports) == {t4, t8}
    assert q1_reports[t4].responsibility_under_ics == Fraction(1, 3)
    assert q1_reports[t8].responsibility_under_ics == Fraction(1, 3)
    assert set(q1_reports[t4].minimal_contingency_sets) == {frozenset({t8, t1})}
    assert set(q1_reports[t8].minimal_contingency_sets) == {frozenset({t4, t1})}
    assert responsibility_under_ics(instance, q1, john, t1, sigma) == 0

    admissible = maximal_admissible_subinstances(instance, q, john, sigma)
    assert [instance.atoms - s.atoms for s in admissible] == [frozenset({t1})]
    _ok(8, "constrained causes, responsibilities and admissible updates exact")


# -- 9 ---------------------------------------------------------------------------


def _criterion_9_cases(count: int, start: int = 0, **kwargs):
    made = []
    seed = start
    while len(made) < count:
        made.append(corpus.generate_case(seed, **kwargs))
        seed += 1
    return made


def test_criterion_09_property_suite_500_trials_each():
    import random

    trials = 500

    # cause monotonicity under endogenous tuple insertion
    failures = 0
    for case in _criterion_9_cases(trials, start=1000, max_endogenous=5):
        rng = random.Random(case.seed)
        signatures = sorted({(a.predicate, a.arity) for a in case.instance.atoms})
        extra = corpus._random_facts(rng, signatures, 2) - case.instance.atoms
        grown = case.instance.with_endogenous(extra)
        if not causes(case.instance, case.program, case.answer) <= causes(grown, case.program, case.answer):
            failures += 1
    assert failures == 0

    # constrained causes shrink and responsibilities never grow
    checked = 0
    seed = 2000
    while checked < trials:
        case = corpus.generate_case(seed, max_endogenous=5)
        seed += 1
        rng = random.Random(case.seed + 1)
        tgds = corpus.random_satisfied_tgds(rng, case.instance, limit=1)
        if not tgds:
            continue
        checked += 1
        plain = causes(case.instance, case.program, case.answer)
        constrained = causes_under_ics(case.instance, case.program, case.answer, tgds)
        assert {r.cause for r in constrained} <= plain, case
        for tau in case.instance.endogenous:
            assert responsibility_under_ics(
                case.instance, case.program, case.answer, tau, tgds
            ) <= responsibility(case.instance, case.program, case.answer, tau), case

    # satisfied denial constraints change nothing
    checked = 0
    seed = 3000
    while checked < trials:
        case = corpus.generate_case(seed, max_endogenous=5)
        seed += 1
        rng = random.Random(case.seed + 2)
        dcs = corpus.random_satisfied_dcs(rng, case.instance, limit=1)
        if not dcs:
            continue
        checked += 1
        constrained = causes_under_ics(case.instance, case.program, case.answer, dcs)
        plain = cause_reports(case.instance, case.program, case.answer)
        assert [(r.cause, r.minimal_contingency_sets, r.responsibility_under_ics) for r in constrained] == [
            (r.cause, r.minimal_contingency_sets, r.responsibility) for r in plain
        ], case

    # the empty constraint set is plain causality
    for case in _criterion_9_cases(trials, start=4000, max_endogenous=5):
        constrained = causes_under_ics(case.instance, case.program, case.answer, [])
        plain = cause_reports(case.instance, case.program, case.answer)
        assert [(r.cause, r.minimal_contingency_sets) for r in constrained] == [
            (r.cause, r.minimal_contingency_sets) for r in plain
        ], case

    # semi-naive evaluation equals the naive reference
    for case in _criterion_9_cases(trials, start=5000):
        semi = evaluate_fixpoint(case.program, case.instance).atoms()
        assert semi == naive_fixpoint(case.program, case.instance.atoms), case

    # parse/serialize round trips
    for case in _criterion_9_cases(trials, start=6000):
        assert parse_program(serialize_program(case.program)) == case.program, case
        assert parse_instance(serialize_instance(case.instance)) == case.instance, case
    sigma = parse_constraints(fixture_text("dept.ics"))
    assert parse_constraints(serialize_constraints(sigma)) == sigma

    _ok(9, "six property families, 500 seeded trials each, zero failures")


# -- 10 --------------------------------------------------------------------------


def test_criterion_10_phca_encoder():
    from whyd.phca import parse_phca

    problem = parse_phca(fixture_text("phca_example.txt"))
    encoded = encode_phca(problem)
    assert _family(solve_diagnoses(encoded)) == {frozenset({"t(c)"})}

    mismatches = 0
    for seed in range(100):
        random_problem = corpus.random_phca(seed)
        engine = {a.args[0].symbol for a in relevant_hypotheses(encode_phca(random_problem))}
        brute = oracle.phca_relevant(
            random_problem.rules, random_problem.hypotheses, random_problem.observations
        )
        if engine != brute:
            mismatches += 1
    assert mismatches == 0
    _ok(10, "marker encoding preserves relevance on 100 problems; worked example exact")
