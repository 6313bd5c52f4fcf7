import random
from collections import Counter
from fractions import Fraction

import pytest

from whyd.causality import cause_reports, causes, responsibility
from whyd.constraints import (
    ConstrainedCauseReport,
    Constraint,
    KeyConstraint,
    causes_under_ics,
    is_key_preserving,
    maximal_admissible_subinstances,
    responsibility_under_ics,
    satisfies,
)
from whyd.errors import (
    InstanceViolatesSigmaError,
    NotConjunctiveError,
    NotEndogenousError,
    SchemaMismatchError,
)
from whyd.evaluator import holds
from whyd.model import Atom, Constant, GroundAtom, Instance, Variable, ground
from whyd.parsing import parse_constraints, parse_program

import corpus
import oracle
from conftest import atom, count_searches, load_constraints, load_instance, load_program


def _labels(atoms, instance):
    return {instance.label_of(a) or str(a) for a in atoms}


# -- satisfaction ---------------------------------------------------------------


def test_dept_satisfies_its_inclusion_dependency():
    instance, sigma = load_instance("dept.facts"), load_constraints("dept.ics")
    assert satisfies(instance, sigma)


def test_dept_without_johns_courses_violates_psi():
    instance, sigma = load_instance("dept.facts"), load_constraints("dept.ics")
    broken = instance.without({instance.by_label("t4"), instance.by_label("t8")})
    report = satisfies(broken, sigma)
    assert not report
    (violation,) = report.violations
    assert _labels(violation.witness, instance) == {"t1"}


def test_empty_sigma_always_satisfied():
    assert satisfies(load_instance("graph.facts"), [])
    assert satisfies(Instance(), [])


def test_repair_instance_violates_its_denial_constraint():
    instance, sigma = load_instance("repair.facts"), load_constraints("repair.ics")
    report = satisfies(instance, sigma)
    assert not report
    assert len(report.violations) == 2  # one per r(_, a1) join partner


def test_egd_satisfaction():
    fd = parse_constraints("p(X,Y), p(X,Z) => Y = Z.")
    assert satisfies(Instance([ground("p", "a", "b")]), fd)
    assert not satisfies(Instance([ground("p", "a", "b"), ground("p", "a", "c")]), fd)
    assert satisfies(Instance([ground("p", "a", "b"), ground("p", "c", "b")]), fd)


def test_key_sugar_checks_like_an_fd():
    keys = parse_constraints("#key s 1")
    assert satisfies(Instance([ground("s", "a", "b"), ground("s", "c", "b")]), keys)
    assert not satisfies(Instance([ground("s", "a", "b"), ground("s", "a", "c")]), keys)


def test_tgd_existentials_are_witnessed_by_existing_facts_only():
    sigma = parse_constraints("dep(X, Y) => course(U, Y, X).")
    witnessed = Instance([ground("dep", "d1", "ann"), ground("course", "c1", "ann", "d1")])
    dangling = Instance([ground("dep", "d1", "ann"), ground("course", "c1", "bob", "d1")])
    assert satisfies(witnessed, sigma)
    assert not satisfies(dangling, sigma)


_SCHEMA = (("r", 2), ("s", 1), ("t", 2))


def _random_atom(rng: random.Random, variables: list[Variable]) -> Atom:
    predicate, arity = rng.choice(_SCHEMA)
    args = [Constant(rng.choice("ab")) if rng.random() < 0.2 else rng.choice(variables) for _ in range(arity)]
    return Atom(predicate, tuple(args))


def _random_constraint(rng: random.Random) -> Constraint:
    """A tgd, egd or denial over ``_SCHEMA``: constants, repeated
    variables, multi-atom bodies, tgd heads sharing body variables or
    carrying existential ones."""
    pool = [Variable(n) for n in "XYZ"]
    body = [_random_atom(rng, pool) for _ in range(rng.randint(1, 3))]
    body_vars = sorted({v for a in body for v in a.variables()}, key=str)
    kind = rng.choice(("tgd", "egd", "denial"))
    if kind == "denial":
        return Constraint.denial(body)
    if kind == "egd":
        sides = body_vars + [Constant("a"), Constant("b")]
        return Constraint.egd(body, rng.choice(sides), rng.choice(sides))
    head_pool = body_vars + [Variable("U"), Variable("V")] if body_vars else [Variable("U")]
    return Constraint.tgd(body, [_random_atom(rng, head_pool) for _ in range(rng.randint(1, 2))])


def _grounded(atoms, assignment):
    return tuple(GroundAtom(a.predicate, tuple(assignment.get(t, t) for t in a.args)) for a in atoms)


def _tgd_matches(tgd, facts):
    """Each body match of the tgd over the facts, with the set of the fact
    sets that witness its head, by brute force."""
    out = []
    for assignment in oracle._bindings(tgd.body, facts):
        witnesses = frozenset(
            frozenset(_grounded(tgd.head_atoms, extension))
            for extension in oracle._bindings(tgd.head_atoms, facts)
            if all(extension[v] == assignment[v] for v in extension if v in assignment)
        )
        out.append((frozenset(_grounded(tgd.body, assignment)), witnesses))
    return out


def test_satisfies_matches_oracle_on_random_constraints():
    # the verdict of each constraint, and each tgd's kept body matches
    # with their witness sets, each witness once
    outcomes = {(kind, ok): 0 for kind in ("tgd", "egd", "denial") for ok in (True, False)}
    witnessed = 0
    for seed in range(400):
        rng = random.Random(seed)
        facts = {
            ground(p, *(rng.choice("abc") for _ in range(arity)))
            for p, arity in (rng.choice(_SCHEMA) for _ in range(rng.randint(0, 6)))
        }
        instance = Instance(facts)
        sigma = [_random_constraint(rng) for _ in range(rng.randint(1, 3))]
        for constraint in sigma:
            expected = oracle.sigma_holds([constraint], instance.atoms)
            report = satisfies(instance, [constraint])
            assert report.ok == expected, (seed, str(constraint))
            assert all(v.constraint == constraint and set(v.witness) <= facts for v in report.violations)
            outcomes[constraint.kind, expected] += 1
            if constraint.kind == "tgd":
                assert all(len(set(w)) == len(w) for _, w in report.matches), seed
                kept = Counter((match, frozenset(w)) for match, w in report.matches)
                brute = _tgd_matches(constraint, instance.atoms)
                assert kept == Counter(brute), (seed, str(constraint))
                witnessed += any(w for _, w in brute)
            else:
                assert report.matches == (), seed
        assert satisfies(instance, sigma).ok == oracle.sigma_holds(sigma, instance.atoms), seed
    assert min(outcomes.values()) >= 20 and witnessed >= 20, (outcomes, witnessed)


def test_schema_mismatch_detected():
    sigma = parse_constraints("dep(X) => course(X).")
    with pytest.raises(SchemaMismatchError):
        satisfies(load_instance("dept.facts"), sigma)


# -- causes under constraints ------------------------------------------------------


def test_dept_q_causes_under_psi_only_t1():
    program, instance = load_program("dept_q.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    reports = causes_under_ics(instance, program, atom("ans(john)"), sigma)
    assert [(instance.label_of(r.cause), r.responsibility_under_ics) for r in reports] == [("t1", Fraction(1))]


def test_dept_q1_causes_under_psi():
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    reports = {instance.label_of(r.cause): r for r in causes_under_ics(instance, program, atom("ans(john)"), sigma)}
    assert set(reports) == {"t4", "t8"}
    t1, t4, t8 = (load_instance("dept.facts").by_label(l) for l in ("t1", "t4", "t8"))
    assert reports["t4"].responsibility_under_ics == Fraction(1, 3)
    assert reports["t8"].responsibility_under_ics == Fraction(1, 3)
    assert set(reports["t4"].minimal_contingency_sets) == {frozenset({t8, t1})}
    assert set(reports["t8"].minimal_contingency_sets) == {frozenset({t4, t1})}


def test_causes_under_ics_are_constrained_reports():
    # the analysis under the constraints builds its own report type
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    reports = causes_under_ics(instance, program, atom("ans(john)"), load_constraints("dept.ics"))
    assert len(reports) == 2 and all(type(r) is ConstrainedCauseReport for r in reports)
    found = 0
    for seed in range(20):
        case, sigma = corpus.generate_sigma_case(seed)
        reports = causes_under_ics(case.instance, case.program, case.answer, sigma)
        assert all(type(r) is ConstrainedCauseReport for r in reports), case
        found += len(reports)
    assert found


def test_dept_q1_t1_is_not_a_cause_under_psi():
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    assert responsibility_under_ics(instance, program, atom("ans(john)"), instance.by_label("t1"), sigma) == 0


def test_dept_responsibility_drops_under_psi():
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    t4 = instance.by_label("t4")
    assert responsibility(instance, program, atom("ans(john)"), t4) == Fraction(1, 2)
    assert responsibility_under_ics(instance, program, atom("ans(john)"), t4, sigma) == Fraction(1, 3)


def test_responsibility_under_ics_searches_only_the_asked_tuples_family(monkeypatch):
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    searches = count_searches(monkeypatch)
    t4 = instance.by_label("t4")
    assert responsibility_under_ics(instance, program, atom("ans(john)"), t4, sigma) == Fraction(1, 3)
    assert len(searches) == 1


def test_equivalent_queries_share_causes_under_psi():
    # the join query and its rewriting to the single-table query have the
    # same causes on instances satisfying the inclusion dependency
    instance, sigma = load_instance("dept.facts"), load_constraints("dept.ics")
    q, q_prime = load_program("dept_q.dl"), load_program("dept_qprime.dl")
    left = {r.cause for r in causes_under_ics(instance, q, atom("ans(john)"), sigma)}
    right = {r.cause for r in causes_under_ics(instance, q_prime, atom("ans(john)"), sigma)}
    assert left == right == {instance.by_label("t1")}


def test_empty_sigma_is_plain_causality():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    constrained = causes_under_ics(instance, program, answer, [])
    plain = cause_reports(instance, program, answer)
    assert [(r.cause, r.minimal_contingency_sets, r.responsibility_under_ics) for r in constrained] == [
        (r.cause, r.minimal_contingency_sets, r.responsibility) for r in plain
    ]


def test_satisfied_dcs_do_not_change_causes():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    dc = parse_constraints("author(X, vldb) => false.")
    constrained = causes_under_ics(instance, program, answer, dc)
    plain = cause_reports(instance, program, answer)
    assert [(r.cause, r.responsibility_under_ics) for r in constrained] == [
        (r.cause, r.responsibility) for r in plain
    ]


def test_violating_instance_is_rejected():
    program, instance = load_program("repair.dl"), load_instance("repair.facts")
    sigma = load_constraints("repair.ics")
    with pytest.raises(InstanceViolatesSigmaError):
        causes_under_ics(instance, program, atom("v(a1)"), sigma)


@pytest.mark.parametrize("shift", range(4))
@pytest.mark.parametrize("loop", [True, False])
def test_rejection_names_the_first_violation_of_satisfies(shift, loop):
    # the search reads the tgd violations off its own body matches; the
    # message is still the one ``satisfies`` sorts first (without the
    # loop, a tgd violation)
    program = parse_program("q(X) :- e(X, Y).")
    facts = [ground("e", "a", "c"), ground("e", "a", "b"), ground("f", "b")] + [ground("e", "d", "d")] * loop
    instance = Instance(facts)
    lines = ["e(X, Y) => f(Y).", "e(X, Y), e(X, Z) => Y = Z.", "e(X, X) => false.", "e(X, Y) => e(Y, Z)."]
    sigma = parse_constraints("\n".join(lines[shift:] + lines[:shift]) + "\n")
    first = satisfies(instance, sigma).violations[0]
    with pytest.raises(InstanceViolatesSigmaError) as raised:
        causes_under_ics(instance, program, atom("q(a)"), sigma)
    assert str(raised.value) == str(first)


def test_responsibility_under_ics_rejects_exogenous():
    program, instance = load_program("aj.dl"), load_instance("aj_journal_exogenous.facts")
    with pytest.raises(NotEndogenousError):
        responsibility_under_ics(
            instance, program, atom("ans(john, xml)"), ground("journal", "tkde", "xml", "30"), []
        )


def test_reports_satisfy_all_four_clauses():
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    answer = atom("ans(john)")
    for report in causes_under_ics(instance, program, answer, sigma):
        for gamma in report.minimal_contingency_sets:
            both = gamma | {report.cause}
            assert holds(program, instance.without(gamma), answer)
            assert satisfies(instance.without(gamma), sigma)
            assert not holds(program, instance.without(both), answer)
            assert satisfies(instance.without(both), sigma)


def test_shrinking_invariants_on_random_corpus():
    import random

    for seed in range(40):
        case = corpus.generate_case(seed, max_endogenous=6)
        rng = random.Random(seed + 77)
        tgds = corpus.random_satisfied_tgds(rng, case.instance)
        if not tgds:
            continue
        plain = causes(case.instance, case.program, case.answer)
        constrained = causes_under_ics(case.instance, case.program, case.answer, tgds)
        assert {r.cause for r in constrained} <= plain, case
        for tau in sorted(case.instance.endogenous, key=lambda a: a.sort_key()):
            assert responsibility_under_ics(
                case.instance, case.program, case.answer, tau, tgds
            ) <= responsibility(case.instance, case.program, case.answer, tau), case


def test_dc_invariance_on_random_corpus():
    import random

    for seed in range(40):
        case = corpus.generate_case(seed, max_endogenous=6)
        rng = random.Random(seed + 78)
        dcs = corpus.random_satisfied_dcs(rng, case.instance)
        if not dcs:
            continue
        plain = cause_reports(case.instance, case.program, case.answer)
        constrained = causes_under_ics(case.instance, case.program, case.answer, dcs)
        assert [(r.cause, r.minimal_contingency_sets) for r in constrained] == [
            (r.cause, r.minimal_contingency_sets) for r in plain
        ], case


def test_under_sigma_matches_oracle_on_random_corpus():
    import random

    for seed in range(30):
        case = corpus.generate_case(seed, max_endogenous=5)
        rng = random.Random(seed + 79)
        sigma = corpus.random_satisfied_tgds(rng, case.instance, limit=1)
        if not sigma:
            continue
        sweep = oracle.instance_sweep(case.program, case.instance)
        expected = oracle.causes_under_sigma(sweep, case.answer, sigma)
        reports = causes_under_ics(case.instance, case.program, case.answer, sigma)
        assert {r.cause for r in reports} == set(expected), case
        for report in reports:
            assert set(report.minimal_contingency_sets) == set(expected[report.cause]), case


def test_under_sigma_matches_oracle_on_multi_atom_tgds():
    # one- and two-atom bodies and heads with existentials: a minimal
    # contingency set may then hold tuples outside the answer's support,
    # deleted only to take a tgd body match away
    outside = 0
    for seed in range(300):
        case, sigma = corpus.generate_sigma_case(seed, max_endogenous=6)
        sweep = oracle.instance_sweep(case.program, case.instance)
        expected = oracle.causes_under_sigma(sweep, case.answer, sigma)
        reports = causes_under_ics(case.instance, case.program, case.answer, sigma)
        assert {r.cause: set(r.minimal_contingency_sets) for r in reports} == {
            tau: set(family) for tau, family in expected.items()
        }, case
        support = causes(case.instance, case.program, case.answer)
        outside += any(not gamma <= support for r in reports for gamma in r.minimal_contingency_sets)
    assert outside >= 20, outside


@pytest.mark.parametrize("query", ["dept_q.dl", "dept_q1.dl"])
def test_constraint_joins_per_call_are_linear_in_tgd_body_matches(query, monkeypatch):
    import whyd.constraints as module

    program, instance = load_program(query), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    tgds = sum(c.kind == "tgd" for c in sigma)
    calls = []
    real = module._matches
    monkeypatch.setattr(module, "_matches", lambda *args: calls.append(args) or real(*args))
    causes_under_ics(instance, program, atom("ans(john)"), sigma)
    # one pass: each tgd's body joined once, and its body and head
    # together once, whatever the number of matches
    assert tgds and len(calls) == 2 * tgds, len(calls)


def test_equal_instances_labelled_otherwise_get_their_own_labels():
    program, instance = load_program("dept_q1.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    renamed = Instance(
        instance.endogenous, instance.exogenous, {a: "z" + instance.label_of(a)[1:] for a in instance.endogenous}
    )
    for inst, mark in ((instance, "t"), (renamed, "z")):
        reports = causes_under_ics(inst, program, atom("ans(john)"), sigma)
        named = [(inst.label_of(r.cause), [sorted(map(inst.label_of, g)) for g in r.minimal_contingency_sets]) for r in reports]
        assert named == [
            (f"{mark}8", [[f"{mark}1", f"{mark}4"]]),
            (f"{mark}4", [[f"{mark}1", f"{mark}8"]]),
        ]


# -- admissible subinstances ---------------------------------------------------------


def test_dept_admissible_subinstances():
    program, instance = load_program("dept_q.dl"), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    subinstances = maximal_admissible_subinstances(instance, program, atom("ans(john)"), sigma)
    assert [sorted(map(instance.label_of, instance.atoms - s.atoms)) for s in subinstances] == [["t1"]]


@pytest.mark.parametrize("query", ["dept_q.dl", "dept_q1.dl"])
def test_admissible_filter_joins_each_tgd_body_once(query, monkeypatch):
    import whyd.constraints as module

    program, instance = load_program(query), load_instance("dept.facts")
    sigma = load_constraints("dept.ics")
    tgds = sum(c.kind == "tgd" for c in sigma)
    calls = []
    real = module._matches
    monkeypatch.setattr(module, "_matches", lambda *args: calls.append(args) or real(*args))
    maximal_admissible_subinstances(instance, program, atom("ans(john)"), sigma)
    # one scan of the instance: each tgd's body joined once and its body
    # and head together once, none per candidate
    assert tgds and len(calls) == 2 * tgds, len(calls)


def test_admissible_subinstances_with_empty_sigma_complement_minimal_deletions():
    from whyd.viewupdate import minimal_source_solutions

    program, instance = load_program("dept_q.dl"), load_instance("dept.facts")
    answer = atom("ans(john)")
    subinstances = maximal_admissible_subinstances(instance, program, answer, [])
    complements = {instance.atoms - s.atoms for s in subinstances}
    assert complements == {s.removed for s in minimal_source_solutions(instance, program, answer)}


def test_admissible_subinstances_match_oracle_filter():
    import random

    for seed in range(20):
        case = corpus.generate_case(seed, max_endogenous=5, allow_exogenous=False)
        rng = random.Random(seed + 80)
        sigma = corpus.random_satisfied_tgds(rng, case.instance, limit=1)
        sweep = oracle.instance_sweep(case.program, case.instance, everything_deletable=True)
        expected = {
            frozenset(case.instance.atoms - removed)
            for removed in oracle.minimal_deletions(sweep, case.answer)
            if oracle.sigma_holds(sigma, case.instance.atoms - removed)
        }
        found = {
            frozenset(s.atoms)
            for s in maximal_admissible_subinstances(case.instance, case.program, case.answer, sigma)
        }
        assert found == expected, case


# -- key preservation ------------------------------------------------------------------


def test_key_preserving_examples():
    keys = [KeyConstraint("s", (1, 2)), KeyConstraint("r", (1,))]
    q3 = parse_program("ans(X, Y) :- s(X, Y, Z).")
    q1 = parse_program("ans(Y, Z) :- s(X, Y, Z).")
    assert is_key_preserving(q3, keys)
    assert not is_key_preserving(q1, keys)


def test_key_preserving_vacuous_without_keys():
    q = parse_program("ans(Y) :- s(X, Y, Z).")
    assert is_key_preserving(q, [])
    assert is_key_preserving(q, [KeyConstraint("unused", (1,))])


def test_key_preserving_accepts_constants_in_key_positions():
    q = parse_program("ans(Y) :- s(c1, Y, Z).")
    assert is_key_preserving(q, [KeyConstraint("s", (1,))])


def test_key_preserving_rejects_non_cq():
    keys = [KeyConstraint("e", (1,))]
    with pytest.raises(NotConjunctiveError):
        is_key_preserving(load_program("graph.dl"), keys)


def test_key_preserving_rejects_bad_positions():
    q = parse_program("ans(X) :- s(X).")
    with pytest.raises(SchemaMismatchError):
        is_key_preserving(q, [KeyConstraint("s", (2,))])
