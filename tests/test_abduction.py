import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from whyd import abduction, evaluator
from whyd.abduction import (
    AbductionProblem,
    from_abduction_to_causality,
    necessary_hypotheses,
    necessary_hypothesis_sets,
    necessity_degree,
    necessity_degrees,
    relevant_hypotheses,
    solve_diagnoses,
    to_causal_abduction,
)
from whyd.causality import CauseAnalysis, cause_reports, causes, responsibility
from whyd.errors import (
    InternalInvariantError,
    NotBooleanError,
    NotEntailedError,
    ObservationNotEntailableError,
    UnknownHypothesisError,
)
from whyd.model import GroundAtom, Instance, Program, Rule, ground
from whyd.parsing import parse_ground_atom, parse_instance, parse_program
from whyd.phca import encode_phca, parse_phca
from whyd.vc import vc_causes
from whyd.viewupdate import minimal_source_solutions

import corpus
import oracle
from conftest import (
    atom,
    count_facts_read,
    load_document,
    load_instance,
    load_program,
    problem_graph,
    specialize_to_answer,
    tamper,
)


def _family(diagnoses):
    return {frozenset(str(a) for a in d) for d in diagnoses}


def _circuit_problem():
    program = load_program("circuit.dl")
    document = load_document("circuit.facts")
    return AbductionProblem(
        program, document.instance.exogenous, document.instance.endogenous, document.observations
    )


def test_circuit_has_single_diagnosis():
    problem = _circuit_problem()
    assert _family(solve_diagnoses(problem)) == {frozenset({"faulty(or)"})}


def test_rs_diagnoses_and_relevance():
    program, instance = load_program("rs.dl"), load_instance("rs.facts")
    problem = to_causal_abduction(instance, program)
    assert problem.extensional == frozenset()
    assert problem.hypotheses == instance.atoms
    assert _family(solve_diagnoses(problem)) == {
        frozenset({"s(a1)", "r(a2, a1)"}),
        frozenset({"s(a3)", "r(a3, a3)"}),
    }
    assert {str(a) for a in relevant_hypotheses(problem)} == {
        "s(a1)",
        "r(a2, a1)",
        "s(a3)",
        "r(a3, a3)",
    }
    assert necessary_hypotheses(problem) == frozenset()


def test_rs_nes_necessity():
    program, instance = load_program("rs.dl"), load_instance("rs_nes.facts")
    problem = to_causal_abduction(instance, program)
    assert {str(a) for a in necessary_hypotheses(problem)} == {"s(a3)"}
    assert _family(necessary_hypothesis_sets(problem)) == {
        frozenset({"s(a3)"}),
        frozenset({"r(a1, a3)", "r(a2, a3)"}),
    }
    assert necessity_degree(problem, ground("s", "a3")) == 1
    assert necessity_degree(problem, ground("r", "a2", "a3")) == Fraction(1, 2)
    assert necessity_degree(problem, ground("r", "a1", "a3")) == Fraction(1, 2)


def test_singleton_necessity_correspondence():
    program, instance = load_program("rs.dl"), load_instance("rs_nes.facts")
    problem = to_causal_abduction(instance, program)
    family = necessary_hypothesis_sets(problem)
    for h in problem.hypotheses:
        assert (h in necessary_hypotheses(problem)) == (frozenset({h}) in family)


def test_entailed_without_hypotheses_gives_empty_diagnosis():
    program = parse_program("ans :- p(X).")
    problem = AbductionProblem(program, frozenset({ground("p", "a")}), frozenset({ground("p", "b")}), (ground("ans"),))
    assert solve_diagnoses(problem) == (frozenset(),)
    assert relevant_hypotheses(problem) == frozenset()
    assert necessary_hypotheses(problem) == frozenset()
    assert necessary_hypothesis_sets(problem) == ()
    assert necessity_degree(problem, ground("p", "b")) == 0


def test_unentailable_observation_rejected():
    program = parse_program("ans :- p(X).")
    with pytest.raises(ObservationNotEntailableError):
        AbductionProblem(program, frozenset(), frozenset({ground("q", "a")}), (ground("ans"),))


def test_empty_observation_rejected():
    program = parse_program("ans :- p(X).")
    with pytest.raises(ObservationNotEntailableError):
        AbductionProblem(program, frozenset(), frozenset(), ())


def test_unknown_hypothesis_rejected():
    problem = _circuit_problem()
    with pytest.raises(UnknownHypothesisError):
        necessity_degree(problem, ground("faulty", "nand"))


def test_to_causal_abduction_requires_boolean_query():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    with pytest.raises(NotBooleanError):
        to_causal_abduction(instance, program)


def test_to_causal_abduction_requires_entailment():
    program = load_program("rs.dl")
    with pytest.raises(NotEntailedError):
        to_causal_abduction(Instance([ground("s", "a1")]), program)


def test_to_causal_abduction_with_empty_endogenous_part():
    program = load_program("rs.dl")
    instance = Instance([], [ground("r", "a2", "a1"), ground("s", "a1")])
    problem = to_causal_abduction(instance, program)
    assert solve_diagnoses(problem) == (frozenset(),)
    assert relevant_hypotheses(problem) == frozenset()


def test_booleanized_aj_relevance_is_the_cause_set():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    answer = atom("ans(john, xml)")
    boolean, _ = specialize_to_answer(program, answer)
    problem = to_causal_abduction(instance, boolean)
    assert relevant_hypotheses(problem) == causes(instance, program, answer)


def test_from_abduction_circuit_image():
    problem = _circuit_problem()
    instance, program = from_abduction_to_causality(problem)
    answer = GroundAtom(program.answer_predicate, ())
    assert program.is_boolean()
    assert causes(instance, program, answer) == frozenset({ground("faulty", "or")})
    assert responsibility(instance, program, answer, ground("faulty", "or")) == 1


def test_from_abduction_round_trip_on_rs():
    program, instance = load_program("rs.dl"), load_instance("rs.facts")
    problem = to_causal_abduction(instance, program)
    image_instance, image_program = from_abduction_to_causality(problem)
    answer = GroundAtom(image_program.answer_predicate, ())
    assert causes(image_instance, image_program, answer) == relevant_hypotheses(problem)


def test_from_abduction_folds_conjunctive_observation():
    program = parse_program("ans :- p(X).")  # placeholder head; rules reused below
    base = Program(program.rules, "ans")
    problem = AbductionProblem(
        base,
        frozenset(),
        frozenset({ground("p", "a"), ground("p", "b")}),
        (ground("p", "a"), ground("p", "b")),
    )
    instance, image = from_abduction_to_causality(problem)
    goal_rules = [r for r in image.rules if r.head.predicate == image.answer_predicate]
    assert len(goal_rules) == 1
    assert [str(a) for a in goal_rules[0].body] == ["p(a)", "p(b)"]
    assert instance.endogenous == problem.hypotheses


def test_diagnoses_match_oracle_on_random_problems():
    for seed in range(60):
        case = corpus.generate_case(seed, max_endogenous=6)
        boolean, goal = specialize_to_answer(case.program, case.answer)
        problem = AbductionProblem(boolean, case.instance.exogenous, case.instance.endogenous, (goal,))
        engine = set(solve_diagnoses(problem))
        brute = set(
            oracle.diagnoses(boolean, case.instance.exogenous, case.instance.endogenous, [goal])
        )
        assert engine == brute, case


def test_necessary_sets_match_oracle_on_random_problems():
    for seed in range(40):
        case = corpus.generate_case(seed, max_endogenous=6)
        boolean, goal = specialize_to_answer(case.program, case.answer)
        problem = AbductionProblem(boolean, case.instance.exogenous, case.instance.endogenous, (goal,))
        engine = set(necessary_hypothesis_sets(problem))
        brute = set(
            oracle.necessary_sets(boolean, case.instance.exogenous, case.instance.endogenous, [goal])
        )
        assert engine == brute, case
        for h in sorted(problem.hypotheses, key=GroundAtom.sort_key):
            assert necessity_degree(problem, h) == oracle.necessity_degree(
                boolean, case.instance.exogenous, case.instance.endogenous, [goal], h
            ), case


def test_diagnosis_minimality_membership_proof():
    program, instance = load_program("rs.dl"), load_instance("rs.facts")
    problem = to_causal_abduction(instance, program)
    from whyd.evaluator import holds

    for delta in solve_diagnoses(problem):
        for element in delta:
            weakened = instance.exogenous | (delta - {element})
            assert not holds(problem.program, weakened, ground("ans"))


# -- program shapes the random corpus does not produce -------------------------

# name -> (program, predicate of the observed atoms)
_SHAPES = {
    "nonlinear": ("path(X, Y) :- e(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n", "path"),
    "mutual": ("r(X) :- e(X, Y), s(Y).\ns(X) :- e(X, Y), r(Y).\ns(X) :- b(X).\n", "r"),
    "cyclic": ("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n", "p"),
    "neq": ("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y), X != Y.\n", "p"),
    "atomless": (
        "g(X) :- ok, e(X, Y), b(Y).\nok :- a = a.\nno :- a != a.\ng(X) :- no, b(X).\ng(X) :- g(Y), e(Y, X).\n",
        "g",
    ),
}


def _shape_case(shape: str, rng: random.Random):
    """A random abduction problem over the shape's program, with an
    observation drawn from the full model, or None if it has none."""
    text, observed = _SHAPES[shape]
    program = parse_program(text)
    nodes = [f"n{i}" for i in range(rng.randint(2, 4))]
    pool = [ground("e", u, v) for u in nodes for v in nodes] + [ground("b", u) for u in nodes]
    if shape == "cyclic":
        ring = rng.sample(nodes, len(nodes))
        cycle = [ground("e", u, v) for u, v in zip(ring, ring[1:] + ring[:1])]
        pool = cycle + [f for f in pool if f not in cycle]
        hypotheses = set(cycle) | set(rng.sample(pool[len(cycle):], rng.randint(1, 3)))
    else:
        hypotheses = set(rng.sample(pool, rng.randint(2, 6)))
    rest = [f for f in pool if f not in hypotheses]
    extensional = set(rng.sample(rest, min(len(rest), rng.randint(0, 2))))
    heads = sorted({r.head.predicate for r in program.rules})
    if rng.random() < 0.4:  # hypotheses over derived predicates
        for _ in range(rng.randint(1, 2)):
            predicate = rng.choice(heads)
            arity = program.arity_of(predicate)
            hypotheses.add(ground(predicate, *(rng.choice(nodes) for _ in range(arity))))
    if rng.random() < 0.3:  # a hypothesis that is also extensional
        extensional.add(rng.choice(sorted(hypotheses, key=GroundAtom.sort_key)))
    extensional, hypotheses = frozenset(extensional), frozenset(hypotheses)
    model = oracle.naive_fixpoint(program, extensional | hypotheses)
    candidates = sorted((a for a in model if a.predicate == observed), key=GroundAtom.sort_key)
    if not candidates:
        return None
    observation = tuple(rng.sample(candidates, min(len(candidates), rng.choice((1, 1, 2)))))
    return program, extensional, hypotheses, observation


def test_diagnoses_match_oracle_on_recursive_shapes():
    checked = {shape: 0 for shape in _SHAPES}
    for seed in range(240):
        rng = random.Random(seed)
        shape = sorted(_SHAPES)[seed % len(_SHAPES)]
        case = _shape_case(shape, rng)
        if case is None:
            continue
        program, extensional, hypotheses, observation = case
        problem = AbductionProblem(program, extensional, hypotheses, observation)
        engine = set(solve_diagnoses(problem))
        brute = set(oracle.diagnoses(program, extensional, hypotheses, observation))
        assert engine == brute, (shape, seed)
        checked[shape] += 1
    assert sum(checked.values()) >= 100, checked
    assert all(count >= 15 for count in checked.values()), checked


def test_diagnoses_of_answers_held_as_facts():
    # ans(c) is a stored fact that no rule derives: fixed, it needs
    # nothing; deletable, it supports itself
    program = parse_program("ans(X) :- e(X, Y).")
    e, a, c = ground("e", "a", "b"), ground("ans", "a"), ground("ans", "c")

    def diagnoses(fixed, deletable, answer):
        return solve_diagnoses(AbductionProblem(program, frozenset(fixed), frozenset(deletable), (answer,)))

    assert diagnoses({c}, {e}, a) == (frozenset({e}),)
    assert diagnoses({c}, {e}, c) == (frozenset(),)
    assert diagnoses((), {e, c}, a) == (frozenset({e}),)
    assert diagnoses((), {e, c}, c) == (frozenset({c}),)
    assert diagnoses({e, c}, (), a) == (frozenset(),)
    assert diagnoses({e, c}, (), c) == (frozenset(),)


def _labelled(instance: Instance, prefix: str = "t") -> Instance:
    """Every tuple of the instance, endogenous and labelled prefix1, prefix2, ..."""
    ordered = sorted(instance.atoms, key=GroundAtom.sort_key)
    return Instance(ordered, labels={a: f"{prefix}{i}" for i, a in enumerate(ordered, 1)})


def test_diagnoses_keep_hypothesis_labels():
    # diagnoses and contingency sets hold the instance's own tuples, so
    # the instance names each of them
    program, plain = load_program("aj.dl"), load_instance("aj.facts")
    instance = _labelled(plain)
    boolean, _ = specialize_to_answer(program, atom("ans(john, xml)"))
    solutions = solve_diagnoses(to_causal_abduction(instance, boolean))
    assert solutions
    for delta in solutions:
        assert delta and all(instance.by_label(instance.label_of(a)) == a for a in delta)
    graph, graph_instance = load_program("graph.dl"), load_instance("graph.facts")
    for report in cause_reports(graph_instance, graph, atom("ans(c, e)")):
        assert graph_instance.by_label(graph_instance.label_of(report.cause)) == report.cause
        for gamma in report.minimal_contingency_sets:
            assert all(graph_instance.label_of(a) is not None for a in gamma)


def test_equal_requests_with_other_labels_get_their_own_labels_back():
    # the caches compare problems and instances by value: an equal request
    # under other labels is a cache hit that returns the same result
    # objects, and each caller reads its own labels through its instance
    program, plain = load_program("aj.dl"), load_instance("aj.facts")
    boolean, _ = specialize_to_answer(program, atom("ans(john, xml)"))
    target = atom("ans(john, xml)")
    first, second = _labelled(plain, "first"), _labelled(plain, "second")
    analysis = CauseAnalysis.for_query(first, program, target)
    solutions = solve_diagnoses(to_causal_abduction(first, boolean))
    analyses, diagnoses = CauseAnalysis.for_query.cache_info(), solve_diagnoses.cache_info()
    for instance in (second, _labelled(plain, "first"), first):
        assert CauseAnalysis.for_query(instance, program, target) is analysis
        assert solve_diagnoses(to_causal_abduction(instance, boolean)) is solutions
    assert CauseAnalysis.for_query.cache_info().hits == analyses.hits + 3
    # each construction of the causal abduction problem looks it up too
    assert solve_diagnoses.cache_info().hits == diagnoses.hits + 6
    assert CauseAnalysis.for_query.cache_info().misses == analyses.misses
    assert solve_diagnoses.cache_info().misses == diagnoses.misses
    for instance, prefix in ((first, "first"), (second, "second")):
        for delta in solutions:
            assert delta and all(instance.label_of(a).startswith(prefix) for a in delta)
        for report in cause_reports(instance, program, target):
            assert instance.label_of(report.cause).startswith(prefix)
            for gamma in report.minimal_contingency_sets:
                assert all(instance.label_of(a).startswith(prefix) for a in gamma)
        assert all(instance.label_of(a).startswith(prefix) for a in causes(instance, program, target))


# -- the check solve_diagnoses runs on its own result ---------------------------


def _fresh_problem(tag: str) -> AbductionProblem:
    """A problem no other test builds, so only its own construction has
    filled the diagnosis cache for it; its one diagnosis is
    {tag_e(a, b), tag_f(b)}."""
    program = parse_program(f"{tag}(X) :- {tag}_e(X, Y), {tag}_f(Y).")
    hypotheses = frozenset({ground(f"{tag}_e", "a", "b"), ground(f"{tag}_f", "b"), ground(f"{tag}_f", "c")})
    return AbductionProblem(program, frozenset(), hypotheses, (ground(tag, "a"),))


def _fake_why(family):
    """A provenance pass that gives the goal ``family``, as bitmasks over
    the hypotheses its sets hold."""

    def why(graph, extensional, goal):
        members = sorted(set().union(*family), key=GroundAtom.sort_key)
        masks = [sum(1 << members.index(a) for a in delta) for delta in family]
        return [graph.atoms.index(a) for a in members], masks

    return why


def test_invariant_check_rejects_non_minimal_family(monkeypatch):
    problem = _fresh_problem("nonmin")
    padded = [frozenset(problem.hypotheses)]
    monkeypatch.setattr(abduction, "_minimal_why", _fake_why(padded))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not minimal") as err:
        solve_diagnoses(problem)
    assert err.value.code == "InternalInvariant"


def test_invariant_check_rejects_non_entailing_family(monkeypatch):
    problem = _fresh_problem("nonent")
    short = [frozenset({ground("nonent_e", "a", "b")})]
    monkeypatch.setattr(abduction, "_minimal_why", _fake_why(short))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="does not entail"):
        solve_diagnoses(problem)


def _shortcut_problem(tag: str) -> AbductionProblem:
    """``p :- x, y.  p :- q.  q :- x.`` with hypotheses x and y and
    observation p, under predicate names no other test uses: its one
    diagnosis is {x}, through q."""
    program = parse_program(f"{tag}_p :- {tag}_x, {tag}_y.\n{tag}_p :- {tag}_q.\n{tag}_q :- {tag}_x.\n")
    hypotheses = frozenset({ground(f"{tag}_x"), ground(f"{tag}_y")})
    return AbductionProblem(program, frozenset(), hypotheses, (ground(f"{tag}_p"),))


def test_invariant_check_rederives_a_dropped_firing(monkeypatch):
    # without p <- q in the recorded graph the provenance pass finds
    # {x, y}; the check joins the rules again, finds p <- q, and sees
    # that {x} alone entails p
    problem = _shortcut_problem("dropped")
    p, q = ground("dropped_p"), ground("dropped_q")
    assert solve_diagnoses(problem) == (frozenset({ground("dropped_x")}),)
    tamper(monkeypatch, lambda firings: firings.remove((p, (q,))))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not minimal: dropped_y is redundant"):
        solve_diagnoses(problem)


def test_invariant_check_rejects_a_bogus_firing(monkeypatch):
    # a recorded p <- y gives the diagnosis {y}, which entails nothing
    problem = _shortcut_problem("bogus")
    tamper(monkeypatch, lambda firings: firings.append((ground("bogus_p"), (ground("bogus_y"),))))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="does not entail"):
        solve_diagnoses(problem)


def test_invariant_check_rejects_a_model_that_is_not_closed(monkeypatch):
    # a recorded graph without q's firing leaves q out of the atoms the
    # check grounds again, and q <- x derives it
    problem = _shortcut_problem("open")
    q = ground("open_q")

    def drop_q(firings):
        firings[:] = [f for f in firings if f[0] != q]

    tamper(monkeypatch, drop_q)
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not closed: it misses open_q"):
        solve_diagnoses(problem)


def test_invariant_check_passes_the_true_family():
    problem = _fresh_problem("truefam")
    assert _family(solve_diagnoses(problem)) == {frozenset({"truefam_e(a, b)", "truefam_f(b)"})}


_OPTIMIZED_CHECK = """
import sys
from whyd import abduction
from whyd.abduction import AbductionProblem, solve_diagnoses
from whyd.errors import InternalInvariantError
from whyd.evaluator import Graph
from whyd.model import ground
from whyd.parsing import parse_program

assert sys.flags.optimize >= 1
try:
    assert False
except AssertionError:
    sys.exit("asserts are not stripped")
program = parse_program("q(X) :- e(X, Y), f(Y).")
hypotheses = frozenset({ground("e", "a", "b"), ground("f", "b"), ground("f", "c")})
real_why = abduction._minimal_why
for fake in ([sorted(hypotheses, key=str)], [[ground("e", "a", "b")]]):
    abduction._minimal_why = lambda graph, ext, goal, fake=fake: (
        [graph.atoms.index(a) for a in fake[0]], [(1 << len(fake[0])) - 1]
    )
    solve_diagnoses.cache_clear()
    try:
        AbductionProblem(program, frozenset(), hypotheses, (ground("q", "a"),))
    except InternalInvariantError as exc:
        print(exc.code)
    else:
        sys.exit("no InternalInvariantError")
abduction._minimal_why = real_why
# p :- x, y.  p :- q.  q :- x.  with p <- q dropped from, or a bogus
# p <- y added to, the graph the solve's fixpoint records
shortcut = parse_program("p :- x, y.\\np :- q.\\nq :- x.\\n")
real_fixpoint = abduction.evaluate_fixpoint
for tamper in (lambda p, q, y: [b for b in p if b != (q,)], lambda p, q, y: [*p, (y,)]):
    def tampered(program, facts, demand=None, tamper=tamper):
        model = real_fixpoint(program, facts, demand)
        graph = model.graph
        p, q, y = (model.id_of(ground(name)) for name in "pqy")
        rows = list(graph.rows)
        rows[p] = tamper(rows[p], q, y)
        model.graph = Graph(graph.atoms, graph.seeds, rows)
        return model

    abduction.evaluate_fixpoint = tampered
    solve_diagnoses.cache_clear()
    try:
        AbductionProblem(shortcut, frozenset(), frozenset({ground("x"), ground("y")}), (ground("p"),))
    except InternalInvariantError as exc:
        print(exc.code)
    else:
        sys.exit("no InternalInvariantError")
"""


def test_invariant_check_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["InternalInvariant"] * 4


# -- fixpoint counts and closed forms on transitive closure ---------------------

_TC = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n")


def _counted_reports(monkeypatch, facts: list[str], target: str):
    """cause_reports with every evaluate_fixpoint call of the abduction
    layer counted, and the per-solve bound 1 + sum(|delta| + 1): one full
    model, then one check of each diagnosis and of each one-smaller set."""
    calls = []
    real = abduction.evaluate_fixpoint

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(abduction, "evaluate_fixpoint", counted)
    instance = parse_instance("".join(f + ".\n" for f in facts))
    reports = cause_reports(instance, _TC, parse_ground_atom(target))
    fixpoints = len(calls)
    solutions = solve_diagnoses(_tc_problem(facts, target))
    return reports, fixpoints, 1 + sum(len(delta) + 1 for delta in solutions)


def test_chain_fixpoint_count_and_closed_form(monkeypatch):
    n = 16
    edges = [f"e(gc{i}, gc{i + 1})" for i in range(n)]
    reports, fixpoints, bound = _counted_reports(monkeypatch, edges, f"ans(gc0, gc{n})")
    assert bound == 18 and fixpoints <= bound  # 2^16 + 1 = 65537 before the provenance pass
    assert sorted(str(r.cause) for r in reports) == sorted(edges)
    for report in reports:
        assert report.responsibility == 1 and report.minimal_contingency_sets == (frozenset(),)


def test_ladder_fixpoint_count_and_closed_form(monkeypatch):
    k = 8
    rungs = [(f"e(gl, gl{j})", f"e(gl{j}, glt)") for j in range(k)]
    edges = [e for rung in rungs for e in rung]
    reports, fixpoints, bound = _counted_reports(monkeypatch, edges, "ans(gl, glt)")
    assert bound == 25 and fixpoints <= bound
    assert sorted(str(r.cause) for r in reports) == sorted(edges)
    for report in reports:
        assert report.responsibility == Fraction(1, k)
        family = report.minimal_contingency_sets
        assert len(family) == 2 ** (k - 1)
        own = next(rung for rung in rungs if str(report.cause) in rung)
        for gamma in family:
            picked = sorted(str(a) for a in gamma)
            # one edge from every other rung, none from the cause's own
            assert len(picked) == k - 1
            assert all(sum(e in picked for e in rung) == (rung != own) for rung in rungs)


def test_obs_goal_fact_is_not_mistaken_for_the_observation():
    program = parse_program("q(X) :- e(X, Y), f(Y).")
    support = frozenset({ground("e", "a", "b"), ground("f", "b")})
    as_hypothesis = AbductionProblem(program, frozenset(), support | {ground("obs_goal")}, (ground("q", "a"),))
    assert solve_diagnoses(as_hypothesis) == (support,)
    as_background = AbductionProblem(program, frozenset({ground("obs_goal")}), support, (ground("q", "a"),))
    assert solve_diagnoses(as_background) == (support,)


# -- the check propagates its worlds over a ground program -----------------------


def _count_loop_work(monkeypatch) -> Counter:
    """Counts from now on the entries into the evaluator's semi-naive
    loop ("passes") and the facts the join kernels read through
    ``Relation`` (``count_facts_read``) inside that loop ("inside") and
    outside it ("outside")."""
    counts: Counter = Counter()
    real_loop = evaluator._semi_naive

    def loop(*args):
        counts["passes"] += 1
        counts["depth"] += 1
        try:
            return real_loop(*args)
        finally:
            counts["depth"] -= 1

    def read(n):
        counts["inside" if counts["depth"] else "outside"] += n

    monkeypatch.setattr(evaluator, "_semi_naive", loop)
    count_facts_read(monkeypatch, read)
    return counts


def _tc_problem(facts: list[str], target: str) -> AbductionProblem:
    """The causal abduction problem of ``target`` on the transitive
    closure over the facts: the program itself, observing the target."""
    instance = parse_instance("".join(f + ".\n" for f in facts))
    return AbductionProblem(_TC, instance.exogenous, instance.endogenous, (parse_ground_atom(target),))


def _fresh_solve(facts: list[str], target: str):
    """The diagnoses of a solve on the transitive closure that no cache
    answers: the one that constructing the problem runs."""
    solve_diagnoses.cache_clear()
    return solve_diagnoses(_tc_problem(facts, target))


_CHAIN = [f"e(wc{i}, wc{i + 1})" for i in range(16)]
_LADDER = [e for j in range(8) for e in (f"e(wl, wl{j})", f"e(wl{j}, wlt)")]


def test_chain_and_ladder_solves_take_one_pass(monkeypatch):
    # the full model is the one semi-naive pass; the check propagates
    # over a ground program and needs no pass of its own
    counts = _count_loop_work(monkeypatch)
    solutions = _fresh_solve(_CHAIN, "ans(wc0, wc16)")
    assert len(solutions) == 1 and len(solutions[0]) == 16 and counts["passes"] == 1
    counts.clear()
    solutions = _fresh_solve(_LADDER, "ans(wl, wlt)")
    assert len(solutions) == 8 and counts["passes"] == 1


def test_solves_and_view_supports_join_only_inside_the_fixpoint_loop(monkeypatch):
    # the provenance pass reads the derivation graph the full model's
    # fixpoint recorded; outside the loop only the check joins, once per
    # rule over the worlds' facts and the recorded heads
    # (``evaluator.ground``), never reading more facts than the loop's
    # own joins: 408 and 408 on chain-16, 58 and 58 on ladder-8.  The
    # residual views of view-conditioned causes are propagated over the
    # graph of a second fixpoint, with no join of their own.
    counts = _count_loop_work(monkeypatch)
    for facts, target in ((_CHAIN, "ans(wc0, wc16)"), (_LADDER, "ans(wl, wlt)")):
        counts.clear()
        _fresh_solve(facts, target)
        assert 0 < counts["outside"] <= counts["inside"], (target, counts)
    program, instance = load_program("access.dl"), load_instance("access.facts")
    solve_diagnoses.cache_clear()
    CauseAnalysis.for_query.cache_clear()
    counts.clear()
    assert len(vc_causes(instance, program, atom("access(joe, f1)"))) == 1
    assert counts["passes"] == 2 and 0 < counts["outside"] <= counts["inside"], counts


def _count_atom_hashes(monkeypatch) -> Counter:
    """Counts from now on the calls to ``GroundAtom.__hash__`` in the
    provenance pass ("why"), in the check outside its ``ground`` round
    ("check"), in that round ("ground") and in decoding the family into
    sets of atoms ("decode")."""
    counts: Counter = Counter()
    phase: list[str] = []

    def hashed(atom):
        if phase:
            counts[phase[-1]] += 1
        return atom._hash

    def in_phase(name, real):
        def run(*args):
            phase.append(name)
            try:
                return real(*args)
            finally:
                phase.pop()

        return run

    monkeypatch.setattr(GroundAtom, "__hash__", hashed)
    for name, attr in (("why", "_minimal_why"), ("check", "_check"), ("ground", "ground"), ("decode", "_family")):
        monkeypatch.setattr(abduction, attr, in_phase(name, getattr(abduction, attr)))
    return counts


@pytest.mark.parametrize("case", ["ladder-8", "phca-6"])
def test_provenance_and_check_hash_no_atom_per_firing(monkeypatch, case):
    # the provenance pass and the check read the numbered graph: the pass
    # may look up each goal atom once, and not an atom per body atom of a
    # firing; the check seeds its join round in the graph's own order and
    # starts each world's facts by id, and that round numbers atoms by
    # their keys, so neither hashes an atom
    if case == "ladder-8":
        problem = _tc_problem(_LADDER, "ans(wl, wlt)")
    else:
        problem = encode_phca(corpus.random_phca(6))
    part, _ = evaluator.reached(*problem_graph(problem))
    body_atoms = sum(len(body) for _, bodies in part for body in bodies)
    solve_diagnoses.cache_clear()
    counts = _count_atom_hashes(monkeypatch)
    family = solve_diagnoses(problem)
    monkeypatch.undo()
    assert len(family) > 1 and max(map(len, family)) > 1, family
    # the counter is live: the family's sets are frozensets of atoms
    assert counts["decode"] >= sum(map(len, family)), counts
    assert counts["ground"] == 0, counts
    assert counts["why"] <= len(problem.observation), counts
    assert counts["check"] == 0, counts
    assert counts["why"] < body_atoms, (counts, body_atoms)


def _capture_check_seeds(monkeypatch) -> tuple[list, list]:
    """From now on, record the graph each solve's fixpoint records and
    the facts its check seeds ``ground`` with, as a list."""
    graphs: list = []
    seeded: list = []
    real_fixpoint, real_ground = abduction.evaluate_fixpoint, abduction.ground

    def fixpoint(program, facts, demand=None):
        model = real_fixpoint(program, facts, demand)
        graphs.append(model.graph)
        return model

    def ground_seeded(program, facts, demand):
        seeded.append(list(facts))
        return real_ground(program, seeded[-1], demand)

    monkeypatch.setattr(abduction, "evaluate_fixpoint", fixpoint)
    monkeypatch.setattr(abduction, "ground", ground_seeded)
    return graphs, seeded


# ``a <- b c.  b <- c.`` observing a, with hypotheses b, c and d: the one
# diagnosis is {c}; t(b) is a head in no world and t(d) has no firing
_PHCA_WITH_A_STRAY = "a <- b c\nb <- c\n#hyp\nb c d\n#obs\na\n"


@pytest.mark.parametrize("case", ["ladder-8", "phca-stray"])
def test_the_check_seeds_its_round_in_the_graphs_own_order(monkeypatch, case):
    # the check's seeds are the extensional facts, the worlds' facts and
    # the recorded heads, in the graph's order: on ladder-8 every atom of
    # the graph, in order; on the PHCA encoding all but the hypothesis in
    # no world with no firing, t(d), while the head t(b) stays a seed
    if case == "ladder-8":
        problem = _tc_problem(_LADDER, "ans(wl, wlt)")
    else:
        problem = encode_phca(parse_phca(_PHCA_WITH_A_STRAY))
    graphs, seeded = _capture_check_seeds(monkeypatch)
    solve_diagnoses.cache_clear()
    family = solve_diagnoses(problem)
    monkeypatch.undo()
    [graph] = graphs
    if case == "ladder-8":
        assert seeded == [graph.atoms], seeded
        return
    assert family == (frozenset({ground("t", "c")}),)
    fixed = len(problem.extensional)
    kept = [a for i, a in enumerate(graph.atoms) if i < fixed or graph.rows[i] or a == ground("t", "c")]
    assert seeded == [kept], seeded
    assert ground("t", "b") in kept and ground("t", "d") not in kept and ground("t", "d") in graph.atoms


def test_hypotheses_in_no_world_keep_the_family_the_oracle_gives(monkeypatch):
    # sw_h(1) is a hypothesis in no diagnosis that the graph records as
    # a head (sw_h(1) <- sw_b(1)), and the sw_z atoms are hypotheses in no
    # diagnosis with no firing: the check leaves only them out of its
    # seeds, maps the other ids past them, and passes the true family
    program = parse_program("sw_p(X) :- sw_a(X), sw_c(X).\nsw_p(X) :- sw_d(X).\nsw_h(X) :- sw_b(X).\n")
    extensional = frozenset({ground("sw_b", "1")})
    strays = {ground("sw_z", str(i)) for i in range(4)}
    hypotheses = frozenset({ground(f"sw_{p}", "1") for p in "acdh"} | strays)
    observation = (ground("sw_p", "1"),)
    graphs, seeded = _capture_check_seeds(monkeypatch)
    solve_diagnoses.cache_clear()
    problem = AbductionProblem(program, extensional, hypotheses, observation)
    monkeypatch.undo()
    assert _family(solve_diagnoses(problem)) == _family(oracle.diagnoses(program, extensional, hypotheses, observation))
    [graph], [seeds] = graphs, seeded
    assert graph.rows[graph.atoms.index(ground("sw_h", "1"))]
    assert set(graph.atoms) - set(seeds) == strays


def test_acyclic_provenance_forms_one_product_per_reached_firing(monkeypatch):
    # on an acyclic reached graph one sweep annotates each head once, from
    # the final antichains of its distinct bodies
    products = []
    real = abduction._product
    monkeypatch.setattr(abduction, "_product", lambda families: products.append(families) or real(families))
    for facts, target, count in ((_CHAIN, "ans(wc0, wc16)", 1), (_LADDER, "ans(wl, wlt)", 8)):
        problem = _tc_problem(facts, target)
        graph, cyclic = evaluator.reached(*problem_graph(problem))
        assert not cyclic
        products.clear()
        solve_diagnoses.cache_clear()
        assert len(solve_diagnoses(problem)) == count
        assert len(products) == sum(len(set(bodies)) for _, bodies in graph), target


def test_necessity_degrees_of_a_ladder_take_one_search(monkeypatch):
    searches = []
    real = abduction.minimal_hitting_sets
    monkeypatch.setattr(abduction, "minimal_hitting_sets", lambda family: searches.append(family) or real(family))
    # the same ladder-8 request through two equal instances labelled
    # otherwise: the degrees and the minimal deletions of both come from
    # the one search on the one cached problem
    first = parse_instance("".join(f"a{i}: {e}.\n" for i, e in enumerate(_LADDER)))
    second = parse_instance("".join(f"b{i}: {e}.\n" for i, e in enumerate(reversed(_LADDER))))
    assert first == second
    target = parse_ground_atom("ans(wl, wlt)")
    CauseAnalysis.for_query.cache_clear()
    deletions = []
    for instance, prefix in ((first, "a"), (second, "b")):
        problem = CauseAnalysis.for_query(instance, _TC, target).problem
        degrees = {h: necessity_degree(problem, h) for h in instance.endogenous}
        assert len(degrees) == 16 and set(degrees.values()) == {Fraction(1, 8)}
        solutions = minimal_source_solutions(instance, _TC, target)
        assert len(solutions) == 2**8
        assert all(instance.label_of(a).startswith(prefix) for s in solutions for a in s.removed)
        deletions.append(solutions)
    assert deletions[0] == deletions[1] and len(searches) == 1


def test_one_necessity_degree_equals_the_degrees_of_the_necessary_sets():
    # a degree read off the masks is the one every necessary set gives,
    # also for a hypothesis in no diagnosis: ladder-k's back edge, which
    # the derivations reach, and its stray edge, which they do not
    problems = []
    for seed in range(60):
        case = corpus.generate_case(seed, max_endogenous=6)
        boolean, goal = specialize_to_answer(case.program, case.answer)
        problems.append(AbductionProblem(boolean, case.instance.exogenous, case.instance.endogenous, (goal,)))
    for k in (1, 2, 5, 8):
        ladder = [e for j in range(k) for e in (f"e(wl, wl{j})", f"e(wl{j}, wlt)")]
        problems.append(_tc_problem([*ladder, "e(wlt, wl)", "e(wx, wy)"], "ans(wl, wlt)"))
    for problem in problems:
        degrees = necessity_degrees(problem.hypotheses, necessary_hypothesis_sets(problem))
        assert {h: necessity_degree(problem, h) for h in problem.hypotheses} == degrees, problem
    assert any(0 < d < 1 for d in degrees.values()) and Fraction(0) in degrees.values()


def _wide_problem(tag: str, width: int) -> AbductionProblem:
    """``width`` two-atom diagnoses: 3 * width candidate sets to check."""
    program = parse_program(f"{tag}(X) :- {tag}_e(X, Y), {tag}_f(Y).")
    hypotheses = set()
    for i in range(width):
        hypotheses |= {ground(f"{tag}_e", "a", f"y{i}"), ground(f"{tag}_f", f"y{i}")}
    return AbductionProblem(program, frozenset(), frozenset(hypotheses), (ground(tag, "a"),))


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda tag, last: last | {ground(f"{tag}_e", "a", "y0")}, "not minimal"),
        (lambda tag, last: frozenset({ground(f"{tag}_e", "a", "y29"), ground(f"{tag}_f", "y28")}), "does not entail"),
    ],
)
def test_invariant_check_reads_worlds_past_the_64th(monkeypatch, bad, message):
    # the bad set comes last in the family, so its worlds are numbered
    # from 87 on: the check must read bits beyond one machine word
    tag = "wide_" + message.split()[-1]
    problem = _wide_problem(tag, 30)
    true_family = list(solve_diagnoses(problem))
    assert len(true_family) == 30
    family = true_family[:-1] + [bad(tag, true_family[-1])]
    monkeypatch.setattr(abduction, "_minimal_why", _fake_why(family))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match=message) as err:
        solve_diagnoses(problem)
    assert str(err.value).startswith(f"diagnosis {abduction._render(family[-1])} ")


# -- conjunctive observations --------------------------------------------------


def _conjunction_problem():
    """``cq(X) :- ce(X, Y), cf(Y).`` with ce(a, y1), ce(b, y1), ce(b, y2)
    and cf(y1), cf(y2) as hypotheses and cg(a) as an extensional fact:
    cq(a) and cq(b) share the hypothesis cf(y1)."""
    program = parse_program("cq(X) :- ce(X, Y), cf(Y).")
    hypotheses = frozenset(
        [ground("ce", "a", "y1"), ground("ce", "b", "y1"), ground("ce", "b", "y2")]
        + [ground("cf", "y1"), ground("cf", "y2")]
    )
    return program, frozenset({ground("cg", "a")}), hypotheses


@pytest.mark.parametrize(
    "observation",
    [
        ("cq(a)", "cq(b)"),  # shared hypotheses across atoms
        ("cq(a)", "cg(a)"),  # an extensional fact
        ("cq(b)", "cf(y2)"),  # a hypothesis
        ("cq(b)", "cq(b)"),  # a repeated atom
        ("cg(a)", "cg(a)"),  # entailed by the background alone
        ("cf(y1)", "ce(b, y2)", "cq(a)"),
    ],
)
def test_conjunctive_observations_match_oracle(observation):
    program, extensional, hypotheses = _conjunction_problem()
    atoms = tuple(atom(text) for text in observation)
    problem = AbductionProblem(program, extensional, hypotheses, atoms)
    assert set(solve_diagnoses(problem)) == set(oracle.diagnoses(program, extensional, hypotheses, atoms))
    brute = oracle.necessary_sets(program, extensional, hypotheses, atoms)
    assert set(necessary_hypothesis_sets(problem)) == set(brute)


@pytest.mark.parametrize("unknown", ["nowhere(a)", "cq(c)", "cf(y3)"])
def test_conjunction_with_an_unentailable_atom_is_rejected(unknown):
    # nowhere is a predicate neither the program nor the facts know
    program, extensional, hypotheses = _conjunction_problem()
    with pytest.raises(ObservationNotEntailableError):
        AbductionProblem(program, extensional, hypotheses, (atom("cq(a)"), atom(unknown)))


def test_random_conjunctive_observations_match_oracle():
    # observations of two to four atoms of the full model, any predicate,
    # drawn with repetition
    kinds: Counter = Counter()
    for seed in range(80):
        case = corpus.generate_case(seed, max_endogenous=5)
        rng = random.Random(seed)
        exo, endo = case.instance.exogenous, case.instance.endogenous
        model = sorted(oracle.naive_fixpoint(case.program, exo | endo), key=GroundAtom.sort_key)
        observation = tuple(rng.choice(model) for _ in range(rng.randint(2, 4)))
        problem = AbductionProblem(case.program, exo, endo, observation)
        assert set(solve_diagnoses(problem)) == set(oracle.diagnoses(case.program, exo, endo, observation)), case
        assert set(necessary_hypothesis_sets(problem)) == set(
            oracle.necessary_sets(case.program, exo, endo, observation)
        ), case
        kinds["extensional"] += any(a in exo for a in observation)
        kinds["hypothesis"] += any(a in endo for a in observation)
        kinds["repeated"] += len(set(observation)) < len(observation)
        relevant = [frozenset().union(*oracle.diagnoses(case.program, exo, endo, (a,))) for a in set(observation)]
        kinds["shared"] += any(r & q for i, r in enumerate(relevant) for q in relevant[i + 1 :])
    assert all(kinds[k] >= 5 for k in ("extensional", "hypothesis", "repeated", "shared")), kinds


def test_a_conjunctive_observation_builds_no_rule(monkeypatch):
    # the fixpoint runs the caller's program; the observation atoms are
    # the goals, with no rule deriving their conjunction
    program = parse_program("nr_q(X) :- nr_e(X, Y), nr_f(Y).\nnr_r(X) :- nr_q(X), nr_f(X).")
    hypotheses = frozenset(
        [ground("nr_e", "a", "b"), ground("nr_e", "b", "b"), ground("nr_e", "a", "c")]
        + [ground("nr_f", "b"), ground("nr_f", "c")]
    )
    observation = (ground("nr_q", "a"), ground("nr_r", "b"), ground("nr_f", "b"))
    rules, programs = [], []
    real_rule, real_program = Rule.__init__, Program.__init__
    monkeypatch.setattr(Rule, "__init__", lambda self, *args, **kw: rules.append(args) or real_rule(self, *args, **kw))
    monkeypatch.setattr(Program, "__init__", lambda self, *args: programs.append(args) or real_program(self, *args))
    problem = AbductionProblem(program, frozenset(), hypotheses, observation)
    solve_diagnoses.cache_clear()
    assert _family(solve_diagnoses(problem)) == {
        frozenset({"nr_e(a, b)", "nr_e(b, b)", "nr_f(b)"}),
        frozenset({"nr_e(a, c)", "nr_f(c)", "nr_e(b, b)", "nr_f(b)"}),
    }
    assert _family(necessary_hypothesis_sets(problem)) == {
        frozenset({"nr_e(b, b)"}),
        frozenset({"nr_f(b)"}),
        frozenset({"nr_e(a, b)", "nr_e(a, c)"}),
        frozenset({"nr_e(a, b)", "nr_f(c)"}),
    }
    assert relevant_hypotheses(problem) == hypotheses
    assert rules == [] and programs == []
