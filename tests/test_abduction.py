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
    relevant_hypotheses,
    solve_diagnoses,
    support_families,
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
from whyd.evaluator import specialize_to_answer
from whyd.model import GroundAtom, Instance, Program, ground
from whyd.parsing import parse_ground_atom, parse_instance, parse_program

import corpus
import oracle
from conftest import atom, load_document, load_instance, load_program


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
    from whyd.evaluator import specialize_to_answer

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
        from whyd.evaluator import specialize_to_answer

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
        from whyd.evaluator import specialize_to_answer

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


def _corpus_shape(program: Program) -> str:
    heads = {r.head.predicate for r in program.rules}
    if "path" in heads:
        return "recursive"
    if "mid" in heads:
        return "mid-level"
    return "union" if len(program.rules) > 1 else "cq"


def test_support_families_match_per_answer_oracle():
    # one pass over every answer of the view gives each answer the
    # diagnoses of its own abduction problem, with the caller's labels
    checked = {"cq": 0, "union": 0, "mid-level": 0, "recursive": 0}
    for seed in range(120):
        case = corpus.generate_case(seed, max_endogenous=6)
        exo, endo = case.instance.exogenous, case.instance.endogenous
        view = {a for a in oracle.naive_fixpoint(case.program, case.instance.atoms) if a.predicate == "ans"}
        expected = {a: set(oracle.diagnoses(case.program, exo, endo, (a,))) for a in view}
        families = abduction.support_families(case.program, exo, endo)
        assert {a: set(family) for a, family in families.items()} == expected, case
        labelled = frozenset(a.with_label(f"t{i}") for i, a in enumerate(sorted(endo, key=GroundAtom.sort_key)))
        labels = {a: a.label for a in labelled}
        relabelled = abduction.support_families(case.program, exo, labelled)
        assert relabelled == families, case
        assert all(a.label == labels[a] for family in relabelled.values() for delta in family for a in delta)
        checked[_corpus_shape(case.program)] += 1
    assert all(count >= 10 for count in checked.values()), checked


def test_support_families_keep_answers_held_as_facts():
    # ans(c) is a stored fact that no rule derives: fixed, it needs
    # nothing; deletable, it supports itself
    program = parse_program("ans(X) :- e(X, Y).")
    e, a, c = ground("e", "a", "b"), ground("ans", "a"), ground("ans", "c")
    assert abduction.support_families(program, frozenset({c}), frozenset({e})) == {
        a: (frozenset({e}),),
        c: (frozenset(),),
    }
    assert abduction.support_families(program, frozenset(), frozenset({e, c})) == {
        a: (frozenset({e}),),
        c: (frozenset({c}),),
    }
    assert abduction.support_families(program, frozenset({e, c}), frozenset()) == {
        a: (frozenset(),),
        c: (frozenset(),),
    }


def _labelled(instance: Instance, prefix: str = "t") -> Instance:
    ordered = sorted(instance.atoms, key=GroundAtom.sort_key)
    return Instance([a.with_label(f"{prefix}{i}") for i, a in enumerate(ordered, 1)])


def test_diagnoses_keep_hypothesis_labels():
    program, plain = load_program("aj.dl"), load_instance("aj.facts")
    instance = _labelled(plain)
    boolean, _ = specialize_to_answer(program, atom("ans(john, xml)"))
    problem = to_causal_abduction(instance, boolean)
    labels = {a: a.label for a in instance.atoms}
    solutions = solve_diagnoses(problem)
    assert solutions
    for delta in solutions:
        assert delta and all(a.label is not None and a.label == labels[a] for a in delta)
    graph, graph_instance = load_program("graph.dl"), load_instance("graph.facts")
    for report in cause_reports(graph_instance, graph, atom("ans(c, e)")):
        assert report.cause.label == graph_instance.by_label(report.cause.label).label
        for gamma in report.minimal_contingency_sets:
            assert all(a.label is not None for a in gamma)


def test_equal_requests_with_other_labels_get_their_own_labels_back():
    # the caches compare problems and instances without labels: each
    # request must still get its own labelled tuples, and an identical
    # request must still be a cache hit
    program, plain = load_program("aj.dl"), load_instance("aj.facts")
    boolean, _ = specialize_to_answer(program, atom("ans(john, xml)"))
    target = atom("ans(john, xml)")
    first, second = _labelled(plain, "first"), _labelled(plain, "second")
    for instance in (plain, first, second, plain):
        labels = {a: a.label for a in instance.atoms}
        for delta in solve_diagnoses(to_causal_abduction(instance, boolean)):
            assert delta and all(a.label == labels[a] for a in delta)
        for report in cause_reports(instance, program, target):
            assert report.cause.label == labels[report.cause]
            for gamma in report.minimal_contingency_sets:
                assert all(a.label == labels[a] for a in gamma)
        assert all(a.label == labels[a] for a in causes(instance, program, target))
    analyses, diagnoses = CauseAnalysis.for_query.cache_info(), solve_diagnoses.cache_info()
    for instance in (first, second, _labelled(plain, "first")):
        problem = CauseAnalysis.for_query(instance, program, target).problem
        assert problem.hypotheses is instance.endogenous
        solve_diagnoses(problem)
    assert CauseAnalysis.for_query.cache_info().hits == analyses.hits + 3
    assert solve_diagnoses.cache_info().hits == diagnoses.hits + 3
    assert CauseAnalysis.for_query.cache_info().misses == analyses.misses
    assert solve_diagnoses.cache_info().misses == diagnoses.misses


# -- the check solve_diagnoses runs on its own result ---------------------------


def _fresh_problem(tag: str) -> AbductionProblem:
    """A problem no other test builds, so the diagnosis cache cannot answer
    for it; its one diagnosis is {tag_e(a, b), tag_f(b)}."""
    program = parse_program(f"{tag}(X) :- {tag}_e(X, Y), {tag}_f(Y).")
    hypotheses = frozenset({ground(f"{tag}_e", "a", "b"), ground(f"{tag}_f", "b"), ground(f"{tag}_f", "c")})
    return AbductionProblem(program, frozenset(), hypotheses, (ground(tag, "a"),))


def _fake_why(family):
    """A provenance pass that gives every goal ``family``."""
    return lambda firings, extensional, hypotheses, goals: {goal: list(family) for goal in goals}


def test_invariant_check_rejects_non_minimal_family(monkeypatch):
    problem = _fresh_problem("nonmin")
    padded = [frozenset(problem.hypotheses)]
    monkeypatch.setattr(abduction, "_minimal_why", _fake_why(padded))
    with pytest.raises(InternalInvariantError, match="not minimal") as err:
        solve_diagnoses(problem)
    assert err.value.code == "InternalInvariant"


def test_invariant_check_rejects_non_entailing_family(monkeypatch):
    problem = _fresh_problem("nonent")
    short = [frozenset({ground("nonent_e", "a", "b")})]
    monkeypatch.setattr(abduction, "_minimal_why", _fake_why(short))
    with pytest.raises(InternalInvariantError, match="does not entail"):
        solve_diagnoses(problem)


def _shortcut_problem(tag: str) -> AbductionProblem:
    """``p :- x, y.  p :- q.  q :- x.`` with hypotheses x and y and
    observation p, under predicate names no other test uses: its one
    diagnosis is {x}, through q."""
    program = parse_program(f"{tag}_p :- {tag}_x, {tag}_y.\n{tag}_p :- {tag}_q.\n{tag}_q :- {tag}_x.\n")
    hypotheses = frozenset({ground(f"{tag}_x"), ground(f"{tag}_y")})
    return AbductionProblem(program, frozenset(), hypotheses, (ground(f"{tag}_p"),))


def test_invariant_check_rederives_a_dropped_firing():
    # without p <- q in the recorded graph the provenance pass finds
    # {x, y}; the check joins the rules again, finds p <- q, and sees
    # that {x} alone entails p
    problem = _shortcut_problem("dropped")
    p, q = ground("dropped_p"), ground("dropped_q")
    assert solve_diagnoses(problem) == (frozenset({ground("dropped_x")}),)
    problem.firings[p].remove((q,))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not minimal: dropped_y is redundant"):
        solve_diagnoses(problem)


def test_invariant_check_rejects_a_bogus_firing():
    # a recorded p <- y gives the diagnosis {y}, which entails nothing
    problem = _shortcut_problem("bogus")
    problem.firings[ground("bogus_p")].append((ground("bogus_y"),))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="does not entail"):
        solve_diagnoses(problem)


def test_invariant_check_rejects_a_model_that_is_not_closed():
    # a recorded graph without q's firing leaves q out of the atoms the
    # check grounds again, and q <- x derives it
    problem = _shortcut_problem("open")
    del problem.firings[ground("open_q")]
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not closed: it misses open_q"):
        solve_diagnoses(problem)


def test_invariant_check_passes_the_true_family():
    problem = _fresh_problem("truefam")
    assert _family(solve_diagnoses(problem)) == {frozenset({"truefam_e(a, b)", "truefam_f(b)"})}


_OPTIMIZED_CHECK = """
import sys
from whyd import abduction, evaluator
from whyd.abduction import AbductionProblem, solve_diagnoses
from whyd.errors import InternalInvariantError
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
for fake in ([frozenset(hypotheses)], [frozenset({ground("e", "a", "b")})]):
    problem = AbductionProblem(program, frozenset(), hypotheses, (ground("q", "a"),))
    solve_diagnoses.cache_clear()
    abduction._minimal_why = lambda firings, ext, hyps, goals, fake=fake: {g: fake for g in goals}
    try:
        solve_diagnoses(problem)
    except InternalInvariantError as exc:
        print(exc.code)
    else:
        sys.exit("no InternalInvariantError")
abduction._minimal_why = real_why
# p :- x, y.  p :- q.  q :- x.  with p <- q dropped from, or a bogus
# p <- y added to, the recorded graph
shortcut = parse_program("p :- x, y.\\np :- q.\\nq :- x.\\n")
for tamper in (lambda f: f[ground("p")].remove((ground("q"),)), lambda f: f[ground("p")].append((ground("y"),))):
    problem = AbductionProblem(shortcut, frozenset(), frozenset({ground("x"), ground("y")}), (ground("p"),))
    tamper(problem.firings)
    solve_diagnoses.cache_clear()
    try:
        solve_diagnoses(problem)
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
    boolean, goal = specialize_to_answer(_TC, parse_ground_atom(target))
    solutions = solve_diagnoses(AbductionProblem(boolean, instance.exogenous, instance.endogenous, (goal,)))
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
    loop ("passes") and the ``_match`` calls, the one place a binding is
    extended, made inside that loop ("inside") and outside it
    ("outside")."""
    counts: Counter = Counter()
    real_loop, real_match = evaluator._semi_naive, evaluator._match

    def loop(*args):
        counts["passes"] += 1
        counts["depth"] += 1
        try:
            return real_loop(*args)
        finally:
            counts["depth"] -= 1

    def match(*args):
        counts["inside" if counts["depth"] else "outside"] += 1
        return real_match(*args)

    monkeypatch.setattr(evaluator, "_semi_naive", loop)
    monkeypatch.setattr(evaluator, "_match", match)
    return counts


def _tc_problem(facts: list[str], target: str) -> AbductionProblem:
    """The causal abduction problem of ``target`` on the transitive
    closure over the facts."""
    instance = parse_instance("".join(f + ".\n" for f in facts))
    boolean, goal = specialize_to_answer(_TC, parse_ground_atom(target))
    return AbductionProblem(boolean, instance.exogenous, instance.endogenous, (goal,))


def _fresh_solve(facts: list[str], target: str):
    """The diagnoses of a solve on the transitive closure that no cache
    answers."""
    problem = _tc_problem(facts, target)
    solve_diagnoses.cache_clear()
    return solve_diagnoses(problem)


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
    # (``evaluator.ground``), never more than the loop's own work: 545 and
    # 545 on chain-16, 76 and 76 on ladder-8
    counts = _count_loop_work(monkeypatch)
    for facts, target in ((_CHAIN, "ans(wc0, wc16)"), (_LADDER, "ans(wl, wlt)")):
        counts.clear()
        _fresh_solve(facts, target)
        assert 0 < counts["outside"] <= counts["inside"], (target, counts)
    counts.clear()
    program, instance = load_program("access.dl"), load_instance("access.facts")
    assert len(support_families(program, instance.exogenous, instance.endogenous)) == 7
    assert 0 < counts["outside"] <= counts["inside"], counts


def test_acyclic_provenance_forms_one_product_per_reached_firing(monkeypatch):
    # on an acyclic reached graph one sweep annotates each head once, from
    # the final antichains of its distinct bodies
    products = []
    real = abduction._product
    monkeypatch.setattr(abduction, "_product", lambda families: products.append(families) or real(families))
    for facts, target, count in ((_CHAIN, "ans(wc0, wc16)", 1), (_LADDER, "ans(wl, wlt)", 8)):
        problem = _tc_problem(facts, target)
        graph = evaluator.reached(problem.firings, (problem._goal,))
        assert not evaluator.reads_ahead(graph)
        products.clear()
        solve_diagnoses.cache_clear()
        assert len(solve_diagnoses(problem)) == count
        assert len(products) == sum(len(set(bodies)) for bodies in graph.values()), target


def test_necessity_degrees_of_a_ladder_take_one_search(monkeypatch):
    searches = []
    real = abduction.minimal_hitting_sets
    monkeypatch.setattr(abduction, "minimal_hitting_sets", lambda family: searches.append(family) or real(family))
    problem = _tc_problem(_LADDER, "ans(wl, wlt)")
    degrees = {h: necessity_degree(problem, h) for h in problem.hypotheses}
    assert len(degrees) == 16 and set(degrees.values()) == {Fraction(1, 8)} and len(searches) == 1
    # a relabelled twin keeps no family with the other labels
    twin = problem.relabelled(frozenset(h.with_label(f"t{i}") for i, h in enumerate(problem.hypotheses)))
    assert {necessity_degree(twin, h) for h in twin.hypotheses} == {Fraction(1, 8)} and len(searches) == 2
    assert all(h.label is not None for n in necessary_hypothesis_sets(twin) for h in n)
    assert all(h.label is None for n in necessary_hypothesis_sets(problem) for h in n)


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
