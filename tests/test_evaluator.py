import functools
import gc
import json
import os
import random
import subprocess
import sys
import types
from collections import Counter
from functools import lru_cache

import pytest

from whyd import evaluator
from whyd import model as model_module
from whyd.abduction import AbductionProblem, relevant_hypotheses, solve_diagnoses
from whyd.causality import cause_reports
from whyd.constraints import satisfies
from whyd.errors import UnknownPredicateError
from whyd.evaluator import (
    Relation,
    _matches,
    _plan,
    answers,
    evaluate_fixpoint,
    holds,
    propagate,
)
from whyd.model import Atom, Comparison, Constant, GroundAtom, Instance, Program, Rule, Variable, ground
from whyd.parsing import parse_constraints, parse_instance, parse_program
from whyd.phca import encode_phca

import corpus
import oracle
from oracle import naive_fixpoint
from conftest import (
    atom,
    count_facts_read,
    firing_pairs,
    load_document,
    load_instance,
    load_program,
    run_cli,
    specialize_to_answer,
)


def test_graph_fixpoint_contains_closure():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    model = evaluate_fixpoint(program, instance)
    assert ground("p", "c", "e") in model
    assert ground("ans", "c", "e") in model
    assert ground("p", "e", "b") in model  # e -> d -> b
    assert ground("p", "a", "a") not in model


def test_no_rules_model_is_the_instance():
    instance = load_instance("rs.facts")
    model = evaluate_fixpoint(Program((), "ans"), instance)
    assert model.atoms() == {ground(a.predicate, *(c.symbol for c in a.args)) for a in instance.atoms}


def test_circuit_with_faulty_or_entails_zero_d():
    program = load_program("circuit.dl")
    document = load_document("circuit.facts")
    base = document.instance.exogenous
    assert not holds(program, base, ground("zero", "d"))
    assert holds(program, base | {ground("faulty", "or")}, ground("zero", "d"))
    assert not holds(program, base | {ground("faulty", "and")}, ground("zero", "d"))


def test_holds_on_graph_answers():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    assert holds(program, instance, atom("ans(c, e)"))
    assert not holds(program, instance.without({instance.by_label("t2")}), atom("ans(c, e)"))


def test_holds_unknown_predicate():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    with pytest.raises(UnknownPredicateError):
        holds(program, instance, ground("nosuch", "a"))


def test_aj_answers():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    view = answers(program, instance)
    assert len(view) == 6
    assert atom("ans(john, xml)") in view
    assert atom("ans(joe, cube)") in view


def test_access_answers():
    program, instance = load_program("access.dl"), load_instance("access.facts")
    view = answers(program, instance)
    assert len(view) == 7
    assert atom("access(tom, f3)") in view


def test_boolean_query_answers_singleton_or_empty():
    program, instance = load_program("rs.dl"), load_instance("rs.facts")
    assert answers(program, instance) == {ground("ans")}
    assert answers(program, Instance()) == frozenset()


def test_program_facts_seed_the_model():
    program = parse_program("ans(X) :- p(X).\np(a).")
    assert answers(program, Instance()) == {ground("ans", "a")}


def test_disequality_builtin():
    program = parse_program("ans(X, Y) :- e(X, Z), e(Y, Z), X != Y.")
    instance = Instance([ground("e", "a", "c"), ground("e", "b", "c")])
    assert answers(program, instance) == {ground("ans", "a", "b"), ground("ans", "b", "a")}


def test_equality_builtin():
    program = parse_program("ans(X, Y) :- e(X), f(Y), X = Y.")
    instance = Instance([ground("e", "a"), ground("e", "b"), ground("f", "b")])
    assert answers(program, instance) == {ground("ans", "b", "b")}


@pytest.mark.parametrize(
    "text, expected",
    [
        ("ans :- a = a.", {ground("ans")}),
        ("ans :- a = b.", set()),
        ("ans(X) :- p(X).\np(a) :- a != b.", {ground("ans", "a")}),
        ("ans(X) :- p(X).\np(a) :- b != b.", set()),
    ],
)
def test_rules_without_atoms_fire_once(text, expected):
    program = parse_program(text)
    assert answers(program, Instance()) == expected
    assert evaluate_fixpoint(program, Instance()).atoms() == naive_fixpoint(program, ())


def _random_comparison_program(rng: random.Random) -> Program:
    """Safe rules over e/2, f/1 and the derived p/2, ans/1 with ``=`` and
    ``!=`` at any body position, between variables and constants, plus
    rules whose bodies hold comparisons only."""
    constants = [Constant(c) for c in "abc"]
    schema = [("e", 2), ("f", 1), ("p", 2)]
    rules = []
    for _ in range(rng.randint(2, 4)):
        head_predicate, head_arity = rng.choice([("p", 2), ("ans", 1)])
        atoms = []
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            predicate, arity = rng.choice(schema)
            args = [rng.choice(constants) if rng.random() < 0.15 else Variable(rng.choice("XYZ")) for _ in range(arity)]
            atoms.append(Atom(predicate, tuple(args)))
        bound = sorted({v for a in atoms for v in a.variables()}, key=str)
        terms = bound + constants
        body = list(atoms)
        for _ in range(rng.randint(0 if atoms else 1, 2)):
            comparison = Comparison(rng.choice(("=", "!=")), rng.choice(terms), rng.choice(terms))
            body.insert(rng.randint(0, len(body)), comparison)
        head = Atom(head_predicate, tuple(rng.choice(terms) for _ in range(head_arity)))
        rules.append(Rule(head, tuple(body)))
    return Program(rules, "ans")


def test_seminaive_matches_naive_with_comparisons():
    for seed in range(300):
        rng = random.Random(seed)
        program = _random_comparison_program(rng)
        facts = {ground("e", rng.choice("abc"), rng.choice("abc")) for _ in range(rng.randint(0, 5))}
        facts |= {ground("f", rng.choice("abc")) for _ in range(rng.randint(0, 2))}
        assert evaluate_fixpoint(program, facts).atoms() == naive_fixpoint(program, facts), seed


def _random_conjunction(rng: random.Random):
    """Atoms over e/2, f/1 and g/3 with constants and repeated variables,
    and comparisons between any of their terms and extra constants."""
    constants = [Constant(c) for c in "abc"]
    schema = [("e", 2), ("f", 1), ("g", 3)]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        predicate, arity = rng.choice(schema)
        args = [rng.choice(constants) if rng.random() < 0.2 else Variable(rng.choice("XYZW")) for _ in range(arity)]
        atoms.append(Atom(predicate, tuple(args)))
    terms = sorted({v for a in atoms for v in a.variables()}, key=str) + constants
    comparisons = [
        Comparison(rng.choice(("=", "!=")), rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(0, 2))
    ]
    return atoms, comparisons


def _run_rule_plan(monkeypatch, rule, first, numbered, held, interpreted: bool):
    """The graph one run of the rule's plan with its delta at body atom
    ``first`` records over the numbered facts, the i-th atom reading the
    facts ``held[i]``, by a fresh kernel of its shape that interprets the
    run or compiles it."""
    monkeypatch.setattr(evaluator, "COLD_RUNS", sys.maxsize if interpreted else 0)
    monkeypatch.setattr(evaluator, "COLD_FACTS", sys.maxsize)
    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "_kernel", evaluator._kernel.__wrapped__)  # uncached: a kernel of its own
        plan = _plan(tuple(rule.body_atoms()), tuple(rule.comparisons()), first, rule=rule)
    numbering, _ = evaluator._seed(numbered)
    pass_atoms, rows = numbering.atoms, numbering.rows
    kernel = plan.kernel
    kernel([Relation(pass_atoms, list(h)) for h in held], plan.consts, (), pass_atoms, numbering, rows)
    assert (kernel.compiled is None) is interpreted
    return evaluator.Graph(pass_atoms, len(numbered), rows)


def test_planned_join_matches_brute_force(monkeypatch):
    """A plan's matches against every combination of one fact per atom,
    on the same sources: relations shared by the atoms of one predicate,
    each holding facts of other arities too, with a delta source at each
    position in turn; and the firings of the rule whose body the
    conjunction is, interpreted and compiled."""
    shapes = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        atoms, comparisons = _random_conjunction(rng)
        facts: dict[str, list] = {}
        for predicate, arity in (("e", 2), ("f", 1), ("g", 3)):
            for _ in range(rng.randint(0, 12)):
                width = rng.choice((1, 2, 3)) if rng.random() < 0.2 else arity  # sometimes the wrong arity
                facts.setdefault(predicate, []).append(ground(predicate, *(rng.choice("abc") for _ in range(width))))
        variables = sorted({v for a in atoms for v in a.variables()}, key=str)
        rule = Rule(Atom("h", (*variables, Constant("k"))), (*atoms, *comparisons))
        # the facts numbered as a join pass numbers its seeds
        numbered = list(dict.fromkeys(f for held in facts.values() for f in held))
        ids = {f: i for i, f in enumerate(numbered)}
        for first in (None, *range(len(atoms))):
            held = [{ids[f] for f in facts.get(a.predicate, ())} for a in atoms]
            if first is not None:
                pool = facts.get(atoms[first].predicate, [])
                held[first] = {ids[f] for f in rng.sample(pool, min(len(pool), rng.randint(1, 5)))}
            sources = [Relation(numbered, list(h)) for h in held]
            engine = Counter(_matches(_plan(atoms, comparisons, first), numbered, sources))
            brute = oracle.join_matches(atoms, [[numbered[i] for i in h] for h in held], comparisons)
            assert engine == Counter(facts for _, facts in brute), (seed, first, atoms, comparisons)
            shapes["matched" if brute else "empty"] += 1
            shapes["probed"] += any(s._indexes for s in sources)
            fired = [(GroundAtom("h", (*(b[v] for v in variables), Constant("k"))), body) for b, body in brute]
            # interpreted, then compiled: each agrees with the oracle, and
            # both record the same atoms and rows
            graphs = [
                _run_rule_plan(monkeypatch, rule, first, numbered, held, interpreted) for interpreted in (True, False)
            ]
            for graph in graphs:
                # each head numbered once, past the seeds
                derived = graph.atoms[len(numbered) :]
                assert len(set(derived)) == len(derived) and set(derived) == {head for head, _ in fired}, (seed, first)
                assert Counter(firing_pairs(graph)) == Counter(fired)
            assert graphs[0].atoms == graphs[1].atoms and graphs[0].rows == graphs[1].rows, (seed, first)
            shapes["fired"] += bool(brute)
    assert shapes["matched"] >= 200 and shapes["empty"] >= 200 and shapes["probed"] >= 500, shapes
    assert shapes["fired"] >= 200, shapes


def test_plans_of_one_shape_share_one_kernel():
    program = parse_program("p(X) :- e(X, a), f(X).\nq(Y) :- g(Y, b), h(Y).\n")
    facts = {ground(p, "c", "a") for p in "eg"} | {ground(p, "d", "b") for p in "eg"}
    facts |= {ground(p, x) for p in "fh" for x in "cd"}
    model = evaluate_fixpoint(program, facts)
    assert model.atoms() == naive_fixpoint(program, facts)
    assert model.extension("p") == {ground("p", "c")} and model.extension("q") == {ground("q", "d")}
    p_plan, q_plan = (evaluator._rule_plan(rule) for rule in program.rules)
    assert p_plan.kernel is q_plan.kernel and p_plan.consts != q_plan.consts


_ODD = ["'", '"', "\\", "\n", "a'b\nc", "x); import os #", "'" * 3, '"' * 3, "{0}", "\\'", "c0", "f0.args", "\x00"]


def test_symbols_never_enter_a_kernel():
    # constants and predicates holding quotes, newlines and Python syntax
    # join as any other: only positions reach the generated source
    symbols = [Constant(s) for s in _ODD]
    X, Y = Variable("X"), Variable("Y")
    rules, facts = [], set()
    for i, (s, t) in enumerate(zip(symbols, symbols[1:])):
        edge = "e" + _ODD[i]
        rules.append(Rule(Atom("p" + _ODD[i], (X, t)), (Atom(edge, (X, s)), Atom(edge, (Y, X)), Comparison("!=", X, t))))
        facts |= {GroundAtom(edge, (a, b)) for a in symbols[i : i + 3] for b in symbols[i : i + 3]}
    program = Program(rules, "ans")
    model = evaluate_fixpoint(program, facts)
    assert model.atoms() == naive_fixpoint(program, facts)
    assert len(model.atoms()) > len(facts)


def test_forty_atom_bodies_run_as_chained_kernels(tmp_path):
    # more nested loops than one Python function may hold
    body = ", ".join(f"e(X{i}, X{i + 1})" for i in range(40))
    program_text = f"ans(X0, X40) :- {body}.\n"
    facts_text = "".join(f"e(n{i}, n{i + 1}).\n" for i in range(40)) + "e(n40, n0).\n"
    program, facts = parse_program(program_text), parse_instance(facts_text).atoms
    model = evaluate_fixpoint(program, facts)
    assert model.atoms() == naive_fixpoint(program, facts) and len(model.extension("ans")) == 41
    (tmp_path / "long.dl").write_text(program_text)
    (tmp_path / "long.facts").write_text(facts_text)
    code, output = run_cli(["eval", "-p", str(tmp_path / "long.dl"), "-d", str(tmp_path / "long.facts")])
    assert code == 0 and len(json.loads(output)["payload"]["answers"]) == 41, output
    # constraint kernels: one body match per start on the 41-cycle, and a
    # tgd's 40 body atoms joined with its head, 41 atoms in chained kernels
    sigma = parse_constraints(f"{body} => false.\n{body} => e(X40, Y).\n{body} => e(X0, X40).\n")
    violations = satisfies(Instance(facts), sigma).violations
    assert Counter(str(v.constraint).split(" => ")[1] for v in violations) == {"false.": 41, "e(X0, X40).": 41}
    # a 40-atom observation: the goal rule's body, every atom ground
    observation = tuple(ground("q", f"c{i}") for i in range(40))
    hypotheses = frozenset(ground("h", f"c{i}") for i in range(40)) | {ground("k", "c0")}
    abduce_text = "q(X) :- h(X).\nq(X) :- k(X).\n"
    problem = AbductionProblem(parse_program(abduce_text), frozenset(), hypotheses, observation)
    assert len(solve_diagnoses(problem)) == 2
    assert evaluate_fixpoint(problem.program, hypotheses).atoms() == naive_fixpoint(problem.program, hypotheses)
    (tmp_path / "obs.dl").write_text(abduce_text)
    observe = "".join(f"{a}.\n" for a in sorted(hypotheses, key=str)) + "#observe\n"
    (tmp_path / "obs.facts").write_text(observe + "".join(f"{o}.\n" for o in observation))
    code, output = run_cli(["abduce", "-p", str(tmp_path / "obs.dl"), "-d", str(tmp_path / "obs.facts")])
    assert code == 0 and len(json.loads(output)["payload"]["diagnoses"]) == 2, output


def test_kernel_cache_stays_at_its_bound():
    # importing whyd compiles nothing; kernels are compiled at first join
    check = "import whyd, whyd.evaluator as e; assert e._kernel.cache_info().currsize == 0"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0
    bound = evaluator._kernel.cache_info().maxsize
    for n in range(bound + 20):
        # a chain of 1-24 atoms with 0-11 comparisons: a shape of its own
        atoms = [Atom("e", (Variable(f"X{i}"), Variable(f"X{i + 1}"))) for i in range(n % 24 + 1)]
        _plan(atoms, [Comparison("!=", Variable("X0"), Constant(str(k))) for k in range(n // 24)])
    assert evaluator._kernel.cache_info().currsize == bound


def _fresh_kernels(monkeypatch) -> list:
    """From now on, plans get their kernels from a cache of their own,
    empty at first, so every rule shape starts cold; returns the list
    of the steps compiled since."""
    monkeypatch.setattr(evaluator, "_kernel", lru_cache(maxsize=256)(evaluator._kernel.__wrapped__))
    compiled = []
    real = evaluator._compiled

    def counted(steps, consts):
        compiled.append(steps)
        return real(steps, consts)

    monkeypatch.setattr(evaluator, "_compiled", counted)
    return compiled


def test_executors_record_identical_graphs_on_corpus(monkeypatch):
    # corpus cases 0-199: the fixpoint and the ground program, every rule
    # join interpreted and then every one compiled, give the same graphs
    for seed in range(200):
        graphs = []
        for interpreted in (True, False):
            monkeypatch.setattr(evaluator, "COLD_RUNS", sys.maxsize if interpreted else 0)
            monkeypatch.setattr(evaluator, "COLD_FACTS", sys.maxsize)
            compiled = _fresh_kernels(monkeypatch)
            case = corpus.generate_case(seed)  # new rules, with no plan yet
            model = evaluate_fixpoint(case.program, case.instance)
            grounded = evaluator.ground(case.program, model.graph.atoms)
            assert bool(compiled) is not interpreted, seed
            graphs.append([(g.atoms, g.seeds, g.rows) for g in (model.graph, grounded)])
        assert graphs[0] == graphs[1], seed


# corpus cases 0-39, each asked eval, causes, mrc and delprop through
# cli.main in a fresh process; prints the kernels it compiled
_KERNEL_COUNT = """
import contextlib, io, pathlib, sys
import corpus, whyd
from whyd import cli, evaluator

compiled, real = [], evaluator._compiled
evaluator._compiled = lambda steps, consts: compiled.append(steps) or real(steps, consts)
directory = pathlib.Path(sys.argv[1])
for seed in range(40):
    case = corpus.generate_case(seed)
    program, data = directory / f"{seed}.dl", directory / f"{seed}.facts"
    program.write_text(whyd.serialize_program(case.program))
    data.write_text(whyd.serialize_instance(case.instance))
    target = ["-t", str(case.answer)]
    for command in (["eval"], ["causes", *target], ["mrc", *target], ["delprop", "--mode", "minimal-source", "--endogenous-only", *target]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command[0], "-p", str(program), "-d", str(data), *command[1:]])
        assert code == 0, (seed, command)
print(len(compiled))
"""


def test_a_session_compiles_only_its_repeated_shapes(tmp_path):
    # compiling every shape at its first run, this session compiled 31
    # kernels; most of its shapes run at most COLD_RUNS times
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", _KERNEL_COUNT, str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) == 12


def test_hot_plans_call_their_compiled_kernels(shipped_tiers, monkeypatch):
    # one fixpoint, whose plans are cold, and ten cause_reports on chain-8,
    # each over constants of its own, so no request is answered from a
    # cache: every plan ends with its compiled kernel in place of the cold
    # one
    _fresh_kernels(monkeypatch)
    program = load_program("graph.dl")
    evaluate_fixpoint(program, parse_instance("e(a, b).\n"))
    kernels = [plan.kernel for rule in program.rules for plan in rule._plans or () if plan is not None]
    cold = [sum(kernel.__class__ is evaluator._Cold for kernel in kernels)]
    for k in range(10):
        facts = parse_instance("".join(f"e(k{k}n{i}, k{k}n{i + 1}).\n" for i in range(8)))
        assert len(cause_reports(facts, program, ground("ans", f"k{k}n0", f"k{k}n8"))) == 8
        kernels = [plan.kernel for rule in program.rules for plan in rule._plans or () if plan is not None]
        cold.append(sum(kernel.__class__ is evaluator._Cold for kernel in kernels))
    assert cold[0] > 0 and cold[-1] == 0, cold
    assert all(kernel.__class__ is types.FunctionType for kernel in kernels)


def test_a_rule_shape_is_planned_once(shipped_tiers, monkeypatch):
    # one join per fixpoint, of one shape: its COLD_RUNS interpreted runs
    # and its compile all read the one steps object it was planned into
    compiled = _fresh_kernels(monkeypatch)
    planned, interpreted = [], []
    real_steps, real_interpret = evaluator._steps, evaluator._interpret
    monkeypatch.setattr(evaluator, "_steps", lambda shape: planned.append(real_steps(shape)) or planned[-1])
    monkeypatch.setattr(evaluator, "_interpret", lambda steps, *args: interpreted.append(steps) or real_interpret(steps, *args))
    program = parse_program("p(X) :- e(X, a), f(X).\n")
    for k in range(evaluator.COLD_RUNS + 1):
        facts = [ground("e", f"k{k}", "a"), ground("f", f"k{k}")]
        assert evaluate_fixpoint(program, facts).extension("p") == {ground("p", f"k{k}")}
    assert len(planned) == 1
    assert len(interpreted) == evaluator.COLD_RUNS and all(steps is planned[0] for steps in interpreted)
    assert len(compiled) == 1 and compiled[0] is planned[0]


@pytest.mark.parametrize("extra, compiles", [(0, False), (1, True)])
def test_a_join_over_many_facts_compiles_at_its_first_run(shipped_tiers, monkeypatch, extra, compiles):
    # one run of the access join, whose first step scans group_user: at
    # COLD_FACTS facts it is interpreted, past them compiled at once
    compiled = _fresh_kernels(monkeypatch)
    interpreted = []
    real = evaluator._interpret
    monkeypatch.setattr(evaluator, "_interpret", lambda *args: interpreted.append(args) or real(*args))
    program = load_program("access.dl")
    users = evaluator.COLD_FACTS + extra
    facts = [ground("group_user", f"u{i}", f"g{i % 7}") for i in range(users)]
    facts += [ground("group_file", f"f{g}", f"g{g}") for g in range(7)]
    assert len(answers(program, facts)) == users
    assert (len(compiled), len(interpreted)) == ((1, 0) if compiles else (0, 1))


def test_interpreted_fixpoints_leave_no_cycles(monkeypatch):
    # every rule join interpreted: with the collector off, fixpoints and
    # ground programs over corpus cases leave nothing for it to collect
    monkeypatch.setattr(evaluator, "COLD_RUNS", sys.maxsize)
    monkeypatch.setattr(evaluator, "COLD_FACTS", sys.maxsize)
    compiled = _fresh_kernels(monkeypatch)
    cases = [corpus.generate_case(seed) for seed in range(50)]
    gc.collect()
    gc.disable()
    try:
        for case in cases:
            model = evaluate_fixpoint(case.program, case.instance)
            evaluator.ground(case.program, model.graph.atoms)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0 and not compiled


def test_phca_relevance_reads_a_tenth_of_a_textual_join(monkeypatch):
    """Relevance on corpus.random_phca seeds 0-99 may have its join
    kernels read at most 178,000 facts through ``Relation``, a tenth of
    the 1,780,545 a join would read that matched the encoded rule in
    textual order, scanning whole relations."""
    read = 0

    def count(n):
        nonlocal read
        read += n

    count_facts_read(monkeypatch, count)
    solve_diagnoses.cache_clear()  # count the work, not cache hits
    for seed in range(100):
        relevant_hypotheses(encode_phca(corpus.random_phca(seed)))
    assert 0 < read <= 178_000, read


def test_extensional_relations_match_input():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    model = evaluate_fixpoint(program, instance)
    assert model.extension("author") == {
        ground(a.predicate, *(c.symbol for c in a.args)) for a in instance.atoms if a.predicate == "author"
    }


def test_model_closure_is_idempotent():
    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    first = evaluate_fixpoint(program, instance).atoms()
    second = evaluate_fixpoint(program, first).atoms()
    assert first == second


def test_seminaive_matches_naive_on_fixtures():
    for prog_name, inst_name in (
        ("graph.dl", "graph.facts"),
        ("aj.dl", "aj.facts"),
        ("access.dl", "access.facts"),
        ("rs.dl", "rs.facts"),
    ):
        program, instance = load_program(prog_name), load_instance(inst_name)
        assert evaluate_fixpoint(program, instance).atoms() == naive_fixpoint(program, instance.atoms)


def test_seminaive_matches_naive_on_random_cases():
    for seed in range(120):
        case = corpus.generate_case(seed)
        semi = evaluate_fixpoint(case.program, case.instance).atoms()
        naive = naive_fixpoint(case.program, case.instance.atoms)
        assert semi == naive, case


def test_monotone_under_insertion_on_random_cases():
    import random

    for seed in range(80):
        case = corpus.generate_case(seed)
        rng = random.Random(seed + 10_000)
        signatures = sorted({(a.predicate, a.arity) for a in case.instance.atoms})
        extra = corpus._random_facts(rng, signatures, 2)
        grown = case.instance.with_endogenous(extra - case.instance.atoms)
        small = answers(case.program, case.instance)
        large = answers(case.program, grown)
        assert small <= large, case


def test_specialize_to_answer_round_trip():
    program, instance = load_program("aj.dl"), load_instance("aj.facts")
    boolean, goal = specialize_to_answer(program, atom("ans(john, xml)"))
    assert boolean.is_boolean()
    assert holds(boolean, instance, goal)
    boolean2, goal2 = specialize_to_answer(boolean, goal)
    assert boolean2 is boolean and goal2 == goal


def test_concurrent_evaluations_are_safe():
    # models are immutable and evaluation shares no mutable state, so
    # parallel cause-search callers may evaluate freely
    from concurrent.futures import ThreadPoolExecutor

    program, instance = load_program("graph.dl"), load_instance("graph.facts")
    subsets = [instance.without({instance.by_label(f"t{i}")}) for i in range(1, 8)]
    expected = [evaluate_fixpoint(program, s).atoms() for s in subsets]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(5):
            results = list(pool.map(lambda s: evaluate_fixpoint(program, s).atoms(), subsets))
            assert results == expected


# -- worlds propagated over a model's ground program -----------------------------


def _random_worlds(rng: random.Random, pool: list[GroundAtom], count: int) -> list[frozenset[GroundAtom]]:
    """``count`` random subsets of ``pool``, some of them rebuilt from
    equal atoms that are other objects, with an empty world and a repeat
    of the first among them."""
    worlds = []
    for i in range(count):
        picked = [a for a in pool if rng.random() < 0.5]
        if rng.random() < 0.3:
            picked = [GroundAtom(a.predicate, a.args) for a in picked]
        worlds.append(frozenset(picked))
    worlds[rng.randrange(count)] = frozenset()
    worlds.insert(rng.randrange(count + 1), worlds[0])
    return worlds


def _assert_worlds_match_naive(program: Program, worlds, shared, context) -> bool:
    """Propagating the worlds' masks over the ground program of the model
    that holds them all, re-derived by ``evaluator.ground``, in its own
    order and in ``reached``'s, gives each world the naive fixpoint over
    it and the shared facts.  True if that program is cyclic."""
    model = evaluate_fixpoint(program, set(shared).union(*worlds))
    graph = evaluator.ground(program, model.atoms())
    assert graph.seeds == len(graph.atoms), context
    assert set(firing_pairs(graph)) == set(firing_pairs(model.graph)), context
    ids = {a: i for i, a in enumerate(graph.atoms)}
    # in id order a body may read ahead off cycles too
    own = [(h, row) for h, row in enumerate(graph.rows) if row]
    ordered, cyclic = evaluator.reached(graph, range(len(graph.atoms)))
    expected = [naive_fixpoint(program, set(shared) | set(world)) for world in worlds]
    for part, again in ((own, True), (ordered, cyclic)):
        masks = [0] * len(graph.atoms)
        for a in shared:
            masks[ids[a]] = -1
        for i, world in enumerate(worlds):
            for a in world:
                masks[ids[a]] |= 1 << i
        propagate(part, again, masks)
        for i in range(len(worlds)):
            assert {graph.atoms[a] for a, mask in enumerate(masks) if mask >> i & 1} == expected[i], (context, i)
    return cyclic


def _seeded_corpus_case(seed: int):
    """A corpus case; its program with one fact of the instance forced by
    a bodiless rule; the instance's facts; a pool of them plus up to two
    derived atoms seeded as facts; and the random generator, for the
    caller to draw worlds with."""
    rng = random.Random(seed + 30_000)
    case = corpus.generate_case(seed)
    facts = sorted(case.instance.atoms, key=GroundAtom.sort_key)
    forced = rng.choice(facts)
    program = Program(case.program.rules + (Rule(forced.to_atom(), ()),), "ans")
    derived = sorted(naive_fixpoint(case.program, facts) - set(facts), key=GroundAtom.sort_key)
    return case, program, facts, facts + rng.sample(derived, min(2, len(derived))), rng


def _comparison_case(seed: int):
    """A program with = and !=, a pool of facts over it holding the
    derived p(a, b), and the random generator."""
    rng = random.Random(seed)
    program = _random_comparison_program(rng)
    pool = sorted({ground("e", rng.choice("abc"), rng.choice("abc")) for _ in range(6)}, key=GroundAtom.sort_key)
    return program, pool + [ground("f", c) for c in "ab"] + [ground("p", "a", "b")], rng


_CYCLIC_PROGRAMS = (
    "p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n",
    "r(X) :- e(X, Y), s(Y).\ns(X) :- e(X, Y), r(Y).\ns(X) :- b(X).\n",
)


def test_world_pass_matches_naive_per_world():
    # every world's model equals the naive fixpoint over that world, for
    # corpus programs (one fact of their instance forced by a bodiless
    # rule, some derived atoms seeded as facts), programs with = and !=,
    # PHCA encodings and cyclic programs; some cases have more than 64
    # worlds
    shapes = Counter()
    for seed in range(240):
        case, program, facts, pool, rng = _seeded_corpus_case(seed)
        count = 70 if seed % 8 == 0 else rng.randint(1, 9)
        shared = [a for a in facts if rng.random() < 0.2]
        _assert_worlds_match_naive(program, _random_worlds(rng, pool, count), shared, case)
        heads = [r.head.predicate for r in case.program.rules]
        shapes["recursive" if "path" in heads else "union" if heads.count("ans") > 1 else "other"] += 1
        shapes["wide"] += count > 64
    for seed in range(100):
        program, pool, rng = _comparison_case(seed)
        count = 66 if seed % 10 == 0 else rng.randint(1, 6)
        _assert_worlds_match_naive(program, _random_worlds(rng, pool, count), (), seed)
        shapes["comparisons"] += 1
    for seed in range(40):
        rng = random.Random(seed + 40_000)
        problem = encode_phca(corpus.random_phca(seed))
        hypotheses = sorted(problem.hypotheses, key=GroundAtom.sort_key)
        worlds = _random_worlds(rng, hypotheses, rng.randint(1, 8))
        _assert_worlds_match_naive(problem.program, worlds, problem.extensional, seed)
        shapes["phca"] += 1
    for seed in range(60):
        # transitive closure over a ring, and two mutually recursive
        # predicates: their ground programs have cycles
        rng = random.Random(seed + 50_000)
        program = parse_program(_CYCLIC_PROGRAMS[seed % 2])
        nodes = [f"n{i}" for i in range(rng.randint(2, 4))]
        ring = rng.sample(nodes, len(nodes))
        pool = [ground("e", u, v) for u, v in zip(ring, ring[1:] + ring[:1])]
        pool += [ground("e", rng.choice(nodes), rng.choice(nodes)), ground("b", rng.choice(nodes))]
        shapes["cyclic"] += _assert_worlds_match_naive(program, _random_worlds(rng, pool, rng.randint(1, 8)), (), seed)
    assert shapes["recursive"] >= 20 and shapes["union"] >= 20 and shapes["wide"] >= 30, shapes
    assert shapes["cyclic"] >= 35, shapes


def _random_graph(rng: random.Random) -> tuple[evaluator.Graph, list[int]]:
    """A random derivation graph of up to 12 atoms, the first few seeds
    (some with firings of their own), every other atom with at least one
    firing, bodies of zero to three ids (self-loops and repeats
    included), and some goals among its atoms.  A body atom has a lower
    id than its head but for a share of them, which varies by graph."""
    size = rng.randint(1, 12)
    seeds = rng.randint(0, size)
    loose = rng.random() * 0.4
    rows: list = []
    for atom in range(size):
        count = rng.randint(1, 3) if atom >= seeds or rng.random() < 0.3 else 0
        bodies = [[size if rng.random() < loose else max(atom, 1) for _ in range(rng.randint(0, 3))] for _ in range(count)]
        rows.append([tuple(map(rng.randrange, body)) for body in bodies])
    goals = [rng.randrange(size) for _ in range(rng.randint(1, 3))]
    return evaluator.Graph([ground("g", str(i)) for i in range(size)], seeds, rows), goals


def _brute_reached(rows, goals) -> tuple[set[int], bool]:
    """The heads the goals reach backward and whether a cycle runs through
    them, by a search from each head for a way back to itself."""
    heads, todo = set(), [g for g in goals if rows[g]]
    while todo:
        head = todo.pop()
        if head not in heads:
            heads.add(head)
            todo += [a for body in rows[head] for a in body if rows[a]]
    successors = {h: {a for body in rows[h] for a in body if rows[a]} for h in heads}
    cyclic = False
    for head in heads:
        seen, todo = set(), list(successors[head])
        while todo and head not in seen:
            atom = todo.pop()
            if atom not in seen:
                seen.add(atom)
                todo += successors[atom]
        cyclic |= head in seen
    return heads, cyclic


def test_reached_reports_a_cycle_exactly_when_one_is_reached():
    # the flag says whether the reached part has a cycle, which is when
    # some body holds a head at its own head's position or a later one of
    # the walk's order; off cycles a head follows the heads in its bodies
    kinds = Counter()
    for seed in range(3000):
        rng = random.Random(seed + 60_000)
        graph, goals = _random_graph(rng)
        part, cyclic = evaluator.reached(graph, goals)
        heads, brute = _brute_reached(graph.rows, goals)
        assert sorted(h for h, _ in part) == sorted(heads), seed
        assert all(bodies is graph.rows[h] for h, bodies in part), seed
        assert cyclic == brute, seed
        position = {h: i for i, (h, _) in enumerate(part)}
        ahead = any(position.get(a, -1) >= position[h] for h, bodies in part for body in bodies for a in body)
        assert ahead == cyclic, seed
        kinds["cyclic" if cyclic else "acyclic" if heads else "empty"] += 1
    assert min(kinds["cyclic"], kinds["acyclic"]) >= 500 and kinds["empty"] >= 50, kinds


def _assert_firings_match_oracle(program: Program, facts, context) -> Counter:
    """The fixpoint's derivation graph holds exactly the rule instances
    whose bodies the naive model satisfies; returns what kinds of firing
    it held."""
    model = naive_fixpoint(program, facts)
    by_predicate: dict[str, list[GroundAtom]] = {}
    for fact in model:
        by_predicate.setdefault(fact.predicate, []).append(fact)
    expected = set()
    for rule in program.rules:
        atoms = list(rule.body_atoms())
        sources = [by_predicate.get(a.predicate, []) for a in atoms]
        for binding, body in oracle.join_matches(atoms, sources, list(rule.comparisons())):
            head = GroundAtom(rule.head.predicate, tuple(binding.get(t, t) for t in rule.head.args))
            expected.add((head, body))
    assert set(firing_pairs(evaluate_fixpoint(program, facts).graph)) == expected, context
    seeded = {GroundAtom(a.predicate, a.args) for a in facts}
    return Counter(
        "bodiless" if not body else "seeded head" if head in seeded else "derived" for head, body in expected
    )


def test_fixpoint_records_every_ground_firing():
    # on the cases of the world-pass test: bodiless and comparison-only
    # rules, and heads that are also seeded facts, included
    kinds = Counter()
    for seed in range(240):
        _, program, _, pool, _ = _seeded_corpus_case(seed)
        kinds += _assert_firings_match_oracle(program, pool, seed)
    for seed in range(100):
        program, pool, _ = _comparison_case(seed)
        kinds += _assert_firings_match_oracle(program, pool, seed)
    for seed in range(40):
        problem = encode_phca(corpus.random_phca(seed))
        kinds += _assert_firings_match_oracle(problem.program, problem.extensional | problem.hypotheses, seed)
    assert kinds["bodiless"] >= 300 and kinds["seeded head"] >= 500 and kinds["derived"] >= 1000, kinds


_TC = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n")


def _count_atoms_built(monkeypatch) -> list:
    """From now on, each atom ``model.derived_atom`` builds, the only way a
    join pass builds atoms, is appended to the list returned."""
    built: list = []

    def new(cls):
        atom = object.__new__(cls)
        built.append(atom)
        return atom

    monkeypatch.setattr(model_module, "_new", new)
    return built


@pytest.mark.parametrize("case", ["chain-8", "ladder-6", "phca-6"])
def test_a_join_pass_builds_only_the_atoms_it_numbers(monkeypatch, case):
    # a kernel looks each head up by its key: the fixpoint builds one atom
    # per model atom past the seeds, not one per firing, and the naive
    # round over the closed model (the check's) builds none, though it
    # still joins every rule over every seed
    if case == "phca-6":
        problem = encode_phca(corpus.random_phca(6))
        program, facts = problem.program, [*problem.extensional, *problem.hypotheses - problem.extensional]
    else:
        size = int(case[-1])
        edges = [(f"c{i}", f"c{i + 1}") for i in range(size)]
        if case.startswith("ladder"):
            edges = [e for j in range(size) for e in (("l", f"l{j}"), (f"l{j}", "lt"))]
        program, facts = _TC, [ground("e", *edge) for edge in edges]
    built = _count_atoms_built(monkeypatch)
    model = evaluate_fixpoint(program, facts)
    graph = model.graph
    firings = sum(map(len, graph.rows))
    assert len(built) == len(graph.atoms) - graph.seeds <= firings, (len(built), firings)
    assert case == "chain-8" or len(built) < firings  # on a chain each atom has one firing
    assert [graph.atoms.index(a) for a in built] == list(range(graph.seeds, len(graph.atoms)))
    built.clear()
    check = evaluator.ground(program, graph.atoms)
    assert built == [] and check.seeds == len(check.atoms) == len(graph.atoms)
    assert [set(row) for row in check.rows] == [set(row) for row in graph.rows]


def _count_joins(monkeypatch, program: Program) -> list[list[tuple[int, int | None]]]:
    """From now on, the joins each round of a pass of ``program`` runs, in
    the order they run, as the kernels of the rules' plans see them:
    ``rounds[-1]`` takes each join, as its rule's place in the program and
    the place of the body atom that reads a delta (None in round 0), and
    each later round of a semi-naive pass starts a new list.  A pass with
    rules without atoms fires them in a list of their own, before round 0."""
    rounds: list[list] = [[]]
    deltas: list[Relation] = []  # the current round's

    def count(r, kernel, src, *args):
        rounds[-1].append((r, next((i for i, s in enumerate(src) if any(s is d for d in deltas)), None)))
        kernel(src, *args)

    wrapped = set()
    for r, rule in enumerate(program.rules):
        for first in (None, *range(len(rule._predicates))):
            plan = evaluator._rule_plan(rule, first)  # one plan may serve two places
            if id(plan) not in wrapped:
                wrapped.add(id(plan))
                monkeypatch.setattr(plan, "kernel", functools.partial(count, r, plan.kernel))
    real = evaluator._grow

    def grow(*args):
        fresh = real(*args)
        deltas[:] = fresh.values()
        rounds.append([])
        return fresh

    monkeypatch.setattr(evaluator, "_grow", grow)
    return rounds


@pytest.mark.parametrize("n", [1, 6, 20])
def test_a_round_runs_only_the_joins_its_deltas_trigger(monkeypatch, n):
    # chain-n under graph.dl (ans :- p, p :- e, p :- p, e): round 0 joins
    # the 3 rules; each of the n later rounds with new p atoms joins the 2
    # rules that read p, p the delta; p :- e, whose body holds no derived
    # predicate, never runs again, and the last round, whose delta is ans
    # alone, runs none
    program = load_program("graph.dl")
    rounds = _count_joins(monkeypatch, program)
    model = evaluate_fixpoint(program, [ground("e", f"c{i}", f"c{i + 1}") for i in range(n)])
    assert len(model.extension("ans")) == n * (n + 1) // 2
    assert rounds == [[(0, None), (1, None), (2, None)], *[[(0, 0), (2, 0)]] * n, []]


_TWO_DELTAS = """\
ans(X) :- q(X).
q(X) :- p(X), r(X).
p(X) :- a(X).
p(Y) :- p(X), e(X, Y).
r(X) :- b(X).
r(Y) :- r(X), e(X, Y).
"""


@pytest.mark.parametrize("tier", ["compiled", "interpreted"])
def test_joins_of_several_deltas_run_in_rule_and_atom_order(monkeypatch, tier):
    # p and r both get new atoms in one round, and q reads both: the
    # round joins q once per delta, in atom order, among the other rules'
    # joins in rule order, and the graph holds every ground firing, on
    # either executor
    monkeypatch.setattr(evaluator, "COLD_RUNS", 0 if tier == "compiled" else sys.maxsize)
    monkeypatch.setattr(evaluator, "COLD_FACTS", sys.maxsize)
    compiled = _fresh_kernels(monkeypatch)
    program = parse_program(_TWO_DELTAS)
    rounds = _count_joins(monkeypatch, program)
    both = 0
    for seed in range(30):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(2, 6))]
        facts = {ground("e", rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(1, 8))}
        facts |= {ground(rng.choice("ab"), node) for node in nodes if rng.random() < 0.7}
        rounds[:] = [[]]
        _assert_firings_match_oracle(program, facts, seed)
        for joins in rounds[1:]:
            assert joins == sorted(joins), seed
            both += (1, 0) in joins and (1, 1) in joins
    assert both >= 10, both
    assert bool(compiled) is (tier == "compiled")
