import random
from collections import Counter

import pytest

from whyd import evaluator
from whyd.abduction import relevant_hypotheses, solve_diagnoses
from whyd.errors import UnknownPredicateError
from whyd.evaluator import (
    Relation,
    _join,
    _plan,
    answers,
    evaluate_fixpoint,
    holds,
    propagate,
    specialize_to_answer,
)
from whyd.model import Atom, Comparison, Constant, GroundAtom, Instance, Program, Rule, Variable, ground
from whyd.parsing import parse_program
from whyd.phca import encode_phca

import corpus
import oracle
from oracle import naive_fixpoint
from conftest import atom, load_document, load_instance, load_program


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
    comparisons between any of their terms and extra constants, and an
    initial binding of some of the variables (and of one the atoms do
    not mention)."""
    constants = [Constant(c) for c in "abc"]
    schema = [("e", 2), ("f", 1), ("g", 3)]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        predicate, arity = rng.choice(schema)
        args = [rng.choice(constants) if rng.random() < 0.2 else Variable(rng.choice("XYZW")) for _ in range(arity)]
        atoms.append(Atom(predicate, tuple(args)))
    variables = sorted({v for a in atoms for v in a.variables()}, key=str)
    bound = [v for v in variables if rng.random() < 0.3]
    if rng.random() < 0.2:
        bound.append(Variable("V"))
    binding = {v: rng.choice(constants) for v in bound}
    terms = sorted(set(variables) | set(binding), key=str) + constants
    comparisons = [
        Comparison(rng.choice(("=", "!=")), rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(0, 2))
    ]
    return atoms, comparisons, binding


def test_planned_join_matches_brute_force():
    """``_join`` against every combination of one fact per atom, on the
    same sources: relations shared by the atoms of one predicate, each
    holding facts of other arities too, with a delta source at each
    position in turn."""
    def matches(pairs):
        return Counter((frozenset(b.items()), facts) for b, facts in pairs)

    shapes = Counter()
    for seed in range(400):
        rng = random.Random(seed)
        atoms, comparisons, binding = _random_conjunction(rng)
        facts: dict[str, list] = {}
        for predicate, arity in (("e", 2), ("f", 1), ("g", 3)):
            for _ in range(rng.randint(0, 12)):
                width = rng.choice((1, 2, 3)) if rng.random() < 0.2 else arity  # sometimes the wrong arity
                facts.setdefault(predicate, []).append(ground(predicate, *(rng.choice("abc") for _ in range(width))))
        relations = {p: Relation(set(f)) for p, f in facts.items()}
        empty = Relation(frozenset())
        for first in (None, *range(len(atoms))):
            sources = [relations.get(a.predicate, empty) for a in atoms]
            if first is not None:
                pool = facts.get(atoms[first].predicate, [])
                sources[first] = Relation(set(rng.sample(pool, min(len(pool), rng.randint(1, 5)))))
            plan = _plan(atoms, comparisons, first, binding)
            engine = matches(_join(plan, sources, dict(binding)))
            brute = matches(oracle.join_matches(atoms, [s.facts for s in sources], comparisons, binding))
            assert engine == brute, (seed, first, atoms, comparisons, binding)
            shapes["matched" if brute else "empty"] += 1
            shapes["probed"] += any(step.key for step in plan.steps)
    assert shapes["matched"] >= 200 and shapes["empty"] >= 200 and shapes["probed"] >= 500, shapes


def test_phca_relevance_binding_extensions_stay_bounded(monkeypatch):
    """``_match`` is the one place a binding is extended.  Relevance on
    corpus.random_phca seeds 0-99 may call it at most 178,000 times, a
    tenth of the 1,780,545 calls of a join that matched the encoded rule
    in textual order, scanning whole relations."""
    calls = 0
    real = evaluator._match

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(evaluator, "_match", counted)
    solve_diagnoses.cache_clear()  # count the work, not cache hits
    for seed in range(100):
        relevant_hypotheses(encode_phca(corpus.random_phca(seed)))
    assert 0 < calls <= 178_000, calls


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
    """``count`` random subsets of ``pool``, some of them relabelled, with
    an empty world and a repeat of the first among them."""
    worlds = []
    for i in range(count):
        picked = [a for a in pool if rng.random() < 0.5]
        if rng.random() < 0.3:
            picked = [a.with_label(f"w{i}_{j}") for j, a in enumerate(picked)]
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
    firings = evaluator.ground(program, model.atoms())
    assert {(h, b) for h, bodies in firings.items() for b in bodies} == {
        (h, b) for h, bodies in model.firings.items() for b in bodies
    }, context
    ordered = evaluator.reached(firings, firings)
    expected = [naive_fixpoint(program, set(shared) | set(world)) for world in worlds]
    for graph in (firings, ordered):
        masks = propagate(graph, shared, worlds)
        for i in range(len(worlds)):
            assert {a for a, mask in masks.items() if mask >> i & 1} == expected[i], (context, i)
    return evaluator.reads_ahead(ordered)


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
    firings = evaluate_fixpoint(program, facts).firings
    assert {(head, body) for head, bodies in firings.items() for body in bodies} == expected, context
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
