"""A solve runs over the heads its observation demands (``demand.demand_of``).

The demand is passed from rule heads to bodies only, with no join, so
nothing derives it: these tests are what guard the template.  They count
the atoms a solve numbers, check the demand against the whole model and
the oracle on the corpus and on random programs, check that the check
still catches a tampered graph, and that templates kept on programs keep
memory flat."""

from __future__ import annotations

import gc
import tracemalloc
from itertools import chain

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from whyd import abduction, causality
from whyd.abduction import AbductionProblem, solve_diagnoses
from whyd.causality import cause_reports
from whyd.errors import InternalInvariantError
from whyd.demand import demand_of, demanded
from whyd.evaluator import Graph, evaluate_fixpoint, holds, reached
from whyd.model import CACHE_SIZE, Atom, Constant, GroundAtom, Program, Rule, Variable, ground
from whyd.parsing import parse_instance, parse_program

import corpus
import oracle
from conftest import atom, tamper

_TC = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n")


# -- the template ---------------------------------------------------------------


def _patterns(program: Program, goal: GroundAtom) -> dict[str, set]:
    """The demand of the goal, per predicate, as the set of values its
    patterns may give."""
    demand = demand_of(program, (goal,))
    assert demand is not None
    return {p: set().union(*(values for _, values in entries)) for p, entries in demand.items()}


def test_a_bound_answer_demands_its_first_argument_down_a_left_recursion():
    # p(X, Y) :- p(X, Z), e(Z, Y) passes X only; the pattern p(c0, cn)
    # that ans(X, Y) :- p(X, Y) passes is covered by p(c0, _) and dropped
    assert _patterns(_TC, ground("ans", "c0", "c9")) == {"ans": {("c0", "c9")}, "p": {"c0"}}
    right = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n")
    assert _patterns(right, ground("ans", "c0", "c9")) == {"ans": {("c0", "c9")}, "p": {"c9"}}


def test_demand_falls_back_to_every_head_where_a_body_atom_is_unbound():
    nonlinear = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n")
    assert demand_of(nonlinear, (ground("ans", "a", "b"),)) is None
    boolean = parse_program("ans :- p(X, Y).\np(X, Y) :- e(X, Y).\n")
    assert demand_of(boolean, (ground("ans"),)) is None
    nullary = parse_program("ans(X) :- e(X), ok.\nok :- f(Y).\n")
    assert demand_of(nullary, (ground("ans", "a"),)) is None
    # a conjunction with one unrestricted atom is unrestricted
    assert demand_of(_TC, (ground("ans", "a", "b"), ground("e", "a", "b"))) is not None
    assert demand_of(boolean, (ground("ans"), ground("p", "a", "b"))) is None


def test_constants_and_repeated_variables_bind_body_positions():
    program = parse_program(
        "ans(X, Y) :- s(X, Y).\n"
        "s(X, X) :- f(X), q(X, b).\n"  # a repeated head variable; a body constant
        "s(a, Y) :- r(Y, Y).\n"  # a head constant, taken to match any goal symbol
        "s(X, c) :- t(X).\n"
        "q(X, Y) :- e(X, Y).\n"
        "r(X, Y) :- e(X, Y).\n"
        "t(X) :- e(X, X).\n"
    )
    assert _patterns(program, ground("ans", "u", "v")) == {
        "ans": {("u", "v")},
        "s": {("u", "v")},
        "q": {("u", "b")},  # X keeps u, the first term it is bound to
        "r": {("v", "v")},
        "t": {"u"},
    }


def test_a_head_that_clashes_with_a_demanded_constant_passes_no_demand():
    # s(X, c) never gives s(u, d), and w(Y, Y) never gives w(c, d)
    program = parse_program(
        "ans(X) :- s(X, d), w(c, d).\ns(X, c) :- t(X).\ns(X, Y) :- e(X, Y).\nw(Y, Y) :- t(Y).\nt(X) :- e(X, X).\n"
    )
    assert _patterns(program, ground("ans", "u")) == {"ans": {"u"}, "s": {("u", "d")}, "w": {("c", "d")}}


def test_templates_live_on_the_program():
    program = parse_program("ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\n")
    assert program._demands == {}
    for symbol in ("a", "b", "c"):
        demand_of(program, (ground("ans", symbol, "z"),))
    demand_of(program, (ground("p", "a", "z"),))
    assert sorted(program._demands) == [("ans", 2), ("p", 2)]


# -- what a solve numbers ---------------------------------------------------------


def _numbered(monkeypatch, facts: list[GroundAtom], target: GroundAtom, exogenous=frozenset()) -> list[int]:
    """The number of atoms of each model the abduction layer's fixpoint
    returns while the answer's problem is solved afresh."""
    sizes = []
    real = abduction.evaluate_fixpoint

    def counted(program, facts, demand=None):
        model = real(program, facts, demand)
        sizes.append(len(model.graph.atoms))
        return model

    monkeypatch.setattr(abduction, "evaluate_fixpoint", counted)
    solve_diagnoses.cache_clear()
    AbductionProblem(_TC, frozenset(exogenous), frozenset(facts) - exogenous, (target,))
    return sizes


@pytest.mark.parametrize("n", [50, 100, 200])
def test_a_chain_solve_numbers_its_edges_and_the_demanded_heads(monkeypatch, n):
    # ans(c0, cn) demands p(c0, _): the n edges, p(c0, cj) for each j and
    # the answer; the whole model also holds every p(ci, cj) and ans(ci, cj)
    edges = [ground("e", f"nc{i}", f"nc{i + 1}") for i in range(n)]
    assert _numbered(monkeypatch, edges, ground("ans", "nc0", f"nc{n}")) == [2 * n + 1]
    assert len(evaluate_fixpoint(_TC, edges).graph.atoms) == n * (n + 1) + n


@pytest.mark.parametrize("k", [8, 16])
def test_a_ladder_solve_numbers_its_edges_and_the_demanded_heads(monkeypatch, k):
    # 2k edges, p(l, lj) for each rung, p(l, lt) and ans(l, lt); the whole
    # model also holds p(lj, lt) and each ans
    edges = [e for j in range(k) for e in (ground("e", "nl", f"nl{j}"), ground("e", f"nl{j}", "nlt"))]
    assert _numbered(monkeypatch, edges, ground("ans", "nl", "nlt")) == [3 * k + 2]
    assert len(evaluate_fixpoint(_TC, edges).graph.atoms) == 6 * k + 2


@pytest.mark.parametrize("k", [6, 10])
def test_a_diamonds_solve_with_a_shortcut_numbers_its_edges_and_the_demanded_heads(monkeypatch, k):
    # k two-path diamonds in series from v0 to vk and an exogenous
    # e(v0, vk): the 4k + 1 edges, p(v0, x) for the 3k nodes past v0 and
    # the answer, where the whole model is quadratic in k
    edges = []
    for i in range(k):
        for mid in (f"nda{i}", f"ndb{i}"):
            edges += [ground("e", f"ndv{i}", mid), ground("e", mid, f"ndv{i + 1}")]
    shortcut = ground("e", "ndv0", f"ndv{k}")
    sizes = _numbered(monkeypatch, [*edges, shortcut], ground("ans", "ndv0", f"ndv{k}"), frozenset({shortcut}))
    assert sizes == [7 * k + 2]
    assert len(evaluate_fixpoint(_TC, [*edges, shortcut]).graph.atoms) > 2 * k * k


# -- soundness against the whole model and the oracle -------------------------------


def _family(problem: AbductionProblem) -> tuple:
    """A solve of the problem that no cache answers: its sets, masks and atoms."""
    family = solve_diagnoses.__wrapped__(problem)
    return tuple(family), family.masks, family.atoms


def _unrestricted(problem: AbductionProblem) -> tuple:
    """``_family`` with every head numbered: the solve over the whole model."""
    real = abduction.demand_of
    abduction.demand_of = lambda program, goals: None
    try:
        return _family(problem)
    finally:
        abduction.demand_of = real


def _check_demand(program: Program, fixed: frozenset, hypotheses: frozenset, goals: tuple) -> bool:
    """Every atom of an intensional predicate in the goals' part of the
    whole model matches the goals' demand, the model under the demand is
    the seeds and the demanded heads of the whole model with all their
    firings, and the solves with and without the demand are equal.
    Returns whether the demand is restricted."""
    demand = demand_of(program, goals)
    seeds = [*fixed, *hypotheses - fixed]
    whole = evaluate_fixpoint(program, seeds)
    problem = AbductionProblem(program, fixed, hypotheses, goals)
    assert _family(problem) == _unrestricted(problem)
    if demand is None:
        return False
    graph = whole.graph
    intensional = {r.head.predicate for r in program.rules}
    part, _ = reached(graph, [whole.id_of(a) for a in goals])
    for head, bodies in part:
        for a in chain((head,), *bodies):
            if graph.atoms[a].predicate in intensional:
                assert demanded(demand, graph.atoms[a].key), (graph.atoms[a], goals)
    restricted = evaluate_fixpoint(program, seeds, demand)
    kept = [a for a in graph.atoms[graph.seeds :] if demanded(demand, a.key)]
    assert restricted.graph.atoms == graph.atoms[: graph.seeds] + sorted(kept, key=restricted.id_of)
    for i, a in enumerate(restricted.graph.atoms):
        if a.predicate in intensional and not demanded(demand, a.key):
            continue  # a seed whose firings may read heads the demand drops
        mine = {tuple(restricted.graph.atoms[b] for b in body) for body in restricted.graph.rows[i]}
        theirs = {tuple(graph.atoms[b] for b in body) for body in graph.rows[whole.id_of(a)]}
        assert mine == theirs, a
    return True


def _check_holds(program: Program, facts: frozenset) -> None:
    """``holds`` agrees with the naive model on every atom of an
    intensional predicate over the facts' constants and one more."""
    model = oracle.naive_fixpoint(program, facts)
    symbols = sorted({c.symbol for a in facts for c in a.args} | {"zz"})
    for predicate in sorted({r.head.predicate for r in program.rules}):
        arity = program.arity_of(predicate)
        for i in range(len(symbols) ** arity):
            args = [symbols[i // len(symbols) ** k % len(symbols)] for k in range(arity)]
            candidate = ground(predicate, *args)
            assert holds(program, facts, candidate) == (candidate in model), candidate


def test_demand_is_sound_on_the_corpus():
    restricted = 0
    for seed in range(150):
        case = corpus.generate_case(seed)
        exo, endo = case.instance.exogenous, case.instance.endogenous
        restricted += _check_demand(case.program, exo, endo, (case.answer,))
        _check_holds(case.program, exo | endo)
    assert restricted >= 40, restricted


_NAMES = ("a", "b", "c")

# recursive shapes: right, left and nonlinear transitive closure, same
# generation (a repeated head variable), and constants in heads and bodies
_RECURSIVE = [
    "ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).\n",
    "ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), e(Z, Y).\n",
    "ans(X, Y) :- p(X, Y).\np(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n",
    "ans(X, Y) :- sg(X, Y).\nsg(X, X) :- f(X).\nsg(X, Y) :- e(X, U), sg(U, V), e(Y, V).\n",
    "ans(X) :- p(a, X).\np(X, Y) :- e(X, Y).\np(a, Y) :- p(b, Z), e(Z, Y).\np(X, c) :- f(X).\n",
]


def _term(draw, variables: list[str]):
    if draw(st.integers(0, 4)) == 0:
        return Constant(draw(st.sampled_from(_NAMES)))
    return Variable(draw(st.sampled_from(variables)))


@st.composite
def _random_programs(draw) -> Program:
    """One to five safe rules over intensional ans, p and q and
    extensional e and f: any of them recursive, nonlinear or nullary, with
    constants in heads and bodies and repeated head variables."""
    arity = {"ans": draw(st.integers(0, 2)), "p": draw(st.integers(0, 2)), "q": draw(st.integers(1, 2))}
    arity.update(e=2, f=1)
    rules = []
    for head in ["ans", *draw(st.lists(st.sampled_from(["ans", "p", "q"]), max_size=4))]:
        body = []
        for _ in range(draw(st.integers(1, 3))):
            predicate = draw(st.sampled_from(["e", "f", "p", "q"]))
            body.append(Atom(predicate, tuple(_term(draw, ["X", "Y", "Z"]) for _ in range(arity[predicate]))))
        bound = sorted({t.name for a in body for t in a.args if isinstance(t, Variable)})
        terms = tuple(_term(draw, bound) if bound else Constant("a") for _ in range(arity[head]))
        rules.append(Rule(Atom(head, terms), tuple(body)))
    return Program(rules, "ans")


@st.composite
def _demand_cases(draw):
    program = draw(st.one_of(_random_programs(), st.sampled_from(_RECURSIVE).map(parse_program)))
    pool = [ground("e", u, v) for u in _NAMES for v in _NAMES] + [ground("f", u) for u in _NAMES]
    if program.arity_of("p") is not None:
        pool.append(ground("p", *_NAMES[: program.arity_of("p")]))  # a seed over a derived predicate
    facts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7, unique=True))
    fixed = frozenset(draw(st.lists(st.sampled_from(facts), max_size=2)))
    model = oracle.naive_fixpoint(program, facts)
    answers = sorted((a for a in model if a.predicate == "ans"), key=GroundAtom.sort_key)
    assume(answers)
    return program, fixed, frozenset(facts), draw(st.sampled_from(answers))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_demand_cases())
def test_demand_is_sound_on_random_programs(case):
    program, fixed, facts, answer = case
    _check_demand(program, fixed, facts, (answer,))
    _check_holds(program, facts)


# -- the check under a demand ---------------------------------------------------------


def _shortcut_problem(tag: str) -> AbductionProblem:
    """``p(X) :- x(X), y(X).  p(X) :- q(X).  q(X) :- x(X).`` with
    hypotheses x(a) and y(a), extensional facts x(b) and y(b) and
    observation p(a): its one diagnosis is {x(a)}, through q(a); the
    demand drops p(b) and q(b)."""
    program = parse_program(
        f"{tag}_p(X) :- {tag}_x(X), {tag}_y(X).\n{tag}_p(X) :- {tag}_q(X).\n{tag}_q(X) :- {tag}_x(X).\n"
    )
    extensional = frozenset({ground(f"{tag}_x", "b"), ground(f"{tag}_y", "b")})
    hypotheses = frozenset({ground(f"{tag}_x", "a"), ground(f"{tag}_y", "a")})
    return AbductionProblem(program, extensional, hypotheses, (ground(f"{tag}_p", "a"),))


@pytest.mark.parametrize(
    "edit, message",
    [
        # without p(a) <- q(a) the provenance pass finds {x(a), y(a)}
        (lambda firings, p, q, y: firings.remove((p, (q,))), r"not minimal: dd_y\(a\) is redundant"),
        # a recorded p(a) <- y(a) gives the diagnosis {y(a)}
        (lambda firings, p, q, y: firings.append((p, (y,))), "does not entail"),
        # without q(a)'s firing, q(a) is not among the check's seeds
        (lambda firings, p, q, y: firings.remove((q, (ground("dd_x", "a"),))), r"not closed: it misses dd_q\(a\)"),
    ],
)
def test_the_check_catches_a_tampered_graph_of_demanded_heads(monkeypatch, edit, message):
    problem = _shortcut_problem("dd")
    p, q, y = ground("dd_p", "a"), ground("dd_q", "a"), ground("dd_y", "a")
    assert solve_diagnoses(problem) == (frozenset({ground("dd_x", "a")}),)
    tamper(monkeypatch, lambda firings: edit(firings, p, q, y))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match=message):
        solve_diagnoses(problem)


def test_the_check_passes_a_graph_without_the_heads_the_demand_drops(monkeypatch):
    # the whole model's graph, with the firings of the heads the demand
    # drops (p(b), q(b)) taken out: the check grounds under the same
    # demand, so it neither derives them again nor reads the graph as not
    # closed; grounding every head, it would
    problem = _shortcut_problem("dn")
    real = abduction.evaluate_fixpoint

    def whole(program, facts, demand=None):
        model = real(program, facts)
        graph = model.graph
        assert len(graph.atoms) == 8  # the four facts, p(a), q(a), p(b) and q(b)
        kept = [i < graph.seeds or demanded(demand, a.key) for i, a in enumerate(graph.atoms)]
        rows = [row if keep else [] for keep, row in zip(kept, graph.rows)]
        model.graph = Graph(graph.atoms, graph.seeds, rows)
        return model

    monkeypatch.setattr(abduction, "evaluate_fixpoint", whole)
    solve_diagnoses.cache_clear()
    assert solve_diagnoses(problem) == (frozenset({ground("dn_x", "a")}),)
    real_ground = abduction.ground
    monkeypatch.setattr(abduction, "ground", lambda program, facts, demand: real_ground(program, facts))
    solve_diagnoses.cache_clear()
    with pytest.raises(InternalInvariantError, match="not closed"):
        solve_diagnoses(problem)


# -- memory ---------------------------------------------------------------------------


def test_retained_memory_stays_flat_past_the_cache_bound():
    # each request builds a program of its own, which makes a demand
    # template, and an instance of its own.  Once the value caches are
    # full and every entry they hold was made while traced, what is still
    # held stays level as requests go on, by tracemalloc (not RSS); a
    # template kept anywhere but on its program would keep the program
    def request(i: int) -> None:
        program = parse_program(f"ans(X, Y) :- p(X, Y), Y != m{i}.\np(X, Y) :- e(X, Y).\n")
        instance = parse_instance(f"e(m{i}a, m{i}b).\ne(m{i}a, m{i}c).\n")
        cause_reports(instance, program, atom(f"ans(m{i}a, m{i}b)"))

    caches = (solve_diagnoses, causality.CauseAnalysis.for_query)
    held = []
    try:
        for i in range(CACHE_SIZE):
            request(i)
        tracemalloc.start()
        try:
            for i in range(CACHE_SIZE, 2 * CACHE_SIZE + CACHE_SIZE // 2):
                request(i)
                if (i + 1) % (CACHE_SIZE // 2) == 0:
                    gc.collect()
                    held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert [cache.cache_info().currsize for cache in caches] == [CACHE_SIZE] * 2
    finally:
        for cache in caches:
            cache.cache_clear()
    assert held[-1] <= held[-2] * 1.05, [f"{h / 2**20:.2f} MiB" for h in held]
