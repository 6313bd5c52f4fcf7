import pytest

from whyd.abduction import relevant_hypotheses, solve_diagnoses
from whyd.errors import NonHornClauseError, WhydError
from whyd.evaluator import reached, reads_ahead
from whyd.model import ground
from whyd.phca import (
    PropositionalHornAbduction,
    encode_phca,
    parse_phca,
    three_bounded,
)

import corpus
import oracle
from conftest import fixture_text


def test_parse_worked_example():
    problem = parse_phca(fixture_text("phca_example.txt"))
    assert problem.hypotheses == {"c", "b"}
    assert problem.observations == ("a",)
    assert set(problem.rules) == {("a", ("b", "c")), ("b", ("c",))}


def test_worked_example_single_diagnosis():
    problem = parse_phca(fixture_text("phca_example.txt"))
    encoded = encode_phca(problem)
    assert {frozenset(str(a) for a in d) for d in solve_diagnoses(encoded)} == {frozenset({"t(c)"})}
    assert relevant_hypotheses(encoded) == {ground("t", "c")}


def test_worked_example_encoding_shape():
    problem = parse_phca(fixture_text("phca_example.txt"))
    encoded = encode_phca(problem)
    assert {str(a) for a in encoded.extensional} == {
        "r(a, b, c, true)",
        "r(b, c, true, true)",
    }
    assert {str(a) for a in encoded.hypotheses} == {"t(b)", "t(c)"}
    assert tuple(str(a) for a in encoded.observation) == ("t(a)",)


def test_observation_already_derivable_gives_empty_diagnosis():
    problem = PropositionalHornAbduction(
        frozenset({"a", "b", "h"}),
        frozenset({"h"}),
        (("a", ()), ("b", ("a",))),
        ("b",),
    )
    assert solve_diagnoses(encode_phca(problem)) == (frozenset(),)


def test_three_bounded_splits_long_bodies():
    problem = PropositionalHornAbduction(
        frozenset({"a", "b1", "b2", "b3", "b4", "b5"}),
        frozenset({"b1", "b2", "b3", "b4", "b5"}),
        (("a", ("b1", "b2", "b3", "b4", "b5")),),
        ("a",),
    )
    rules, marker = three_bounded(problem)
    assert marker == "true"
    assert all(len(body) == 3 for _, body in rules)
    heads = [head for head, _ in rules]
    assert heads.count("a") == 1 and len(rules) == 3  # two splits for a 5-atom body
    # splitting preserves the closure semantics
    assert "a" in oracle.horn_closure(rules, frozenset({"b1", "b2", "b3", "b4", "b5", marker}))
    assert "a" not in oracle.horn_closure(rules, frozenset({"b1", "b2", "b3", "b4", marker}))


def test_true_marker_avoids_collisions():
    problem = PropositionalHornAbduction(
        frozenset({"true", "a", "h"}),
        frozenset({"h"}),
        (("a", ("h", "true")), ("true", ())),
        ("a",),
    )
    rules, marker = three_bounded(problem)
    assert marker != "true"
    encoded = encode_phca(problem)
    assert {frozenset(str(a) for a in d) for d in solve_diagnoses(encoded)} == {frozenset({"t(h)"})}


def test_multiple_heads_rejected():
    with pytest.raises(NonHornClauseError):
        parse_phca("a b <- c")


def test_overlapping_hypotheses_and_observations_rejected():
    with pytest.raises(WhydError):
        PropositionalHornAbduction(frozenset({"a"}), frozenset({"a"}), (), ("a",))


def test_undeclared_variable_rejected():
    with pytest.raises(WhydError):
        PropositionalHornAbduction(frozenset({"a"}), frozenset({"a"}), (("b", ()),), ("c",))


def test_random_relevance_matches_propositional_brute_force():
    for seed in range(40):
        problem = corpus.random_phca(seed)
        encoded = encode_phca(problem)
        engine = {a.args[0].symbol for a in relevant_hypotheses(encoded)}
        brute = oracle.phca_relevant(problem.rules, problem.hypotheses, problem.observations)
        assert engine == brute, problem


def test_random_diagnoses_match_propositional_brute_force():
    # the whole family, not only its union; most of these reached graphs
    # are cyclic, so the provenance pass sweeps them more than once
    cyclic = 0
    for seed in range(300):
        problem = corpus.random_phca(seed)
        encoded = encode_phca(problem)
        engine = {frozenset(a.args[0].symbol for a in d) for d in solve_diagnoses(encoded)}
        brute = oracle.phca_diagnoses(problem.rules, problem.hypotheses, problem.observations)
        assert engine == set(brute), problem
        cyclic += reads_ahead(reached(encoded.firings, (encoded._goal,)))
    assert cyclic >= 150, cyclic
