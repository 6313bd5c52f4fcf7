import pytest

from whyd import evaluator
from whyd.abduction import relevant_hypotheses, solve_diagnoses
from whyd.errors import NonHornClauseError, ParseError, WhydError
from whyd.evaluator import reached
from whyd.model import ground
from whyd.phca import (
    PropositionalHornAbduction,
    encode_phca,
    parse_phca,
    three_bounded,
)

import corpus
import oracle
from conftest import fixture_text, problem_graph


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


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("a <- b <- c\n#hyp\nb c\n#obs\na\n", 1, 8),
        ("a <- b<-c\n#hyp\nb c\n#obs\na\n", 1, 7),
        ("a <- b c\n#hyp\n  b <- c\n#obs\na\n", 3, 5),
        ("a <- b\n#hyp\nb\n#obs\n<- a\n", 5, 1),
    ],
)
def test_a_stray_arrow_is_a_parse_error(text, line, column):
    # one arrow per clause, none among a section's names: another is not
    # read as a name
    with pytest.raises(ParseError) as raised:
        parse_phca(text)
    assert (raised.value.span.line, raised.value.span.column) == (line, column)


def test_an_arrow_in_a_comment_is_ignored():
    problem = parse_phca("a <- b % a <- b <- c\n#hyp\nb % b <- c\n#obs\na\n")
    assert problem.rules == (("a", ("b",)),) and problem.hypotheses == {"b"}


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
        cyclic += reached(*problem_graph(encoded))[1]
    assert cyclic >= 150, cyclic


def test_encodings_share_their_rules_and_compile_no_plan_per_problem(monkeypatch):
    # both rules of an encoding with the usual marker are shared values,
    # so their join plans are compiled at most once, whatever the number
    # of problems encoded
    compiled = []
    real = evaluator._plan
    monkeypatch.setattr(evaluator, "_plan", lambda *args, **kwargs: compiled.append(1) or real(*args, **kwargs))
    first = [encode_phca(corpus.random_phca(seed)) for seed in range(100)]
    warm = len(compiled)
    second = [encode_phca(corpus.random_phca(seed)) for seed in range(100, 200)]
    assert warm <= 5 and len(compiled) == warm, (warm, len(compiled))
    rules = first[0].program.rules
    assert all(p.program.rules[i] is rules[i] for p in first + second for i in range(2))
