import pytest
from hypothesis import given, settings, strategies as st

from whyd.errors import DuplicateFactError, NonConjunctiveBodyError, ParseError
from whyd.evaluator import answers
from whyd.model import Atom, Comparison, Constant, Instance, Variable, ground
from whyd.parsing import (
    parse_constraints,
    parse_ground_atom,
    parse_instance,
    parse_instance_document,
    parse_program,
    serialize_constraints,
    serialize_instance,
    serialize_program,
)

from conftest import fixture_text


def test_parse_transitive_closure_program():
    program = parse_program("ans(X,Y) :- p(X,Y).\np(X,Y) :- e(X,Y).\np(X,Y) :- p(X,Z), e(Z,Y).")
    assert len(program.rules) == 3
    assert program.answer_predicate == "ans"
    assert program.arity_of("ans") == 2


def test_empty_body_after_arrow_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse_program("ans :- .")


def test_parse_program_with_disequality():
    program = parse_program("ans(X) :- r(X,Y), s(Y), X != Y.")
    rule = program.rules[0]
    comparisons = list(rule.comparisons())
    assert comparisons == [Comparison("!=", Variable("X"), Variable("Y"))]


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("ans(X) :- p(X)\nq(X).", filename="bad.dl")
    assert err.value.span is not None
    assert err.value.span.file == "bad.dl"
    assert err.value.span.line == 2


def test_variables_uppercase_constants_lowercase_or_quoted():
    program = parse_program("ans(X) :- p(X, abc, 'Mixed Case', 42).")
    atom = next(program.rules[0].body_atoms())
    assert atom.args[0] == Variable("X")
    assert atom.args[1] == Constant("abc")
    assert atom.args[2] == Constant("Mixed Case")
    assert atom.args[3] == Constant("42")


def test_comments_are_ignored():
    program = parse_program("% head\nans(X) :- p(X). % trailing\n% tail\n")
    assert len(program.rules) == 1


def test_parse_instance_default_endogenous():
    instance = parse_instance(fixture_text("aj.facts"))
    authors = [a for a in instance.endogenous if a.predicate == "author"]
    journals = [a for a in instance.endogenous if a.predicate == "journal"]
    assert len(authors) == 4 and len(journals) == 3
    assert not instance.exogenous


def test_parse_instance_exogenous_predicates_directive():
    instance = parse_instance(fixture_text("aj_journal_exogenous.facts"))
    assert {a.predicate for a in instance.exogenous} == {"journal"}
    assert {a.predicate for a in instance.endogenous} == {"author"}


def test_parse_empty_instance():
    assert parse_instance("") == Instance()


def test_parse_instance_sections_and_labels():
    document = parse_instance_document(fixture_text("circuit.facts"))
    assert len(document.instance.exogenous) == 5
    assert len(document.instance.endogenous) == 2
    assert document.observations == (ground("zero", "d"),)


def test_duplicate_fact_across_partitions_rejected():
    with pytest.raises(DuplicateFactError):
        parse_instance("p(a).\n#exogenous\np(a).")


def test_nonground_fact_rejected():
    with pytest.raises(ParseError):
        parse_instance("p(X).")


def test_parse_ground_atom_nullary_and_spacing():
    assert parse_ground_atom("ans") == ground("ans")
    assert parse_ground_atom("ans(john, xml)") == ground("ans", "john", "xml")
    with pytest.raises(ParseError):
        parse_ground_atom("ans(X)")


def test_parse_inclusion_dependency():
    sigma = parse_constraints("dep(X,Y) => course(U,Y,X).")
    (constraint,) = sigma.constraints
    assert constraint.kind == "tgd"
    assert constraint.existential_variables() == {Variable("U")}


def test_parse_egd():
    sigma = parse_constraints("p(X,Y), p(X,Z) => Y = Z.")
    (constraint,) = sigma.constraints
    assert constraint.kind == "egd"
    assert constraint.equality == (Variable("Y"), Variable("Z"))


def test_parse_denial_constraint():
    sigma = parse_constraints("r(X, a1), s(a1) => false.")
    (constraint,) = sigma.constraints
    assert constraint.kind == "denial"
    assert constraint.body[0] == Atom("r", (Variable("X"), Constant("a1")))


def test_builtin_in_constraint_body_rejected():
    with pytest.raises(NonConjunctiveBodyError):
        parse_constraints("p(X,Y), X != Y => false.")


def test_key_directive_expands_to_egds():
    sigma = parse_constraints("#key s 1 2")
    assert sigma.keys and not sigma.constraints
    egds = sigma.expanded({"s": 3})
    assert len(egds) == 1 and egds[0].kind == "egd"
    # key covering every position yields nothing to equate
    assert parse_constraints("#key r 1 2").expanded({"r": 2}) == ()


def test_fd_directive_expands_with_full_arity():
    sigma = parse_constraints("#fd course 2 -> 3")
    (egd,) = sigma.expanded({"course": 3})
    assert egd.kind == "egd"
    assert all(a.arity == 3 for a in egd.body)


def test_program_round_trip_fixture_files():
    for name in ("aj.dl", "graph.dl", "rs.dl", "access.dl", "circuit.dl", "repair.dl"):
        program = parse_program(fixture_text(name))
        assert parse_program(serialize_program(program)) == program


def test_instance_round_trip_fixture_files():
    for name in ("aj.facts", "graph.facts", "circuit.facts", "dept.facts", "access.facts"):
        instance = parse_instance(fixture_text(name))
        again = parse_instance(serialize_instance(instance))
        assert again == instance
        # labels survive the round trip
        for atom in instance.atoms:
            if atom.label:
                assert again.by_label(atom.label) == atom


def test_constraints_round_trip_fixture_files():
    for name in ("dept.ics", "repair.ics", "keys.ics"):
        sigma = parse_constraints(fixture_text(name))
        assert parse_constraints(serialize_constraints(sigma)) == sigma


_name = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_var = st.sampled_from(["X", "Y", "Z", "W"])


@st.composite
def _programs(draw):
    predicates = draw(st.lists(st.tuples(_name, st.integers(1, 3)), min_size=1, max_size=3, unique_by=lambda t: t[0]))
    rules = []
    body = []
    for _ in range(draw(st.integers(1, 3))):
        name, arity = draw(st.sampled_from(predicates))
        args = tuple(
            Variable(draw(_var)) if draw(st.booleans()) else Constant(draw(_name)) for _ in range(arity)
        )
        body.append(Atom(name + "_b", args))
    bound = sorted({v.name for a in body for v in a.variables()})
    width = draw(st.integers(0, min(2, len(bound))))
    head_vars = bound[:width]
    from whyd.model import Program, Rule

    head = Atom("ans", tuple(Variable(v) for v in head_vars))
    return Program((Rule(head, tuple(body)),), "ans")


@given(_programs())
@settings(max_examples=120, deadline=None)
def test_program_round_trip_random(program):
    assert parse_program(serialize_program(program)) == program


@given(
    st.lists(
        st.tuples(_name, st.lists(_name, min_size=0, max_size=3), st.booleans()),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=120, deadline=None)
def test_instance_round_trip_random(rows):
    endo, exo = [], []
    for name, args, exogenous in rows:
        atom = ground("p_" + name, *args) if args else ground("p_" + name)
        (exo if exogenous else endo).append(atom)
    exo = [a for a in exo if a not in set(endo)]
    instance = Instance(endo, exo)
    assert parse_instance(serialize_instance(instance)) == instance


def test_constraint_round_trip_handmade():
    sigma = parse_constraints(
        "dep(X,Y) => course(U,Y,X).\np(X,Y), p(X,Z) => Y = Z.\nr(X, a1), s(a1) => false.\n#key s 1\n#fd course 2 -> 3"
    )
    assert parse_constraints(serialize_constraints(sigma)) == sigma


# -- anonymous variables ---------------------------------------------------------


def test_anonymous_variables_never_join():
    # the second _ must not become the _Anon1 the rule already names
    program = parse_program("ans(X) :- e(X, _Anon1), f(X, _).")
    assert answers(program, parse_instance("e(a, b).\nf(a, c).\n")) == {ground("ans", "a")}
    rule = program.rules[0]
    assert [str(a) for a in rule.body_atoms()] == ["e(X, _Anon1)", "f(X, _Anon2)"]
    both = parse_program("ans(X) :- e(X, _), e(_, X).")
    assert answers(both, parse_instance("e(a, b).\ne(c, a).\n")) == {ground("ans", "a")}


_ANONYMOUS_TEXTS = [
    "ans(X) :- e(X, _), f(_, X), g(_).\nh(X) :- e(X, _).",
    "ans(X) :- e(X, _), _Anon1 = _Anon2, e(_Anon1, _Anon2), X != _Anon3, f(_Anon3, _).",
]


@pytest.mark.parametrize("text", _ANONYMOUS_TEXTS)
def test_equal_texts_parse_equal(text):
    first, second = parse_program(text), parse_program(text)
    assert first == second and hash(first) == hash(second)
    assert parse_program(serialize_program(first)) == first


def test_constraint_anonymous_variables_are_named_per_line():
    text = "p(X, _), q(_) => r(X, _).\np(_, Y), p(_, Z) => Y = Z.\nr(_, _) => false."
    sigma = parse_constraints(text)
    assert sigma == parse_constraints(text)
    assert [str(c) for c in sigma.constraints] == [
        "p(X, _Anon1), q(_Anon2) => r(X, _Anon3).",
        "p(_Anon1, Y), p(_Anon2, Z) => Y = Z.",
        "r(_Anon1, _Anon2) => false.",
    ]
    assert parse_constraints(serialize_constraints(sigma)) == sigma


# -- facts and error positions ----------------------------------------------------


def test_repeated_fact_keeps_its_last_label():
    instance = parse_instance("t1: e(a, b).\nt2: e(a, b).\n#exogenous\nt3: f(a).\nf(a).\n")
    assert instance.by_label("t2") == ground("e", "a", "b")
    assert {a.label for a in instance.atoms} == {"t2", None}
    with pytest.raises(Exception):
        instance.by_label("t1")


# (kind, text, exception and message); each message is the one the
# per-character tokenizer gave
_MALFORMED = [
    ("program", "ans(X) :- e(X, Y)", "ParseError: <program>:1:18: expected '.', found ''"),
    ("program", "ans(X) :- e(X, Y).\nans(X) :- $e(X).", "ParseError: <program>:2:11: unexpected character '$'"),
    ("program", "ans(X) :- .", "ParseError: <program>:1:11: expected a term, found '.'"),
    ("program", "ans(X) e(X).", "ParseError: <program>:1:8: expected '.' or ':-', found 'e'"),
    ("program", "% only a comment\n", "ParseError: <program>:1:1: empty program"),
    ("program", "ans(X) :- X(a).", "ParseError: <program>:1:11: expected a predicate name, found variable X"),
    ("program", "ans(X) :- e(X, 'abc.", "ParseError: <program>:1:16: unexpected character \"'\""),
    ("program", "ans(X) :-\n  e(X,\n  Y) ; f(Y).", "ParseError: <program>:3:6: unexpected character ';'"),
    ("program", "ans(X) :- e(X, Y), X = .", "ParseError: <program>:1:24: expected a term, found '.'"),
    ("program", "X = Y :- e(X).", "ParseError: <program>:1:7: expected an atom, found comparison X = Y"),
    ("program", "ans(X) :- e(X, Y)).", "ParseError: <program>:1:18: expected '.', found ')'"),
    ("instance", "e(a, b).\ne(a, X).", "ParseError: <instance>:2:1: fact e(a, X) contains variables"),
    ("instance", "t1: e(a, b).\nt2 e(b, c).", "ParseError: <instance>:2:4: expected '.', found 'e'"),
    ("instance", "e(a, b) e(b, c).", "ParseError: <instance>:1:9: expected '.', found 'e'"),
    ("instance", "e(a, b).\n#bogus", "ParseError: <instance>:2:1: unknown directive #bogus"),
    ("instance", "#exogenous x", "ParseError: <instance>:1:1: unexpected input after #exogenous"),
    ("instance", "e(a, b).\n  e(b, c). f(c).", "ParseError: <instance>:2:3: trailing input after fact: 'f'"),
    (
        "instance",
        "e(a, b).\n#exogenous\ne(a, b).",
        "DuplicateFactError: <instance>:3:1: fact e(a, b) appears in both partitions",
    ),
    ("instance", "e(a, b).\n   e(a, @).", "ParseError: <instance>:2:9: unexpected character '@'"),
    ("instance", "e(a, b). #observe", "ParseError: <instance>:1:10: unexpected character '#'"),
    ("instance", "e(a,b).\ne(a b).", "ParseError: <instance>:2:5: expected ')', found 'b'"),
    ("instance", "e(a, b).\n  t1: e(a, X).", "ParseError: <instance>:2:7: fact e(a, X) contains variables"),
    (
        "instance",
        "#exogenous-predicates ,",
        "ParseError: <instance>:1:1: #exogenous-predicates needs at least one name",
    ),
    ("instance", "e(a, b). % c\n#observe\nans(a %", "ParseError: <instance>:3:8: expected ')', found ''"),
    ("target", "ans(john", "ParseError: <atom>:1:9: expected ')', found ''"),
    ("target", "ans(X)", "ParseError: <atom>:1:7: fact ans(X) contains variables"),
    ("target", "ans(a) b", "ParseError: <atom>:1:8: trailing input after atom: 'b'"),
    ("target", "", "ParseError: <atom>:1:1: expected a term, found ''"),
    (
        "constraints",
        "p(X), X != a => false.",
        "NonConjunctiveBodyError: <constraints>:1:1: built-in X != a not allowed in a constraint body",
    ),
    ("constraints", "p(X) => X != Y.", "ParseError: <constraints>:1:9: an egd head must be an equality"),
    (
        "constraints",
        "p(X) => false.\nq(X) r(X) => false.",
        "ParseError: <constraints>:2:6: expected ',' or '=>', found 'r'",
    ),
    ("constraints", "p(X) => false.\n  q(X, Y) => X = .", "ParseError: <constraints>:2:18: expected a term, found '.'"),
    ("constraints", "p(X) q(X) => false.", "ParseError: <constraints>:1:6: expected ',' or '=>', found 'q'"),
    ("constraints", "#key s", "ParseError: <constraints>:1:1: malformed #key directive"),
    ("constraints", "#fd p 0 -> 1", "ParseError: <constraints>:1:1: dependency positions are 1-based"),
    ("constraints", "#foo", "ParseError: <constraints>:1:1: unknown directive #foo"),
    ("constraints", "p(X) => false", "ParseError: <constraints>:1:14: expected '.', found ''"),
    (
        "constraints",
        "p(X) => false.\n q(X) => false. r(X) => false.",
        "ParseError: <constraints>:2:2: trailing input after constraint: 'r'",
    ),
]
_PARSERS = {
    "program": parse_program,
    "instance": parse_instance,
    "target": parse_ground_atom,
    "constraints": parse_constraints,
}


@pytest.mark.parametrize("kind, text, message", _MALFORMED)
def test_malformed_input_reports_file_line_column_and_message(kind, text, message):
    with pytest.raises(ParseError) as err:
        _PARSERS[kind](text)
    assert f"{type(err.value).__name__}: {err.value}" == message
