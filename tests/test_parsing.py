import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from whyd.errors import DuplicateFactError, NonConjunctiveBodyError, ParseError
from whyd.evaluator import answers
from whyd.model import Atom, Comparison, Constant, GroundAtom, Instance, Program, Rule, Variable, ground
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


def test_an_instance_document_is_frozen():
    # the CLI hands one parsed document to every request on the same text
    document = parse_instance_document(fixture_text("circuit.facts"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        document.observations = ()  # type: ignore[misc]


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
        assert _same_labelled(again, instance)


def test_constraints_round_trip_fixture_files():
    for name in ("dept.ics", "repair.ics", "keys.ics"):
        sigma = parse_constraints(fixture_text(name))
        assert parse_constraints(serialize_constraints(sigma)) == sigma


_name = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
_var = st.sampled_from(["X", "Y", "Z", "W"])
# symbols with every character the printer must quote or escape
_symbol = st.text(alphabet="ab'\\\n %#XZ09-_", min_size=1, max_size=5)
_predicate = st.one_of(_name, _name.map(lambda n: n + "-1"), _symbol)
_label = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,3}|[0-9]{1,3}", fullmatch=True)
_blank = st.sampled_from(["", "", " ", "\t ", "  "])
_comment = st.text(alphabet="ab %#'\\.:", max_size=6).map(lambda text: "%" + text)


def _pieces(predicate: str, args: tuple) -> list[str]:
    """The tokens of an atom as the printer writes them."""
    pieces = [str(Atom(predicate, ()))]
    if args:
        pieces.append("(")
        for k, term in enumerate(args):
            pieces += [",", str(term)] if k else [str(term)]
        pieces.append(")")
    return pieces


def _spaced(draw, pieces: list[str], gap=_blank) -> str:
    return "".join(draw(gap) + piece for piece in pieces)


@st.composite
def _programs(draw):
    predicates = draw(
        st.lists(st.tuples(_predicate, st.integers(1, 3)), min_size=1, max_size=3, unique_by=lambda t: t[0])
    )
    body = []
    for _ in range(draw(st.integers(1, 3))):
        name, arity = draw(st.sampled_from(predicates))
        args = tuple(Variable(draw(_var)) if draw(st.booleans()) else Constant(draw(_symbol)) for _ in range(arity))
        body.append(Atom(name + "_b", args))
    bound = sorted({v.name for a in body for v in a.variables()})
    width = draw(st.integers(0, min(2, len(bound))))
    answer = draw(st.sampled_from(["ans", "Ans", "an s", "e-1", "0"]))
    head = Atom(answer, tuple(Variable(v) for v in bound[:width]))
    return Program((Rule(head, tuple(body)),), answer)


@given(_programs())
@settings(max_examples=120, deadline=None)
def test_program_round_trip_random(program):
    assert parse_program(serialize_program(program)) == program


@given(_programs(), st.data())
@settings(max_examples=120, deadline=None)
def test_program_parses_with_blanks_and_comments_between_tokens(program, data):
    gap = st.one_of(_blank, st.just("\n"), _comment.map(lambda text: " " + text + "\n"))
    (rule,) = program.rules
    pieces = _pieces(rule.head.predicate, rule.head.args) + [":-"]
    for k, atom in enumerate(rule.body_atoms()):
        pieces += ([","] if k else []) + _pieces(atom.predicate, atom.args)
    text = _spaced(data.draw, [*pieces, "."], gap) + data.draw(gap)
    assert parse_program(text) == program


_facts = st.lists(
    st.tuples(_predicate, st.lists(_symbol, max_size=3), st.booleans(), st.one_of(st.none(), _label)),
    max_size=6,
)


def _instance(rows) -> Instance:
    """The instance of the rows, each label on one tuple only."""
    endo, exo, labels = set(), set(), {}
    for predicate, args, exogenous, label in rows:
        atom = GroundAtom(predicate, tuple(Constant(a) for a in args))
        if atom in endo or atom in exo:
            continue
        if label is not None and label not in labels.values():
            labels[atom] = label
        (exo if exogenous else endo).add(atom)
    return Instance(endo, exo, labels)


def _same_labelled(left: Instance, right: Instance) -> bool:
    return left == right and all(left.label_of(a) == right.label_of(a) for a in left.atoms)


@given(_facts)
@settings(max_examples=150, deadline=None)
def test_instance_round_trip_random(rows):
    instance = _instance(rows)
    assert _same_labelled(parse_instance(serialize_instance(instance)), instance)


@given(_facts, st.data())
@settings(max_examples=150, deadline=None)
def test_instance_parses_with_blank_lines_comments_and_blanks(rows, data):
    instance = _instance(rows)
    between = st.sampled_from(["", "\n", "   \n", "% a note\n", "%\n"])
    lines = []
    for section, atoms in (("", instance.endogenous), ("#exogenous", instance.exogenous)):
        if section:
            lines.append(section + data.draw(st.sampled_from(["", " ", " % exogenous"])))
        for atom in sorted(atoms, key=GroundAtom.sort_key):
            label = instance.label_of(atom)
            pieces = ([label, ":"] if label else []) + _pieces(atom.predicate, atom.args) + ["."]
            trailing = data.draw(st.one_of(_blank, _comment.map(lambda text: " " + text)))
            lines.append(data.draw(between) + _spaced(data.draw, pieces) + trailing)
    assert _same_labelled(parse_instance("\n".join(lines)), instance)


def test_constants_ending_in_a_newline_print_quoted():
    assert str(Constant("a\n")) == "'a\n'" and str(Constant("a\nb")) == "'a\nb'"
    assert [str(Constant(s)) for s in ("a", "aB_1", "0", "42", "a-1", "A")] == ["a", "aB_1", "0", "42", "'a-1'", "'A'"]
    instance = parse_instance("p('a\n').\n")
    assert serialize_instance(instance) == "p('a\n').\n"
    assert parse_instance(serialize_instance(instance)) == instance


def test_quoted_predicates_print_quoted_only_when_needed():
    instance = parse_instance("'P x'(a).\n'p'(b).\n")
    assert serialize_instance(instance) == "'P x'(a).\np(b).\n"
    assert parse_instance(serialize_instance(instance)) == instance
    program = parse_program("'Ans'(X) :- e(X).")
    assert serialize_program(program) == "'Ans'(X) :- e(X).\n"
    assert parse_program(serialize_program(program)) == program
    # every predicate that reads back bare prints bare
    for name in ("e-1", "0", "ans", "aB_c-2", "007"):
        assert str(Atom(name, (Variable("X"),))) == f"{name}(X)" and str(ground(name)) == name
    for name, printed in (("Ans", "'Ans'"), ("_p", "'_p'"), ("1a", "'1a'"), ("it's", "'it\\'s'"), ("a\n", "'a\n'")):
        assert str(ground(name, "a")) == f"{printed}(a)" and str(Atom(name, ())) == printed


@pytest.mark.parametrize("head", ["'false'", "'false'(X)", "q(X), 'false'"])
def test_tgd_head_named_false_stays_a_tgd(head):
    sigma = parse_constraints(f"p(X) => {head}.")
    assert sigma.constraints[0].kind == "tgd"
    assert parse_constraints(serialize_constraints(sigma)) == sigma


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
    assert {instance.label_of(a) for a in instance.atoms} == {"t2", None}
    with pytest.raises(Exception):
        instance.by_label("t1")


def test_one_label_on_two_tuples_is_an_error_at_the_later_label():
    for text, message in (
        ("t1: p(a).\n  t1: p(b).\n", "<instance>:2:3: label t1 is already on p(a)"),
        ("t1: p(a).\n#exogenous\nt1: q(a).\n", "<instance>:3:1: label t1 is already on p(a)"),
        ("t1: p(a).\nt2: p(a).\nt2: p(b).\n", "<instance>:3:1: label t2 is already on p(a)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message
    # a label that a fact's later label or its unlabelled repeat took off
    # it, and a fact given its own label again, are no clash
    freed = parse_instance("t1: p(a).\nt2: p(a).\nt1: p(b).\nt3: q(a).\nq(a).\nt3: q(b).\nt2: p(a).\n")
    assert [freed.by_label(t) for t in ("t1", "t2", "t3")] == [ground("p", "b"), ground("p", "a"), ground("q", "b")]
    assert freed.label_of(ground("q", "a")) is None


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
