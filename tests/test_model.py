import copy
import pickle

import pytest

from whyd.errors import (
    ArityMismatchError,
    HeadExtensionalError,
    UnsafeRuleError,
    WhydError,
)
from whyd.model import (
    Atom,
    Constant,
    GroundAtom,
    Instance,
    Program,
    Rule,
    Variable,
    active_domain,
    check_instance_against,
    ground,
    validate_program,
)

from conftest import load_instance, load_program


def test_constants_are_unique_names():
    assert Constant("a") == Constant("a")
    assert Constant("a") != Constant("b")
    assert Constant("a") != Variable("a")


def test_empty_symbol_rejected():
    with pytest.raises(WhydError):
        Constant("")
    with pytest.raises(WhydError):
        Variable("")


def test_ground_atom_identity_ignores_label():
    plain = ground("e", "a", "b")
    labelled = ground("e", "a", "b", label="t1")
    assert plain == labelled
    assert hash(plain) == hash(labelled)
    assert labelled.label == "t1"


def test_ground_atom_rejects_variables():
    with pytest.raises(WhydError):
        GroundAtom("p", (Variable("X"),))


# -- value semantics of terms and atoms ------------------------------------------

def _fresh(text: str) -> str:
    """An equal string that is not the interned object."""
    fresh = "".join(list(text))
    assert fresh is not text
    return fresh


def test_equality_and_hash_agree_and_ignore_labels():
    equal_pairs = [
        (Constant("ab"), Constant(_fresh("ab"))),
        (Variable("Xy"), Variable(_fresh("Xy"))),
        (ground("edge", "ab", "b"), ground(_fresh("edge"), _fresh("ab"), "b", label="t1")),
        (ground("e", "a", "b", label="t1"), ground("e", "a", "b", label="t2")),
        (ground("goal"), GroundAtom("goal", ())),
    ]
    for left, right in equal_pairs:
        assert left == right and not (left != right) and hash(left) == hash(right)
        assert len({left, right}) == 1
    unequal_pairs = [
        (Constant("a"), Constant("b")),
        (Variable("X"), Variable("Y")),
        (ground("e", "a", "b"), ground("e", "b", "a")),
        (ground("e", "a", "b"), ground("f", "a", "b")),
        (ground("e", "a"), ground("e", "a", "a")),
    ]
    for left, right in unequal_pairs:
        assert left != right and not (left == right)
        assert len({left, right}) == 2


def test_variable_and_constant_with_the_same_text_are_unequal():
    for text in ("a", "X", "_"):
        constant, variable = Constant(text), Variable(text)
        assert constant != variable and variable != constant
        assert not (constant == variable) and not (variable == constant)
        assert len({constant, variable}) == 2
    assert Constant("a") != "a" and Variable("X") != "X"
    assert ground("e", "a") != Atom("e", (Constant("a"),))


def test_sort_key_is_the_predicate_and_the_symbols():
    fact = ground("e", "b", "a", label="t1")
    assert fact.sort_key() == ("e", ("b", "a"))
    assert fact.sort_key() is fact.sort_key()
    assert ground("p").sort_key() == ("p", ())
    facts = [ground("e", "b"), ground("e", "a", "c"), ground("d", "z")]
    assert sorted(facts, key=GroundAtom.sort_key) == [ground("d", "z"), ground("e", "a", "c"), ground("e", "b")]


@pytest.mark.parametrize(
    "value, fields",
    [
        (Constant("a"), ("symbol", "extra")),
        (Variable("X"), ("name", "extra")),
        (ground("e", "a", "b", label="t1"), ("predicate", "args", "label", "extra")),
    ],
)
def test_attribute_assignment_raises(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, "z")
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize(
    "value", [Constant("a b"), Variable("X"), ground("e", "a", "b", label="t1"), ground("goal")]
)
def test_copies_and_pickles_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and hash(clone) == hash(value)
        assert type(clone) is type(value) and repr(clone) == repr(value) and str(clone) == str(value)
        if isinstance(value, GroundAtom):
            assert clone.label == value.label and clone.predicate is value.predicate
            assert all(c.symbol is v.symbol for c, v in zip(clone.args, value.args))
        else:
            assert str(clone) == str(value)
            text = clone.symbol if isinstance(value, Constant) else clone.name
            assert text is (value.symbol if isinstance(value, Constant) else value.name)


def test_reprs_and_strings():
    assert repr(Constant("a")) == "Constant('a')" and str(Constant("Mixed Case")) == "'Mixed Case'"
    assert repr(Variable("X")) == "Variable('X')" and str(Variable("X")) == "X"
    fact = ground("e", "a", "b", label="t1")
    assert repr(fact) == "GroundAtom(predicate='e', args=(Constant('a'), Constant('b')), label='t1')"
    assert str(fact) == "e(a, b)" and str(ground("goal")) == "goal"


def test_transitive_closure_program_is_valid():
    validate_program(load_program("graph.dl"))


def test_every_fixture_program_is_valid():
    for name in ("aj.dl", "graph.dl", "rs.dl", "access.dl", "circuit.dl", "dept_q.dl", "dept_q1.dl", "dept_qprime.dl", "repair.dl"):
        validate_program(load_program(name))


def test_empty_program_with_nullary_answer_is_valid():
    program = Program((), "ans")
    validate_program(program)
    assert program.is_boolean()


def test_programs_with_reordered_rules_are_equal_and_hash_equal():
    rules = load_program("graph.dl").rules
    forward, backward = Program(rules, "ans"), Program(rules[::-1], "ans")
    assert forward == backward and hash(forward) == hash(backward)
    assert forward != Program(rules, "p") and forward != Program(rules[:2], "ans")
    for clone in (copy.copy(forward), pickle.loads(pickle.dumps(forward))):
        assert clone == backward and hash(clone) == hash(backward)


def test_unbound_head_variable_is_unsafe():
    rule = Rule(Atom("ans", (Variable("X"),)), (Atom("e", (Variable("Y"), Variable("Z"))),))
    with pytest.raises(UnsafeRuleError) as err:
        validate_program(Program((rule,), "ans"))
    assert err.value.variable == Variable("X")


def test_unbound_builtin_variable_is_unsafe():
    from whyd.model import Comparison

    rule = Rule(
        Atom("ans", (Variable("X"),)),
        (Atom("e", (Variable("X"),)), Comparison("!=", Variable("X"), Variable("Y"))),
    )
    with pytest.raises(UnsafeRuleError):
        validate_program(Program((rule,), "ans"))


def test_nonground_fact_rule_is_unsafe():
    rule = Rule(Atom("p", (Variable("X"),)), ())
    with pytest.raises(UnsafeRuleError):
        validate_program(Program((rule,), "p"))


def test_arity_mismatch_is_detected_at_construction():
    rules = (
        Rule(Atom("ans", ()), (Atom("p", (Variable("X"),)),)),
        Rule(Atom("q", (Variable("X"), Variable("Y"))), (Atom("p", (Variable("X"), Variable("Y"))),)),
    )
    with pytest.raises(ArityMismatchError):
        Program(rules, "ans")


def test_intensional_split_counts_answer_predicate():
    program = load_program("graph.dl")
    assert program.intensional_predicates() == {"ans", "p"}
    assert program.extensional_predicates() == {"e"}


def test_active_domain_of_graph():
    domain = active_domain(load_instance("graph.facts"))
    assert domain == {Constant(s) for s in "abcde"}


def test_active_domain_empty_instance():
    assert active_domain(Instance()) == frozenset()


def test_active_domain_of_rs():
    domain = active_domain(load_instance("rs.facts"))
    assert domain == {Constant(s) for s in ("a1", "a2", "a3", "a4")}


def test_active_domain_monotone_under_union():
    small = load_instance("rs_nes.facts")
    grown = small.with_endogenous([ground("r", "zz", "ww")])
    assert active_domain(small) <= active_domain(grown)


def test_partitions_disjoint_and_reconstruct():
    instance = load_instance("circuit.facts")
    assert not (instance.endogenous & instance.exogenous)
    assert instance.endogenous | instance.exogenous == instance.atoms


def test_overlapping_partitions_rejected():
    with pytest.raises(WhydError):
        Instance([ground("p", "a")], [ground("p", "a")])


def test_labels_resolve_tuples():
    instance = load_instance("graph.facts")
    assert instance.by_label("t2") == ground("e", "b", "e")
    with pytest.raises(WhydError):
        instance.by_label("t99")


def test_duplicate_label_for_distinct_tuples_rejected():
    with pytest.raises(WhydError):
        Instance([ground("p", "a", label="t1"), ground("p", "b", label="t1")])


def test_all_endogenous_erases_partition():
    instance = load_instance("circuit.facts")
    flattened = instance.all_endogenous()
    assert flattened.atoms == instance.atoms
    assert not flattened.exogenous


def test_strict_instance_check_rejects_intensional_facts():
    program = load_program("graph.dl")
    instance = Instance([ground("p", "a", "b")])
    check_instance_against(program, instance)  # lenient mode: facts may seed the model
    with pytest.raises(HeadExtensionalError):
        check_instance_against(program, instance, strict=True)


def test_instance_check_flags_arity_clashes():
    program = load_program("graph.dl")
    with pytest.raises(ArityMismatchError):
        check_instance_against(program, Instance([ground("e", "a")]))
