import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from whyd.errors import (
    ArityMismatchError,
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
    atom_bits,
    bit_order,
    canonical_masks,
    check_instance_against,
    decode,
    derived_atom,
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
    # a tuple is its predicate and arguments; a label names it in one
    # instance and leaves both the atom and the instance's value alone
    atom = ground("e", "a", "b")
    assert GroundAtom.__slots__ == ("predicate", "args", "key", "_hash")
    first, second = Instance([atom], labels={atom: "t1"}), Instance([atom], labels={atom: "t2"})
    assert first == second and hash(first) == hash(second) and first == Instance([atom])
    assert first.label_of(atom) == "t1" and second.label_of(atom) == "t2" and Instance([atom]).label_of(atom) is None
    assert first.by_label("t1") is atom and first.by_label("t1") == second.by_label("t2")


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
        (ground("edge", "ab", "b"), ground(_fresh("edge"), _fresh("ab"), "b")),
        (ground("goal"), GroundAtom("goal", ())),
        (
            Instance([ground("e", "a", "b")], labels={ground("e", "a", "b"): "t1"}),
            Instance([ground("e", "a", "b")], labels={ground("e", "a", "b"): "t2"}),
        ),
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
    fact = ground("e", "b", "a")
    assert fact.sort_key() == ("e", "b", "a")
    assert fact.sort_key() is fact.sort_key() is fact.key
    assert ground("p").sort_key() == ("p",)
    facts = [ground("e", "b"), ground("e", "a", "c"), ground("d", "z")]
    assert sorted(facts, key=GroundAtom.sort_key) == [ground("d", "z"), ground("e", "a", "c"), ground("e", "b")]


# atoms whose canonical order differs from their symbols' and their
# creation order: prefixes, arities, digits and a quoted predicate
_POOL = [
    ground(p, *args)
    for p in ("e", "ea", "E", "e e")
    for args in ((), ("b",), ("a", "c"), ("a",), ("10",), ("9",), ("a", "b"))
]


def _family_order(atoms):
    """The canonical family order, from its definition: smaller sets first,
    then by their atoms' sort keys in order."""
    return (len(atoms), sorted(a.sort_key() for a in atoms))


@given(
    st.lists(st.sampled_from(_POOL), max_size=12),
    st.lists(st.frozensets(st.sampled_from(_POOL), max_size=6), max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_masks_in_canonical_numbering_sort_and_decode_as_the_sets(numbered, family):
    # the atoms numbered in descending canonical order, bit i for the
    # i-th: (popcount, -mask) order is the family order of the sets
    atoms = bit_order(set(numbered).union(*family))
    bits = atom_bits(atoms)
    assert [bits[a] for a in atoms] == [1 << i for i in range(len(atoms))]
    masks = [sum(bits[a] for a in delta) for delta in family]
    assert [decode(mask, atoms) for mask in masks] == family
    ordered = canonical_masks(masks)
    assert ordered == sorted(masks, key=lambda m: (m.bit_count(), -m))
    assert [decode(mask, atoms) for mask in ordered] == sorted(family, key=_family_order)


def _old_sort_key(atom):
    """The canonical order as it was first defined: the predicate, then
    the tuple of the arguments' symbols."""
    return (atom.predicate, tuple(c.symbol for c in atom.args))


# the _POOL atoms and more of the same kinds
_ATOMS = st.one_of(
    st.sampled_from(_POOL),
    st.builds(
        lambda predicate, symbols: GroundAtom(predicate, tuple(map(Constant, symbols))),
        st.sampled_from(["e", "ea", "E", "e e", "p"]),
        st.lists(st.sampled_from(["a", "b", "ab", "a b", "9", "10", "B"]), max_size=3),
    ),
)


@given(st.lists(_ATOMS, max_size=12))
@settings(max_examples=300, deadline=None)
def test_the_key_is_the_atoms_equality_hash_and_order(atoms):
    for a in atoms:
        assert a.key == (a.predicate, *(c.symbol for c in a.args)) and a.sort_key() is a.key
        for derived in (derived_atom(a.predicate, a.args), derived_atom(a.predicate, a.args, a.key)):
            assert derived == a and derived.key == a.key and hash(derived) == hash(a)
        for b in atoms:
            same = a.predicate == b.predicate and a.args == b.args
            assert (a == b) is same and (a.key == b.key) is same
            assert not same or hash(a) == hash(b)
    assert sorted(atoms, key=GroundAtom.sort_key) == sorted(atoms, key=_old_sort_key)


@pytest.mark.parametrize("args", [(), ("a",), ("a", "b b", "a")])
def test_derived_atoms_equal_constructed_ones(args):
    atom = GroundAtom("e", tuple(Constant(s) for s in args))
    derived = derived_atom("e", atom.args)
    assert type(derived) is GroundAtom and derived == atom and hash(derived) == hash(atom)
    assert derived.sort_key() == atom.sort_key() and str(derived) == str(atom) and repr(derived) == repr(atom)
    assert {derived, GroundAtom("e", atom.args)} == {atom}


@pytest.mark.parametrize(
    "value, fields",
    [
        (Constant("a"), ("symbol", "extra")),
        (Variable("X"), ("name", "extra")),
        (ground("e", "a", "b"), ("predicate", "args", "label", "extra")),
        (derived_atom("e", (Constant("a"),)), ("predicate", "args", "label", "extra")),
    ],
)
def test_attribute_assignment_raises(value, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, "z")
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize(
    "value",
    [Constant("a b"), Variable("X"), ground("e", "a", "b"), ground("goal"), derived_atom("e", (Constant("a"),))],
)
def test_copies_and_pickles_round_trip(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and hash(clone) == hash(value)
        assert type(clone) is type(value) and repr(clone) == repr(value) and str(clone) == str(value)
        if isinstance(value, GroundAtom):
            assert clone.predicate is value.predicate
            assert all(c.symbol is v.symbol for c, v in zip(clone.args, value.args))
        else:
            assert str(clone) == str(value)
            text = clone.symbol if isinstance(value, Constant) else clone.name
            assert text is (value.symbol if isinstance(value, Constant) else value.name)


def test_reprs_and_strings():
    assert repr(Constant("a")) == "Constant('a')" and str(Constant("Mixed Case")) == "'Mixed Case'"
    assert repr(Variable("X")) == "Variable('X')" and str(Variable("X")) == "X"
    fact = ground("e", "a", "b")
    assert repr(fact) == "GroundAtom(predicate='e', args=(Constant('a'), Constant('b')))"
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
    # the engine refuses it too when handed the program unvalidated
    from whyd.evaluator import evaluate_fixpoint

    with pytest.raises(UnsafeRuleError) as err:
        evaluate_fixpoint(Program((rule,), "ans"), [ground("e", "a", "b")])
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
    assert instance.label_of(ground("e", "b", "e")) == "t2"
    assert instance.label_of(ground("e", "z", "z")) is None
    with pytest.raises(WhydError):
        instance.by_label("t99")


def test_duplicate_label_for_distinct_tuples_rejected():
    a, b = ground("p", "a"), ground("p", "b")
    with pytest.raises(WhydError, match="label t1 used for two distinct tuples"):
        Instance([a, b], labels={a: "t1", b: "t1"})
    # a label on a tuple the instance does not hold
    with pytest.raises(WhydError, match="not in the instance"):
        Instance([a], labels={a: "t1", b: "t2"})


def test_derived_instances_answer_labels_only_for_their_tuples():
    a, b, c = ground("p", "a"), ground("p", "b"), ground("q", "c")
    source = Instance([a, b], [c], labels={a: "t1", b: "t2", c: "t3"})
    for derived, held in (
        (source.without({a}), {b: "t2", c: "t3"}),
        (source.without({a, c}).with_endogenous({a}), {a: "t1", b: "t2"}),
        (source.all_endogenous(), {a: "t1", b: "t2", c: "t3"}),
        (source.without({a}).all_endogenous(), {b: "t2", c: "t3"}),
    ):
        assert derived.atoms == frozenset(held)
        for atom, label in {a: "t1", b: "t2", c: "t3"}.items():
            if atom in held:
                assert derived.label_of(atom) == label and derived.by_label(label) is atom
            else:
                assert derived.label_of(atom) is None
                with pytest.raises(WhydError):
                    derived.by_label(label)
    assert source.label_of(a) == "t1" and source.by_label("t1") is a


def test_all_endogenous_erases_partition():
    instance = load_instance("circuit.facts")
    flattened = instance.all_endogenous()
    assert flattened.atoms == instance.atoms
    assert not flattened.exogenous


def test_instance_check_accepts_intensional_facts():
    # facts over a rule head's predicate may seed the model
    check_instance_against(load_program("graph.dl"), Instance([ground("p", "a", "b")]))


def test_instance_check_flags_arity_clashes():
    program = load_program("graph.dl")
    with pytest.raises(ArityMismatchError):
        check_instance_against(program, Instance([ground("e", "a")]))
