import ast
from itertools import chain, combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

import whyd
from whyd.hitting import minimal_hitting_sets


def _brute_minimal_hitting_sets(families, universe):
    families = [frozenset(f) for f in families]
    hits = [
        frozenset(combo)
        for size in range(len(universe) + 1)
        for combo in combinations(sorted(universe), size)
        if all(frozenset(combo) & f for f in families)
    ]
    return {h for h in hits if not any(other < h for other in hits)}


def test_empty_family_is_hit_by_the_empty_set():
    assert minimal_hitting_sets([]) == [frozenset()]


def test_family_containing_the_empty_set_is_unhittable():
    assert minimal_hitting_sets([frozenset(), frozenset({1})]) == []


def test_textbook_example():
    families = [frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})]
    assert set(minimal_hitting_sets(families)) == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({1, 3}),
    }


def test_restricted_universe():
    families = [frozenset({1, 2}), frozenset({2, 3})]
    assert set(minimal_hitting_sets(families, frozenset({1, 3}))) == {frozenset({1, 3})}
    assert minimal_hitting_sets(families, frozenset({1})) == []


_family = st.lists(
    st.frozensets(st.integers(0, 5), min_size=1, max_size=4), min_size=0, max_size=5
)


@given(_family)
@settings(max_examples=200, deadline=None)
def test_matches_brute_force_enumeration(families):
    universe = set(chain.from_iterable(families))
    assert set(minimal_hitting_sets(families)) == _brute_minimal_hitting_sets(families, universe)


@given(_family, st.frozensets(st.integers(0, 5), max_size=4))
@settings(max_examples=200, deadline=None)
def test_restricted_matches_brute_force(families, universe):
    expected = {
        h
        for h in _brute_minimal_hitting_sets(
            families, set(chain.from_iterable(families)) & universe
        )
        if h <= universe
    }
    got = set(minimal_hitting_sets(families, universe))
    if any(not (f & universe) for f in families):
        assert got == set()
    else:
        assert got == expected


def test_no_package_module_enumerates_subsets():
    # brute-force subset enumeration lives only in the tests
    banned = {"combinations", "product"}
    for path in Path(whyd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                assert not banned & {a.name for a in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "itertools":
                assert node.attr not in banned, path.name
