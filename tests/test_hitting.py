import ast
from itertools import chain, combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

import whyd
from whyd.hitting import minimal_hitting_sets, minimal_sets


def _all_hitting_sets(families, universe):
    return [
        frozenset(combo)
        for size in range(len(universe) + 1)
        for combo in combinations(sorted(universe), size)
        if all(frozenset(combo) & f for f in families)
    ]


def _brute_minimal_hitting_sets(families, universe):
    hits = _all_hitting_sets(families, universe)
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


_family = st.lists(
    st.frozensets(st.integers(0, 5), min_size=1, max_size=4), min_size=0, max_size=5
)


@given(_family)
@settings(max_examples=200, deadline=None)
def test_matches_brute_force_enumeration(families):
    universe = set(chain.from_iterable(families))
    assert set(minimal_hitting_sets(families)) == _brute_minimal_hitting_sets(families, universe)


@given(_family, st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3), max_size=3))
@settings(max_examples=200, deadline=None)
def test_search_with_a_prune_matches_brute_force(families, forbidden):
    # valid: hits every set and holds no forbidden set; holding one is
    # upward-closed, so it prunes
    ordered = sorted(families, key=len)

    def conflict(gamma):
        if any(f <= gamma for f in forbidden):
            return ()
        return next((f for f in ordered if f.isdisjoint(gamma)), None)

    universe = set(chain.from_iterable(families))
    valid = [h for h in _all_hitting_sets(families, universe) if not any(f <= h for f in forbidden)]
    expected = {h for h in valid if not any(other < h for other in valid)}
    found = minimal_sets(conflict)
    assert len(found) == len(set(found))
    assert set(found) == expected
    assert [len(h) for h in found] == sorted(len(h) for h in found)


def test_no_package_module_enumerates_subsets():
    # brute-force subset enumeration lives only in the tests
    banned = {"combinations", "product"}
    for path in Path(whyd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                assert not banned & {a.name for a in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "itertools":
                assert node.attr not in banned, path.name
