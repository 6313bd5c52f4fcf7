import ast
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

import whyd
from whyd.hitting import minimal_hitting_sets, minimal_sets


def _mask(elements):
    return sum(1 << e for e in elements)


def _all_hitting_sets(families, universe):
    """Every set of elements of ``universe`` (bit positions) meeting every
    family member, as masks."""
    return [
        _mask(combo)
        for size in range(len(universe) + 1)
        for combo in combinations(sorted(universe), size)
        if all(_mask(combo) & f for f in families)
    ]


def _brute_minimal_hitting_sets(families, universe):
    hits = _all_hitting_sets(families, universe)
    return {h for h in hits if not any(other != h and other & h == other for other in hits)}


def _canonical(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), -m))


def _elements(families):
    return {e for f in families for e in range(f.bit_length()) if f >> e & 1}


def test_empty_family_is_hit_by_the_empty_set():
    assert minimal_hitting_sets([]) == [0]


def test_family_containing_the_empty_set_is_unhittable():
    assert minimal_hitting_sets([0, 0b10]) == []


def test_textbook_example():
    families = [0b011, 0b110, 0b101]
    assert minimal_hitting_sets(families) == [0b110, 0b101, 0b011]


_family = st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=4).map(_mask), min_size=0, max_size=5)


@given(_family)
@settings(max_examples=200, deadline=None)
def test_matches_brute_force_enumeration(families):
    found = minimal_hitting_sets(families)
    assert set(found) == _brute_minimal_hitting_sets(families, _elements(families))
    assert found == _canonical(found)


@given(_family, st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=3).map(_mask), max_size=3))
@settings(max_examples=200, deadline=None)
def test_search_with_a_prune_matches_brute_force(families, forbidden):
    # valid: hits every set and holds no forbidden set; holding one is
    # upward-closed, so it prunes
    ordered = sorted(families, key=int.bit_count)

    def conflict(gamma):
        if any(f & gamma == f for f in forbidden):
            return 0
        return next((f for f in ordered if not f & gamma), None)

    valid = [
        h for h in _all_hitting_sets(families, _elements(families)) if not any(f & h == f for f in forbidden)
    ]
    expected = {h for h in valid if not any(other != h and other & h == other for other in valid)}
    found = minimal_sets(conflict)
    assert len(found) == len(set(found))
    assert set(found) == expected
    assert found == _canonical(found)


def test_no_package_module_enumerates_subsets():
    # brute-force subset enumeration lives only in the tests
    banned = {"combinations", "product"}
    for path in Path(whyd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                assert not banned & {a.name for a in node.names}, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "itertools":
                assert node.attr not in banned, path.name
