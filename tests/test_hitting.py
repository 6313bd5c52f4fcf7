from itertools import chain, combinations

from hypothesis import given, settings, strategies as st

from whyd.hitting import minimal_hitting_sets, minimal_sets


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


@given(_family)
@settings(max_examples=200, deadline=None)
def test_minimal_sets_of_hitting_matches_brute_force(families):
    universe = sorted(set(chain.from_iterable(families)))
    got = minimal_sets(universe, lambda candidate: all(candidate & f for f in families))
    assert len(got) == len(set(got))
    assert set(got) == _brute_minimal_hitting_sets(families, universe)
