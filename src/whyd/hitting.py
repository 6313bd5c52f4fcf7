"""Minimal-set searches: minimal hitting sets (Berge expansion with subset
pruning) and an ascending search for the minimal accepted subsets of a
universe.

Both are exact and exponential in the worst case; the callers only feed
them the small families and universes that arise at explanation scale.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def minimal_hitting_sets(
    families: Iterable[frozenset[T]],
    universe: frozenset[T] | None = None,
) -> list[frozenset[T]]:
    """All subset-minimal sets intersecting every given set.

    When ``universe`` is given, hitting sets may only use its elements;
    if some set cannot be hit inside the universe the result is empty.
    Hitting the empty set is impossible, so a family containing it has
    no hitting sets.  An empty family is hit by the empty set.
    """
    current: list[frozenset[T]] = [frozenset()]
    for family in families:
        if universe is not None:
            family = family & universe
        if not family:
            return []
        kept = [h for h in current if h & family]
        grown = [h | {e} for h in current if not (h & family) for e in family]
        current = _prune(kept + grown)
    return current


def _prune(candidates: list[frozenset[T]]) -> list[frozenset[T]]:
    unique = sorted(set(candidates), key=len)
    out: list[frozenset[T]] = []
    for cand in unique:
        if not any(prev < cand for prev in out):
            out.append(cand)
    return out


def minimal_sets(universe: Sequence[T], accepts: Callable[[frozenset[T]], bool]) -> list[frozenset[T]]:
    """The accepted subsets of ``universe`` that contain no smaller
    accepted subset, found in ascending size.

    Supersets of sets already found are never passed to ``accepts``, so
    the result is exactly the subset-minimal accepted sets whatever the
    shape of ``accepts``.  Subsets of one size are tried in the order
    ``combinations`` gives for the universe's order.  The only caller is
    ``constraints._SigmaAnalysis._family_for``, whose test is not
    monotone.
    """
    found: list[frozenset[T]] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            if any(prev <= candidate for prev in found):
                continue
            if accepts(candidate):
                found.append(candidate)
    return found
