"""Minimal hitting sets by Berge expansion with subset pruning.

Exact and exponential in the worst case; the callers only feed it the
small families that arise at explanation scale.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

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
