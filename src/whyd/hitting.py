"""The one minimal-set search, a breadth-first hitting-set tree with lazily
found conflicts (Reiter, AIJ 1987).  Hitting sets and the three kinds of
contingency sets differ only in their conflict function.  Exact and
exponential in the worst case; callers feed it explanation-scale families.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, TypeVar

T = TypeVar("T", bound=Hashable)

Conflict = Callable[[frozenset[T]], Optional[Iterable[T]]]


def minimal_sets(conflict: Conflict) -> list[frozenset[T]]:
    """All subset-minimal valid sets, smallest first.

    ``conflict(G)`` is None when G is valid, an empty iterable when no
    superset of G is valid, and otherwise elements outside G of which
    every valid superset of G holds one.  From the empty set, each set
    branches on its conflict, level by level, so a minimal valid set M
    is reached at level |M| through its own elements.  Sets holding one
    found at an earlier level are skipped, so none found holds another."""
    found: list[frozenset[T]] = []
    level: set[frozenset[T]] = {frozenset()}
    while level:
        earlier = tuple(found)
        grown: set[frozenset[T]] = set()
        for gamma in level:
            for f in earlier:
                if f <= gamma:
                    break
            else:
                unmet = conflict(gamma)
                if unmet is None:
                    found.append(gamma)
                else:
                    grown.update(gamma | {t} for t in unmet)
        level = grown
    return found


def minimal_hitting_sets(families: Iterable[frozenset[T]]) -> list[frozenset[T]]:
    """All subset-minimal sets intersecting every given set.

    Hitting the empty set is impossible, so a family containing it has
    no hitting sets.  An empty family is hit by the empty set.  Each
    set branches on the smallest set it misses."""
    ordered = sorted(families, key=len)

    def conflict(gamma: frozenset[T]) -> frozenset[T] | None:
        for f in ordered:
            if f.isdisjoint(gamma):
                return f
        return None

    return minimal_sets(conflict)
