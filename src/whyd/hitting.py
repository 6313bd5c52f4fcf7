"""The one minimal-set search, a breadth-first hitting-set tree with lazily
found conflicts (Reiter, AIJ 1987), over sets held as bitmasks.  Hitting
sets and the three kinds of contingency sets differ only in their
conflict function.  Callers number their elements in descending
canonical atom order (``model.bit_order``), so the search's own output
order, fewer elements first and then larger masks first, is the
canonical order of the sets it stands for.  Exact and exponential in
the worst case; callers feed it explanation-scale families.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

Conflict = Callable[[int], Optional[int]]


def minimal_sets(conflict: Conflict) -> list[int]:
    """All subset-minimal valid sets, as bitmasks, fewest elements first
    and then larger masks first.

    ``conflict(G)`` is None when G is valid, 0 when no superset of G is
    valid, and otherwise the mask of elements outside G of which every
    valid superset of G holds one.  From the empty set, each set branches
    on its conflict, level by level, so a minimal valid set M is reached
    at level |M| through its own elements.  Sets holding one found at an
    earlier level are skipped, so none found holds another."""
    found: list[int] = []
    level = {0}
    while level:
        earlier = tuple(found)
        settled: list[int] = []
        grown: set[int] = set()
        for gamma in level:
            for f in earlier:
                if f & gamma == f:
                    break
            else:
                unmet = conflict(gamma)
                if unmet is None:
                    settled.append(gamma)
                while unmet:
                    low = unmet & -unmet
                    grown.add(gamma | low)
                    unmet ^= low
        settled.sort(reverse=True)
        found += settled
        level = grown
    return found


def minimal_hitting_sets(families: Iterable[int]) -> list[int]:
    """All subset-minimal sets intersecting every given set, as
    ``minimal_sets`` orders them.

    Hitting the empty set is impossible, so a family containing it has
    no hitting sets.  An empty family is hit by the empty set.  Each
    set branches on the smallest set it misses."""
    ordered = sorted(families, key=int.bit_count)

    def conflict(gamma: int) -> int | None:
        for f in ordered:
            if not f & gamma:
                return f
        return None

    return minimal_sets(conflict)
