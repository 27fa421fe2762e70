"""Language comparisons between pointed right-resolving presentations.

For essential graphs every finite prefix extends to an infinite walk, so
containment of the infinite-path label sets is the same as containment of
the prefix languages, and that is decidable by a synchronized search over
state pairs. The essential requirement is not decorative: with sinks on
either side the reduction is unsound, so untrimmed inputs are rejected.
"""

from collections import deque
from dataclasses import dataclass

from .automaton import PointedLabeledGraph, validate


@dataclass(frozen=True)
class ComparisonResult:
    holds: bool
    witness: tuple[int, ...] | None = None  # shortest offending word when holds is False

    def __bool__(self):
        return self.holds


def is_subset(g1: PointedLabeledGraph, g2: PointedLabeledGraph) -> ComparisonResult:
    """Does every word readable in g1 from its start occur in g2?

    Breadth-first over state pairs: from (u1, u2) every out-label of u1
    must be an out-label of u2. Breadth-first order makes the first failure
    a shortest witness.
    """
    validate(g1).require("left graph")
    validate(g2).require("right graph")
    start = (g1.start, g2.start)
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        u1, u2 = pair
        row1, row2 = g1.out[u1], g2.out[u2]
        for a in sorted(row1):
            if a not in row2:
                word = [a]
                node = pair
                while parent[node] is not None:
                    node, lab = parent[node]
                    word.append(lab)
                word.reverse()
                return ComparisonResult(False, tuple(word))
            nxt = (row1[a], row2[a])
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return ComparisonResult(True, None)


def is_equal(g1: PointedLabeledGraph, g2: PointedLabeledGraph) -> ComparisonResult:
    """Mutual containment; the witness comes from whichever direction failed."""
    fwd = is_subset(g1, g2)
    if not fwd.holds:
        return fwd
    return is_subset(g2, g1)


def pointed_isomorphic(g1: PointedLabeledGraph, g2: PointedLabeledGraph) -> bool:
    """Label-preserving vertex bijection taking start to start?

    In a reachable right-resolving graph the candidate map is forced edge by
    edge from the start pair, so one pass checks both consistency and
    bijectivity. Carry labels play no part: they are construction artifacts.
    """
    validate(g1).require("left graph")
    validate(g2).require("right graph")
    if g1.n != g2.n:
        return False
    mapping = {g1.start: g2.start}
    inverse = {g2.start: g1.start}
    queue = deque([g1.start])
    while queue:
        u1 = queue.popleft()
        u2 = mapping[u1]
        row1, row2 = g1.out[u1], g2.out[u2]
        if set(row1) != set(row2):
            return False
        for a in sorted(row1):
            w1, w2 = row1[a], row2[a]
            if w1 in mapping:
                if mapping[w1] != w2:
                    return False
            elif w2 in inverse:
                return False  # two vertices of g1 would land on w2
            else:
                mapping[w1] = w2
                inverse[w2] = w1
                queue.append(w1)
    return len(mapping) == g1.n
