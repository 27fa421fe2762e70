"""Language comparisons between pointed right-resolving presentations.

For essential graphs every finite prefix extends to an infinite walk, so
containment of the infinite-path label sets is the same as containment of
the prefix languages, and that is decidable by a synchronized search over
state pairs. The essential requirement is not decorative: with sinks on
either side the reduction is unsound, so untrimmed inputs are rejected.

Pointed isomorphism needs no search: in the canonical vertex order
(automaton.canonical_order) two reachable right-resolving graphs are
pointed-isomorphic exactly when their label tables are equal.
"""

from dataclasses import dataclass

import numpy as np

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
    row1, row2 = _rows(g1), _rows(g2)
    start = (g1.start, g2.start)
    parent: dict = {start: None}
    queue = [start]
    for pair in queue:  # the BFS queue: appended to while it is walked
        for a, (w1, w2) in enumerate(zip(row1(pair[0]), row2(pair[1]))):
            if w1 < 0:
                continue
            if w2 < 0:
                word = [a]
                node = pair
                while parent[node] is not None:
                    node, lab = parent[node]
                    word.append(lab)
                word.reverse()
                return ComparisonResult(False, tuple(word))
            nxt = (w1, w2)
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return ComparisonResult(True, None)


def _rows(g: PointedLabeledGraph):
    """v -> g.delta[v] as a list, converted on first use and kept in a dict:
    a search may read few rows of a large graph."""
    delta, cache = g.delta, {}

    def row(v: int) -> list:
        r = cache.get(v)
        if r is None:
            r = cache[v] = delta[v].tolist()
        return r

    return row


def pointed_isomorphic(g1: PointedLabeledGraph, g2: PointedLabeledGraph) -> bool:
    """Label-preserving vertex bijection taking start to start?

    In a reachable right-resolving graph such a map is forced edge by edge
    from the start pair, so it takes the canonical order of g1 (breadth
    first from the start, children in label order) to that of g2: the two
    are pointed-isomorphic exactly when their canonical label tables are
    equal. Builder graphs are in canonical order as built; a graph from the
    checked constructor is renumbered once. Carry labels play no part: they
    are construction artifacts.
    """
    validate(g1).require("left graph")
    validate(g2).require("right graph")
    return np.array_equal(g1.canonical_delta, g2.canonical_delta)
