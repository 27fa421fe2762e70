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
    a shortest witness. Each graph's rows are read inline from a dict of
    the rows met so far, each turned into a list on first use: a search may
    read few rows of a large graph.
    """
    validate(g1).require("left graph")
    validate(g2).require("right graph")
    delta1, delta2 = g1.delta, g2.delta
    rows1, rows2 = {}, {}
    start = (g1.start, g2.start)
    parent: dict = {start: None}
    queue = [start]
    for pair in queue:  # the BFS queue: appended to while it is walked
        u1, u2 = pair
        row1 = rows1.get(u1)
        if row1 is None:
            row1 = rows1[u1] = delta1[u1].tolist()
        row2 = rows2.get(u2)
        if row2 is None:
            row2 = rows2[u2] = delta2[u2].tolist()
        for a in (0, 1, 2):
            w1 = row1[a]
            if w1 < 0:
                continue
            w2 = row2[a]
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
