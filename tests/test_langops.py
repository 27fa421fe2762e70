import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cantor3 import (
    ComparisonResult,
    PointedLabeledGraph,
    Y_graph,
    admissible_word,
    build_multi,
    build_single,
    is_subset,
    pointed_isomorphic,
    trim_essential,
    validate,
)


def forced_map_isomorphic(g1, g2):
    """Pointed isomorphism by the forced map, the cross-check for the
    canonical tables: in a reachable right-resolving graph the map is forced
    edge by edge from the start pair, so one pass checks both consistency
    and bijectivity."""
    n = g1.n
    if n != g2.n:
        return False
    rows1, rows2 = g1.delta.tolist(), g2.delta.tolist()
    mapping, inverse = [-1] * n, [-1] * n
    mapping[g1.start], inverse[g2.start] = g2.start, g1.start
    queue = [g1.start]
    for u1 in queue:  # the BFS queue: appended to while it is walked
        for w1, w2 in zip(rows1[u1], rows2[mapping[u1]]):
            if (w1 < 0) != (w2 < 0):
                return False  # the two vertices read different labels
            if w1 < 0:
                continue
            m = mapping[w1]
            if m >= 0:
                if m != w2:
                    return False
            elif inverse[w2] >= 0:
                return False  # two vertices of g1 would land on w2
            else:
                mapping[w1] = w2
                inverse[w2] = w1
                queue.append(w1)
    return len(queue) == n


def _permuted(g, perm):
    """g through the checked constructor, vertex v renamed perm[v]."""
    inverse = np.argsort(perm).tolist()
    return PointedLabeledGraph([g.vertices[v] for v in inverse],
                               [(perm[s], perm[d], a) for s, d, a in g.edges], perm[g.start])


@st.composite
def _small_graphs(draw):
    """A small right-resolving graph with any start, through the checked
    constructor, trimmed: reachable, and essential unless its start is a sink."""
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.integers(min_value=-1, max_value=n - 1)
    rows = draw(st.lists(st.lists(cell, min_size=3, max_size=3), min_size=n, max_size=n))
    edges = [(v, d, a) for v, row in enumerate(rows) for a, d in enumerate(row) if d >= 0]
    return trim_essential(PointedLabeledGraph([(v,) for v in range(n)], edges,
                                              draw(st.integers(min_value=0, max_value=n - 1))))


def _is_subset_reference(g1, g2):
    """The same search reading rows through one closure per graph and
    zip/enumerate per pair: the cross-check for is_subset's inline reads."""
    validate(g1).require("left graph")
    validate(g2).require("right graph")

    def rows(g):
        delta, cache = g.delta, {}

        def row(v):
            r = cache.get(v)
            if r is None:
                r = cache[v] = delta[v].tolist()
            return r

        return row

    row1, row2 = rows(g1), rows(g2)
    start = (g1.start, g2.start)
    parent = {start: None}
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


# builder graphs: the Y graph and intersections of up to two multipliers
_builder_graphs = st.one_of(
    st.just(Y_graph()),
    st.lists(st.integers(min_value=1, max_value=3**6), min_size=1, max_size=2).map(build_multi))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_small_graphs(), _builder_graphs), st.one_of(_small_graphs(), _builder_graphs))
@example(Y_graph(), build_single(3**9 + 1))  # Y inside N_9
@example(build_single(3**7 + 1), Y_graph())  # N_7 not inside Y
def test_is_subset_matches_its_reference(g1, g2):
    # small graphs have any start and rows with label 2
    assume(validate(g1).essential and validate(g2).essential)
    got, want = is_subset(g1, g2), _is_subset_reference(g1, g2)
    assert (got.holds, got.witness) == (want.holds, want.witness)


def test_subset_along_intersection():
    # C(1,4) * C(1,13) collapses onto C(1,13), so C(1,13) sits inside C(1,4)
    res = is_subset(build_single(13), build_single(4))
    assert res.holds
    assert res.witness is None
    assert bool(res)


def test_subset_witness_is_shortest_and_real():
    res = is_subset(build_single(4), build_single(13))
    assert not res.holds
    w = res.witness
    assert w is not None
    assert admissible_word([4], w)
    assert not admissible_word([13], w)
    # nothing shorter separates the two languages
    for n in range(1, len(w)):
        for x in range(2**n):
            cand = tuple((x >> i) & 1 for i in range(n))
            assert not admissible_word([4], cand) or admissible_word([13], cand)


def test_full_shift_not_inside_7():
    res = is_subset(build_single(1), build_single(7))
    assert not res.holds
    assert res.witness == (1, 0)


def test_equality_reflexive_and_via_intersection():
    g = build_single(7)
    assert is_subset(g, g).holds
    prod, g13 = build_multi([4, 13]), build_single(13)
    assert is_subset(prod, g13).holds and is_subset(g13, prod).holds
    assert not is_subset(build_single(4), g13).holds


def test_subset_transitive_example():
    # absorption nests the L family: C(1,40) in C(1,13) in C(1,4)
    small = build_single(40)
    mid = build_single(13)
    big = build_single(4)
    assert is_subset(small, mid).holds
    assert is_subset(mid, big).holds
    assert is_subset(small, big).holds
    y = Y_graph()
    assert is_subset(y, build_single(28)).holds
    assert is_subset(y, big).holds


def test_pointed_isomorphic_cases():
    g = build_single(7)
    # same graph with vertices listed in a different order
    perm = [2, 0, 3, 1]  # new index of old vertex i
    inv = [perm.index(i) for i in range(4)]
    shuffled = PointedLabeledGraph(
        vertices=tuple(g.vertices[inv[i]] for i in range(4)),
        edges=tuple((perm[s], perm[d], a) for (s, d, a) in g.edges),
        start=perm[g.start],
    )
    assert pointed_isomorphic(g, shuffled)
    assert not pointed_isomorphic(g, build_single(19))
    assert not pointed_isomorphic(g, build_single(4))


# isomorphic builder pairs: a 3M spelling, a multiplier that absorbs
# another, and the words workload's 2^20 against 3 * 2^20
_SAME = [([7], [21]), ([7, 63], [7]), ([4, 13], [13]), ([2**20], [3 * 2**20])]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3**5), min_size=1, max_size=2),
       st.lists(st.integers(min_value=1, max_value=3**5), min_size=1, max_size=2),
       st.randoms(use_true_random=False))
@example([7], [19], None)
@example(*_SAME[0], None)
@example(*_SAME[1], None)
@example(*_SAME[2], None)
@example(*_SAME[3], None)
def test_canonical_tables_agree_with_the_forced_map(left, right, rnd):
    g1, g2 = build_multi(left), build_multi(right)
    want = forced_map_isomorphic(g1, g2)
    assert pointed_isomorphic(g1, g2) == want
    if (left, right) in _SAME:
        assert want
    if rnd is None:
        return
    # a random renumbering through the checked constructor is the same graph
    for g, other in ((g1, g2), (g2, g1)):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = _permuted(g, perm)
        assert pointed_isomorphic(g, h) and forced_map_isomorphic(g, h)
        assert np.array_equal(h.canonical_delta, g.delta)
        assert h._canonical == (perm == sorted(perm))
        assert pointed_isomorphic(h, other) == forced_map_isomorphic(h, other) == want


@settings(max_examples=200, deadline=None)
@given(_small_graphs(), _small_graphs(), st.randoms(use_true_random=False))
def test_canonical_tables_agree_with_the_forced_map_on_small_graphs(g1, g2, rnd):
    # any start, label 2 and vertices listed in any order
    assume(validate(g1).essential and validate(g2).essential)
    assert pointed_isomorphic(g1, g2) == forced_map_isomorphic(g1, g2)
    perm = list(range(g1.n))
    rnd.shuffle(perm)
    h = _permuted(g1, perm)
    assert pointed_isomorphic(g1, h) and forced_map_isomorphic(g1, h)
    assert pointed_isomorphic(h, g2) == forced_map_isomorphic(h, g2)


def _graph(n, edges):
    return PointedLabeledGraph(vertices=[(v,) for v in range(n)], edges=edges, start=0)


# (n, edges) pairs, each rejected by a different test of the forced map:
# the matched vertices read different labels; the left graph sends both
# labels of the start to one vertex and the right to two; the same swapped
_READS_OTHER_LABELS = ((2, ((0, 0, 0), (0, 1, 1), (1, 0, 0))),
                       (2, ((0, 0, 0), (0, 1, 1), (1, 0, 1))))
_MERGES = ((3, ((0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 0, 0))),
           (3, ((0, 1, 0), (0, 2, 1), (1, 0, 0), (2, 0, 0))))


@pytest.mark.parametrize("left, right", [_READS_OTHER_LABELS, _MERGES, _MERGES[::-1]],
                         ids=["labels", "merges", "splits"])
def test_pointed_isomorphic_rejections(left, right):
    g1, g2 = _graph(*left), _graph(*right)
    assert not pointed_isomorphic(g1, g2) and not forced_map_isomorphic(g1, g2)


def test_isomorphic_implies_equal():
    for pair in ((build_multi([4, 13]), build_single(13)),
                 (build_multi([7, 63]), build_single(7))):
        if pointed_isomorphic(*pair):
            assert is_subset(*pair).holds and is_subset(*pair[::-1]).holds


def test_rejects_sink_graphs():
    sink = PointedLabeledGraph(
        vertices=((0,), (1,)),
        edges=((0, 1, 0),),
        start=0,
    )
    ok = build_single(7)
    with pytest.raises(ValueError, match="left graph is not essential"):
        is_subset(sink, ok)
    with pytest.raises(ValueError, match="right graph is not essential"):
        is_subset(ok, sink)
    with pytest.raises(ValueError, match="left graph is not essential"):
        pointed_isomorphic(sink, ok)


def test_rejects_non_right_resolving():
    # such a graph cannot be built, so it never reaches a comparison
    with pytest.raises(ValueError, match="vertex 0 has two edges labeled 0.*right-resolving"):
        PointedLabeledGraph(
            vertices=((0,), (1,)),
            edges=((0, 0, 0), (0, 1, 0), (1, 0, 0)),
            start=0,
        )


def test_rejects_unreachable_vertices():
    g = PointedLabeledGraph(
        vertices=((0,), (1,)),
        edges=((0, 0, 0), (1, 1, 0)),
        start=0,
    )
    with pytest.raises(ValueError, match="left graph is not reachable"):
        is_subset(g, build_single(7))
