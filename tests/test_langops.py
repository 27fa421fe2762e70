import pytest

from cantor3 import (
    PointedLabeledGraph,
    Y_graph,
    admissible_word,
    build_multi,
    build_single,
    is_subset,
    pointed_isomorphic,
)


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


def _graph(n, edges):
    return PointedLabeledGraph(vertices=[(v,) for v in range(n)], edges=edges, start=0)


# (n, edges) pairs, each rejected by a different test of the mapping search:
# the matched vertices read different labels; the left graph sends both
# labels of the start to one vertex and the right to two; the same swapped
_READS_OTHER_LABELS = ((2, ((0, 0, 0), (0, 1, 1), (1, 0, 0))),
                       (2, ((0, 0, 0), (0, 1, 1), (1, 0, 1))))
_MERGES = ((3, ((0, 1, 0), (0, 1, 1), (1, 2, 0), (2, 0, 0))),
           (3, ((0, 1, 0), (0, 2, 1), (1, 0, 0), (2, 0, 0))))


@pytest.mark.parametrize("left, right", [_READS_OTHER_LABELS, _MERGES, _MERGES[::-1]],
                         ids=["labels", "merges", "splits"])
def test_pointed_isomorphic_rejections(left, right):
    assert not pointed_isomorphic(_graph(*left), _graph(*right))


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
