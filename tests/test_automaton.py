import itertools
import json
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantor3 import (
    PointedLabeledGraph,
    RefusalError,
    brute_count,
    brute_count_extendable,
    build_multi,
    build_multi_direct,
    build_single,
    count_paths,
    is_equal,
    label_product,
    normalize,
    pointed_isomorphic,
    reachable_product,
    to_dot,
    to_json,
    trim_essential,
    validate,
)
from cantor3.automaton import (
    LIMB_KERNEL_EDGES,
    _count_paths_limbs,
    _count_paths_loop,
    to_json_dict,
    vertex_name,
)
from cantor3.families import Y_graph


def test_build_single_7_exact():
    g = build_single(7)
    assert g.n == 4
    assert [c[0] for c in g.vertices] == [0, 2, 3, 1]
    assert set(g.edges) == {
        (0, 0, 0),
        (0, 1, 1),
        (1, 2, 1),
        (2, 3, 0),
        (2, 2, 1),
        (3, 0, 0),
    }
    assert g.start == 0


def test_build_single_19_shape():
    g = build_single(19)
    assert g.n == 8
    assert all(c[0] <= 9 for c in g.vertices)  # carries bounded by floor(M/2)


def test_residue_two_collapses():
    for m in (2, 5, 6, 20, 47):
        g = build_single(m)
        assert g.n == 1
        assert g.edges == ((0, 0, 0),)
        assert g.provenance.startswith("trivial")


def test_build_single_validates_everywhere():
    for m in range(1, 1001):
        if m % 3 != 1:
            continue
        g = build_single(m)
        rep = validate(g, [m])
        assert rep.all_ok, (m, rep)
        # every vertex keeps an exit: label 0 works whenever carry % 3 <= 1,
        # label 1 whenever carry % 3 is 0 or 2, so one of them always applies
        assert all(g.out)


def test_carry_bound_is_tight_for_small_cases():
    g = build_single(7)
    assert max(c[0] for c in g.vertices) == 3 == 7 // 2


def test_build_multi_matches_direct_construction():
    pool = [4, 7, 10, 13, 16, 19, 22, 25]
    rng = random.Random(7)
    seen = set()
    for size in (1, 2, 3):
        for _ in range(12):
            tup = tuple(sorted(rng.sample(pool, size)))
            if tup in seen:
                continue
            seen.add(tup)
            a = build_multi(list(tup))
            b = build_multi_direct(list(tup))
            assert pointed_isomorphic(a, b), tup
            assert is_equal(a, b).holds, tup


def test_residue_two_same_in_both_builders():
    for ms in ([2], [5], [2, 7], [5, 7, 19], [4, 11]):
        a, b = build_multi(ms), build_multi_direct(ms)
        assert (a.start, a.edges) == (b.start, b.edges) == (0, ((0, 0, 0),)), ms
        assert a.provenance == b.provenance, ms


def test_fold_order_does_not_matter():
    for tup in ([7, 19, 25], [4, 13, 22]):
        gs = [build_single(m) for m in tup]
        results = []
        for perm in itertools.permutations(range(3)):
            g = gs[perm[0]]
            for i in perm[1:]:
                g = label_product(g, gs[i])
            results.append(g)
        for other in results[1:]:
            assert pointed_isomorphic(results[0], other)


def test_normalization_and_dedup_in_build_multi():
    # 63 = 9*7 and 21 = 3*7 both normalize to 7
    assert pointed_isomorphic(build_multi([7, 63, 21]), build_single(7))
    # multiplier 1 contributes nothing
    assert pointed_isomorphic(build_multi([1, 7]), build_single(7))
    assert build_multi([1]).n == 1
    assert count_paths(build_multi([1]), 5) == 32


def test_trim_removes_dead_branches():
    g1, g2 = build_single(4), build_single(16)
    raw = reachable_product(g1, g2)
    trimmed = trim_essential(raw)
    assert trimmed.n <= raw.n
    for n in range(1, 9):
        assert count_paths(raw, n) == brute_count([4, 16], n)
        assert count_paths(trimmed, n) == brute_count_extendable([4, 16], n)


def test_trim_is_identity_on_essential_graphs():
    g = build_single(7)
    assert trim_essential(g) is g


def _trim_essential_reference(g):
    """The set-per-vertex trim that trim_essential replaced, kept as reference."""
    n = g.n
    alive = [True] * n
    outdeg = [0] * n
    preds = [[] for _ in range(n)]
    for s, d, _ in g.edges:
        outdeg[s] += 1
        preds[d].append(s)
    dead = deque(v for v in range(n) if outdeg[v] == 0 and v != g.start)
    while dead:
        v = dead.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for p in preds[v]:
            if alive[p]:
                outdeg[p] -= 1
                if outdeg[p] == 0 and p != g.start:
                    dead.append(p)
    succ = [set() for _ in range(n)]
    for s, d, _ in g.edges:
        if alive[s] and alive[d]:
            succ[s].add(d)
    seen = {g.start}
    queue = deque([g.start])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    keep = [v for v in range(n) if alive[v] and v in seen]
    if len(keep) == n:
        return g
    renum = {v: i for i, v in enumerate(keep)}
    vertices = [g.vertices[v] for v in keep]
    edges = [(renum[s], renum[d], a) for (s, d, a) in g.edges
             if s in renum and d in renum]
    return PointedLabeledGraph(vertices, edges, renum[g.start], provenance=g.provenance)


def _assert_trim_matches_reference(g):
    got, want = trim_essential(g), _trim_essential_reference(g)
    assert (got.vertices, got.edges, got.start) == (want.vertices, want.edges, want.start)
    assert (got is g) == (want is g)


@pytest.mark.parametrize("ms", [(4, 16), (4, 256), (7, 19), (3**5 + 1, 3**6 + 1)])
def test_trim_matches_reference(ms):
    _assert_trim_matches_reference(reachable_product(build_single(ms[0]), build_single(ms[1])))


def test_trim_matches_reference_on_random_graphs():
    # sinks, unreachable parts and parallel edges with distinct labels, which
    # products never have all of; at most one edge per (source, label), drawn
    # in that order
    rng = random.Random(5)
    cut = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        edges = [(s, rng.randrange(n), a) for s in range(n) for a in range(3)
                 if rng.random() < 0.4]
        g = PointedLabeledGraph([(v,) for v in range(n)], edges, rng.randrange(n))
        _assert_trim_matches_reference(g)
        cut += trim_essential(g) is not g
    assert cut > 0


def test_count_paths_examples():
    g = build_single(7)
    assert [count_paths(g, n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    full = build_single(1)
    assert count_paths(full, 10) == 1024
    assert count_paths(g, 0) == 1


def test_count_paths_rejects_bad_input():
    g = build_single(7)
    with pytest.raises(ValueError):
        count_paths(g, -1)


def _high_in_degree_graph():
    """Right-resolving, labels 0/1/2, every vertex reads 0 and 1 into vertex 0.

    Vertex 0 has in-degree 9 and each (v, 0) pair is a duplicate edge, so
    the kernel's matrix sums them and its limbs are narrower than at D = 2.
    """
    k = 4
    edges = [(v, d, a) for v in range(k) for d, a in ((0, 0), (0, 1), ((v + 1) % k, 2))]
    return PointedLabeledGraph([(v,) for v in range(k)], edges, 0, provenance="fan-in")


KERNEL_GRAPHS = {
    "N_5": lambda: build_multi([3**5 + 1]),
    "N_7": lambda: build_multi([3**7 + 1]),
    "7,19": lambda: build_multi([7, 19]),
    "Y": Y_graph,
    "fan-in": _high_in_degree_graph,
    "raw 4,16": lambda: reachable_product(build_single(4), build_single(16)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GRAPHS))
def test_count_paths_kernel_matches_loop(name):
    g = KERNEL_GRAPHS[name]()
    for n in (0, 1, 62, 63, 64, 65, 66, 200, 400):
        want = _count_paths_loop(g, n)
        got = _count_paths_limbs(g, n)
        assert type(got) is int
        assert got == want, (name, n)


def test_count_paths_kernel_grows_limbs():
    # 279 bits need six 48-bit limbs, all grown from one; the value is
    # compared with the loop in test_count_paths_kernel_matches_loop
    assert _count_paths_limbs(build_multi([3**5 + 1]), 400).bit_length() == 279


def test_count_paths_kernel_on_duplicate_edges():
    g = _high_in_degree_graph()
    assert max(sum(1 for _, d, _ in g.edges if d == v) for v in range(g.n)) >= 8
    assert len(set((s, d) for s, d, _ in g.edges)) < len(g.edges)

    def words(v, n):  # readable words, enumerated one by one
        return 1 if n == 0 else sum(words(w, n - 1) for w in g.out[v].values())

    for n in range(7):
        assert _count_paths_limbs(g, n) == words(g.start, n)
    assert _count_paths_limbs(g, 400) == _count_paths_loop(g, 400)


def test_count_paths_kernel_on_wide_fan_in():
    # in-degree 18 000 > 2^14: the limb width must shrink with it, or the
    # first carry leaves no room for a step
    k = 6000
    g = PointedLabeledGraph([(v,) for v in range(k)],
                            [(v, 0, a) for v in range(k) for a in (0, 1, 2)], 0)
    assert _count_paths_limbs(g, 200) == 3**200


def test_count_paths_kernel_matches_oracle():
    m = 3**5 + 1
    g = build_multi([m])
    raw = reachable_product(build_single(4), build_single(16))
    trimmed = trim_essential(raw)
    pair = build_multi([7, 19])
    for n in (0, 1, 5, 10):
        assert _count_paths_limbs(g, n) == brute_count([m], n)
        assert _count_paths_limbs(raw, n) == brute_count([4, 16], n)
        assert _count_paths_limbs(trimmed, n) == brute_count_extendable([4, 16], n)
        assert _count_paths_limbs(pair, n) == brute_count_extendable([7, 19], n)


def test_count_paths_takes_the_kernel_at_the_cutoff(monkeypatch):
    import cantor3.automaton as automaton

    small, large = build_multi([3**5 + 1]), build_multi([3**7 + 1])
    assert len(small.edges) < LIMB_KERNEL_EDGES <= len(large.edges)
    taken = []
    for name in ("_count_paths_loop", "_count_paths_limbs"):
        fn = getattr(automaton, name)
        monkeypatch.setattr(automaton, name,
                            lambda g, n, fn=fn, name=name: taken.append(name) or fn(g, n))
    assert count_paths(large, 300) == _count_paths_loop(large, 300)
    assert count_paths(small, 300) == _count_paths_limbs(small, 300)
    assert taken == ["_count_paths_limbs", "_count_paths_loop"]
    with pytest.raises(ValueError, match="nonnegative"):
        count_paths(large, -1)
    with pytest.raises(ValueError, match="right-resolving"):
        PointedLabeledGraph(large.vertices, large.edges + ((0, 1, 0),), 0)


def test_validate_flags_stranded_vertex():
    g = PointedLabeledGraph(
        vertices=((0,), (1,), (5,)),
        edges=((0, 0, 0), (0, 1, 1), (1, 0, 0)),
        start=0,
    )
    rep = validate(g)
    assert not rep.all_ok
    assert not rep.reachable


def test_validate_flags_sink():
    g = PointedLabeledGraph(
        vertices=((0,), (1,)),
        edges=((0, 1, 0),),
        start=0,
    )
    rep = validate(g)
    assert not rep.essential


@pytest.mark.parametrize("edges, start, message", [
    pytest.param(((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)), 0,
                 "vertex 1 has two edges labeled 1; a presentation must be right-resolving",
                 id="duplicate-label"),
    pytest.param(((0, 3, 0),), 0, r"edge \(0,3,0\) references a missing vertex",
                 id="missing-vertex"),
    pytest.param(((0, 0, 3),), 0, "edge label 3 outside the alphabet", id="label-3"),
    pytest.param(((0, 0, 7),), 0, "edge label 7 outside the alphabet", id="label-7"),
    pytest.param((), 2, "start vertex 2 out of range", id="bad-start"),
])
def test_constructor_rejects_garbage(edges, start, message):
    with pytest.raises(ValueError, match=message):
        PointedLabeledGraph(vertices=((0,), (1,)), edges=edges, start=start)


def test_constructor_converts_edges_to_int():
    # edges reach repr-based digests, so numpy scalars must not leak in
    g = PointedLabeledGraph([(0,)], np.array([(0, 0, 0), (0, 0, 1)]), 0)
    assert repr(g.edges) == "((0, 0, 0), (0, 0, 1))"
    assert g.out == ({0: 0, 1: 0},)


def _residue_1(bound):
    return st.integers(min_value=1, max_value=bound - 1).filter(
        lambda m: normalize(m).residue == 1)


def _assert_round_trips(g):
    h = PointedLabeledGraph(g.vertices, g.edges, g.start, g.provenance)
    assert (h.vertices, h.edges, h.out, h.start, h.provenance) == (
        g.vertices, g.edges, g.out, g.start, g.provenance)
    assert g.edges == tuple(sorted(g.edges, key=lambda e: (e[0], e[2])))


@settings(max_examples=40, deadline=None)
@given(st.lists(_residue_1(3**5), min_size=1, max_size=3))
def test_checked_constructor_reproduces_builder_tables(ms):
    # the builders' unchecked tables pass the checked constructor unchanged
    _assert_round_trips(build_multi(ms))
    _assert_round_trips(build_multi_direct(ms))
    _assert_round_trips(reachable_product(build_single(ms[0]), build_single(ms[-1])))
    _assert_round_trips(Y_graph())


def test_max_vertices_refusal():
    with pytest.raises(RefusalError):
        build_single(7, max_vertices=3)
    with pytest.raises(RefusalError):
        build_multi([7, 19], max_vertices=5)


def test_json_schema_and_determinism():
    g = build_multi([7, 19])
    doc = json.loads(to_json(g))
    assert set(doc) == {"start", "vertices", "edges", "provenance"}
    assert doc["start"] == 0
    assert len(doc["vertices"]) == g.n
    assert all(set(v) == {"id", "carries"} for v in doc["vertices"])
    assert all(set(e) == {"from", "to", "label"} for e in doc["edges"])
    assert to_json(g) == to_json(build_multi([7, 19]))
    assert to_json_dict(g)["provenance"] == g.provenance


def test_dot_output_shape():
    g = build_single(7)
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(g.edges)
    assert "doublecircle" in dot  # start vertex highlighted
    assert to_dot(g) == to_dot(build_single(7))


def test_vertex_names_render_carries():
    g = build_single(43)
    names = {vertex_name(g, v) for v in range(g.n)}
    assert "0" in names and "112" in names
    g2 = build_multi([7, 19])
    assert "-" in vertex_name(g2, 0) or g2.vertices[0] == (0, 0)
