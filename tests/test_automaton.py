import hashlib
import itertools
import json
import os
import random
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cantor3.automaton as automaton

from cantor3 import (
    PointedLabeledGraph,
    RefusalError,
    brute_count,
    brute_count_extendable,
    build_multi,
    build_multi_direct,
    build_single,
    count_paths,
    normalize,
    pointed_isomorphic,
    to_dot,
    to_json,
    trim_essential,
    validate,
)
from cantor3.automaton import (
    DEFAULT_MAX_VERTICES,
    LIMB_KERNEL_EDGES,
    NUMPY_LEVEL_WIDTH,
    _count_paths_limbs,
    _count_paths_loop,
    _exact_dot,
    _limb_steps,
    canonical_order,
    to_json_dict,
    vertex_name,
)
from cantor3.families import Y_graph


def reachable_product(g1, g2):
    """Label product restricted to pairs reachable from the start pair.

    Keeps an edge per label that both factors can read, so the result
    presents the intersection of the two path sets. Not trimmed: states
    with no common continuation are kept, which is what finite prefix
    counting wants. A step of the fold below, built through the checked
    constructor.
    """
    rows1, rows2 = g1.delta.tolist(), g2.delta.tolist()
    start = (g1.start, g2.start)
    index = {start: 0}
    pairs = [start]
    edges = []
    for i, (u1, u2) in enumerate(pairs):  # the BFS queue: appended to while it is walked
        for a, (w1, w2) in enumerate(zip(rows1[u1], rows2[u2])):
            if w1 < 0 or w2 < 0:
                continue
            if (w1, w2) not in index:
                index[(w1, w2)] = len(pairs)
                pairs.append((w1, w2))
            edges.append((i, index[(w1, w2)], a))
    vertices = [g1.vertices[u1] + g2.vertices[u2] for u1, u2 in pairs]
    return PointedLabeledGraph(vertices, edges, 0, f"product({g1.provenance}, {g2.provenance})")


def label_product(g1, g2):
    """Trimmed label product, the presentation of the intersection."""
    return trim_essential(reachable_product(g1, g2))


def fold(ms):
    """build_multi as a left fold of trimmed label products over the single
    automata: the cross-check for the carry-vector search."""
    values = sorted({normalize(m).value for m in ms})
    if any(v % 3 == 2 for v in values):
        return build_multi(ms)
    values = [v for v in values if v != 1] or [1]
    acc = build_single(values[0])
    for v in values[1:]:
        acc = label_product(acc, build_single(v))
    return acc


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
        rep = validate(g)
        assert rep.reachable and rep.essential, (m, rep)
        assert g.n <= 1 + m // 2  # carries never exceed floor(M/2)
        # every vertex keeps an exit: label 0 works whenever carry % 3 <= 1,
        # label 1 whenever carry % 3 is 0 or 2, so one of them always applies
        assert (g.delta >= 0).any(axis=1).all()


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
            assert (a.start, a.edges) == (b.start, b.edges), tup


def test_residue_two_same_in_both_builders():
    for ms in ([2], [5], [2, 7], [5, 7], [5, 7, 19], [4, 11]):
        a, b = build_multi(ms), build_multi_direct(ms)
        assert (a.start, a.edges) == (b.start, b.edges) == (0, ((0, 0, 0),)), ms
        assert a.provenance == b.provenance, ms
        # one carry column per multiplier, as in every other graph
        assert a.vertices == b.vertices == ((0,) * len(ms),), ms
    assert build_single(5).carries.shape == (1, 1)


def test_build_multi_needs_a_multiplier():
    for build in (build_multi, build_multi_direct):
        with pytest.raises(ValueError, match="need at least one multiplier"):
            build([])


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
    # the flags the trim hands on agree with the edges: only the start can be a sink
    report = validate(got)
    assert report.reachable
    assert report.essential == ({s for s, _, _ in got.edges} == set(range(got.n)))


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
    # 279 bits: each half, paths from the start and words read onward,
    # grows from one 47-bit limb to three; the value is compared with the
    # loop in test_count_paths_kernel_matches_loop
    assert _count_paths_limbs(build_multi([3**5 + 1]), 400).bit_length() == 279


def test_count_paths_kernel_on_duplicate_edges():
    g = _high_in_degree_graph()
    assert max(sum(1 for _, d, _ in g.edges if d == v) for v in range(g.n)) >= 8
    assert len(set((s, d) for s, d, _ in g.edges)) < len(g.edges)

    def words(v, n):  # readable words, enumerated one by one
        return 1 if n == 0 else sum(words(w, n - 1) for w in g.delta[v].tolist() if w >= 0)

    for n in range(7):
        assert _count_paths_limbs(g, n) == words(g.start, n)
    assert _count_paths_limbs(g, 400) == _count_paths_loop(g, 400)


def test_count_paths_kernel_on_wide_fan_in():
    # in-degree 18 000 > 2^14: the limb width must shrink with it, or the
    # first carry leaves no room for a step
    k = 6000
    g = PointedLabeledGraph([(v,) for v in range(k)],
                            [(v, 0, a) for v in range(k) for a in (0, 1, 2)], 0)
    # the forward half steps with A @ A, whose row sums reach 3 * 18 000;
    # a carried limb must still leave room for one step
    src, dst, _ = g.edge_arrays()
    X, b = _limb_steps(dst, src, np.eye(k, 1, dtype=np.int64), 2)
    assert X[0, 0] == 9 and b > 0
    assert ((1 << b) + 1) * 3 * 18_000 <= 2**63 - 1
    assert _count_paths_limbs(g, 200) == 3**200


@contextmanager
def _split_forced():
    """The kernel's halves run on two threads, whatever the graph, the length and the CPUs."""
    with patch.object(automaton, "SPLIT_HALVES_EDGE_STEPS", 0), \
            patch.object(automaton, "usable_cpus", lambda: 2):
        yield


@st.composite
def _label_tables(draw):
    """Small right-resolving graphs with sinks, duplicate edges and any start."""
    k = draw(st.integers(min_value=1, max_value=10))
    cell = st.integers(min_value=-1, max_value=k - 1)
    rows = draw(st.lists(st.lists(cell, min_size=3, max_size=3), min_size=k, max_size=k))
    edges = [(v, d, a) for v, row in enumerate(rows) for a, d in enumerate(row) if d >= 0]
    return PointedLabeledGraph([(v,) for v in range(k)], edges, draw(st.integers(0, k - 1)))


_FULL_PAIR = PointedLabeledGraph([(0,), (1,)], [(0, 1, 0), (0, 1, 1), (0, 0, 2),
                                               (1, 0, 0), (1, 1, 1), (1, 1, 2)], 1)
_SINK_ROW = PointedLabeledGraph([(0,), (1,), (2,)], [(1, 0, 0), (1, 2, 1), (1, 2, 2),
                                                     (2, 1, 0), (2, 2, 1)], 2)


@settings(max_examples=60, deadline=None)
@given(_label_tables(), st.integers(min_value=0, max_value=140))
@example(_FULL_PAIR, 140)  # 3^70 words each half: carries on both sides
@example(_FULL_PAIR, 138)  # 69 steps each half: one single step on both sides
@example(_FULL_PAIR, 137)  # 68 steps forward, 69 backward
@example(_SINK_ROW, 133)  # vertex 0 is a sink; duplicate edges 1 -> 2
def test_count_paths_kernel_matches_loop_on_label_tables(g, n):
    want = _count_paths_loop(g, n)
    assert _count_paths_limbs(g, n) == want
    with _split_forced():
        assert _count_paths_limbs(g, n) == want


def test_exact_dot_at_the_piece_width_bound():
    # 2^20 + 1 rows: rows.bit_length() is 21, so pieces are w = 15 bits.
    # Every piece is 2^15 - 1, the largest value a piece can take, so each
    # entry of the piece table is (2^20 + 1) * (2^15 - 1)^2, the largest sum
    # the row count allows. The rows are broadcast and take no memory.
    rows, w = 2**20 + 1, 15
    F = np.broadcast_to(np.array([[2**(2 * w) - 1] * 2], dtype=np.int64), (rows, 2))
    B = np.broadcast_to(np.array([[2**(3 * w) - 1] * 3], dtype=np.int64), (rows, 3))
    f = sum(int(c) << (2 * w * j) for j, c in enumerate(F[0]))
    b = sum(int(c) << (3 * w * j) for j, c in enumerate(B[0]))
    assert (f, b) == (2**(4 * w) - 1, 2**(9 * w) - 1)
    assert _exact_dot(F, 2 * w, B, 3 * w) == rows * f * b


def test_count_paths_kernel_matches_oracle():
    m = 3**5 + 1
    g = build_multi([m])
    raw = reachable_product(build_single(4), build_single(16))
    trimmed = trim_essential(raw)
    pair = build_multi([7, 19])
    for n in (0, 1, 5, 10):
        for halves in (nullcontext, _split_forced):
            with halves():
                assert _count_paths_limbs(g, n) == brute_count([m], n)
                assert _count_paths_limbs(raw, n) == brute_count([4, 16], n)
                assert _count_paths_limbs(trimmed, n) == brute_count_extendable([4, 16], n)
                assert _count_paths_limbs(pair, n) == brute_count_extendable([7, 19], n)


def _count_paths_loop_reference(g, n):
    """_count_paths_loop as it was, one Python add per edge per step: the
    reference whose count it must give."""
    src, dst, _ = g.edge_arrays()
    pairs = list(zip(src.tolist(), dst.tolist()))
    counts = [0] * g.n
    counts[g.start] = 1
    for _ in range(n):
        nxt = [0] * g.n
        for s, d in pairs:
            c = counts[s]
            if c:
                nxt[d] += c
        counts = nxt
    return sum(counts)


def _limb_steps_reference(rows, cols, X, k):
    """_limb_steps as it was, a fresh (vertices x limbs) array from every
    sparse product and carry: the reference whose limbs and b it must give."""
    from scipy.sparse import csr_matrix

    M = csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(len(X), len(X)))
    if k % 2:
        X = M @ X
    if k >= 2:
        M = M @ M
    D = int(M.sum(axis=1).max())
    b = 49 - (D - 1).bit_length()
    mask = (1 << b) - 1
    bound = int(X.max())
    for _ in range(k // 2):
        while bound * D > 2**63 - 1:
            X = _carry_reference(X, b)
            bound = mask + (bound >> b)
        X = M @ X
        bound *= D
    return _carry_reference(X, b), b


def _carry_reference(X, b):
    high = X >> b
    X &= (1 << b) - 1
    X[:, 1:] += high[:, :-1]
    if high[:, -1].any():
        X = np.hstack([X, high[:, -1:]])
    return X


@st.composite
def _fan_in_tables(draw):
    """Right-resolving graphs of 1 to 64 vertices with in-degree 0 to 3 and
    any start, so up to 192 edges, on both sides of LIMB_KERNEL_EDGES.
    Drawn from a seeded generator: a cell that would give its destination
    a fourth in-edge is left empty."""
    k = draw(st.integers(min_value=1, max_value=64))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fill = draw(st.sampled_from([0.3, 0.7, 1.0]))
    indegree, edges = [0] * k, []
    for v in range(k):
        for a in range(3):
            d = rng.randrange(k)
            if rng.random() < fill and indegree[d] < 3:
                indegree[d] += 1
                edges.append((v, d, a))
    return PointedLabeledGraph([(v,) for v in range(k)], edges, draw(st.integers(0, k - 1)))


_ONE_VERTEX = PointedLabeledGraph([(0,)], [(0, 0, 0), (0, 0, 2)], 0)
# every vertex has in-degree 3: 192 edges, the kernel's side of the cutoff
_FULL_64 = PointedLabeledGraph([(v,) for v in range(64)],
                               [(v, (3 * v + a) % 64, a) for v in range(64) for a in range(3)], 5)
# 42 vertices of in-degree 3: 126 edges, the loop's side
_FULL_42 = PointedLabeledGraph([(v,) for v in range(42)],
                               [(v, (3 * v + a) % 42, a) for v in range(42) for a in range(3)], 0)


@settings(max_examples=80, deadline=None)
@given(_fan_in_tables(), st.one_of(st.integers(min_value=0, max_value=60), st.just(400)))
@example(_ONE_VERTEX, 0)
@example(_ONE_VERTEX, 400)
@example(_FULL_64, 400)
@example(_FULL_42, 400)
def test_count_paths_match_their_references(g, n):
    want = _count_paths_loop_reference(g, n)
    assert _count_paths_loop(g, n) == want
    assert count_paths(g, n) == want
    src, dst, _ = g.edge_arrays()
    for rows, cols, X in ((dst, src, np.eye(g.n, 1, -g.start, dtype=np.int64)),
                          (src, dst, np.ones((g.n, 1), dtype=np.int64))):
        got, b = _limb_steps(rows, cols, X.copy(), n // 2)
        ref, ref_b = _limb_steps_reference(rows, cols, X.copy(), n // 2)
        assert b == ref_b and got.shape == ref.shape and np.array_equal(got, ref)


@pytest.mark.parametrize("m", [2**13, 2**17])
def test_limb_steps_carry_repeatedly_before_a_step(m):
    # m duplicate pairs make M = [m] and D = m^2 > 2^25, where b < 25 and one
    # carry can leave the next pair no room: limbs are added twice in a row
    rows = cols = np.zeros(m, dtype=np.intp)
    for k in (40, 41):
        got, b = _limb_steps(rows, cols, np.ones((1, 1), dtype=np.int64), k)
        ref, ref_b = _limb_steps_reference(rows, cols, np.ones((1, 1), dtype=np.int64), k)
        assert b == ref_b and np.array_equal(got, ref)
        assert sum(int(c) << (b * j) for j, c in enumerate(got[0].tolist())) == m**k


def test_count_paths_cutoff_examples_sit_on_both_sides():
    assert _FULL_42.edge_count < LIMB_KERNEL_EDGES <= _FULL_64.edge_count
    assert max(np.bincount(_FULL_64.edge_arrays()[1])) == 3


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_matvec_accumulates_int64_products(index_dtype):
    # _limb_steps relies on scipy's private compiled product adding A x
    # into y, in int64, whatever the index width scipy picks for a matrix
    csr_matvec = automaton.sparse_kernels().csr_matvec
    indptr = np.array([0, 2, 2, 5], dtype=index_dtype)
    indices = np.array([0, 2, 1, 1, 2], dtype=index_dtype)
    data = np.array([1, 3, 2, 5, 2**40], dtype=np.int64)
    x = np.array([7, 11, 2**20], dtype=np.int64)
    y = np.array([1, -2, 2**61], dtype=np.int64)
    csr_matvec(3, 3, indptr, indices, data, x, y)
    assert y.tolist() == [1 + 7 + 3 * 2**20, -2, 2**61 + 7 * 11 + 2**60]


def _record_limb_threads(monkeypatch):
    """Wraps _limb_steps; returns the list of (thread, forward?) of each call."""
    calls, limb_steps = [], automaton._limb_steps

    def recorded(rows, cols, X, k):
        calls.append((threading.current_thread(), int(X.sum()) == 1))
        return limb_steps(rows, cols, X, k)

    monkeypatch.setattr(automaton, "_limb_steps", recorded)
    return calls


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert automaton.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert automaton.usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert automaton.usable_cpus() == 1


def test_count_paths_splits_the_halves_above_the_crossover(monkeypatch):
    g = build_multi([3**14 + 1])
    assert g.edge_count * 50 < automaton.SPLIT_HALVES_EDGE_STEPS <= g.edge_count * 400
    calls = _record_limb_threads(monkeypatch)
    me = threading.current_thread()
    with patch.object(automaton, "usable_cpus", lambda: 1):
        serial = count_paths(g, 400)
    assert calls == [(me, True), (me, False)]
    del calls[:]
    before = threading.active_count()
    with patch.object(automaton, "usable_cpus", lambda: 2):
        assert count_paths(g, 400) == serial
        # the forward half in the worker, the backward one here
        assert sorted((forward, t is me) for t, forward in calls) == [(False, True), (True, False)]
        del calls[:]
        count_paths(g, 50)  # below the crossover: both halves here
        assert calls == [(me, True), (me, False)]
    assert threading.active_count() == before


def test_count_paths_stays_serial_on_one_cpu(monkeypatch):
    g = build_multi([3**7 + 1])
    want = _count_paths_loop(g, 300)
    calls = _record_limb_threads(monkeypatch)
    before = threading.active_count()
    with patch.object(automaton, "SPLIT_HALVES_EDGE_STEPS", 0), \
            patch.object(automaton, "usable_cpus", lambda: 1), \
            patch.object(threading.Thread, "start", side_effect=AssertionError("thread started")):
        assert count_paths(g, 300) == want
    me = threading.current_thread()
    assert calls == [(me, True), (me, False)]
    assert threading.active_count() == before


def test_count_paths_raises_the_forward_half_failure(monkeypatch):
    class ForwardFailed(Exception):
        pass

    g, limb_steps = build_multi([3**7 + 1]), automaton._limb_steps

    def failing(rows, cols, X, k):
        if int(X.sum()) == 1:  # the forward half starts from e_start
            raise ForwardFailed(threading.current_thread().name)
        return limb_steps(rows, cols, X, k)

    monkeypatch.setattr(automaton, "_limb_steps", failing)
    before = threading.active_count()
    with _split_forced(), pytest.raises(ForwardFailed) as failure:
        count_paths(g, 300)
    assert failure.value.args[0] != threading.current_thread().name
    assert threading.active_count() == before


def test_count_paths_loads_the_kernels_once_before_the_split(monkeypatch):
    events, load, limb_steps = [], automaton._load_sparse_kernels, automaton._limb_steps

    def counted():
        events.append(("load", threading.current_thread()))
        time.sleep(0.05)  # time for the other half to ask for the kernels too
        return load()

    def recorded(rows, cols, X, k):
        events.append(("half", threading.current_thread()))
        return limb_steps(rows, cols, X, k)

    monkeypatch.setattr(automaton, "_SPARSE_KERNELS", None)
    monkeypatch.setattr(automaton, "_load_sparse_kernels", counted)
    monkeypatch.setattr(automaton, "_limb_steps", recorded)
    g = build_multi([3**7 + 1])
    with _split_forced():
        assert count_paths(g, 300) == _count_paths_loop(g, 300)
    me = threading.current_thread()
    # one load, in this thread, before either half starts; the halves on two threads
    assert events[0] == ("load", me)
    assert sorted(kind for kind, _ in events) == ["half", "half", "load"]
    assert {t is me for kind, t in events if kind == "half"} == {True, False}


def test_split_halves_under_concurrent_callers():
    # four callers, each with its own worker: eight threads on a shared
    # graph, switched as often as the interpreter allows
    g = build_multi([3**7 + 1])
    want = {n: _count_paths_loop(g, n) for n in (199, 200, 300)}
    results = [[] for _ in range(4)]

    def caller(out):
        for _ in range(5):
            for n in want:
                out.append((n, count_paths(g, n)))

    threads = [threading.Thread(target=caller, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with _split_forced():
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == 15
        assert all(count == want[n] for n, count in out)


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
    assert g.delta.tolist() == [[0, 0, -1]] and g.delta.dtype == np.int32


def _residue_1(bound):
    return st.integers(min_value=1, max_value=bound - 1).filter(
        lambda m: normalize(m).residue == 1)


def _assert_round_trips(g):
    h = PointedLabeledGraph(g.vertices, g.edges, g.start, g.provenance)
    assert (h.vertices, h.edges, h.start, h.provenance) == (
        g.vertices, g.edges, g.start, g.provenance)
    assert np.array_equal(h.delta, g.delta) and np.array_equal(h.carries, g.carries)
    assert g.edges == tuple(sorted(g.edges, key=lambda e: (e[0], e[2])))


@settings(max_examples=40, deadline=None)
@given(st.lists(_residue_1(3**5), min_size=1, max_size=3))
def test_checked_constructor_reproduces_builder_tables(ms):
    # the builders' unchecked tables pass the checked constructor unchanged
    _assert_round_trips(build_multi(ms))
    _assert_round_trips(build_multi_direct(ms))
    _assert_round_trips(reachable_product(build_single(ms[0]), build_single(ms[-1])))
    _assert_round_trips(Y_graph())


def _bfs_order(g):
    """The canonical order from scratch: a queue-driven breadth-first search
    over delta's rows, children in label order, each vertex where it first
    occurs."""
    rows = g.delta.tolist()
    order, seen = [g.start], {g.start}
    for v in order:  # the BFS queue: appended to while it is walked
        for w in rows[v]:
            if w >= 0 and w not in seen:
                seen.add(w)
                order.append(w)
    return order


# multipliers of residue 1 and 2, the multiplier 1, and some spelled 3M or 9M
_SPELLED = st.tuples(st.one_of(st.just(1), st.integers(min_value=1, max_value=3**5)),
                     st.integers(min_value=0, max_value=2)).map(lambda t: t[0] * 3**t[1])


@settings(max_examples=60, deadline=None)
@given(st.lists(_SPELLED, min_size=1, max_size=3))
@example([7, 7, 21])  # duplicates and a 3M spelling of one multiplier
@example([1, 5, 7])  # the multiplier 1 and residue 2
@example([1])
@example([4, 256])
@example([2**20])  # a narrow tail after a numpy phase
def test_builders_number_vertices_in_canonical_order(ms):
    graphs = [build_multi(ms), build_multi_direct(ms), Y_graph()]
    graphs += [trim_essential(build_single(m)) for m in ms]
    values = [m.value for m in automaton._prepare(ms)]
    if all(v % 3 == 1 for v in values):
        # the untrimmed carry automaton, and its trim
        carry = automaton._carry_graph(values, DEFAULT_MAX_VERTICES, "carry")
        graphs += [carry, trim_essential(carry)]
    for g in graphs:
        assert g._canonical is True and g.start == 0
        assert canonical_order(g).tolist() == _bfs_order(g) == list(range(g.n))
        assert g.canonical_delta is g.delta
        # the checked constructor does not know the order until it renumbers
        h = PointedLabeledGraph(g.vertices, g.edges, g.start)
        assert h._canonical is None
        assert h.canonical_delta is h.delta and h._canonical is True


def test_max_vertices_refusal():
    with pytest.raises(RefusalError):
        build_single(7, max_vertices=3)
    with pytest.raises(RefusalError):
        build_multi([7, 19], max_vertices=5)
    with pytest.raises(RefusalError):
        build_multi_direct([7, 19], max_vertices=3)


def test_refusal_comes_before_a_level_past_the_cap(monkeypatch):
    # N_20 has 2^20 vertices; the level of 512 new carries would make 1024,
    # and the search refuses before it holds any of them
    held = []
    refuse = automaton._CarrySearch.refuse

    def spy(search):
        held.append((search.n, sum(map(len, search.key_chunks))))
        refuse(search)

    monkeypatch.setattr(automaton._CarrySearch, "refuse", spy)
    with pytest.raises(RefusalError) as info:
        build_single(3**20 + 1, max_vertices=1000)
    assert str(info.value) == "carry automaton for 3486784402 exceeds 1000 vertices"
    assert held == [(512, 512)]  # levels of 1, 1, 2, ..., 256 carries


# sha256 of repr((start, vertices, edges)) as the fold of label products
# built them, before the carry-vector search replaced it; pure ints, so the
# digests hold on every platform
PINNED_GRAPHS = {
    "N_14": ([3**14 + 1], "2d056e34d5696e58b9f7e1fffcc7c94cc89874e798b3abf45b98e134f3d534be"),
    "N_15": ([3**15 + 1], "554a5919ab0108ea59092c1fed8887bc8aee7b1d5753322d34857ab03a00f2f8"),
    "N_16": ([3**16 + 1], "be2d29162e94e736648ffdd04c9305be99908484be70f1f237e57322245a063e"),
    "2^20": ([2**20], "748ccc0bafd248cb5b9a727ecdb31f509fd23c47fe430b44e6568f6fad87df42"),
    "2^24": ([2**24], "39b93ed9443aeac4efaf4c535c7ce6d89e87033533e59183ba43692205a7cb32"),
    "2^24,2^26": ([2**24, 2**26],
                  "688ab6768fc816af7f25d6c37170c22e1ca9ca095c5625fa0c031a21e507a806"),
    "N_12,N_13": ([3**12 + 1, 3**13 + 1],
                  "d51ad5b02a542a4bfdf96435c52eb2483c4f8be201b5834704bd8ae55c392334"),
    "L_39,L_40": ([(3**39 - 1) // 2, (3**40 - 1) // 2],
                  "33032109dac324963fbfe19a93ae9bde97390f38da54d4418968c75edcd49085"),
}


def test_refusal_inside_the_narrow_tail(monkeypatch):
    # 2^20's last numpy level hands 100 keys to a Python step of narrow levels
    # that numbers the last vertices itself; a cap one short of the graph is
    # met there
    entered = []  # the Python steps entered while a numpy phase's index is alive
    python_levels = automaton._CarrySearch.python_levels

    def spy(search, level):
        if search.sorted_keys is not None:
            entered.append((search.n, len(level)))
        return python_levels(search, level)

    monkeypatch.setattr(automaton._CarrySearch, "python_levels", spy)
    n = build_single(2**20).n
    entered.clear()
    with pytest.raises(RefusalError) as info:
        build_single(2**20, max_vertices=n - 1)
    assert str(info.value) == f"carry automaton for {2**20} exceeds {n - 1} vertices"
    assert len(entered) == 1 and entered[0][0] < n - 1 and entered[0][1] > 0


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_search_reproduces_pinned_graphs(name):
    ms, digest = PINNED_GRAPHS[name]
    g = build_multi(ms)
    assert hashlib.sha256(repr((g.start, g.vertices, g.edges)).encode()).hexdigest() == digest


def test_search_reproduces_pinned_2_30():
    # the largest graph whose narrow levels follow a numpy phase: sha256 of
    # its little-endian table and carries as built before the Python steps
    # were merged into one
    g = build_multi([2**30])
    assert (g.n, g.start, g.delta.dtype, g.carries.dtype) == (494324, 0, np.int32, np.int64)
    data = g.delta.astype("<i4").tobytes() + g.carries.astype("<i8").tobytes()
    assert (hashlib.sha256(data).hexdigest()
            == "612706d071c048a7d4719b99d214efb597089f815e123ad7456524241ce7c08e")


def _L(k):
    return (3**k - 1) // 2


def test_search_matches_the_closed_form_of_N_k():
    # N_k = 3^k + 1 is a k-bit shift register: the carry's ternary digits are
    # 0 or 1 and move down a place each step, the digit read coming in at
    # the top, while the breadth-first vertex number moves up a bit, the
    # digit read coming in at the bottom. So vertex v reads label 0 to
    # 2v mod 2^k, label 1 to 2v + 1 when v < 2^(k-1), and has the carry
    # whose ternary digit k-1-j is bit j of v. Wide levels run in numpy
    # from k = 8 on, with an empty Python step after their last one.
    for k in range(1, 21):
        g = build_multi([3**k + 1])
        v = np.arange(2**k)
        delta = np.full((2**k, 3), -1, dtype=np.int32)
        delta[:, 0] = 2 * v % 2**k
        delta[v < 2**(k - 1), 1] = 2 * v[v < 2**(k - 1)] + 1
        carries = sum(((v >> j) & 1) * 3**(k - 1 - j) for j in range(k)).reshape(-1, 1)
        assert g.start == 0 and g.delta.dtype == np.int32 and g.carries.dtype == np.int64, k
        assert np.array_equal(g.delta, delta) and np.array_equal(g.carries, carries), k


def test_search_matches_the_closed_form_of_L_k():
    # L_k = (3^k - 1)/2 is one cycle through its k vertices: vertex 0 loops
    # by label 0 and goes to vertex 1 by label 1, and every other vertex v
    # goes to v + 1 mod k by label 0. Vertex v >= 1 has the carry
    # (3^(k-v) - 1)/2, which passes int64 from L_42 on. Every level is one
    # vertex wide, so only the Python step runs, over Python-int keys from
    # L_40 on.
    for k in [*range(2, 301), 1000, 2000]:
        g = build_multi([_L(k)])
        delta = np.full((k, 3), -1, dtype=np.int32)
        delta[:, 0] = (np.arange(k) + 1) % k
        delta[0] = 0, 1, -1
        assert g.start == 0 and g.delta.dtype == np.int32 and np.array_equal(g.delta, delta), k
        assert g.carries.dtype == (object if k >= 42 else np.int64), k
        assert g.carries.tolist() == [[0]] + [[_L(j)] for j in range(k - 1, 0, -1)], k


# L_39 and (N_5, L_35) key below 2^62, so their levels may run in numpy;
# L_40, L_41 and (N_5, L_36) do not and run in Python with int64 carries;
# L_42's carries pass int64 and are Python ints
NEAR_THE_KEY_BOUND = [_L(39), _L(40), _L(41), _L(42), 3**5 + 1, _L(35), _L(36)]

# searches that enter the numpy steps more than once at these gates
SWITCHING_BACK = [([733], 4), ([2**16], 16)]

# searches whose last numpy level hands narrow levels to the Python step
NARROW_TAIL = [([2**18], NUMPY_LEVEL_WIDTH), ([2**20], NUMPY_LEVEL_WIDTH),
               ([1000003], NUMPY_LEVEL_WIDTH), ([2**24, 2**26], NUMPY_LEVEL_WIDTH)]

# searches with a numpy level of each kind, as numpy_level tells them apart:
# no fresh child (N_9's last level), every child fresh and each once (N_9's
# first), every child fresh with repeats, and some children in the index,
# the fresh ones each once or with repeats
_SOME_FRESH = {"fresh keys without repeats", "fresh keys with repeats"}
LEVEL_CASES = [([3**9 + 1], NUMPY_LEVEL_WIDTH, {"no fresh key", "every child fresh"}),
               ([73], 1, {"every child fresh, repeats"}),
               ([2**20], NUMPY_LEVEL_WIDTH, _SOME_FRESH),
               ([2**24, 2**26], NUMPY_LEVEL_WIDTH, _SOME_FRESH)]

_numpy_level = automaton._CarrySearch.numpy_level
_python_levels = automaton._CarrySearch.python_levels


def _level_case(search, n):
    """The kind of the numpy level just stepped, read off its table: n is
    the vertex count before it, so the ids from n on are its fresh keys."""
    dst = search.row_chunks[-1]
    dst = dst[dst >= 0]
    fresh = dst[dst >= n]
    if not len(fresh):
        return "no fresh key"
    repeats = len(np.unique(fresh)) < len(fresh)
    if len(fresh) == len(dst):
        return "every child fresh, repeats" if repeats else "every child fresh"
    return "fresh keys with repeats" if repeats else "fresh keys without repeats"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_residue_1(3**6), st.sampled_from(NEAR_THE_KEY_BOUND)),
                min_size=1, max_size=3),
       st.sampled_from([1, 4, 32, NUMPY_LEVEL_WIDTH]))
@example([3**8 + 1], NUMPY_LEVEL_WIDTH)  # one level of 128, one of 256
@example([2**18], NUMPY_LEVEL_WIDTH)  # numpy in the middle, Python before and after
@example([2**24, 2**26], NUMPY_LEVEL_WIDTH)  # two multipliers: children out of key order
@example([2**20], NUMPY_LEVEL_WIDTH)  # a narrow tail of 313 vertices after a numpy phase
@example([3**9 + 1], NUMPY_LEVEL_WIDTH)  # every child fresh, then no fresh key
@example([73], 1)  # every child fresh, some more than once
@example([1000003], NUMPY_LEVEL_WIDTH)  # a narrow tail after a numpy phase
@example([733], 4)  # Python -> numpy three times
@example([2**16], 16)  # Python -> numpy twice
@example([4, 256], 1)
@example([3**5 + 1, _L(35)], 1)
@example([3**5 + 1, _L(36)], 1)
@example([_L(42)], 1)
@example([3**7 + 1], 1)  # one multiplier: every level from the start's in numpy
@example([2**12], 4)
@example([_L(39)], 1)  # one multiplier with keys near 2^62
def test_search_matches_direct_construction(ms, width):
    cases = set()
    searches = []
    tails = []  # the levels handed to python_levels while a numpy phase's index is alive

    def step(search, keys, ids):
        n = search.n
        out = _numpy_level(search, keys, ids)
        cases.add(_level_case(search, n))
        return out

    def python_step(search, level):
        searches.append(search)
        if search.sorted_keys is not None:
            tails.append(len(level))
        return _python_levels(search, level)

    # a narrower gate sends small graphs through the numpy steps too
    with patch.object(automaton, "NUMPY_LEVEL_WIDTH", width), \
            patch.object(automaton._CarrySearch, "key_order", autospec=True,
                         side_effect=automaton._CarrySearch.key_order) as numpy_phases, \
            patch.object(automaton._CarrySearch, "python_levels", autospec=True,
                         side_effect=python_step), \
            patch.object(automaton._CarrySearch, "numpy_level", autospec=True,
                         side_effect=step):
        got = build_multi(ms)
    if (ms, width) in SWITCHING_BACK:
        # the sorted index is rebuilt on a switch back, and the graph still matches
        assert numpy_phases.call_count >= 2
    # the index lives only through a numpy phase and the Python step after it
    assert all(s.sorted_keys is None and s.sorted_ids is None for s in searches)
    if (ms, width) in NARROW_TAIL:
        assert any(tails)
    for case_ms, case_width, want_cases in LEVEL_CASES:
        if (ms, width) == (case_ms, case_width):
            assert want_cases <= cases
    want = build_multi_direct(ms)
    assert (got.vertices, got.edges, got.start) == (want.vertices, want.edges, want.start)
    assert got.delta.dtype == np.int32 and np.array_equal(got.delta, want.delta)
    assert got.carries.dtype == want.carries.dtype
    if want.carries.shape[1] == 1 and max(ms) < automaton._KEY_LIMIT:
        # one numeric multiplier: the search's keys are the carries
        assert got.carries.dtype == np.int64 and got.carries.shape == (got.n, 1)
        assert got.carries.flags.c_contiguous


@settings(max_examples=200, deadline=None)
@given(_residue_1(3**12).filter(lambda m: normalize(m).value >= 4), st.data())
@example(4, None)  # the least: label-0 children 0, label-1 children 1 and 2
@example(3**8 + 1, None)  # every carry of a level-width search
def test_one_multiplier_children_come_in_key_order(m, data):
    # for M = 1 mod 3, M >= 4, and carries N <= M div 2, every label-0 child
    # N div 3 is at most M div 6 and every label-1 child (N + M) div 3 at
    # least M div 3, so children() needs no sort
    M = normalize(m).value
    if data is None:  # every carry
        keys = list(range(M // 2 + 1))
    else:
        keys = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=M // 2),
                                        min_size=1, max_size=300)))
    zero = [(N // 3, 3 * i) for i, N in enumerate(keys) if N % 3 <= 1]
    one = [((N + M) // 3, 3 * i + 1) for i, N in enumerate(keys) if N % 3 != 1]
    assert max((k for k, _ in zero), default=0) <= M // 6 < M // 3 <= min(
        (k for k, _ in one), default=M // 3)
    search = automaton._CarrySearch([M], DEFAULT_MAX_VERTICES, str(M))
    kids, cells = search.children(np.array(keys, dtype=np.int64),
                                  3 * np.arange(len(keys), dtype=np.int64))
    want = sorted(zero + one, key=lambda kc: kc[0])  # stable: label 0 first on a tie
    assert kids.tolist() == [k for k, _ in want]
    assert cells.tolist() == [c for _, c in want]


@settings(max_examples=40, deadline=None)
@given(st.lists(_residue_1(3**5), min_size=1, max_size=3))
@example([7, 19])
@example([4, 256])
@example([3**6 + 1, 3**7 + 1])
@example([2**10, 2**12])
def test_fold_matches_build_multi(ms):
    a, b = fold(ms), build_multi(ms)
    assert (a.vertices, a.edges, a.start, a.provenance) == (b.vertices, b.edges, b.start,
                                                            b.provenance)


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
