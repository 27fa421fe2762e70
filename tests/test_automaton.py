import hashlib
import itertools
import json
import os
import random
import sys
import threading
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
    LIMB_KERNEL_EDGES,
    NUMPY_LEVEL_WIDTH,
    _count_paths_limbs,
    _count_paths_loop,
    _exact_dot,
    _limb_steps,
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


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_search_reproduces_pinned_graphs(name):
    ms, digest = PINNED_GRAPHS[name]
    g = build_multi(ms)
    assert hashlib.sha256(repr((g.start, g.vertices, g.edges)).encode()).hexdigest() == digest


def _L(k):
    return (3**k - 1) // 2


# L_39 and (N_5, L_35) key below 2^62, so their levels may run in numpy;
# L_40, L_41 and (N_5, L_36) do not and run in Python with int64 carries;
# L_42's carries pass int64 and are Python ints
NEAR_THE_KEY_BOUND = [_L(39), _L(40), _L(41), _L(42), 3**5 + 1, _L(35), _L(36)]

# searches that enter the numpy steps more than once at these gates
SWITCHING_BACK = [([733], 4), ([2**16], 16)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_residue_1(3**6), st.sampled_from(NEAR_THE_KEY_BOUND)),
                min_size=1, max_size=3),
       st.sampled_from([1, 4, 32, NUMPY_LEVEL_WIDTH]))
@example([3**8 + 1], NUMPY_LEVEL_WIDTH)  # one level of 128, one of 256
@example([2**18], NUMPY_LEVEL_WIDTH)  # numpy in the middle, Python before and after
@example([2**24, 2**26], NUMPY_LEVEL_WIDTH)  # two multipliers: children out of key order
@example([733], 4)  # Python -> numpy three times
@example([2**16], 16)  # Python -> numpy twice
@example([4, 256], 1)
@example([3**5 + 1, _L(35)], 1)
@example([3**5 + 1, _L(36)], 1)
@example([_L(42)], 1)
def test_search_matches_direct_construction(ms, width):
    # a narrower gate sends small graphs through the numpy steps too
    with patch.object(automaton, "NUMPY_LEVEL_WIDTH", width), \
            patch.object(automaton._CarrySearch, "key_order", autospec=True,
                         side_effect=automaton._CarrySearch.key_order) as numpy_phases:
        got = build_multi(ms)
    if (ms, width) in SWITCHING_BACK:
        # both indexes are rebuilt on a switch back, and the graph still matches
        assert numpy_phases.call_count >= 2
    want = build_multi_direct(ms)
    assert (got.vertices, got.edges, got.start) == (want.vertices, want.edges, want.start)
    assert got.delta.dtype == np.int32 and np.array_equal(got.delta, want.delta)
    assert got.carries.dtype == want.carries.dtype


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
