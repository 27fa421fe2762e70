import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse import csr_matrix

import cantor3.spectral as spectral
from cantor3 import (
    PointedLabeledGraph,
    RefusalError,
    adjacency,
    build_multi,
    build_single,
    char_poly,
    count_paths,
    hausdorff_dim,
    scc,
    validate,
)
from cantor3.families import PHI
from cantor3.spectral import DENSE_COMPONENT_LIMIT, largest_root_bracket, log3
from cantor3.ternary import FamilyId, family_value, parse_multiplier_list


def _value(coeffs, x):
    """p(x) for ascending integer coefficients, exact for int and Fraction x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bracket(r):
    (a, b), (c, d) = r.beta_bracket
    return Fraction(a, b), Fraction(c, d)


def _sturm_bracket(g):
    """Sturm bracket on the largest root of g's characteristic polynomial, as Fractions."""
    lo, hi, k = largest_root_bracket(char_poly(adjacency(g)).coefficients)
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


def _chorded_cycle(k):
    """One component of k vertices: the cycle i -> i + 1 and chords i -> 3i for 3 | i."""
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k, 0))
        if i % 3 == 0:
            edges.append((i, 3 * i % k, 1))
    return PointedLabeledGraph([(i,) for i in range(k)], edges, 0)


def test_adjacency_example_7():
    a = adjacency(build_single(7))
    assert a.dtype == np.int64
    assert a.toarray().tolist() == [
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
    ]
    assert a.sum(axis=1).A1.tolist() == [2, 1, 2, 1]


def test_scc_counts():
    assert len(scc(build_single(7)).components) == 1
    comps19 = scc(build_single(19)).components
    assert sorted(len(c) for c in comps19) == [2, 6]
    comps43 = scc(build_single(43)).components
    assert sorted(len(c) for c in comps43) == [1, 1, 2, 4]


def test_scc_emission_order_is_reverse_topological():
    g = build_single(19)
    comps = scc(g)
    pos = {}
    for i, comp in enumerate(comps.components):
        for v in comp:
            pos[v] = i
    # along any edge the source's component may not come earlier than the target's
    for s, d, _ in g.edges:
        assert pos[s] >= pos[d]


def test_dimension_results():
    r = hausdorff_dim(build_single(7))
    assert abs(r.beta - PHI) <= 1e-8
    assert abs(r.dim - log3(PHI)) <= 1e-8
    assert r.method == "dense_squaring"
    assert r.iterations > 0
    r43 = hausdorff_dim(build_single(43))
    assert r43.beta == 1.0
    assert r43.dim == 0.0
    assert r43.method == "exact_trivial"
    rfull = hausdorff_dim(build_single(1))
    assert rfull.beta == 2.0
    assert rfull.dim == log3(2.0)


def test_dominant_component_identified():
    g = build_single(19)
    r = hausdorff_dim(g)
    comps = scc(g).components
    assert r.dominant_component in comps
    assert len(r.dominant_component) == 6


def test_char_poly_small_cases():
    assert char_poly(adjacency(build_single(4))).coefficients == (-1, -1, 1)
    p = char_poly(adjacency(build_multi([7, 19])))
    assert p.coefficients == (-1, 0, 0, 0, 1, -2, 1)
    assert p.degree == 6
    assert p.pretty() == "x^6 - 2x^5 + x^4 - 1"
    assert char_poly(csr_matrix((0, 0), dtype=np.int64)).coefficients == (1,)  # no step taken


def test_char_poly_matches_numpy_determinant():
    for m in (7, 19, 43, 61, 67):
        a = adjacency(build_single(m))
        p = char_poly(a)
        dense = a.toarray().astype(float)
        for x in (-2, -1, 0, 1, 2, 3):
            det = float(np.linalg.det(x * np.eye(a.shape[0]) - dense))
            assert abs(_value(p.coefficients, x) - det) <= 1e-6 * max(1.0, abs(det))


def test_char_poly_refusal_above_limit():
    g = build_single(family_value(FamilyId("N", 7)))  # 128 vertices
    with pytest.raises(RefusalError):
        char_poly(adjacency(g))


def test_char_poly_vanishes_at_perron_root():
    for spec in ([7], [19], [43], [7, 19], [4, 256]):
        g = build_multi(spec)
        if g.n > 64:
            continue
        lo, hi = _bracket(hausdorff_dim(g))
        p = char_poly(adjacency(g)).coefficients
        assert _value(p, lo) * _value(p, hi) <= 0, spec  # a root in [lo, hi], exactly


def test_sturm_root_agrees_with_hausdorff_dim():
    # 112: x^3 times a degree-17 factor with three real roots above 1
    for spec in ([7], [19], [7, 19], [family_value(FamilyId("L", 6))], [112], [256]):
        g = build_multi(spec)
        lo, hi = _sturm_bracket(g)
        assert abs(log3(float((lo + hi) / 2)) - hausdorff_dim(g).dim) <= 1e-9, spec
        assert hi - lo <= Fraction(1, 2**40)


def test_largest_root_bracket_is_exact():
    # (x-1)^2 (x-3) (x+5): a repeated root and a larger one, hit exactly
    lo, hi, k = largest_root_bracket((-15, 32, -18, 0, 1))
    assert lo == hi == 3 << k
    # x^3 (x^2 - x - 1): the largest root phi is irrational
    lo, hi, k = largest_root_bracket((0, 0, 0, -1, -1, 1))
    lo, hi = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1
    assert 0 < hi - lo <= Fraction(1, 2**40)
    assert largest_root_bracket((0, 0, 1))[:2] == (0, 0)
    lo, hi, k = largest_root_bracket((-1, 0, 1))  # x^2 - 1: the larger root 1
    assert lo == hi == 1 << k
    assert largest_root_bracket((2, -3, 1)) == (32, 32, 4)  # (x-1)(x-2): the root 2 at hi
    with pytest.raises(ValueError):
        largest_root_bracket((1, 0, 1))  # x^2 + 1 has no real root
    with pytest.raises(ValueError, match="a constant polynomial"):
        largest_root_bracket((3,))


def test_sturm_root_is_exact_on_cycles():
    assert _sturm_bracket(build_single(43)) == (1, 1)  # every component a bare cycle


def test_growth_rate_matches_dimension():
    for spec in ([7], [13], [7, 19], [10]):
        g = build_multi(spec)
        d = hausdorff_dim(g).dim
        growth = log3(count_paths(g, 400)) / 400
        assert abs(growth - d) <= 0.05, spec


def test_dimension_monotone_under_intersection():
    base = [7]
    d_prev = hausdorff_dim(build_multi(base)).dim
    for extra in (19, 43, 73):
        base.append(extra)
        d_next = hausdorff_dim(build_multi(base)).dim
        assert d_next <= d_prev + 1e-9
        d_prev = d_next


def test_beta_is_max_over_components():
    # the 43 graph is reducible; every component is a bare cycle so beta is 1
    g = build_single(43)
    r = hausdorff_dim(g)
    assert r.beta == 1.0
    # the 19 graph mixes a 2-cycle with a larger component; beta comes from the latter
    r19 = hausdorff_dim(build_single(19))
    assert r19.beta > 1.4


def test_rejects_non_right_resolving():
    from cantor3 import PointedLabeledGraph

    # such a graph cannot be built, so it never reaches hausdorff_dim
    with pytest.raises(ValueError, match="vertex 0 has two edges labeled 0.*right-resolving"):
        PointedLabeledGraph(
            vertices=((0,), (1,)),
            edges=((0, 0, 0), (0, 1, 0), (1, 0, 1)),
            start=0,
        )


@pytest.mark.parametrize("edges, failed", [
    (((0, 0, 0), (0, 1, 1)), "essential"),  # vertex 1 is a sink
    (((0, 0, 0), (1, 1, 0)), "reachable"),  # vertex 1 cannot be reached from 0
])
def test_rejects_sinks_and_unreachable_vertices(edges, failed):
    from cantor3 import PointedLabeledGraph

    g = PointedLabeledGraph(vertices=((0,), (1,)), edges=edges, start=0)
    with pytest.raises(ValueError, match=f"presentation is not {failed}"):
        hausdorff_dim(g)


def test_error_bound_is_small_and_honest():
    for spec in ([7], [19], [7, 19]):
        g = build_multi(spec)
        r = hausdorff_dim(g)
        assert 0.0 <= r.error_bound <= 1e-8
        lo, hi = _bracket(r)
        c_lo, c_hi = _sturm_bracket(g)
        assert lo <= c_hi and c_lo <= hi  # the two exact brackets overlap
        beta, err = Fraction(r.beta), Fraction(r.beta_error)
        assert beta - err <= lo <= hi <= beta + err
        # the Sturm midpoint is within 2^-41 of the true beta >= 1, so its log_3
        # is within 2^-40 of the true dimension, and r.dim within r.error_bound
        assert abs(log3(float((c_lo + c_hi) / 2)) - r.dim) <= r.error_bound + 2.0**-40


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3**4).filter(lambda m: m % 3 == 1),
                min_size=1, max_size=2))
def test_collatz_wielandt_bracket_overlaps_sturm_bracket(ms):
    g = build_multi(ms)
    assume(g.n <= 32)  # char_poly is cubic per step in Python ints
    r = hausdorff_dim(g)
    lo, hi = _bracket(r)
    c_lo, c_hi = _sturm_bracket(g)
    assert lo <= c_hi and c_lo <= hi, (ms, r.method)
    assert r.method == "exact_trivial" or hi - lo <= Fraction(1, 10**12)


@pytest.mark.parametrize("k, method", [
    (DENSE_COMPONENT_LIMIT, "dense_squaring"),
    (DENSE_COMPONENT_LIMIT + 1, "power_iteration"),
])
def test_bracket_holds_on_both_sides_of_the_cutoff(k, method):
    g = _chorded_cycle(k)
    r = hausdorff_dim(g)
    assert r.method == method and len(r.dominant_component) == k
    lo, hi = _bracket(r)
    # LAPACK's root is itself off by some 1e-15, more than the dense bracket's width
    lapack = max(abs(np.linalg.eigvals(adjacency(g).toarray().astype(float))))
    assert lo - Fraction(1, 10**12) <= Fraction(lapack) <= hi + Fraction(1, 10**12)
    # the vector of the other path certifies a bracket that overlaps this one
    e = np.array(g.edges)
    rows, cols = e[:, 0], e[:, 1]
    other = spectral._power_iteration if method == "dense_squaring" else spectral._dense_squaring
    o_lo, o_hi = (Fraction(*end) for end in
                  spectral._certify(rows, cols, other(rows, cols, k, 1e-9)[0]))
    assert lo <= o_hi and o_lo <= hi


def test_large_component_is_certified():
    g = build_single(family_value(FamilyId("N", 8)))  # one component of 256 vertices
    r = hausdorff_dim(g)
    assert r.method == "power_iteration" and len(r.dominant_component) == 256
    lo, hi = _bracket(r)
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1  # phi lies in [lo, hi]
    assert Fraction(r.beta) - Fraction(r.beta_error) <= lo


def test_power_iteration_cap_only_above_the_cutoff(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_POWER_ITERATIONS", 1)
    assert hausdorff_dim(_chorded_cycle(DENSE_COMPONENT_LIMIT)).method == "dense_squaring"
    with pytest.raises(RefusalError, match="power iteration"):
        hausdorff_dim(_chorded_cycle(DENSE_COMPONENT_LIMIT + 1))


def _both_certificates(rows, cols, v):
    """_certify with the float prefilter and in one pass, which must take the same rows."""
    prefiltered = spectral._certify(rows, cols, v)
    one_pass = spectral._certify(rows, cols, v, prefilter=False)
    assert [Fraction(*end) for end in one_pass] == [Fraction(*end) for end in prefiltered]
    assert one_pass == prefiltered  # the same (w_i, x_i): the first row at each extreme
    return prefiltered


def test_certify_takes_the_exact_quotient_extremes():
    g = _chorded_cycle(40)
    e = np.array(g.edges)
    rows, cols = e[:, 0], e[:, 1]
    rng = np.random.default_rng(7)
    converged = spectral._dense_squaring(rows, cols, 40, 1e-9)[0]
    # integer vectors with max 2^52 are scaled by exactly 1; the converged one
    # has quotients equal to within float resolution
    vectors = [rng.integers(1, 2**52, size=40, endpoint=True) for _ in range(10)]
    vectors.append(np.rint(converged * (2.0**52 / converged.max())).astype(np.int64))
    # forced ties: a constant vector gives each row its out-degree as quotient,
    # and entries of three values tie many rows at each extreme
    vectors.append(np.full(40, 2**52))
    vectors += [rng.integers(1, 4, size=40) << 50 for _ in range(10)]
    tied = np.full(40, 2**51)  # rows 4 and 20 tie at 1/2, rows 1 and 19 at 2, as unequal pairs
    tied[[1, 5]], tied[20] = 2**50, 2**52
    vectors.append(tied)
    for x in vectors:
        x[np.argmax(x)] = 2**52
        w = [0] * 40
        for i, j in zip(rows.tolist(), cols.tolist()):
            w[i] += int(x[j])
        q = [Fraction(w[i], int(x[i])) for i in range(40)]
        certified = _both_certificates(rows, cols, x.astype(float))
        assert tuple(Fraction(*end) for end in certified) == (min(q), max(q))
        i, j = q.index(min(q)), q.index(max(q))  # of tied rows, the first
        assert certified == ((w[i], int(x[i])), (w[j], int(x[j])))
    # a vector of each method on both sides of the dense limit
    for k in (DENSE_COMPONENT_LIMIT, DENSE_COMPONENT_LIMIT + 1):
        e = np.array(_chorded_cycle(k).edges)
        rows, cols = e[:, 0], e[:, 1]
        for search in (spectral._dense_squaring, spectral._power_iteration):
            _both_certificates(rows, cols, search(rows, cols, k, spectral.QUOTIENT_GAP)[0])


def test_certify_margin_covers_misordered_float_quotients():
    # rows 0 and 1 each read three vertices whose x sum past 2^53, where
    # float64 rounds the sum: exactly, row 0's quotient is the least, but
    # the float quotients order rows 0 and 1 the other way, so a prefilter
    # that kept only the float minimum would miss row 0 (values found by a
    # seeded search over x_0, x_1 and w_0)
    x0, x1 = 4418486501513402, 3894426677607500
    w0, w1 = 10255598371961339, 9039220982323769
    x = [x0, x1, w0 // 3, w0 // 3, w0 - 2 * (w0 // 3),
         w1 // 3, w1 // 3, w1 - 2 * (w1 // 3), 2**52]
    # every other row reads vertex 8 three times: quotients of 3 and more
    rows = np.array([0, 0, 0, 1, 1, 1] + [r for r in range(2, 9) for _ in range(3)])
    cols = np.array([2, 3, 4, 5, 6, 7] + [8] * 21)
    assert Fraction(w0, x0) < Fraction(w1, x1)
    q = np.array([w0, w1]) / np.array([x0, x1])
    assert q[0] > q[1]
    # the largest entry is 2^52, so x is scaled by exactly 1
    lo, hi = _both_certificates(rows, cols, np.array(x, dtype=float))
    assert lo == (w0, x0)
    assert hi == (3 * 2**52, w1 // 3)  # the least entry that reads vertex 8


def test_certify_scales_exactly_when_int64_would_zero_an_entry():
    e = np.array(build_single(7).edges)  # one component, Perron root phi
    rows, cols = e[:, 0], e[:, 1]
    v = np.ones(4)
    v[2] = 2.0**-60  # rint(v_2 * 2^52) would be 0
    lo, hi = (Fraction(*end) for end in _both_certificates(rows, cols, v))
    assert lo < hi
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1


def _fraction_dimension(lo, hi):
    """spectral._dimension as it was on Fraction ends, the reference for its int pairs.

    Returns the fields it fills: beta, dim, error_bound, beta_error and beta_bracket.
    """
    lo, hi = Fraction(*lo), Fraction(*hi)
    beta = float((lo + hi) / 2)
    dim = log3(beta)
    beta_error = error_bound = 0.0
    if lo != hi:
        err = max(hi - Fraction(beta), Fraction(beta) - lo)
        beta_error = float(err) if float(err) >= err else math.nextafter(float(err), math.inf)
        dim_lo = spectral._step(log3(spectral._step(float(lo), -math.inf)), -math.inf, 4)
        dim_hi = spectral._step(log3(spectral._step(float(hi), math.inf)), math.inf, 4)
        error_bound = spectral._step(max(dim - dim_lo, dim_hi - dim), math.inf)
    return beta, dim, error_bound, beta_error, (lo.as_integer_ratio(), hi.as_integer_ratio())


@st.composite
def _random_end(draw):
    d = draw(st.integers(min_value=1, max_value=2**60))
    return Fraction(draw(st.integers(min_value=d // 2 + 1, max_value=4 * d)), d)


@st.composite
def _near_a_float_midpoint(draw):
    """Ends one ulp either side of the midpoint between two adjacent floats,
    each moved by nothing or by 2^-60 of an ulp, so that the bracket's own
    midpoint is that tie or just off it."""
    f = draw(st.floats(min_value=0.75, max_value=4.0))
    u = Fraction(math.ulp(f))
    m = Fraction(f) + u / 2
    nudge = st.sampled_from([0, u / 2**60, -u / 2**60])
    return m - u + draw(nudge), m + u + draw(nudge)


_BRACKETS = st.one_of(
    st.tuples(_random_end(), _random_end()),
    _random_end().map(lambda x: (x, x)),  # equal ends
    st.integers(min_value=1, max_value=4).map(lambda n: (Fraction(n), Fraction(n))),
    st.tuples(st.integers(min_value=1, max_value=4), _random_end()).map(
        lambda t: (Fraction(t[0]), t[1])),
    _near_a_float_midpoint(),
)


@settings(max_examples=500, deadline=None)
@given(_BRACKETS, st.integers(min_value=1, max_value=2**8), st.integers(min_value=1, max_value=2**8))
def test_dimension_on_int_pairs_matches_the_fraction_reference(ends, s, t):
    lo, hi = sorted(ends)
    # unreduced pairs, as _certify returns them
    lo, hi = (lo.numerator * s, lo.denominator * s), (hi.numerator * t, hi.denominator * t)
    r = spectral._dimension(lo, hi, method="x", dominant_component=frozenset(), scc_count=1,
                            iterations=0)
    got = r.beta, r.dim, r.error_bound, r.beta_error
    want = _fraction_dimension(lo, hi)
    assert [x.hex() for x in got] == [x.hex() for x in want[:4]], (lo, hi)
    assert r.beta_bracket == want[4]


def _partition(comps):
    return {frozenset(c) for c in comps}


def _tarjan_components(g):
    """_tarjan's components of g as lists, in emission order, each in pop order."""
    _, order, ends = spectral._tarjan(g.delta.tolist())
    order, ends = order.tolist(), ends.tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def _array_path(monkeypatch):
    monkeypatch.setattr(spectral, "ARRAY_EDGE_CUTOFF", 0)


def _fresh(g):
    """The same presentation without the views g has already computed."""
    return PointedLabeledGraph._make(g.delta, g.carries, g.start, g.provenance)


def _assert_reverse_topological(g, components):
    pos = {v: i for i, comp in enumerate(components) for v in comp}
    src, dst, _ = g.edge_arrays()
    # no edge runs from an earlier component to a later one
    assert all(pos[s] >= pos[d] for s, d in zip(src.tolist(), dst.tolist()))


# edges per level of the numpy search before Tarjan takes the rest:
# unbounded, a few levels, Tarjan alone
_SEARCH_BUDGETS = [1e-9, 4, math.inf]


# label tables of 1-24 vertices with a start vertex; half the cells are
# empty, so that graphs break into many components
_LABEL_TABLES = st.integers(min_value=1, max_value=24).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.one_of(st.just(-1), st.integers(min_value=0, max_value=n - 1)),
                      min_size=3, max_size=3),
             min_size=n, max_size=n),
    st.integers(min_value=0, max_value=n - 1)))


@settings(max_examples=300, deadline=None)
@given(_LABEL_TABLES, st.sampled_from(_SEARCH_BUDGETS))
def test_array_sccs_partition_equals_tarjan_on_label_tables(table_start, budget):
    table, start = table_start
    edges = [(s, d, a) for s, row in enumerate(table) for a, d in enumerate(row) if d >= 0]
    g = PointedLabeledGraph([(i,) for i in range(len(table))], edges, start)
    with mock.patch.object(spectral, "_SEARCH_LEVEL_EDGES", budget):
        label = spectral._array_sccs(g)
    comps = [np.flatnonzero(label == c).tolist() for c in range(label.max() + 1)]
    assert all(comps)  # labels are 0..count-1, none skipped
    assert _partition(comps) == _partition(_tarjan_components(g))
    _assert_reverse_topological(g, comps)


def _mutual_reachability_classes(n, edges):
    """The classes of u ~ v iff each reaches the other, by a plain closure."""
    reach = [{v} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for s, d in edges:
            if not reach[d] <= reach[s]:
                reach[s] |= reach[d]
                changed = True
    return {frozenset(u for u in reach[v] if v in reach[u]) for v in range(n)}


@settings(max_examples=300, deadline=None)
@given(_LABEL_TABLES)
def test_tarjan_gives_the_mutual_reachability_classes(table_start):
    table, start = table_start
    edges = [(s, d, a) for s, row in enumerate(table) for a, d in enumerate(row) if d >= 0]
    g = PointedLabeledGraph([(i,) for i in range(len(table))], edges, start)
    label, order, ends = spectral._tarjan(table)  # the rows as drawn, -1 cells and all
    assert sorted(order.tolist()) == list(range(g.n))  # each vertex once
    # components 0..c-1 in turn along order, each ending where ends says
    sizes = np.diff(ends, prepend=0)
    assert sizes.min() > 0
    assert label[order].tolist() == np.repeat(np.arange(len(ends)), sizes).tolist()
    comps = [order[a:b].tolist() for a, b in zip([0, *ends], ends)]
    assert _partition(comps) == _mutual_reachability_classes(g.n, [e[:2] for e in edges])
    _assert_reverse_topological(g, comps)


def _tarjan_reference(rows):
    """spectral._tarjan as it was with (vertex, iterator) pairs on its work
    stack: the reference whose (label, order, ends) it must give exactly."""
    n = len(rows)
    index = [-1] * n + [n]
    low = [0] * n
    stack, order, ends = [], [], []
    counter, done = 0, n + 1
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(rows[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(rows[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        index[w] = done
                        order.append(w)
                        if w == v:
                            break
                    done += 1
                    ends.append(len(order))
    label = np.zeros(n, dtype=np.intp) if len(ends) == 1 else np.array(index[:n]) - (n + 1)
    return label, np.array(order), np.array(ends)


def _dense_squaring_reference(rows, cols, k, tol):
    """spectral._dense_squaring as it was with the ndarray reduction methods
    and a fresh quotient array: the reference whose vector and squaring
    count it must give bit for bit."""
    a = np.bincount(rows * k + cols, minlength=k * k).reshape(k, k).astype(float)
    b = a + np.eye(k)
    b /= b.sum(axis=1).max()
    gap = math.inf
    for s in range(1, spectral._MAX_SQUARINGS + 1):
        b = b @ b
        b /= b.max()
        v = b.sum(axis=1)
        ratios = a @ v / v
        prev, gap = gap, float(ratios.max() - ratios.min())
        if gap <= tol * spectral._DENSE_GAP_FACTOR or prev <= gap <= tol:
            break
    return v, s


def _power_iteration_reference(rows, cols, k, tol):
    """spectral._power_iteration as it was, a fresh vector from every
    product and quotient: the reference whose vector and step count it must
    give bit for bit."""
    indptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    indices = np.asarray(cols, dtype=np.int32)[np.argsort(rows, kind="stable")]
    A = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(k, k))
    v = np.ones(k)
    for step in range(0, spectral._MAX_POWER_ITERATIONS, spectral._POWER_ROUND):
        u = A @ v + spectral.POWER_SHIFT * v
        ratios = u / v
        if ratios.max() - ratios.min() <= tol:
            return v, step
        for _ in range(spectral._POWER_ROUND - 1):
            u = A @ u + spectral.POWER_SHIFT * u
        v = u / u.max()
    raise AssertionError("the reference did not converge")


@st.composite
def _dense_tables(draw):
    """Label tables of 1 to DENSE_COMPONENT_LIMIT vertices, half the cells
    empty; strongly connected when a cycle through every vertex is laid
    over them, else in many components. Drawn from a seeded generator: a
    table of 576 cells drawn cell by cell takes hypothesis about 45 ms."""
    n = draw(st.integers(min_value=1, max_value=DENSE_COMPONENT_LIMIT))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    table = np.where(rng.random((n, 3)) < 0.5, -1, rng.integers(0, n, size=(n, 3)))
    if draw(st.booleans()):
        cycle = rng.permutation(n)
        table[cycle, rng.integers(0, 3, size=n)] = np.roll(cycle, -1)
    return table.tolist()


# the CI runs these two and the certify tests at one BLAS thread as well as
# at the default (ROADMAP item 10)
@settings(max_examples=200, deadline=None)
@given(_dense_tables())
@example(_chorded_cycle(40).delta.tolist())
@example(_chorded_cycle(DENSE_COMPONENT_LIMIT).delta.tolist())
def test_tarjan_matches_its_reference(table):
    got, want = spectral._tarjan(table), _tarjan_reference(table)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=100, deadline=None)
@given(_dense_tables())
@example(_chorded_cycle(40).delta.tolist())
@example(_chorded_cycle(DENSE_COMPONENT_LIMIT).delta.tolist())
def test_dense_squaring_matches_its_reference(table):
    # each component in local indices, as _spectral_full splits it: vertices
    # numbered in pop order, edges in edge order
    _, order, ends = _tarjan_reference(table)
    for a, b in zip([0, *ends.tolist()], ends.tolist()):
        local = {v: i for i, v in enumerate(order[a:b].tolist())}
        edges = [(local[v], local[w]) for v in range(len(table)) if v in local
                 for w in table[v] if w >= 0 and w in local]
        rows, cols = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        got = spectral._dense_squaring(rows, cols, len(local), spectral.QUOTIENT_GAP)
        want = _dense_squaring_reference(rows, cols, len(local), spectral.QUOTIENT_GAP)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])


@settings(max_examples=300, deadline=None)
@given(_LABEL_TABLES)
def test_reachable_set_is_the_closure_from_the_start(table_start):
    table, start = table_start
    edges = [(s, d, a) for s, row in enumerate(table) for a, d in enumerate(row) if d >= 0]
    g = PointedLabeledGraph([(i,) for i in range(len(table))], edges, start)
    reach, changed = {start}, True
    while changed:
        changed = False
        for s, d, _ in edges:
            if s in reach and d not in reach:
                reach.add(d)
                changed = True
    assert g.reachable_set() == reach
    assert validate(g).reachable == (len(reach) == g.n)


def _chain_of_cycles(k):
    """k two-cycles in a row, each with an edge into the next: k components, k levels deep."""
    edges = [(v, v ^ 1, 0) for v in range(2 * k)] + [(2 * i, 2 * i + 2, 1) for i in range(k - 1)]
    return PointedLabeledGraph([(v,) for v in range(2 * k)], edges, 0)


@pytest.mark.parametrize("spec", [[family_value(FamilyId("N", 14))], [2**20], [2**24, 2**26],
                                  # P:10: the start lies in a 22-vertex component of six;
                                  # 1000003: the start is a component of its own
                                  [family_value(FamilyId("P", 10))], [1000003],
                                  pytest.param(3000, id="chain"),
                                  pytest.param(20000, id="deep-chain")])
def test_array_sccs_match_tarjan_on_large_graphs(spec, monkeypatch):
    _array_path(monkeypatch)
    # a chain runs out of search levels, and Tarjan takes the rest
    g = _chain_of_cycles(spec) if isinstance(spec, int) else build_multi(spec)
    comps = scc(g).components
    assert _partition(comps) == _partition(_tarjan_components(g))
    _assert_reverse_topological(g, comps)
    assert hausdorff_dim(g).scc_count == len(comps)


def test_each_search_direction_has_its_own_level_budget(monkeypatch):
    # on (2^24, 2^26) the forward search ends after 131 levels and the
    # backward one after 193, of 274.75 allowed each; a budget shared by the
    # two directions leaves the backward one 143, and Tarjan all 8 173 vertices
    sizes = []
    tarjan = spectral._tarjan
    monkeypatch.setattr(spectral, "_tarjan", lambda rows: sizes.append(len(rows)) or tarjan(rows))
    g = build_multi([2**24, 2**26])
    assert g.edge_count >= spectral.ARRAY_EDGE_CUTOFF
    assert hausdorff_dim(g).scc_count == 51
    assert sizes and max(sizes) <= 51


def _induced_bracket(g, comp):
    vs = sorted(comp)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[s], index[d], a) for s, d, a in g.edges if s in index and d in index]
    return _bracket(hausdorff_dim(PointedLabeledGraph([(i,) for i in vs], edges, 0)))


def test_dominant_component_is_the_same_on_both_paths(monkeypatch):
    specs = [[m] for m in range(4, 500, 3)] + [[2**20], [2**24, 2**26], [1000003], [4, 256]]
    for spec in specs:
        g = build_multi(spec)
        tarjan = hausdorff_dim(g)
        with monkeypatch.context() as m:
            _array_path(m)
            array = hausdorff_dim(_fresh(g))
        assert array.scc_count == tarjan.scc_count, spec
        if array.dominant_component != tarjan.dominant_component:
            # the maximum is not unique: the two components' brackets overlap
            lo1, hi1 = _induced_bracket(g, tarjan.dominant_component)
            lo2, hi2 = _induced_bracket(g, array.dominant_component)
            assert lo1 <= hi2 and lo2 <= hi1, spec


def test_equal_brackets_keep_the_component_emitted_first(monkeypatch):
    # the start leads by label 0 and by label 1 into two copies of one chorded cycle
    k = 10
    edges = [(0, 1, 0), (0, k + 1, 1)]
    edges += [(o + s, o + d, a) for o in (1, k + 1) for s, d, a in _chorded_cycle(k).edges]
    g = PointedLabeledGraph([(v,) for v in range(2 * k + 1)], edges, 0)
    first, second = frozenset(range(1, k + 1)), frozenset(range(k + 1, 2 * k + 1))
    assert scc(g).components == (first, second, frozenset({0}))
    certified = []
    certify = spectral._certify
    monkeypatch.setattr(spectral, "_certify",
                        lambda *a: certified.append(certify(*a)) or certified[-1])
    r = hausdorff_dim(g)
    assert len(certified) == 2 and certified[0] == certified[1]  # a tie, bit for bit
    assert r.dominant_component == first
    assert _induced_bracket(g, first) == _induced_bracket(g, second)
    # two lone vertices with loops by labels 0 and 1: the first of radius 2 is kept
    g = PointedLabeledGraph([(0,), (1,), (2,)],
                            [(0, 1, 0), (0, 2, 1), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1)], 0)
    r = hausdorff_dim(g)
    assert scc(g).components == (frozenset({1}), frozenset({2}), frozenset({0}))
    assert r.method == "exact_trivial" and r.beta_bracket == ((2, 1), (2, 1))
    assert r.dominant_component == {1}


def test_small_scc_reads_tarjan_order_like_the_labels():
    # below the cutoff scc() takes Tarjan's lists as they are: the same
    # components in the same order as grouping the shared labels
    for spec in [[m] for m in range(4, 300, 3)] + [[7, 19], [4, 256]]:
        g = build_multi(spec)
        assert g.edge_count < spectral.ARRAY_EDGE_CUTOFF
        label = spectral.scc_labels(_fresh(g))
        grouped = tuple(frozenset(np.flatnonzero(label == c).tolist())
                        for c in range(label.max() + 1))
        assert scc(g).components == grouped, spec


def test_scc_after_hausdorff_dim_searches_once(monkeypatch):
    for search, g in (("_array_sccs", build_multi([2**20])), ("_tarjan", build_single(19))):
        calls = []
        original = getattr(spectral, search)
        with monkeypatch.context() as m:
            m.setattr(spectral, search, lambda *a: calls.append(1) or original(*a))
            r = hausdorff_dim(g)
            comps = scc(g).components
        assert len(calls) == 1, search
        assert r.scc_count == len(comps) and r.dominant_component in comps


@pytest.mark.parametrize("k", range(9, 17))
def test_N_bracket_contains_phi(k):
    g = build_single(family_value(FamilyId("N", k)))
    lo, hi = _bracket(hausdorff_dim(g))
    assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1


@pytest.mark.parametrize("spec", [f"N:{k}" for k in range(9, 17)]
                         + ["1048576", "1000003", "P:10", "16777216,67108864"])
def test_power_iteration_rounds_bound_the_certified_width(spec):
    # test_N_bracket_contains_phi checks that these N:k brackets hold phi
    r = hausdorff_dim(build_multi(parse_multiplier_list(spec)))
    lo, hi = _bracket(r)
    assert r.method == "power_iteration" and r.iterations % 4 == 0
    # the stop rule's float gap bounds the exact bracket up to rounding
    assert hi - lo <= Fraction(spectral.QUOTIENT_GAP * (1 + 1e-3))


@pytest.mark.parametrize("spec", ["N:14", "1048576", "1000003", "16777216,67108864",
                                  "P:10", "L:300"])
def test_power_iteration_matches_its_reference(spec, monkeypatch):
    # every large component as _spectral_full hands it over
    search, solved = spectral._power_iteration, []

    def compared(rows, cols, k, tol):
        got = search(rows, cols, k, tol)
        want = _power_iteration_reference(rows, cols, k, tol)
        assert got[1] == want[1] and np.array_equal(got[0], want[0])
        solved.append(k)
        return got

    monkeypatch.setattr(spectral, "_power_iteration", compared)
    hausdorff_dim(build_multi(parse_multiplier_list(spec)))
    assert solved
