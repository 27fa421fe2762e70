import math
from fractions import Fraction

import numpy as np
import pytest

from cantor3 import (
    CharPoly,
    RefusalError,
    adjacency,
    build_multi,
    build_single,
    char_poly,
    char_poly_dim,
    count_paths,
    hausdorff_dim,
    largest_real_root,
    scc,
)
from cantor3.families import PHI
from cantor3.spectral import largest_root_bracket, log3
from cantor3.ternary import FamilyId, family_value


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
    assert r.method == "power_iteration"
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


def test_char_poly_matches_numpy_determinant():
    for m in (7, 19, 43, 61, 67):
        a = adjacency(build_single(m))
        p = char_poly(a)
        dense = a.toarray().astype(float)
        for x in (-2, -1, 0, 1, 2, 3):
            det = float(np.linalg.det(x * np.eye(a.shape[0]) - dense))
            assert abs(p(x) - det) <= 1e-6 * max(1.0, abs(det))


def test_char_poly_refusal_above_limit():
    g = build_single(family_value(FamilyId("N", 7)))  # 128 vertices
    with pytest.raises(RefusalError):
        char_poly(adjacency(g))


def test_char_poly_vanishes_at_perron_root():
    for spec in ([7], [19], [43], [7, 19], [4, 256]):
        g = build_multi(spec)
        if g.n > 64:
            continue
        r = hausdorff_dim(g)
        p = char_poly(adjacency(g))
        assert abs(p(r.beta)) <= 1e-6 * (p.degree + 1)


def test_largest_real_root():
    assert abs(largest_real_root(CharPoly((-1, -1, 1)), 1.0, 2.0) - PHI) <= 1e-11
    assert largest_real_root((-1, 0, 1), 0.5, 2.0) == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError):
        largest_real_root(CharPoly((1, 0, 1)), 0.0, 2.0)  # x^2 + 1 has no real root


def test_char_poly_dim_agrees_with_power_iteration():
    # 112: x^3 times a degree-17 factor with three real roots above 1
    for spec in ([7], [19], [7, 19], [family_value(FamilyId("L", 6))], [112], [256]):
        g = build_multi(spec)
        r = char_poly_dim(g)
        assert abs(r.dim - hausdorff_dim(g).dim) <= 1e-9, spec
        assert r.method == "char_poly_root"
        assert r.error_bound <= 1e-11


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
    with pytest.raises(ValueError):
        largest_root_bracket((1, 0, 1))  # x^2 + 1 has no real root


def test_char_poly_dim_is_exact_on_cycles():
    r = char_poly_dim(build_single(43))  # every component a bare cycle
    assert r.beta == 1.0 and r.dim == 0.0 and r.error_bound == 0.0


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
        r = hausdorff_dim(build_multi(spec))
        assert 0.0 <= r.error_bound <= 1e-8
        assert abs(char_poly_dim(build_multi(spec)).dim - r.dim) <= r.error_bound + 1e-10
