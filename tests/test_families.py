import math

import numpy as np
import pytest

from cantor3 import (
    PointedLabeledGraph,
    RefusalError,
    N_eigenvector,
    Y_graph,
    adjacency,
    build_multi,
    build_single,
    check_L_bounds,
    count_paths,
    expect_L,
    expect_N,
    hausdorff_dim,
    is_subset,
    validate,
)
from cantor3.automaton import ValidationReport
from cantor3.families import PHI, L_poly, L_root_within
from cantor3.spectral import largest_root_bracket
from cantor3.spectral import log3
from cantor3.ternary import FamilyId, family_value


def test_L_poly_shapes():
    assert L_poly(1) == (-2, 1)
    assert L_poly(2) == (-1, -1, 1)
    assert L_poly(4) == (-1, 0, 0, -1, 1)
    with pytest.raises(ValueError):
        L_poly(0)


def test_expect_L_values():
    assert expect_L(2).expected_dim == pytest.approx(log3(PHI), abs=1e-12)
    assert expect_L(6).expected_dim == pytest.approx(0.228392, abs=1e-5)
    e = expect_L(4)
    assert e.expected_vertices == 4
    assert e.expected_scc_count == 1
    assert e.defining_poly == L_poly(4)


def test_expect_L_matches_built_graphs():
    for k in range(1, 10):
        g = build_single(family_value(FamilyId("L", k)))
        r = hausdorff_dim(g)
        e = expect_L(k)
        assert g.n == e.expected_vertices
        assert abs(r.dim - e.expected_dim) <= 1e-8


def test_expect_N():
    e = expect_N(5)
    assert e.expected_vertices == 32
    assert e.expected_dim == pytest.approx(log3(PHI), abs=1e-15)
    with pytest.raises(RefusalError):
        expect_N(21)
    with pytest.raises(ValueError):
        expect_N(0)


def test_N_eigenvector_exact_small_cases():
    assert N_eigenvector(1) == [PHI, 1.0]
    assert N_eigenvector(2) == [PHI * PHI, PHI, PHI, 1.0]
    assert len(N_eigenvector(6)) == 64
    with pytest.raises(RefusalError):
        N_eigenvector(25)


def test_N_eigenvector_is_perron_vector():
    for k in (1, 2, 3, 5):
        g = build_single(family_value(FamilyId("N", k)))
        v = np.array(N_eigenvector(k))
        assert np.abs(adjacency(g) @ v - PHI * v).max() <= 1e-9


def test_check_L_bounds():
    assert check_L_bounds(6)
    assert check_L_bounds(100)
    with pytest.raises(ValueError):
        check_L_bounds(5)


@pytest.mark.parametrize("k", [6, 7, 40, 200])
def test_L_root_within_is_exact(k):
    lo, hi, e = largest_root_bracket(L_poly(k))
    below = math.nextafter(lo / 2**e, 0)  # floats just outside the 2^-40 bracket
    above = math.nextafter(hi / 2**e, 2)
    assert L_root_within(k, below, above)
    assert L_root_within(k, 1.0, 2.0)
    assert not L_root_within(k, above, 2.0)  # a lower bound above the root
    assert not L_root_within(k, 1.0, below)  # an upper bound below the root
    assert not L_root_within(k, 0.0, 1.0)


def test_L_dim_bounds_check_fails_on_a_wrong_bound(monkeypatch):
    import cantor3.checks as checks

    # the stated lower bound given as the upper one: beta_k lies above it
    def too_low(k):
        upper = 1.0 + math.log(k) / k - 2.0 * math.log(math.log(k)) / k
        return L_root_within(k, 1.0, upper)

    monkeypatch.setattr(checks, "check_L_bounds", too_low)
    res = checks.run_check("L-dim-bounds")
    assert not res.ok and res.detail.startswith("bounds fail at k=[")
    monkeypatch.undo()
    res = checks.run_check("L-dim-bounds")
    assert res.ok and res.line() == "PASS L-dim-bounds: two-sided bounds on dim L_k hold for k=6..200"


def test_Y_graph_shape():
    y = Y_graph()
    assert y.n == 2
    assert adjacency(y).toarray().tolist() == [[0, 2], [1, 0]]
    assert y.start == 0
    r = hausdorff_dim(y)
    assert r.dim == pytest.approx(0.5 * log3(2.0), abs=1e-9)
    assert r.beta == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_Y_graph_table_is_the_checked_graph():
    y = Y_graph()
    checked = PointedLabeledGraph([(0,), (1,)], [(0, 1, 0), (0, 1, 1), (1, 0, 0)], 0, "Y")
    assert np.array_equal(y.delta, checked.delta) and y.delta.dtype == checked.delta.dtype
    assert np.array_equal(y.carries, checked.carries) and y.carries.dtype == checked.carries.dtype
    assert (y.start, y.provenance) == (checked.start, checked.provenance)
    assert validate(y) == validate(checked) == ValidationReport(reachable=True, essential=True)


def test_Y_graph_path_counts():
    y = Y_graph()
    assert [count_paths(y, n) for n in range(1, 7)] == [2, 2, 4, 4, 8, 8]


def test_Y_contained_in_odd_N():
    y = Y_graph()
    for k in (0, 1, 2):
        host = build_single(family_value(FamilyId("N", 2 * k + 1)))
        assert is_subset(y, host).holds


def test_N_chain_dims_bounded_below():
    # finite evidence for the liminf bound: consecutive N pairs stay above 0.315
    for k in range(6, 11):
        ms = [family_value(FamilyId("N", k)), family_value(FamilyId("N", k + 1))]
        assert hausdorff_dim(build_multi(ms)).dim >= 0.315


def test_N_chain_dim_at_least_matching_L():
    # chains of N values never dip below the L value one index up
    for ks in ((1, 3), (2, 4), (1, 2, 5), (3, 6), (2, 3, 6)):
        ms = [family_value(FamilyId("N", k)) for k in ks]
        d_chain = hausdorff_dim(build_multi(ms)).dim
        d_L = hausdorff_dim(build_single(family_value(FamilyId("L", ks[-1] + 1)))).dim
        assert d_chain >= d_L - 1e-6, ks
