"""Closed-form expectations for the multiplier families and checks around them.

L_k = (3^k - 1)/2 reads as k ones in base 3; its presentation has k vertices
and Perron root the unique root above 1 of x^k - x^(k-1) - 1. N_k = 3^k + 1
has a 2^k-vertex presentation whose Perron root is the golden ratio for
every k, with an explicit eigenvector of powers of phi. P_k = 2*3^k + 1 is
generable and computable but carries no closed form here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .automaton import PointedLabeledGraph
from .errors import RefusalError
from .spectral import largest_root_bracket, log3, sign_at
from .ternary import FamilyId

PHI = (1.0 + math.sqrt(5.0)) / 2.0
N_CAP = 20  # N_k presentations have 2^k vertices


@dataclass(frozen=True)
class FamilyExpectation:
    family: FamilyId
    expected_dim: float
    expected_vertices: int
    expected_scc_count: int
    defining_poly: tuple[int, ...] | None = None


def L_poly(k: int) -> tuple[int, ...]:
    """Ascending coefficients of x^k - x^(k-1) - 1."""
    if k < 1:
        raise ValueError(f"family index must be >= 1, got {k}")
    if k == 1:
        return (-2, 1)
    return (-1,) + (0,) * (k - 2) + (-1, 1)


def expect_L(k: int) -> FamilyExpectation:
    """k vertices, one component, Perron root of x^k - x^(k-1) - 1."""
    lo, hi, e = largest_root_bracket(L_poly(k))  # exact, of width <= 2^-40
    return FamilyExpectation(FamilyId("L", k), log3((lo + hi) / (2 << e)), k, 1, L_poly(k))


def expect_N(k: int) -> FamilyExpectation:
    """2^k vertices, one component, dimension log_3(phi) independent of k."""
    if k < 1:
        raise ValueError(f"family index must be >= 1, got {k}")
    if k > N_CAP:
        raise RefusalError(f"N_k presentations have 2^k vertices; k <= {N_CAP}, got {k}")
    return FamilyExpectation(FamilyId("N", k), log3(PHI), 2 ** k, 1, (-1, -1, 1))


def N_eigenvector(k: int) -> list[float]:
    """Perron vector of the N_k presentation in its breadth-first vertex order.

    v_1 = (phi, 1) and v_j = (phi * v_{j-1}, v_{j-1}), so the entries are
    powers of phi. The label-0-first breadth-first order of the carry
    construction lines up with this doubling; the residual check in the
    acceptance suite confirms the alignment numerically.
    """
    if k < 1:
        raise ValueError(f"family index must be >= 1, got {k}")
    if k > N_CAP:
        raise RefusalError(f"N_k eigenvectors have 2^k entries; k <= {N_CAP}, got {k}")
    v = [PHI, 1.0]
    for _ in range(k - 1):
        v = [PHI * e for e in v] + v
    return v


def L_root_within(k: int, lower: float, upper: float) -> bool:
    """lower <= beta_k <= upper, decided exactly for nonnegative floats.

    x^k - x^(k-1) - 1 has one sign change, so one positive root beta_k
    (Descartes), and it is -1 at 0: it is <= 0 on [0, beta_k] and > 0
    above. So lower <= beta_k iff p(lower) <= 0 and beta_k <= upper iff
    p(upper) >= 0; both signs are exact integer arithmetic at the floats.
    """
    return (sign_at(L_poly(k), *lower.as_integer_ratio()) <= 0
            <= sign_at(L_poly(k), *upper.as_integer_ratio()))


def check_L_bounds(k: int) -> bool:
    """1 + ln(k)/k - 2 ln(ln(k))/k <= beta_k <= 1 + ln(k)/k, stated for k >= 6."""
    if k < 6:
        raise ValueError(f"the bounds are stated for k >= 6, got {k}")
    upper = 1.0 + math.log(k) / k
    lower = upper - 2.0 * math.log(math.log(k)) / k
    return L_root_within(k, lower, upper)


def Y_graph() -> PointedLabeledGraph:
    """Two-vertex presentation of the words free on even slots, zero on odd.

    Start vertex 0 reads either digit and moves to 1; vertex 1 can only read
    0 back. Spectral radius sqrt(2), dimension half of log_3(2). A fixed
    table, reachable and essential, so it is handed over unchecked like
    every builder's.
    """
    return PointedLabeledGraph._make(np.array([[1, 1, -1], [0, -1, -1]], dtype=np.int32),
                                     np.array([[0], [1]], dtype=np.int64), 0, "Y", True)

