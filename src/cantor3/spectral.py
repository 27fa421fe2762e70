"""Adjacency spectra of presentations: SCCs, Perron eigenvalue, dimension.

The Hausdorff dimension of the fractal presented by a pointed graph is
log_3 of the spectral radius of the adjacency matrix, and the radius is the
maximum over strongly connected components. Everything here reads the
graph's edge list directly. Components that are bare cycles (or a lone
vertex, with or without loops) are handled exactly; everything else goes
through power iteration on the shifted matrix A + I, which is primitive
whenever A is irreducible. Its Collatz-Wielandt quotients bracket the root
from both sides at every step, but they are computed in floating point, so
the bracket is an estimate that rounding can break, not a proof.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .automaton import PointedLabeledGraph, validate
from .errors import RefusalError

LOG3 = math.log(3.0)
CHAR_POLY_LIMIT = 64
_MAX_POWER_ITERATIONS = 500_000


def log3(x: float) -> float:
    return math.log(x) / LOG3


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components in discovery order, which is reverse
    topological order of the condensation DAG."""

    components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class DimensionResult:
    """beta and dim = log_3 beta, with the half-width of the bracket found.

    For power_iteration the bracket is the floating-point Collatz-Wielandt
    one, for char_poly_root the exact rational bracket, and exact_trivial
    results have none. scc_count is the number of strongly connected
    components hausdorff_dim found; char_poly_dim finds none and leaves it
    None.
    """

    beta: float
    dim: float
    method: str  # power_iteration | char_poly_root | exact_trivial
    error_bound: float  # bound on |dim - true dim| from the bracket
    dominant_component: frozenset[int]
    beta_error: float = 0.0
    scc_count: int | None = None


@dataclass(frozen=True)
class CharPoly:
    """det(xI - A) with exact integer coefficients; coefficients[i] multiplies x**i."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def pretty(self, var: str = "x") -> str:
        terms = []
        for p in range(self.degree, -1, -1):
            c = self.coefficients[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                body = var if p == 1 else f"{var}^{p}"
                if mag != 1:
                    body = f"{mag}{body}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def adjacency(g: PointedLabeledGraph) -> csr_matrix:
    """Edge multiplicities as an int64 sparse matrix in the graph's own vertex order."""
    rows = [s for s, _, _ in g.edges]
    cols = [d for _, d, _ in g.edges]
    ones = np.ones(len(rows), dtype=np.int64)
    return csr_matrix((ones, (rows, cols)), shape=(g.n, g.n))  # duplicates are summed


def _successors(g: PointedLabeledGraph) -> list[list[int]]:
    """Destinations per vertex in label-table order, which is the vertex's edge order."""
    return [list(row.values()) for row in g.out]


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components emitted in reverse topological order."""
    n = len(succ)
    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != UNSEEN:
            continue
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            while i < len(succ[v]):
                w = succ[v][i]
                i += 1
                if index[w] == UNSEEN:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def scc(g: PointedLabeledGraph) -> SccDecomposition:
    """Strongly connected components in reverse topological order."""
    return SccDecomposition(components=tuple(frozenset(c) for c in _tarjan(_successors(g))))


def _power_iteration(edges: list, k: int, tol: float):
    """Perron radius of one irreducible component and its bracket half-width.

    edges holds (i, j) pairs in the component's local indices 0..k-1.
    Iterates v -> (A+I)v. The quotients ((A+I)v)_i / v_i enclose the Perron
    root of A+I from both sides for positive v, and for a primitive matrix
    they converge; subtracting the shift undoes A -> A+I.
    """
    rows = [i for i, _ in edges] + list(range(k))
    cols = [j for _, j in edges] + list(range(k))
    B = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))  # duplicates are summed
    v = np.ones(k)
    for _ in range(_MAX_POWER_ITERATIONS):
        w = B.dot(v)
        ratios = w / v
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo <= tol:
            return (lo + hi) / 2.0 - 1.0, (hi - lo) / 2.0
        v = w / w.max()
    raise RefusalError(
        f"power iteration did not reach gap {tol} within {_MAX_POWER_ITERATIONS} steps")


def _spectral_full(g: PointedLabeledGraph, tol: float):
    """(beta, beta_error, dominant vertex set, method, component count) over all components."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    comps = _tarjan(_successors(g))
    comp_of = [0] * g.n
    local = [0] * g.n
    for c, comp in enumerate(comps):
        for i, v in enumerate(comp):
            comp_of[v] = c
            local[v] = i
    inner = [[] for _ in comps]  # each component's edges, in local indices
    for s, d, _ in g.edges:
        c = comp_of[s]
        if c == comp_of[d]:
            inner[c].append((local[s], local[d]))
    best_beta = 0.0
    best_err = 0.0
    best_comp: tuple = ()
    best_exact = True
    for comp, edges in zip(comps, inner):
        if len(comp) == 1:
            # every inner edge of a lone vertex is a loop
            beta_c, err_c, exact = float(len(edges)), 0.0, True
        elif len(edges) == len(comp):
            # strongly connected with one out-edge per vertex: a bare cycle, radius 1
            beta_c, err_c, exact = 1.0, 0.0, True
        else:
            beta_c, err_c = _power_iteration(edges, len(comp), tol)
            exact = False
        if beta_c > best_beta:
            best_beta, best_err, best_comp, best_exact = beta_c, err_c, comp, exact
    method = "exact_trivial" if best_exact else "power_iteration"
    return best_beta, best_err, tuple(best_comp), method, len(comps)


def char_poly(a: csr_matrix, limit: int = CHAR_POLY_LIMIT) -> CharPoly:
    """Exact characteristic polynomial by the Faddeev-LeVerrier recurrence.

    Integer arithmetic throughout; the division by the step index is exact.
    Refused above `limit` (default 64): the recurrence is cubic per step and
    this is a verification aid, never the dimension path.
    """
    n = a.shape[0]
    if n > limit:
        raise RefusalError(
            f"characteristic polynomial limited to {limit}x{limit}, got {n}x{n}")
    if n == 0:
        return CharPoly((1,))
    A = a.toarray().tolist()  # exact Python ints
    cs = [1]  # descending: coefficient of x^n first
    M = [row[:] for row in A]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                M[i][i] += cs[-1]
            M = _int_matmul(A, M)
        tr = sum(M[i][i] for i in range(n))
        q, r = divmod(tr, k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        cs.append(-q)
    return CharPoly(tuple(reversed(cs)))


def _int_matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def largest_real_root(p, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection root of p over [lo, hi]; the bracket must change sign.

    With the right end beyond every real root (true for the Perron root of
    the polynomials used here), the sign-change bracket converges to the
    largest root in the interval.
    """
    ev = p if isinstance(p, CharPoly) else CharPoly(tuple(p))
    flo, fhi = ev(lo), ev(hi)
    if flo == 0.0 and fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no bracketed root in [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        fm = ev(mid)
        if fm == 0.0:
            lo = mid  # bias upward, we want the largest root
        elif (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2.0


def hausdorff_dim(g: PointedLabeledGraph, tol: float = 1e-9) -> DimensionResult:
    """log_3 of the Perron eigenvalue of g's adjacency matrix.

    Requires an essential, reachable presentation (trim first); on anything
    else the dimension formula does not apply. Right-resolving holds by
    construction.
    """
    validate(g).require("presentation")
    beta, err, comp, method, scc_count = _spectral_full(g, tol)
    assert beta >= 1.0 - 1e-12, "an essential graph contains a cycle"
    dim = log3(beta)
    dim_err = err / ((beta - err) * LOG3) if err else 0.0
    return DimensionResult(beta=beta, dim=dim, method=method,
                           error_bound=dim_err,
                           dominant_component=frozenset(comp),
                           beta_error=err, scc_count=scc_count)


def _primitive(p: list) -> list:
    """Leading zeros dropped, divided by the content; the sign is kept."""
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    c = math.gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _pdiv(a, b) -> tuple[list, list]:
    """Pseudo-division of ascending integer lists: c*a = q*b + r for some c > 0."""
    a, lb, db = list(a), b[-1], len(b) - 1
    q = [0] * max(1, len(a) - db)
    while len(a) > db and any(a):
        shift = len(a) - 1 - db
        a, q = [abs(lb) * x for x in a], [abs(lb) * x for x in q]
        c = a[-1] // lb  # exact after the scaling
        q[shift] = c
        for i, y in enumerate(b):
            a[i + shift] -= c * y
        a.pop()  # the leading term cancels exactly
    return _primitive(q), _primitive(a or [0])


def _derivative(p: list) -> list:
    return _primitive([i * c for i, c in enumerate(p)][1:] or [0])


def _squarefree(coeffs) -> list:
    """p / gcd(p, p') up to a constant: p's roots, each simple."""
    p = _primitive(list(coeffs))
    a, b = p, _derivative(p)
    while any(b):
        a, b = b, _pdiv(a, b)[1]
    return _pdiv(p, a)[0]


def _sign_at(p, a: int, d: int) -> int:
    """Sign of p(a/d) for d > 0, from p(a/d) * d^deg computed in integers."""
    acc, dp = p[-1], 1
    for c in reversed(p[:-1]):
        dp *= d
        acc = acc * a + c * dp
    return (acc > 0) - (acc < 0)


def _sign_changes(seq, a: int, d: int) -> int:
    signs = [s for s in (_sign_at(p, a, d) for p in seq) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def largest_root_bracket(coeffs) -> tuple[int, int, int]:
    """(lo, hi, k): the largest real root lies in (lo/2^k, hi/2^k], of width <= 2^-40.

    Sturm counts on the square-free part isolate the largest root inside
    a power of 2 beyond the Cauchy bound; sign bisection then narrows it.
    Every sign is exact integer arithmetic, and lo == hi when the root is
    a dyadic rational, integers included.
    """
    q = _squarefree(coeffs)
    if len(q) < 2:
        raise ValueError("a constant polynomial has no roots")
    seq = [q, _derivative(q)]
    while len(seq[-1]) > 1:
        seq.append([-x for x in _pdiv(seq[-2], seq[-1])[1]])
    bound = 1 << (1 + max(-(-abs(c) // abs(q[-1])) for c in q[:-1])).bit_length()
    lo, hi, k = -bound, bound, 0
    v_hi = _sign_changes(seq, hi, 1)
    roots = _sign_changes(seq, lo, 1) - v_hi  # distinct real roots in (lo, hi]
    if roots == 0:
        raise ValueError("polynomial has no real root")
    while roots > 1:  # keep the largest root in (lo, hi] until it is alone
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        v_mid = _sign_changes(seq, mid, 1 << k)
        if v_mid > v_hi:
            lo, roots = mid, v_mid - v_hi
        else:
            hi, v_hi = mid, v_mid
    s_hi = _sign_at(q, hi, 1 << k)
    if s_hi == 0:
        return hi, hi, k
    while (hi - lo) << 40 > 1 << k:  # one simple root in (lo, hi): q changes sign
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = _sign_at(q, mid, 1 << k)
        if s == 0:
            return mid, mid, k
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi, k


def char_poly_dim(g: PointedLabeledGraph) -> DimensionResult:
    """Dimension via the largest real root of the exact characteristic polynomial.

    That root is the Perron root of a nonnegative matrix. A cross-check path
    for graphs with at most CHAR_POLY_LIMIT vertices; the error bounds are
    the width of the exact rational bracket.
    """
    lo, hi, k = largest_root_bracket(char_poly(adjacency(g)).coefficients)
    if hi < 1 << k:
        raise ValueError("graph has no cycle, so no dimension")
    beta = (lo + hi) / (2 << k)  # int / int rounds correctly
    width = (hi - lo) / (1 << k)
    return DimensionResult(beta=beta, dim=log3(beta), method="char_poly_root",
                           error_bound=width / (max(lo / (1 << k), 1.0) * LOG3),
                           dominant_component=frozenset(), beta_error=width / 2)
