"""Adjacency spectra of presentations: SCCs, Perron eigenvalue, dimension.

The Hausdorff dimension of the fractal presented by a pointed graph is
log_3 of the spectral radius of the adjacency matrix, and the radius is the
maximum over strongly connected components. Everything here reads the
graph's label table directly.

Components come from one of two searches, by the graph's edge count. Below
ARRAY_EDGE_CUTOFF, iterative Tarjan over successor lists. At or above it,
one numpy forward-backward search from the vertex with the largest
in-degree times out-degree, level by level within a bounded number of
levels, which finds that vertex's component; then one Tarjan pass over the
graph with that component contracted to a node, which labels what is left
and orders all components. Either search fills one graph view: each
vertex's component, the vertices grouped by component, and where each
group ends. scc() and one numpy split of the edges by component read it
for every graph, so scc() after hausdorff_dim() does not search again.

Components that are bare cycles (or a lone vertex, with or without loops)
are handled exactly. Every other component gets a positive vector v from a
shifted matrix A + cI, which is primitive whenever A is irreducible and
c > 0: by repeated squaring of the dense matrix with c = 1 up to
DENSE_COMPONENT_LIMIT vertices, by sparse power iteration with
c = POWER_SHIFT above (a smaller shift takes fewer steps on these graphs).
The Collatz-Wielandt quotients (Av)_i / v_i of any positive v bracket the
Perron root from both sides (Meyer, Matrix Analysis, 8.3); _certify takes
their min and max in exact integer arithmetic, so the bracket is a proof
that rounding cannot break, and only its width depends on the vector.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .automaton import PointedLabeledGraph, successor_lists, validate
from .errors import RefusalError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

LOG3 = math.log(3.0)
CHAR_POLY_LIMIT = 64
DENSE_COMPONENT_LIMIT = 192  # dense squaring up to here, sparse power iteration above
QUOTIENT_GAP = 1e-9  # float quotient gap at which the power iteration stops
_MAX_POWER_ITERATIONS = 500_000
_MAX_SQUARINGS = 64  # 2^64 power steps
_DENSE_GAP_FACTOR = 1e-3  # dense squaring stops at a float gap of tol times this
POWER_SHIFT = 0.1  # the power iteration runs on A + POWER_SHIFT * I
# Graphs with at least this many edges find their SCCs by one numpy
# forward-backward search and Tarjan; below it Tarjan alone is faster. The
# value is the measured crossover, see README "Spectral layer".
ARRAY_EDGE_CUTOFF = 2048
_SEARCH_LEVEL_EDGES = 32  # one breadth-first level of the numpy SCC search per this many edges


def log3(x: float) -> float:
    return math.log(x) / LOG3


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components in emission order, a reverse
    topological order of the condensation DAG: every edge between two
    components runs from a later one to an earlier one.

    The order is the one in which Tarjan's search completes them. Below
    ARRAY_EDGE_CUTOFF edges Tarjan runs on the graph itself, and the
    Perron solve numbers each component's vertices as they leave the
    stack; at or above it, on the graph with the component the numpy
    search found contracted to node 0 (or only its pivot, when the search
    ran out of levels) and the other vertices numbered after it in vertex
    order, and the solve numbers them in vertex order. That numbering
    fixes every bracket's rounding. hausdorff_dim names as dominant the
    first component in this order with the largest bracket sum lo_c + hi_c.
    """

    components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class DimensionResult:
    """beta and dim = log_3 beta, certified by an exact rational bracket.

    beta_bracket holds the bracket's ends as (numerator, denominator)
    pairs, and the true beta lies between them. For dense_squaring and
    power_iteration it is the exact Collatz-Wielandt bracket of the vector
    found, for char_poly_root the Sturm bracket, and for exact_trivial it
    has width zero. beta is the bracket's midpoint; beta_error and
    error_bound bound |beta - true beta| and |dim - true dim|, rounded
    outward (a zero-width bracket gives 0, log_3 included). iterations
    counts the dominant component's squarings or power steps. scc_count is
    the number of strongly connected components hausdorff_dim found;
    char_poly_dim finds none and leaves it None.
    """

    beta: float
    dim: float
    method: str  # dense_squaring | power_iteration | char_poly_root | exact_trivial
    error_bound: float  # bound on |dim - true dim| from the bracket
    dominant_component: frozenset[int]
    beta_error: float = 0.0
    scc_count: int | None = None
    beta_bracket: tuple[tuple[int, int], tuple[int, int]] | None = None
    iterations: int = 0


@dataclass(frozen=True)
class CharPoly:
    """det(xI - A) with exact integer coefficients; coefficients[i] multiplies x**i."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def pretty(self) -> str:
        terms = []
        for p in range(self.degree, -1, -1):
            c = self.coefficients[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                body = "x" if p == 1 else f"x^{p}"
                if mag != 1:
                    body = f"{mag}{body}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def adjacency(g: PointedLabeledGraph) -> "csr_matrix":
    """Edge multiplicities as an int64 sparse matrix in the graph's own vertex order.

    Loads scipy.sparse on first call; `import cantor3` does not.
    """
    from scipy.sparse import csr_matrix

    rows, cols, _ = g.edge_arrays()
    ones = np.ones(len(rows), dtype=np.int64)
    return csr_matrix((ones, (rows, cols)), shape=(g.n, g.n))  # duplicates are summed


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components emitted in reverse topological order, each in pop order.

    A vertex whose component is finished gets index n + 1, above every live
    index, so it lowers no low-link and no on-stack flag is needed (Pearce,
    "A space-efficient algorithm for finding strongly connected
    components", IPL 2016).
    """
    n = len(succ)
    done = n + 1
    index = [-1] * n
    low = [0] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _reach(g: PointedLabeledGraph, pivot: int, edges, limit: float):
    """The vertices reached from pivot, level by level along edges
    (g.out_edges forward, g.in_edges backward), and the number of levels;
    None once that number would pass limit."""
    seen = np.zeros(g.n, dtype=bool)
    seen[pivot] = True
    slot = np.empty(g.n, dtype=np.intp)
    front, level = np.array([pivot]), 0
    while len(front):
        if level >= limit:
            return None
        level += 1
        w = edges(front)
        w = w[~seen[w]]
        # keep one copy of each vertex: whichever write to slot lands last names it
        slot[w] = idx = np.arange(len(w))
        front = w[slot[w] == idx]
        seen[front] = True
    return seen, level


def _array_sccs(g: PointedLabeledGraph) -> np.ndarray:
    """Component label per vertex by one forward-backward search, in emission order.

    The pivot is the first vertex with the largest in-degree times
    out-degree, the likeliest member of a large component (Multistep:
    Slota, Rajamanickam and Madduri, IPDPS 2014); the vertices reached from
    it both forward and backward are its component. On long chains of
    components a level-by-level search is slow against Tarjan, so the two
    searches together stop after edge count / _SEARCH_LEVEL_EDGES levels,
    and then only the pivot counts as found.

    What was found is contracted to node 0 and the other vertices follow in
    vertex order. The pivot's component is maximal, so one Tarjan pass over
    the cross edges labels the rest and emits all components in reverse
    topological order.
    """
    n = g.n
    src, dst, _ = g.edge_arrays()
    pivot = int(np.argmax(np.bincount(src, minlength=n) * np.bincount(dst, minlength=n)))
    inside = np.zeros(n, dtype=bool)
    inside[pivot] = True
    levels = g.edge_count / _SEARCH_LEVEL_EDGES
    fw = _reach(g, pivot, g.out_edges, levels)
    if fw is not None:
        bw = _reach(g, pivot, g.in_edges, levels - fw[1])
        if bw is not None:
            inside = fw[0] & bw[0]
    node = np.where(inside, 0, np.cumsum(~inside))
    cross = node[src] != node[dst]
    a, b = node[src[cross]], node[dst[cross]]
    order = np.argsort(a, kind="stable")
    nodes = n - int(inside.sum()) + 1
    return _numbered(_tarjan(successor_lists(a[order], b[order], nodes)), nodes)[0][node]


def _numbered(comps: list[list[int]], n: int):
    """Tarjan's lists as (label, order, ends): each vertex's list index, the
    lists joined, and where each list ends."""
    if len(comps) == 1:  # strongly connected: nothing to group
        return np.zeros(n, dtype=np.intp), np.array(comps[0]), np.array([n])
    size = [len(c) for c in comps]
    order = np.array([v for c in comps for v in c])
    label = np.empty(n, dtype=np.intp)
    label[order] = np.repeat(np.arange(len(comps)), size)
    return label, order, np.cumsum(size)


def _components(g: PointedLabeledGraph):
    """(label, order, ends): each vertex's component, numbered in emission
    order; the vertices grouped by component, in Tarjan's pop order below
    ARRAY_EDGE_CUTOFF edges and in vertex order at or above it; and where
    each group ends in order. Kept as a graph view, so the spectral layer,
    scc() and the checks search once per graph.
    """
    def make():
        if g.edge_count < ARRAY_EDGE_CUTOFF:
            return _numbered(_tarjan(g.successors), g.n)
        label = _array_sccs(g)
        return label, np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))

    return g._view("components", make)


def scc_labels(g: PointedLabeledGraph) -> np.ndarray:
    """Component index per vertex, components numbered in emission order."""
    return _components(g)[0]


def scc(g: PointedLabeledGraph) -> SccDecomposition:
    """Strongly connected components in emission order (see SccDecomposition)."""
    _, order, ends = _components(g)
    flat, ends = order.tolist(), ends.tolist()
    return SccDecomposition(components=tuple(
        frozenset(flat[a:b]) for a, b in zip([0] + ends, ends)))


def _dense_squaring(rows, cols, k: int, tol: float):
    """Positive vector of one irreducible component, and the squarings taken.

    rows and cols hold the component's edges in local indices 0..k-1.
    B = (A + I) / (max row sum) is squared and rescaled by its largest
    entry, so B stands for (A + I)^(2^s) after s squarings, and v = B 1
    tends to the Perron vector with the error squared at every step.
    Stops once the float quotient gap of A at v is far below tol, or is
    below tol and no longer shrinks (rounding level), and after
    _MAX_SQUARINGS at the latest; any positive v can be certified.
    """
    a = np.bincount(rows * k + cols, minlength=k * k).reshape(k, k).astype(float)
    b = a + np.eye(k)
    b /= b.sum(axis=1).max()
    gap = math.inf
    for s in range(1, _MAX_SQUARINGS + 1):
        b = b @ b
        b /= b.max()
        v = b.sum(axis=1)
        ratios = a @ v / v
        prev, gap = gap, float(ratios.max() - ratios.min())
        if gap <= tol * _DENSE_GAP_FACTOR or prev <= gap <= tol:
            break
    return v, s


def _power_iteration(rows, cols, k: int, tol: float):
    """Positive vector of one irreducible component, and the power steps taken.

    Iterates v -> (A + cI)v, c = POWER_SHIFT, until the float quotients
    ((A + cI)v)_i / v_i, which converge for a primitive matrix, lie within
    tol of each other; the shift moves every quotient by c, so their gap
    is that of A.
    """
    from scipy.sparse import csr_matrix

    diag = np.arange(k)
    B = csr_matrix((np.concatenate((np.ones(len(rows)), np.full(k, POWER_SHIFT))),
                    (np.concatenate((rows, diag)), np.concatenate((cols, diag)))),
                   shape=(k, k))  # duplicates are summed
    v = np.ones(k)
    for step in range(_MAX_POWER_ITERATIONS):
        w = B.dot(v)
        ratios = w / v
        if ratios.max() - ratios.min() <= tol:
            return v, step
        v = w / w.max()
    raise RefusalError(
        f"power iteration did not reach gap {tol} within {_MAX_POWER_ITERATIONS} steps")


def _certify(rows, cols, v) -> tuple[Fraction, Fraction]:
    """Exact min and max of (Av)_i / v_i, which bracket the Perron root of A.

    The Collatz-Wielandt bound holds for every positive v, so this cannot
    fail; a poor v only widens the bracket. v is scaled to integers
    x_i = rint(v_i * 2^52 / max v), and w = A x is exact in int64: rows sum
    to at most 3, so w < 2^54. Where that rounding would zero an entry, x
    is v scaled exactly to Python ints instead (dtype=object), the
    int64/object rule of oracle._count. Float quotients pick the
    candidates for the min and max, and cross-multiplication in Python
    ints settles them.
    """
    v = np.maximum(v, np.finfo(float).tiny)  # an underflowed entry may be raised: any v > 0 will do
    x = np.rint(v * (2.0**52 / v.max())).astype(np.int64)
    if not x.min():
        parts = [f.as_integer_ratio() for f in v.tolist()]  # denominators are powers of 2
        den = max(d for _, d in parts)
        x = np.array([n * (den // d) for n, d in parts], dtype=object)
    w = np.zeros_like(x)
    np.add.at(w, rows, x[cols])
    q = (w / x).astype(float)  # each quotient within 2^-51 of the exact one, relatively

    def exact(near, sign):
        # the extreme of w_i / x_i over the candidates, by cross-multiplication
        pairs = zip(w[near].tolist(), x[near].tolist())
        a, b = next(pairs)
        for c, d in pairs:
            if (c * b - a * d) * sign > 0:
                a, b = c, d
        return Fraction(a, b)

    return (exact(q <= q.min() * (1 + 2.0**-48), -1),
            exact(q >= q.max() * (1 - 2.0**-48), 1))


def _component_bracket(rows, cols, k: int):
    """Exact bracket, method and steps for one component that is neither a lone
    vertex nor a bare cycle, its k vertices and edges in local indices."""
    if k <= DENSE_COMPONENT_LIMIT:
        method, search = "dense_squaring", _dense_squaring
    else:
        method, search = "power_iteration", _power_iteration
    v, steps = search(rows, cols, k, QUOTIENT_GAP)
    return *_certify(rows, cols, v), method, steps


def _spectral_full(g: PointedLabeledGraph):
    """Exact bracket (lo, hi) of beta, dominant vertex set, method, iterations, component count.

    Each component gets an exact bracket; beta, the maximum over the
    components, then lies in [max of the lows, max of the highs]. The
    dominant component is the first, in emission order, with the largest
    bracket sum lo_c + hi_c.

    A vertex's local index is its place in its component's group of the
    _components view. One stable argsort groups the inner edges by
    component, in edge order within each; a strongly connected graph has
    nothing to group. Lone vertices and bare cycles need no search, and of
    them only the first with the largest radius can be dominant.
    """
    label, order, ends = _components(g)
    src, dst, _ = g.edge_arrays()
    count = len(ends)
    local = np.empty(g.n, dtype=np.intp)
    if count == 1:  # strongly connected: every edge is inner, nothing to group
        local[order] = np.arange(g.n)
        inner, size, edges = slice(None), [g.n], [len(src)]
    else:
        size = np.bincount(label)
        local[order] = np.arange(g.n) - np.repeat(ends - size, size)
        ls = label[src]
        inner = np.flatnonzero(ls == label[dst])
        inner = inner[np.argsort(ls[inner], kind="stable")]
        size, edges = size.tolist(), np.bincount(ls[inner], minlength=count).tolist()
    rows, cols = local[src[inner]], local[dst[inner]]
    brackets = {}  # component -> (lo_c, hi_c, method, steps)
    trivial = []  # (-radius, component) of each lone vertex and bare cycle
    a = 0
    for c, (k, e) in enumerate(zip(size, edges)):
        if k == 1 or e == k:
            # a lone vertex has its loop count as radius, a bare cycle radius 1
            trivial.append((-(e if k == 1 else 1), c))
        else:
            brackets[c] = _component_bracket(rows[a:a + e], cols[a:a + e], k)
        a += e
    if trivial:
        radius, c = min(trivial)  # the first of largest radius
        brackets[c] = (Fraction(-radius),) * 2 + ("exact_trivial", 0)
    best = min(brackets, key=lambda c: (-(brackets[c][0] + brackets[c][1]), c))
    _, _, method, steps = brackets[best]
    return (max(b[0] for b in brackets.values()), max(b[1] for b in brackets.values()),
            frozenset(order[ends[best] - size[best]:ends[best]].tolist()), method, steps, count)


def char_poly(a: "csr_matrix") -> CharPoly:
    """Exact characteristic polynomial by the Faddeev-LeVerrier recurrence.

    Integer arithmetic throughout; the division by the step index is exact.
    Refused above CHAR_POLY_LIMIT (64) vertices: the recurrence is cubic per
    step and this is a verification aid, never the dimension path. Its
    argument comes from adjacency(), which loads scipy.sparse.
    """
    n = a.shape[0]
    if n > CHAR_POLY_LIMIT:
        raise RefusalError(f"characteristic polynomial limited to"
                           f" {CHAR_POLY_LIMIT}x{CHAR_POLY_LIMIT}, got {n}x{n}")
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


def _dimension(lo: Fraction, hi: Fraction, **fields) -> DimensionResult:
    """The result for an exact bracket [lo, hi] of beta, with outward-rounded error bounds.

    beta is the midpoint rounded to the nearest float. The dimension bounds
    step four ulps outward from log_3 of the bracket's ends, themselves
    rounded outward to floats, which covers the rounding of math.log and
    of the division by ln 3.
    """
    beta = float((lo + hi) / 2)
    dim = log3(beta)
    beta_error = error_bound = 0.0
    if lo != hi:
        beta_error = _up(max(hi - Fraction(beta), Fraction(beta) - lo))
        dim_lo = _step(log3(_step(float(lo), -math.inf)), -math.inf, 4)
        dim_hi = _step(log3(_step(float(hi), math.inf)), math.inf, 4)
        error_bound = _step(max(dim - dim_lo, dim_hi - dim), math.inf)
    return DimensionResult(beta=beta, dim=dim, error_bound=error_bound, beta_error=beta_error,
                           beta_bracket=(lo.as_integer_ratio(), hi.as_integer_ratio()),
                           **fields)


def _step(x: float, toward: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


def _up(x: Fraction) -> float:
    """The least float >= x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def hausdorff_dim(g: PointedLabeledGraph) -> DimensionResult:
    """log_3 of the Perron eigenvalue of g's adjacency matrix, in an exact bracket.

    Requires an essential, reachable presentation (trim first); on anything
    else the dimension formula does not apply. Right-resolving holds by
    construction. The power iteration stops at a float quotient gap of
    QUOTIENT_GAP; dense squaring goes on far below it.
    """
    validate(g).require("presentation")
    lo, hi, comp, method, steps, scc_count = _spectral_full(g)
    assert hi >= 1, "an essential graph contains a cycle"
    return _dimension(lo, hi, method=method, dominant_component=comp,
                      scc_count=scc_count, iterations=steps)


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


def sign_at(p, a: int, d: int) -> int:
    """Sign of p(a/d) for d > 0, from p(a/d) * d^deg computed in integers."""
    acc, dp = p[-1], 1
    for c in reversed(p[:-1]):
        dp *= d
        acc = acc * a + c * dp
    return (acc > 0) - (acc < 0)


def _sign_changes(seq, a: int, d: int) -> int:
    signs = [s for s in (sign_at(p, a, d) for p in seq) if s]
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
    s_hi = sign_at(q, hi, 1 << k)
    if s_hi == 0:
        return hi, hi, k
    while (hi - lo) << 40 > 1 << k:  # one simple root in (lo, hi): q changes sign
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        s = sign_at(q, mid, 1 << k)
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
    return _dimension(Fraction(lo, 1 << k), Fraction(hi, 1 << k), method="char_poly_root",
                      dominant_component=frozenset())
