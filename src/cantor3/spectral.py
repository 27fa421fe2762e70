"""Adjacency spectra of presentations: SCCs, Perron eigenvalue, dimension.

The Hausdorff dimension of the fractal presented by a pointed graph is
log_3 of the spectral radius of the adjacency matrix, and the radius is the
maximum over strongly connected components. Everything here reads the
graph's label table directly.

Components come from one of two searches, by the graph's edge count. Below
ARRAY_EDGE_CUTOFF, iterative Tarjan over the label table's rows. At or
above it, a forward and a backward automaton.reach from the vertex with the
largest in-degree times out-degree, each within its own bounded number of
levels, which find that vertex's component; then one Tarjan pass over the
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
Every bracket end travels as a (numerator, denominator) pair of Python
ints, from _certify through the maximum over components to _dimension.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .automaton import PointedLabeledGraph, reach, sparse_kernels, validate
from .errors import RefusalError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

LOG3 = math.log(3.0)
CHAR_POLY_LIMIT = 64
DENSE_COMPONENT_LIMIT = 192  # dense squaring up to here, sparse power iteration above
QUOTIENT_GAP = 1e-9  # float quotient gap at which the power iteration stops
_MAX_POWER_ITERATIONS = 500_000  # products with A + POWER_SHIFT * I
# Products per round of the power iteration, with one quotient test and one
# normalisation a round. The solve of N:14 takes 10.8 ms with rounds of one
# product, 8.6 ms of two, 7.4 ms of four and 6.8 ms of eight; on 2^20 the
# rounds of eight take 168 products against 164 and save nothing (3.0 ms).
# Best of 9, one BLAS thread, 2 shared vCPUs.
_POWER_ROUND = 4
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

    The order is the one in which Tarjan's search completes them, taking
    successors in label order. Below ARRAY_EDGE_CUTOFF edges Tarjan runs
    on the label table, and the Perron solve numbers each component's
    vertices as they leave the stack; at or above it, on the graph with
    the component the numpy search found contracted to node 0 (or only its
    pivot, when either direction of the search ran out of levels) and the
    other vertices numbered after it in vertex order, and the solve numbers
    them in vertex order. That numbering fixes every bracket's rounding.
    hausdorff_dim names as dominant the first component in this order with
    the largest bracket sum lo_c + hi_c.
    """

    components: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class DimensionResult:
    """beta and dim = log_3 beta, certified by an exact rational bracket.

    beta_bracket holds the bracket's ends as reduced (numerator,
    denominator) pairs, and the true beta lies between them; the spectral
    layer carries every bracket as such int pairs, never as Fraction. For
    dense_squaring and power_iteration it is the exact Collatz-Wielandt
    bracket of the vector found, and for exact_trivial it has width zero.
    beta is the bracket's midpoint; beta_error and error_bound bound
    |beta - true beta| and |dim - true dim|, rounded outward (a zero-width
    bracket gives 0, log_3 included). dominant_component is the component
    that gave method and iterations, and scc_count the number of strongly
    connected components. iterations counts the dominant component's
    squarings, or its products with A + POWER_SHIFT * I, a multiple of 4,
    on the power iteration. hausdorff_dim is the one producer.
    """

    beta: float
    dim: float
    method: str  # dense_squaring | power_iteration | exact_trivial
    error_bound: float  # bound on |dim - true dim| from the bracket
    dominant_component: frozenset[int]
    beta_error: float
    scc_count: int
    beta_bracket: tuple[tuple[int, int], tuple[int, int]]
    iterations: int


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

    The one place cantor3 imports scipy.sparse, on first call: the path
    counts and the power iteration call scipy's compiled routines through
    automaton.sparse_kernels, which does not.
    """
    from scipy.sparse import csr_matrix

    rows, cols, _ = g.edge_arrays()
    ones = np.ones(len(rows), dtype=np.int64)
    return csr_matrix((ones, (rows, cols)), shape=(g.n, g.n))  # duplicates are summed


def _tarjan(rows: list[list[int]]):
    """Iterative Tarjan over successor rows; the _components view (label, order, ends).

    A vertex of finished component c gets index n + 1 + c, above every live
    index, so it lowers no low-link and no on-stack flag is needed (Pearce,
    "A space-efficient algorithm for finding strongly connected components",
    IPL 2016). A -1 cell reads index[n] = n, just as inert, and is skipped.
    The vertex being searched, its row iterator and its low-link are
    locals; those of the vertices above it on the search path wait in
    three parallel lists, so a low-link is kept only while its vertex is
    on the path.
    """
    n = len(rows)
    index = [-1] * n + [n]
    stack, order, ends = [], [], []
    path, rests, lows = [], [], []  # the search path above v
    counter, done = 0, n + 1
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low = counter
        counter += 1
        stack.append(root)
        v, rest = root, iter(rows[root])
        while True:
            for w in rest:
                i = index[w]
                if i < 0:
                    path.append(v)
                    rests.append(rest)
                    lows.append(low)
                    index[w] = low = counter
                    counter += 1
                    stack.append(w)
                    v, rest = w, iter(rows[w])
                    break
                if i < low:
                    low = i
            else:
                if low == index[v]:
                    while True:
                        w = stack.pop()
                        index[w] = done
                        order.append(w)
                        if w == v:
                            break
                    done += 1
                    ends.append(len(order))
                if not path:
                    break
                v, rest, up = path.pop(), rests.pop(), lows.pop()
                if up < low:  # back at the parent: the lower of its low-link and the child's
                    low = up
    # strongly connected: np.zeros is the faster way to label every vertex 0
    label = np.zeros(n, dtype=np.intp) if len(ends) == 1 else np.array(index[:n]) - (n + 1)
    return label, np.array(order), np.array(ends)


def _array_sccs(g: PointedLabeledGraph) -> np.ndarray:
    """Component label per vertex by one forward-backward search, in emission order.

    The pivot is the first vertex with the largest in-degree times
    out-degree, the likeliest member of a large component (Multistep:
    Slota, Rajamanickam and Madduri, IPDPS 2014); the vertices reached from
    it both forward and backward are its component. On long chains of
    components a level-by-level search is slow against Tarjan, so each
    direction stops after edge count / _SEARCH_LEVEL_EDGES levels, and if
    either runs out only the pivot counts as found.

    What was found is contracted to node 0 and the other vertices follow in
    vertex order. The pivot's component is maximal, so one Tarjan pass over
    the contracted graph labels the rest and emits all components in
    reverse topological order.
    """
    n = g.n
    src, dst, _ = g.edge_arrays()
    pivot = int(np.argmax(np.bincount(src, minlength=n) * np.bincount(dst, minlength=n)))
    inside = np.zeros(n, dtype=bool)
    inside[pivot] = True
    levels = g.edge_count / _SEARCH_LEVEL_EDGES
    fw = reach(g, pivot, g.out_edges, levels)
    if fw is not None:
        bw = reach(g, pivot, g.in_edges, levels)
        if bw is not None:
            inside = fw & bw
    node = np.where(inside, 0, np.cumsum(~inside))
    leave = inside[src] & ~inside[dst]
    # node 0's row: the edges leaving it; every other node's: its vertex's
    # table row through node (-1 reads the appended -1; a loop lowers no low-link)
    rows = np.append(node, -1)[g.delta[~inside]].tolist()
    return _tarjan([node[dst[leave]].tolist()] + rows)[0][node]


def _components(g: PointedLabeledGraph):
    """(label, order, ends): each vertex's component, numbered in emission
    order; the vertices grouped by component, in Tarjan's pop order below
    ARRAY_EDGE_CUTOFF edges and in vertex order at or above it; and where
    each group ends in order. Kept as a graph view, so the spectral layer,
    scc() and the checks search once per graph.
    """
    def make():
        if g.edge_count < ARRAY_EDGE_CUTOFF:
            return _tarjan(g.delta.tolist())
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
    # the ufuncs' reduce, not the ndarray methods: their wrappers cost more
    # than the reductions on a small matrix, and give the same floats
    top, low, add = np.maximum.reduce, np.minimum.reduce, np.add.reduce
    a = np.bincount(rows * k + cols, minlength=k * k).reshape(k, k).astype(float)
    b = a.copy()
    b.ravel()[::k + 1] += 1  # A + I, without np.eye's calls
    b /= top(add(b, axis=1))
    gap = math.inf
    for s in range(1, _MAX_SQUARINGS + 1):
        b = b @ b
        b /= top(b, axis=None)
        v = add(b, axis=1)
        ratios = a @ v
        ratios /= v
        prev, gap = gap, float(top(ratios) - low(ratios))
        if gap <= tol * _DENSE_GAP_FACTOR or prev <= gap <= tol:
            break
    return v, s


def _power_iteration(rows, cols, k: int, tol: float):
    """Positive vector of one irreducible component, and the products taken.

    Iterates v -> (A + cI)v, c = POWER_SHIFT, in rounds of _POWER_ROUND
    products. A round's first product u = (A + cI)v gives the float
    quotients u_i / v_i, which converge for a primitive matrix; once they
    lie within tol of each other v is returned (the shift moves every
    quotient by c, so their gap is that of A). Otherwise the round takes
    its other products and divides by the largest entry once: rows of
    A + cI sum to at most 3.1, so entries grow less than 3.1^4 in a round.
    The step count is the number of products before the returned v, a
    multiple of _POWER_ROUND. A is CSR without its diagonal, built from the
    edges grouped by row (duplicates are summed by the product).

    Nothing is allocated per product: two vectors swap within a round and
    the quotients go into a third, which also holds c x. Each product is
    scipy's compiled csr_matvec into a zeroed vector, the call A @ x makes,
    then c x is added, so every float is that of A @ x + c * x. The routine
    comes from automaton.sparse_kernels, which loads it without importing
    scipy.sparse.
    """
    csr_matvec = sparse_kernels().csr_matvec
    indptr = np.zeros(k + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=k), out=indptr[1:])
    indices = np.asarray(cols, dtype=np.int32)[np.argsort(rows, kind="stable")]
    data = np.ones(len(indices))

    def shifted(x, out, t):  # out = A x + c x
        out.fill(0.0)
        csr_matvec(k, k, indptr, indices, data, x, out)
        np.multiply(x, POWER_SHIFT, out=t)
        np.add(out, t, out=out)

    v, u, t = np.ones(k), np.empty(k), np.empty(k)
    for step in range(0, _MAX_POWER_ITERATIONS, _POWER_ROUND):
        shifted(v, u, t)
        np.divide(u, v, out=t)
        if t.max() - t.min() <= tol:
            return v, step
        for _ in range(_POWER_ROUND - 1):
            shifted(u, v, t)
            u, v = v, u
        np.divide(u, u.max(), out=v)
    raise RefusalError(
        f"power iteration did not reach gap {tol} within {_MAX_POWER_ITERATIONS} steps")


def _certify(rows, cols, v, prefilter: bool = True) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact min and max of (Av)_i / v_i, which bracket the Perron root of A,
    as (numerator, denominator) pairs w_i, x_i, not reduced; of the rows
    that share an extreme, the first.

    The Collatz-Wielandt bound holds for every positive v, so this cannot
    fail; a poor v only widens the bracket. v is scaled to integers
    x_i = rint(v_i * 2^52 / max v), and w = A x is exact in int64: rows sum
    to at most 3, so w < 2^54. Where that rounding would zero an entry, x
    is v scaled exactly to Python ints instead (dtype=object), the
    int64/object rule of oracle._count. With prefilter, float quotients
    pick the candidates for the min and max first, which pays on the power
    iteration's many rows (N:14: 0.28 against 6.0 ms). A dense-squaring
    vector has converged to rounding level, so the prefilter keeps about
    half its rows or more, and one pass of cross-multiplications in Python
    ints over all rows is faster (README "Spectral layer").
    """
    v = np.maximum(v, np.finfo(float).tiny)  # an underflowed entry may be raised: any v > 0 will do
    x = np.rint(v * (2.0**52 / v.max())).astype(np.int64)
    if not x.min():
        parts = [f.as_integer_ratio() for f in v.tolist()]  # denominators are powers of 2
        den = max(d for _, d in parts)
        x = np.array([n * (den // d) for n, d in parts], dtype=object)
    w = np.zeros_like(x)
    np.add.at(w, rows, x[cols])
    if not prefilter:
        return _extremes(w.tolist(), x.tolist())
    q = (w / x).astype(float)  # each quotient within 2^-51 of the exact one, relatively
    near = (q <= q.min() * (1 + 2.0**-48)) | (q >= q.max() * (1 - 2.0**-48))
    return _extremes(w[near].tolist(), x[near].tolist())


def _extremes(w: list, x: list) -> tuple[tuple[int, int], tuple[int, int]]:
    """The first least and the first greatest w_i / x_i, x_i > 0, by cross-multiplication."""
    a = c = w[0]
    b = d = x[0]
    for p, q in zip(w, x):
        if p * b < a * q:
            a, b = p, q
        elif p * d > c * q:
            c, d = p, q
    return (a, b), (c, d)


def _component_bracket(rows, cols, k: int):
    """Exact bracket, method and steps for one component that is neither a lone
    vertex nor a bare cycle, its k vertices and edges in local indices."""
    if k <= DENSE_COMPONENT_LIMIT:
        method, search = "dense_squaring", _dense_squaring
    else:
        method, search = "power_iteration", _power_iteration
    v, steps = search(rows, cols, k, QUOTIENT_GAP)
    return *_certify(rows, cols, v, method == "power_iteration"), method, steps


def _spectral_full(g: PointedLabeledGraph):
    """Exact bracket (lo, hi) of beta, dominant vertex set, method, iterations, component count.

    Each component gets an exact bracket, its ends (numerator, denominator)
    pairs; beta, the maximum over the components, then lies in [max of the
    lows, max of the highs]. The dominant component is the first, in
    emission order, with the largest bracket sum lo_c + hi_c. The maxima
    and sums are taken by cross-multiplication, with no Fraction built.

    A vertex's local index is its place in its component's group of the
    _components view. One stable argsort groups the inner edges by
    component, in edge order within each; a strongly connected graph has
    nothing to group. Lone vertices and bare cycles need no search.
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
    lo = hi = top = (-1, 1)  # below every end and every sum lo_c + hi_c
    a = 0
    for c, (k, e) in enumerate(zip(size, edges)):
        if k == 1 or e == k:  # a lone vertex has its loop count as radius, a bare cycle 1
            r = (e if k == 1 else 1, 1)
            lo_c, hi_c, method_c, steps_c = r, r, "exact_trivial", 0
        else:
            lo_c, hi_c, method_c, steps_c = _component_bracket(rows[a:a + e], cols[a:a + e], k)
        a += e
        if _exceeds(lo_c, lo):
            lo = lo_c
        if _exceeds(hi_c, hi):
            hi = hi_c
        sum_c = (lo_c[0] * hi_c[1] + hi_c[0] * lo_c[1], lo_c[1] * hi_c[1])
        if _exceeds(sum_c, top):
            best, top, method, steps = c, sum_c, method_c, steps_c
    return (lo, hi, frozenset(order[ends[best] - size[best]:ends[best]].tolist()),
            method, steps, count)


def _exceeds(x, y) -> bool:
    """x > y for (numerator, denominator) pairs with positive denominators."""
    return x[0] * y[1] > y[0] * x[1]


def char_poly(a: "csr_matrix") -> CharPoly:
    """Exact characteristic polynomial by the Faddeev-LeVerrier recurrence.

    Integer arithmetic throughout: the matrices are numpy arrays of Python
    ints (dtype=object), multiplied by numpy, and the division by the step
    index is exact. Refused above CHAR_POLY_LIMIT (64) vertices: the
    recurrence is cubic per step and this is a verification aid, never the
    dimension path. Its argument comes from adjacency(), which loads
    scipy.sparse.
    """
    n = a.shape[0]
    if n > CHAR_POLY_LIMIT:
        raise RefusalError(f"characteristic polynomial limited to"
                           f" {CHAR_POLY_LIMIT}x{CHAR_POLY_LIMIT}, got {n}x{n}")
    A = a.toarray().astype(object)  # exact Python ints
    cs = [1]  # descending: coefficient of x^n first
    M = A.copy()
    for k in range(1, n + 1):
        if k > 1:
            M.flat[::n + 1] += cs[-1]
            M = A @ M
        q, r = divmod(M.trace(), k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        cs.append(-q)
    return CharPoly(tuple(reversed(cs)))


def _dimension(lo, hi, **fields) -> DimensionResult:
    """The result for an exact bracket [lo, hi] of beta, with outward-rounded error bounds.

    lo and hi are (numerator, denominator) pairs with positive
    denominators; each is reduced once, and beta_bracket holds them
    reduced. beta is the midpoint rounded to the nearest float: CPython's
    int / int is correctly rounded, so every float taken from a ratio here
    is the float nearest the exact rational. The dimension bounds step
    four ulps outward from log_3 of the bracket's ends, themselves rounded
    outward to floats, which covers the rounding of math.log and of the
    division by ln 3.
    """
    (a, b), (c, d) = lo, hi
    g, h = math.gcd(a, b), math.gcd(c, d)
    a, b, c, d = a // g, b // g, c // h, d // h
    beta = (a * d + c * b) / (2 * b * d)
    dim = log3(beta)
    beta_error = error_bound = 0.0
    if a * d != c * b:
        p, q = beta.as_integer_ratio()
        over, under = (c * q - p * d, d * q), (p * b - a * q, q * b)  # hi - beta, beta - lo
        n, m = under if _exceeds(under, over) else over
        beta_error = n / m
        r, s = beta_error.as_integer_ratio()
        if r * m < n * s:  # rounded down: the least float >= n / m is the next one up
            beta_error = math.nextafter(beta_error, math.inf)
        dim_lo = _step(log3(_step(a / b, -math.inf)), -math.inf, 4)
        dim_hi = _step(log3(_step(c / d, math.inf)), math.inf, 4)
        error_bound = _step(max(dim - dim_lo, dim_hi - dim), math.inf)
    return DimensionResult(beta=beta, dim=dim, error_bound=error_bound, beta_error=beta_error,
                           beta_bracket=((a, b), (c, d)), **fields)


def _step(x: float, toward: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


def hausdorff_dim(g: PointedLabeledGraph) -> DimensionResult:
    """log_3 of the Perron eigenvalue of g's adjacency matrix, in an exact bracket.

    Requires an essential, reachable presentation (trim first); on anything
    else the dimension formula does not apply. Right-resolving holds by
    construction. The power iteration stops at a float quotient gap of
    QUOTIENT_GAP; dense squaring goes on far below it.
    """
    validate(g).require("presentation")
    lo, hi, comp, method, steps, scc_count = _spectral_full(g)
    assert hi[0] >= hi[1], "an essential graph contains a cycle"
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
