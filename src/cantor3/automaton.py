"""Pointed labeled graph presentations of the sets cut out by multipliers.

The objects here present path sets: a presentation is a finite directed
multigraph with edge labels in {0,1,2} and a marked start vertex, and the
set presented is all infinite label sequences of walks from the start.
Every presentation is right-resolving: at most one edge per label leaves
each vertex, so a word read from the start follows one path.

The carry construction reads a candidate digit word least-significant digit
first. For each multiplier M it tracks the pending high part N (the carry)
of M times the consumed prefix. Appending digit a settles exactly one new
digit of the product, (a + N) mod 3 when M is 1 mod 3, so a is admissible
precisely when that digit stays in {0,1}; the carry becomes (N + M*a) div 3
and never exceeds floor(M/2). Intersections come from the label product,
which pairs up edges with equal labels.
"""

import json
from collections import deque
from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.sparse import csr_matrix

from .errors import RefusalError
from .ternary import Multiplier, normalize, render_ternary

DEFAULT_MAX_VERTICES = 2_000_000


class PointedLabeledGraph:
    """Immutable pointed presentation, right-resolving by construction.

    vertices[i] is the carry vector of vertex i (a tuple of nonnegative
    ints, one per multiplier). out[v] is v's label table: it maps the label
    of each edge leaving v to that edge's destination. A dict holds one
    destination per label, so no graph can have two edges with one label
    leaving one vertex. edges lists the same edges as (src, dst, label)
    triples: in the caller's order for a graph built from an edge list, and
    source by source in table order for a graph made from tables. Every
    builder fills its rows in ascending label order; trim_essential keeps
    the row order of its input.

    The constructor takes an edge list from outside and checks it once;
    builders hand over their tables through the unchecked _from_table.
    """

    __slots__ = ("vertices", "out", "edges", "start", "provenance")

    def __init__(self, vertices, edges, start, provenance=""):
        self.vertices = tuple(tuple(v) for v in vertices)
        n = len(self.vertices)
        if not 0 <= start < n:
            raise ValueError(f"start vertex {start} out of range")
        out = [{} for _ in range(n)]
        checked = []
        for s, d, a in edges:
            s, d, a = int(s), int(d), int(a)
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},{d},{a}) references a missing vertex")
            if a not in (0, 1, 2):
                raise ValueError(f"edge label {a} outside the alphabet {{0,1,2}}")
            if a in out[s]:
                raise ValueError(f"vertex {s} has two edges labeled {a};"
                                 " a presentation must be right-resolving")
            out[s][a] = d
            checked.append((s, d, a))
        self.out = tuple(out)
        self.start = start
        self.provenance = provenance
        self.edges = tuple(checked)

    @classmethod
    def _from_table(cls, vertices: tuple, out: tuple, start: int,
                    provenance: str) -> "PointedLabeledGraph":
        """A builder's own tables, unchecked: one row per vertex, in vertex order."""
        g = cls.__new__(cls)
        g.vertices, g.out, g.start, g.provenance = vertices, out, start, provenance
        g.edges = tuple((s, d, a) for s, row in enumerate(out) for a, d in row.items())
        return g

    @property
    def n(self) -> int:
        return len(self.vertices)

    def reachable_set(self) -> set[int]:
        """Vertices reachable from the start, by BFS over the label tables."""
        seen = [False] * self.n
        seen[self.start] = True
        order = [self.start]
        for v in order:  # the BFS queue: appended to while it is walked
            for w in self.out[v].values():
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        return set(order)

    def __repr__(self):
        return (f"PointedLabeledGraph({self.n} vertices, {len(self.edges)} edges, "
                f"start={self.start}, {self.provenance!r})")


@dataclass(frozen=True)
class ValidationReport:
    reachable: bool
    essential: bool
    vertex_bound_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.reachable and self.essential and self.vertex_bound_ok

    def require(self, side: str) -> None:
        """Raise ValueError naming `side` and each failed presentation property.

        Dimensions and language comparisons hold only for essential (no
        sinks) and reachable graphs; right-resolving holds by construction.
        """
        failed = [name for name, ok in (("essential", self.essential),
                                        ("reachable", self.reachable)) if not ok]
        if failed:
            raise ValueError(f"{side} is not {' and '.join(failed)}; apply trim_essential first")


def _as_multiplier(m) -> Multiplier:
    return m if isinstance(m, Multiplier) else normalize(int(m))


def _trivial_graph(values) -> PointedLabeledGraph:
    # only the zero word survives: one vertex, one 0-labeled loop
    desc = ",".join(str(v) for v in values)
    return PointedLabeledGraph._from_table(((0,),), ({0: 0},), 0, f"trivial({desc})")


def build_single(m, max_vertices: int | None = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Carry automaton for a single multiplier over the digit alphabet {0,1}.

    Breadth-first closure from carry 0, trying label 0 before label 1, which
    fixes the vertex order everything downstream relies on. A multiplier
    with residue 2 admits only the zero word (its first settled digit would
    be (2a + N) mod 3 = 2 for a = 1 at the start), so it short-circuits to
    the one-vertex graph.
    """
    m = _as_multiplier(m)
    if m.residue == 2:
        return _trivial_graph([m.value])
    M = m.value
    index = {0: 0}
    carries = [0]
    out = []
    for N in carries:  # the BFS queue: appended to while it is walked
        row = {}
        for a in (0, 1):
            if (a + N) % 3 > 1:
                continue
            nxt = (N + M * a) // 3
            dst = index.get(nxt)
            if dst is None:
                if max_vertices is not None and len(carries) >= max_vertices:
                    raise RefusalError(
                        f"carry automaton for {M} exceeds {max_vertices} vertices")
                dst = len(carries)
                index[nxt] = dst
                carries.append(nxt)
            row[a] = dst
        out.append(row)
    return PointedLabeledGraph._from_table(tuple((c,) for c in carries), tuple(out), 0,
                                           f"carry({M})")


def reachable_product(g1: PointedLabeledGraph, g2: PointedLabeledGraph,
                      max_vertices: int | None = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Label product restricted to pairs reachable from the start pair.

    Keeps an edge per label that both factors can read, so the result
    presents the intersection of the two path sets. Not trimmed: states
    with no common continuation are kept, which is exactly what finite
    prefix counting wants (see trim_essential for the other half).
    """
    start = (g1.start, g2.start)
    index = {start: 0}
    pairs = [start]
    out = []
    for u1, u2 in pairs:  # the BFS queue: appended to while it is walked
        row1, row2 = g1.out[u1], g2.out[u2]
        row = {}
        for a in sorted(row1):
            if a not in row2:
                continue
            nxt = (row1[a], row2[a])
            dst = index.get(nxt)
            if dst is None:
                if max_vertices is not None and len(pairs) >= max_vertices:
                    raise RefusalError(
                        f"label product exceeds {max_vertices} vertices")
                dst = len(pairs)
                index[nxt] = dst
                pairs.append(nxt)
            row[a] = dst
        out.append(row)
    vertices = tuple(g1.vertices[u1] + g2.vertices[u2] for (u1, u2) in pairs)
    return PointedLabeledGraph._from_table(
        vertices, tuple(out), 0, f"product({g1.provenance}, {g2.provenance})")


def trim_essential(g: PointedLabeledGraph) -> PointedLabeledGraph:
    """Drop sinks until none remain, then keep the part reachable from start.

    Product states can lack any common admissible digit; walks into them
    never extend to infinite walks, so they contribute nothing to the path
    set. The start vertex is never dropped (in carry graphs it always loops
    on digit 0). Returns the input object unchanged when nothing is cut.
    """
    n = g.n
    out = g.out
    alive = [True] * n
    outdeg = [len(row) for row in out]
    preds = [[] for _ in range(n)]
    for s, row in enumerate(out):
        for d in row.values():
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

    # reachability over the surviving part; the start is never dropped, so
    # every vertex seen is alive
    seen = [False] * n
    seen[g.start] = True
    order = [g.start]
    for v in order:  # the BFS queue: appended to while it is walked
        for w in out[v].values():
            if alive[w] and not seen[w]:
                seen[w] = True
                order.append(w)

    if len(order) == n:
        return g
    keep = [v for v in range(n) if seen[v]]
    renum = [-1] * n
    for i, v in enumerate(keep):
        renum[v] = i
    rows = tuple({a: renum[d] for a, d in out[v].items() if seen[d]} for v in keep)
    return PointedLabeledGraph._from_table(tuple(g.vertices[v] for v in keep), rows,
                                           renum[g.start], g.provenance)


def label_product(g1: PointedLabeledGraph, g2: PointedLabeledGraph,
                  max_vertices: int | None = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Trimmed label product, the presentation of the intersection."""
    return trim_essential(reachable_product(g1, g2, max_vertices=max_vertices))


def _prepare(ms) -> list[Multiplier]:
    if not ms:
        raise ValueError("need at least one multiplier")
    out = {}
    for m in ms:
        m = _as_multiplier(m)
        out[m.value] = m
    return [out[v] for v in sorted(out)]


def build_multi(ms, max_vertices: int | None = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Presentation of the intersection over several multipliers.

    Normalizes, deduplicates, and sorts the inputs; the multiplier 1 is no
    constraint and is dropped. Any residue-2 multiplier collapses the whole
    intersection to the zero word. Otherwise a left fold of trimmed label
    products over the single-multiplier automata.
    """
    ms = _prepare(ms)
    if any(m.residue == 2 for m in ms):
        return _trivial_graph([m.value for m in ms])
    ms = [m for m in ms if m.value != 1]
    if not ms:
        return build_single(normalize(1), max_vertices=max_vertices)
    acc = build_single(ms[0], max_vertices=max_vertices)
    for m in ms[1:]:
        acc = label_product(acc, build_single(m, max_vertices=max_vertices),
                            max_vertices=max_vertices)
    return acc


def build_multi_direct(ms, max_vertices: int | None = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """One-shot carry-vector construction of the same intersection.

    States are whole carry vectors instead of nested products: digit a is
    admissible when every component allows it, and components step
    independently. An independent cross-check of build_multi; the two must
    present the same language, and give the same one-vertex graph when a
    multiplier has residue 2.
    """
    ms = _prepare(ms)
    if any(m.residue == 2 for m in ms):
        return _trivial_graph([m.value for m in ms])
    ms = [m for m in ms if m.value != 1]
    if not ms:
        return build_single(normalize(1), max_vertices=max_vertices)
    values = [m.value for m in ms]
    start = (0,) * len(values)
    index = {start: 0}
    vectors = [start]
    out = []
    for Ns in vectors:  # the BFS queue: appended to while it is walked
        row = {}
        for a in (0, 1):
            if any((a + N) % 3 > 1 for N in Ns):
                continue
            nxt = tuple((N + M * a) // 3 for N, M in zip(Ns, values))
            dst = index.get(nxt)
            if dst is None:
                if max_vertices is not None and len(vectors) >= max_vertices:
                    raise RefusalError(
                        f"carry-vector automaton exceeds {max_vertices} vertices")
                dst = len(vectors)
                index[nxt] = dst
                vectors.append(nxt)
            row[a] = dst
        out.append(row)
    desc = ",".join(str(v) for v in values)
    return trim_essential(PointedLabeledGraph._from_table(
        tuple(vectors), tuple(out), 0, f"carry({desc})"))


# Graphs with fewer edges than this count paths in the per-edge Python loop:
# there one numpy/scipy step (about 5-12 us) costs more than the whole loop.
# The value is the measured crossover; see README "Path counts".
LIMB_KERNEL_EDGES = 128

_INT64_MAX = (1 << 63) - 1


def count_paths(g: PointedLabeledGraph, n: int) -> int:
    """Number of length-n label words readable from the start.

    Graphs are right-resolving by construction, so distinct paths carry
    distinct words. Exact integer arithmetic, so large n costs time but
    never precision: small graphs run a per-edge loop over Python ints,
    graphs with at least LIMB_KERNEL_EDGES edges an int64 multi-limb sparse
    kernel.
    """
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if len(g.edges) < LIMB_KERNEL_EDGES:
        return _count_paths_loop(g, n)
    return _count_paths_limbs(g, n)


def _count_paths_loop(g: PointedLabeledGraph, n: int) -> int:
    """Path counts per vertex as Python ints, one add per edge per step."""
    counts = [0] * g.n
    counts[g.start] = 1
    for _ in range(n):
        nxt = [0] * g.n
        for s, d, _ in g.edges:
            c = counts[s]
            if c:
                nxt[d] += c
        counts = nxt
    return sum(counts)


def _count_paths_limbs(g: PointedLabeledGraph, n: int) -> int:
    """Path counts per vertex as base-2^b int64 limbs, one sparse product per step.

    A has rows = destination and columns = source, so duplicate edges sum
    and a step is X = A @ X on the (vertices x limbs) array X. No entry of
    X exceeds `bound` (a Python int); a step multiplies it by at most D, the
    largest in-degree, so carries are propagated just before bound * D would
    pass 2^63 - 1, repeatedly until a step fits. A carried limb holds less
    than 2^b plus the carry from below; b = 49 - ceil(log2 D) leaves about
    14 steps between carries at D = 2.
    """
    src = np.fromiter((s for s, _, _ in g.edges), dtype=np.int64, count=len(g.edges))
    dst = np.fromiter((d for _, d, _ in g.edges), dtype=np.int64, count=len(g.edges))
    A = csr_matrix((np.ones(len(g.edges), dtype=np.int64), (dst, src)), shape=(g.n, g.n))
    D = max(1, int(A.sum(axis=1).max()))
    b = max(1, 49 - (D - 1).bit_length())
    mask = (1 << b) - 1
    X = np.zeros((g.n, 1), dtype=np.int64)
    X[g.start, 0] = 1
    bound = 1
    for _ in range(n):
        while bound * D > _INT64_MAX:
            high = X >> b
            X &= mask
            X[:, 1:] += high[:, :-1]
            if high[:, -1].any():
                X = np.hstack([X, high[:, -1:]])
            bound = mask + (bound >> b)
        X = A @ X
        bound *= D
    return sum(int(c) << (b * j) for j, c in enumerate(X.sum(axis=0, dtype=object)))


def validate(g: PointedLabeledGraph, ms=None) -> ValidationReport:
    """Structural report; the vertex bound is checked when multipliers are given."""
    if ms is None:
        bound_ok = True
    else:
        bound = prod(1 + _as_multiplier(m).value // 2 for m in ms)
        bound_ok = g.n <= bound
    return ValidationReport(
        reachable=len(g.reachable_set()) == g.n,
        essential=all(g.out),
        vertex_bound_ok=bound_ok,
    )


def to_json_dict(g: PointedLabeledGraph) -> dict:
    return {
        "start": g.start,
        "vertices": [{"id": i, "carries": list(v)} for i, v in enumerate(g.vertices)],
        "edges": [{"from": s, "to": d, "label": a} for (s, d, a) in g.edges],
        "provenance": g.provenance,
    }


def to_json(g: PointedLabeledGraph, indent: int | None = 2) -> str:
    return json.dumps(to_json_dict(g), indent=indent)


def vertex_name(g: PointedLabeledGraph, v: int) -> str:
    """Carry vector rendered in ternary, components dash-joined."""
    return "-".join(render_ternary(c) for c in g.vertices[v])


def to_dot(g: PointedLabeledGraph) -> str:
    """Graphviz source; vertex order and edge order are the graph's own."""
    lines = ["digraph presentation {", "  rankdir=LR;"]
    for i in range(g.n):
        shape = "doublecircle" if i == g.start else "circle"
        lines.append(f'  v{i} [label="{vertex_name(g, i)}", shape={shape}];')
    for s, d, a in g.edges:
        lines.append(f'  v{s} -> v{d} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)
