"""Pointed labeled graph presentations of the sets cut out by multipliers.

The objects here present path sets: a presentation is a finite directed
multigraph with edge labels in {0,1,2} and a marked start vertex, and the
set presented is all infinite label sequences of walks from the start.
Every presentation is right-resolving: at most one edge per label leaves
each vertex, so a word read from the start follows one path.

A presentation is an array. Its label table delta[v, a] is the vertex
reached from v by the edge labeled a, or -1 when v has no such edge; one
cell holds one destination, so right-resolving is a property of the
representation, not something to check. carries[v] is the carry vector
the construction gave vertex v, one entry per multiplier. Vertex and edge
tuples are views derived from the two tables on first read, for exports,
characteristic polynomials and tests; the hot layers (path counts,
spectra, language comparisons) read delta.

The carry construction reads a candidate digit word least-significant digit
first. For each multiplier M it tracks the pending high part N (the carry)
of M times the consumed prefix. Appending digit a settles exactly one new
digit of the product, (a + N) mod 3 when M is 1 mod 3, so a is admissible
precisely when that digit stays in {0,1}; the carry becomes (N + M*a) div 3
and never exceeds floor(M/2). An intersection tracks one carry per
multiplier and admits a digit that every multiplier admits.

The construction is one breadth-first search over carry vectors, level by
level, with each vertex's children in label order. Levels at least
NUMPY_LEVEL_WIDTH wide are stepped in numpy, in key order, narrower ones in
one Python step, vertex by vertex over a dict of keys; both number new
carry vectors in order of first occurrence, so the vertex order is the same
either way. A numpy level finds that order by marking each new key's first
table cell, without a sort; a level whose children are all new, each once,
as in a tree-like search, skips the gathers that would be an identity on
it. With one multiplier the key is the carry itself, so the children and
the carry matrix come straight from the keys, in one dimension. After a
numpy phase each narrow level first puts into the dict the entries of its
candidate children in the sorted key index that phase holds, one
searchsorted per level.

That vertex order, breadth-first from the start with children in label
order and each vertex at its first occurrence, is every builder's, and it
is canonical: two presentations are pointed-isomorphic exactly when their
label tables in that order are equal (canonical_delta, which
langops.pointed_isomorphic compares).
"""

import json
import math
import os
import threading
from dataclasses import dataclass
from math import prod
from operator import itemgetter, mul

import numpy as np

from .errors import RefusalError
from .ternary import Multiplier, normalize, render_ternary

DEFAULT_MAX_VERTICES = 2_000_000

# Levels of the carry search at least this wide are stepped in numpy, in
# key order against a sorted array of the carry vectors seen so far;
# narrower levels run a per-vertex Python loop over a dict, which after a
# numpy phase each level fills from that sorted array. A numpy level
# pays a fixed cost in numpy calls, so it loses on narrow levels; the value
# is the crossover measured for an earlier, costlier numpy step, see README
# "Construction".
NUMPY_LEVEL_WIDTH = 128

# Carry vectors are keyed by one mixed-radix integer. In numpy that key, and
# every carry plus its multiplier, must stay below 2^62; larger multipliers
# are stepped in Python ints, the int64/object rule of oracle._count. The
# numpy steps end their sorted key index with this value, above every key.
_KEY_LIMIT = 1 << 62


def _int_array(rows, width: int) -> np.ndarray:
    """rows as an (n, width) int64 array, or a Python-int object array past int64."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(-1, width)


def _join(chunks: list) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def gather(ptr: np.ndarray, items: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """items[ptr[v]:ptr[v + 1]] for every v in vs, concatenated."""
    lo, sizes = ptr[vs], ptr[vs + 1] - ptr[vs]
    idx = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    return items[idx]


def reach(g: "PointedLabeledGraph", v: int, edges, limit: float = math.inf) -> np.ndarray | None:
    """The bool mask of the vertices reached from v, level by level along edges
    (g.out_edges forward, g.in_edges backward); None once the search would
    need more than limit levels."""
    seen = np.zeros(g.n, dtype=bool)
    seen[v] = True
    slot = np.empty(g.n, dtype=np.intp)
    front, level = np.array([v]), 0
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
    return seen


def canonical_order(g: "PointedLabeledGraph") -> np.ndarray:
    """The vertices reached from the start in canonical order: breadth-first,
    each vertex's children in label order, each vertex where it first occurs.
    A level search: a level's children come out of delta row by row, in
    that order, and np.unique finds the first copy of each new one."""
    seen = np.zeros(g.n, dtype=bool)
    seen[g.start] = True
    levels = [np.array([g.start])]
    while len(levels[-1]):
        w = g.out_edges(levels[-1])
        w = w[~seen[w]]
        _, first = np.unique(w, return_index=True)
        levels.append(w[np.sort(first)])
        seen[levels[-1]] = True
    return np.concatenate(levels)


class PointedLabeledGraph:
    """Immutable pointed presentation, right-resolving by construction.

    delta is the (n, 3) int32 label table: delta[v, a] is the destination
    of the edge labeled a leaving v, or -1. carries is the (n, r) carry
    matrix, int64, or dtype=object where a carry passes int64. start is the
    start vertex and provenance says how the graph was made.

    vertices (the carry vectors as int tuples) and edges ((src, dst, label)
    triples, source by source in label order), for exports and tests,
    edge_arrays() and the reverse adjacency that in_edges() reads are views
    computed from the tables on first read and kept. Every reachability
    question is answered by reach, one numpy level search.

    The constructor takes an edge list from outside, checks it once and
    finds out once, by reach from the start, whether every vertex is
    reachable; builders hand over their tables through the unchecked _make,
    and know that from their own breadth-first order. Whether every vertex
    has an edge out is known from construction too, or looked up once by
    validate.

    The vertex order is canonical when it is the breadth-first order from
    the start, each vertex's children in label order and each vertex at its
    first occurrence: then the start is 0, and the label table depends only
    on the pointed labeled graph, not on how its vertices were listed.
    Every builder numbers its vertices that way, so _make records it; a
    graph from the checked constructor is renumbered once, on first read
    of canonical_delta.
    """

    __slots__ = ("delta", "carries", "start", "provenance", "_reachable", "_essential",
                 "_canonical", "_views")

    def __init__(self, vertices, edges, start, provenance=""):
        rows = [tuple(v) for v in vertices]
        n = len(rows)
        if not 0 <= start < n:
            raise ValueError(f"start vertex {start} out of range")
        table = [[-1, -1, -1] for _ in range(n)]
        for s, d, a in edges:
            s, d, a = int(s), int(d), int(a)
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s},{d},{a}) references a missing vertex")
            if a not in (0, 1, 2):
                raise ValueError(f"edge label {a} outside the alphabet {{0,1,2}}")
            if table[s][a] >= 0:
                raise ValueError(f"vertex {s} has two edges labeled {a};"
                                 " a presentation must be right-resolving")
            table[s][a] = d
        self._fill(np.array(table, dtype=np.int32), _int_array(rows, len(rows[0])),
                   int(start), provenance, None, None)
        self._reachable = bool(reach(self, self.start, self.out_edges).all())

    def _fill(self, delta, carries, start, provenance, essential, canonical):
        self.delta, self.carries, self.start, self.provenance = delta, carries, start, provenance
        self._reachable, self._essential, self._canonical = True, essential, canonical
        self._views = {}

    @classmethod
    def _make(cls, delta: np.ndarray, carries: np.ndarray, start: int, provenance: str,
              essential: bool | None = None,
              canonical: bool | None = True) -> "PointedLabeledGraph":
        """A builder's own tables, unchecked, every vertex reachable from the start.

        essential is True when the builder knows it, None when validate
        should look; canonical is True when the builder numbered the
        vertices in canonical order, None when canonical_delta should look.
        """
        g = cls.__new__(cls)
        g._fill(delta, carries, start, provenance, essential, canonical)
        return g

    def _view(self, name: str, make):
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = make()
        return view

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    @property
    def edge_count(self) -> int:
        return len(self.edge_arrays()[0])

    @property
    def vertices(self) -> tuple:
        return self._view("vertices", lambda: tuple(map(tuple, self.carries.tolist())))

    @property
    def edges(self) -> tuple:
        return self._view("edges", lambda: tuple(zip(*(a.tolist() for a in self.edge_arrays()))))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, label) index arrays, source by source in label order."""
        def make():
            has = self.delta >= 0
            src, lab = has.nonzero()
            return src, self.delta[has], lab

        return self._view("arrays", make)

    def out_edges(self, vs: np.ndarray) -> np.ndarray:
        """The destinations of the edges out of each vertex of vs, concatenated with repeats."""
        nxt = self.delta[vs]
        return nxt[nxt >= 0]

    def in_edges(self, vs: np.ndarray) -> np.ndarray:
        """The sources of the edges into each vertex of vs, concatenated with repeats."""
        def make():
            src, dst, _ = self.edge_arrays()
            ptr = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(np.bincount(dst, minlength=self.n), out=ptr[1:])
            return ptr, src[np.argsort(dst, kind="stable")]

        return gather(*self._view("reverse", make), vs)

    @property
    def canonical_delta(self) -> np.ndarray:
        """The label table with the vertices renumbered in canonical order,
        start 0; delta itself when the order is canonical already. Defined
        for reachable graphs."""
        if self._canonical:
            return self.delta
        return self._view("canonical", self._renumbered)

    def _renumbered(self) -> np.ndarray:
        order = canonical_order(self)
        self._canonical = bool(np.array_equal(order, np.arange(self.n)))
        if self._canonical:
            return self.delta
        renum = np.full(self.n, -1, dtype=np.int32)
        renum[order] = np.arange(len(order), dtype=np.int32)
        rows = self.delta[order]
        return np.where(rows >= 0, renum[rows], -1).astype(np.int32)

    def reachable_set(self) -> set[int]:
        """Vertices reachable from the start, the set of reach's mask."""
        return set(np.flatnonzero(reach(self, self.start, self.out_edges)).tolist())

    def __repr__(self):
        return (f"PointedLabeledGraph({self.n} vertices, {self.edge_count} edges,"
                f" start={self.start}, {self.provenance!r})")


@dataclass(frozen=True)
class ValidationReport:
    reachable: bool
    essential: bool

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
    return PointedLabeledGraph._make(np.array([[0, -1, -1]], dtype=np.int32),
                                     np.zeros((1, len(values)), dtype=np.int64), 0,
                                     f"trivial({desc})", True)


class _CarrySearch:
    """Breadth-first search over the carry vectors of `values`, level by level.

    A carry vector (N_1, ..., N_r) is keyed by the mixed-radix integer
    sum N_j * stride_j with digit j in 0..M_j div 2, the carry itself for
    one multiplier. Where a key or a carry plus its multiplier could pass
    2^62 the keys are Python ints, and only the Python step runs. Every
    vertex's children come in label order and the new keys of a level are
    numbered in order of first occurrence, in the Python step and the
    numpy steps alike. All write one store, the table rows and keys in
    row_chunks and key_chunks, in vertex order.

    The search alternates two kinds of step. python_levels steps a run of
    narrow levels in breadth-first order over a dict of keys: the first
    run from the start's level, and each later one from the last level of
    a numpy phase. It hands a wide level over as the end of its key
    chunk. The numpy steps hold a level in key order, as the sorted new
    keys of the level before and the vertex of each, and look up its
    children in a sorted key index, merged once per level that has new
    keys; key_order sorts every stored key into that index, and the level
    handed over, when a phase begins. The index lives until the Python
    step after the phase ends, which fills its dict from it level by
    level.
    """

    def __init__(self, values, max_vertices, what):
        self.values, self.max_vertices, self.what = values, max_vertices, what
        self.bases = [1 + M // 2 for M in values]
        self.strides = [prod(self.bases[:j]) for j in range(len(values))]
        self.numeric = prod(self.bases) < _KEY_LIMIT and max(values) < _KEY_LIMIT
        self.lift = sum((M - 1) * s for M, s in zip(values, self.strides))  # key of (M_j - 1)
        self.n = 1
        self.row_chunks, self.key_chunks = [], []  # the table and the keys, in vertex order
        self.sorted_keys = self.sorted_ids = None  # the numpy steps' index, while it lives

    def radix(self) -> list[np.ndarray]:
        """values, strides and bases as arrays, made where several
        multipliers' keys are decoded: one multiplier needs none."""
        dtype = np.int64 if self.numeric else object
        return [np.array(x, dtype=dtype) for x in (self.values, self.strides, self.bases)]

    def refuse(self):
        raise RefusalError(f"carry automaton for {self.what} exceeds {self.max_vertices} vertices")

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        level = self.python_levels([0])
        while level:  # at least NUMPY_LEVEL_WIDTH keys: a numpy phase
            keys, ids = self.key_order(level)
            while len(keys) >= NUMPY_LEVEL_WIDTH:
                keys, ids = self.numpy_level(keys, ids)
            level = self.python_levels(self.key_chunks[-1].tolist())
        return _join(self.row_chunks), self.carries(_join(self.key_chunks))

    def carries(self, keys: np.ndarray) -> np.ndarray:
        """The carry vectors of keys, an (n, r) matrix. One numeric
        multiplier's keys are its carries: the stride is 1 and the base
        passes every carry."""
        if self.numeric and len(self.values) == 1:
            return keys.reshape(-1, 1)
        _, strides, bases = self.radix()
        C = keys[:, None] // strides
        C %= bases  # in place: one (n, r) array at a time
        return C if self.numeric else _int_array(C.tolist(), len(self.values))

    def python_levels(self, level: list) -> list:
        """Step the levels narrower than NUMPY_LEVEL_WIDTH from `level`, the
        last len(level) vertices: the start's, or a numpy phase's last level.
        Return the first wider level, or [].

        Each child, vertex by vertex in label order, is looked up in a dict
        of keys and numbered next when it is not there. After a numpy phase
        each level first puts into the dict its children's entries in the
        phase's sorted index, one searchsorted a level; the index is let go
        when the step ends.
        """
        seen, seen_ids = self.sorted_keys, self.sorted_ids
        self.sorted_keys = self.sorted_ids = None
        index, rows, cap, n = {0: 0}, [], self.max_vertices, self.n
        width = NUMPY_LEVEL_WIDTH if self.numeric else math.inf
        M = self.values[0] if len(self.values) == 1 else None
        stored = len(level) if self.key_chunks else 0  # the first step stores the start key
        queue, end = level, 0  # the current level ends at queue[end]
        for i, key in enumerate(queue):  # the BFS queue: appended to while it is walked
            if i == end:
                if len(queue) - end >= width:
                    break
                end = len(queue)
                if seen is not None:
                    kids = self.candidates(np.array(queue[i:], dtype=np.int64))
                    # the method, not np.searchsorted: its dispatch costs about 0.5 us a level
                    pos = seen.searchsorted(kids)
                    # the entry at each candidate's place in the index: its own where
                    # the index holds it, else another key's, true too, or the
                    # sentinel's, whose key is no carry vector's
                    index.update(zip(seen[pos].tolist(), seen_ids[pos].tolist()))
            if M is not None:  # one multiplier, inline: a call per vertex costs about 15 %
                m = key % 3
                kids = (key // 3 if m <= 1 else None, (key + M) // 3 if m != 1 else None)
            else:
                kids = self.kids(key)
            for c in kids:
                if c is None:
                    rows.append(-1)
                    continue
                d = index.get(c)
                if d is None:
                    if n >= cap:
                        self.refuse()
                    d = index[c] = n
                    n += 1
                    queue.append(c)
                rows.append(d)
            rows.append(-1)  # no carry construction reads label 2
        self.n = n
        self.row_chunks.append(np.array(rows, dtype=np.int32).reshape(-1, 3))
        self.key_chunks.append(np.array(queue[stored:], dtype=np.int64 if self.numeric else object))
        return queue[end:]

    def kids(self, key) -> tuple:
        """The keys reached from carry vector `key` by labels 0 and 1, None where not admissible.

        With r_j = N_j mod 3, label 0 (no r_j = 2) takes N_j to (N_j - r_j) / 3 and
        label 1 (no r_j = 1) to (N_j + M_j - 1 + r_j / 2) / 3, M_j being 1 mod 3.
        """
        rems = [key // s % b % 3 for s, b in zip(self.strides, self.bases)]
        R = sum(map(mul, rems, self.strides))
        return (None if 2 in rems else (key - R) // 3,
                None if 1 in rems else (key + self.lift + R // 2) // 3)

    def candidates(self, keys: np.ndarray) -> np.ndarray:
        """The keys reached from `keys` by labels 0 and 1, admissible or not:
        every carry N_j taken to N_j div 3 and to (N_j + M_j) div 3, each at
        most M_j div 2. A superset of the children, for a third to a
        quarter of the cost of children(), which checks and sorts them."""
        if len(self.values) == 1:
            return np.concatenate((keys, keys + self.values[0])) // 3
        values, strides, bases = self.radix()
        C = keys[:, None] // strides % bases
        return np.concatenate((C, C + values)) // 3 @ strides

    def key_order(self, level: list) -> tuple[np.ndarray, np.ndarray]:
        """Sort every key seen into the index of the numpy steps, and put a level
        from the Python step in key order: its keys ascending, and the vertex of each.

        The index ends in the sentinel key _KEY_LIMIT, above every key, so
        that searchsorted lands on an entry of it for every key. Its ids are
        int32, as in the table.
        """
        seen = _join(self.key_chunks)
        order = np.argsort(seen, kind="stable")
        self.sorted_keys = np.append(seen[order], _KEY_LIMIT)
        self.sorted_ids = np.append(order, -1).astype(np.int32)
        keys = np.array(level, dtype=np.int64)
        order = np.argsort(keys)
        return keys[order], order + (self.n - len(keys))

    def children(self, keys: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The children of a level given in key order, ascending, and the
        table cell of each; cell[i] is the label-0 cell of keys[i].

        One multiplier's key is its carry N, stepped in 1-D by the
        arithmetic of kids: with R = N mod 3, label 0 gives (N - R) / 3 =
        N div 3 where R <= 1 and label 1 gives (N + M - 1 + R / 2) / 3 =
        (N + M) div 3 where R != 1. Each label's children ascend with N,
        and with N <= M div 2 every label-0 child is at most M div 6, below
        every label-1 child, at least M div 3: the label-0 run followed by
        the label-1 run is in key order already. Several multipliers decode
        the key into its carry vector, step each carry, and sort.
        """
        if len(self.values) == 1:
            low = keys // 3
            rem = keys - 3 * low
            ok0, ok1 = rem <= 1, rem != 1
            return (np.concatenate((low[ok0], (keys[ok1] + self.values[0]) // 3)),
                    np.concatenate((cell[ok0], cell[ok1] + 1)))
        values, strides, bases = self.radix()
        C = keys[:, None] // strides % bases
        rem = C % 3
        ok0, ok1 = (rem <= 1).all(axis=1), (rem != 1).all(axis=1)
        kids = np.concatenate(((C[ok0] // 3) @ strides, ((C[ok1] + values) // 3) @ strides))
        order = np.argsort(kids, kind="stable")
        return kids[order], np.concatenate((cell[ok0], cell[ok1] + 1))[order]

    def numpy_level(self, keys: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step one level given in key order (keys ascending, ids[i] the
        vertex of keys[i]); return the next level the same way.

        The children are sorted before they are looked up, so searchsorted
        walks the sorted index once instead of probing it at random. The
        level is the last len(keys) vertices, from base = n - len(keys), and
        the edge labeled a out of vertex v is cell 3 * (v - base) + a of
        its table. A fresh key is numbered by its first cell, where a
        vertex-by-vertex search would meet it first: the first cells are
        marked in a bool array over the table, and the marked cells, in
        order, take the next ids. A level with no fresh key, the last one,
        leaves the sorted index as it is. The fresh keys are merged into the
        index by their places in the merged array, the old keys filling the
        places left over.

        Two shortcuts skip gathers that would be an identity. When no child
        is in the index, the fresh children are all the children, taken as
        they are, and no id is read from the index. When no fresh key
        repeats, each child is its key's first copy, so no run of copies is
        reduced to its first cell and no copy is given its first copy's id.
        The wide levels of a tree-like search take both: every level of an
        N_k search but the last.
        """
        n, seen, seen_ids = self.n, self.sorted_keys, self.sorted_ids
        kids, cells = self.children(keys, 3 * (ids - (n - len(keys))))
        pos = np.searchsorted(seen, kids)  # at most n: the sentinel passes every key
        fresh = seen[pos] != kids
        count = np.count_nonzero(fresh)
        table = np.full((len(keys), 3), -1, dtype=np.int32)
        self.row_chunks.append(table)
        flat = table.ravel()
        if not count:  # as on the last level: nothing to number or merge
            flat[cells] = seen_ids[pos]
            self.key_chunks.append(np.zeros(0, dtype=np.int64))
            return self.key_chunks[-1], self.key_chunks[-1]
        # the fresh keys' copies, ascending, where each goes in seen, and
        # its cell; when no child is in the index they are the children
        every = count == len(kids)
        if every:
            s, first = kids, cells
        else:
            dst = seen_ids[pos]
            fresh_at = np.flatnonzero(fresh)
            s, pos, first = kids[fresh_at], pos[fresh_at], cells[fresh_at]
        head = np.ones(len(s), dtype=bool)
        np.not_equal(s[1:], s[:-1], out=head[1:])
        repeats = not head.all()
        uniq, at = s, pos
        if repeats:  # each fresh key once, and its first cell
            starts = np.flatnonzero(head)
            uniq, at, first = s[starts], pos[starts], np.minimum.reduceat(first, starts)
        if n + len(uniq) > self.max_vertices:
            self.refuse()
        mark = np.zeros(table.size, dtype=bool)
        mark[first] = True
        # the first cells, in vertex order, take the next ids
        flat[np.flatnonzero(mark)] = np.arange(n, n + len(uniq), dtype=np.int32)
        new_ids = flat[first]
        if not every:
            dst[fresh_at] = new_ids[np.cumsum(head) - 1] if repeats else new_ids
            flat[cells] = dst
            del dst, fresh_at
        elif repeats:  # the later copies' cells
            flat[cells] = new_ids[np.cumsum(head) - 1]
        chunk = np.empty_like(uniq)
        chunk[new_ids - n] = uniq
        self.key_chunks.append(chunk)
        # before the index is copied: a lower peak
        del kids, cells, fresh, s, pos, mark, first
        # merge the fresh keys into the sorted index: uniq[i] goes before
        # seen[at[i]], so to at[i] + i, and seen, the sentinel too, fills
        # the other places in order
        at += np.arange(len(uniq))
        rest = np.ones(len(seen) + len(uniq), dtype=bool)
        rest[at] = False
        moved = np.flatnonzero(rest)
        self.sorted_keys = np.empty(len(seen) + len(uniq), dtype=np.int64)
        self.sorted_keys[at], self.sorted_keys[moved] = uniq, seen
        self.sorted_ids = np.empty(len(seen) + len(uniq), dtype=np.int32)
        self.sorted_ids[at], self.sorted_ids[moved] = new_ids, seen_ids
        self.n = n + len(uniq)
        return uniq, new_ids


def _carry_graph(values, max_vertices, provenance) -> PointedLabeledGraph:
    """The untrimmed carry automaton of `values`, all residue 1, in BFS order.

    With one multiplier every vertex keeps an exit (label 0 when N mod 3 <= 1,
    label 1 otherwise), so the graph is essential as built.
    """
    what = ",".join(str(v) for v in values)
    delta, carries = _CarrySearch(values, max_vertices, what).run()
    return PointedLabeledGraph._make(delta, carries, 0, provenance, len(values) == 1 or None)


def build_single(m, max_vertices: int = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Carry automaton for a single multiplier over the digit alphabet {0,1}.

    Breadth-first closure from carry 0, trying label 0 before label 1, which
    fixes the vertex order everything downstream relies on. The graph is
    essential as built. A multiplier with residue 2 admits only
    the zero word (its first settled digit would be (2a + N) mod 3 = 2 for
    a = 1 at the start), so it short-circuits to the one-vertex graph.
    """
    m = _as_multiplier(m)
    if m.residue == 2:
        return _trivial_graph([m.value])
    return _carry_graph([m.value], max_vertices, f"carry({m.value})")


def trim_essential(g: PointedLabeledGraph) -> PointedLabeledGraph:
    """Drop sinks until none remain, then keep the part reachable from start.

    Product states can lack any common admissible digit; walks into them
    never extend to infinite walks, so they contribute nothing to the path
    set. The start vertex is never dropped (in carry graphs it always loops
    on digit 0). The sinks are peeled in rounds over a reverse CSR of
    delta. Vertex order is kept, and the input object is returned
    unchanged when nothing is cut. A canonical order stays canonical: a
    vertex with an edge to a survivor survives, so each survivor's first
    breadth-first path runs through survivors.

    A survivor of the peel that is reachable from the start is reachable
    through survivors: each vertex on a path from the start to it has a
    surviving successor. So graphs not reachable from the start as built
    keep the survivors that reach finds from the start in the whole graph.
    """
    n, delta = g.n, g.delta
    outdeg = (delta >= 0).sum(axis=1)
    dead = np.flatnonzero(outdeg == 0)
    dead = dead[dead != g.start]
    if not len(dead) and g._reachable:
        if g._essential is None:
            g._essential = bool(outdeg[g.start])
        return g
    alive = np.ones(n, dtype=bool)
    while len(dead):
        alive[dead] = False
        p = g.in_edges(dead)
        p, k = np.unique(p[alive[p]], return_counts=True)
        outdeg[p] -= k
        dead = p[(outdeg[p] == 0) & (p != g.start)]
    if not g._reachable:
        alive &= reach(g, g.start, g.out_edges)
    keep = np.flatnonzero(alive)  # fewer than n: a sink or an unreachable vertex was cut
    renum = np.full(n, -1, dtype=np.int32)
    renum[keep] = np.arange(len(keep), dtype=np.int32)
    rows = delta[keep]
    # every survivor but the start has an edge to a survivor
    return PointedLabeledGraph._make(np.where(rows >= 0, renum[rows], -1).astype(np.int32),
                                     g.carries[keep], int(renum[g.start]), g.provenance,
                                     bool(outdeg[g.start]), g._canonical or None)


def _prepare(ms) -> list[Multiplier]:
    """The multipliers normalized, deduplicated and sorted, less the
    multiplier 1, which is no constraint, unless it is the only one."""
    if not ms:
        raise ValueError("need at least one multiplier")
    out = {}
    for m in ms:
        m = _as_multiplier(m)
        out[m.value] = m
    return [out[v] for v in sorted(out) if v != 1] or [out[1]]


def build_multi(ms, max_vertices: int = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Presentation of the intersection over several multipliers.

    Normalizes, deduplicates, and sorts the inputs; the multiplier 1 is no
    constraint and is dropped, so it is in neither the carry vectors nor the
    provenance. Any residue-2 multiplier collapses the whole intersection to
    the zero word, and a single multiplier is build_single.
    Otherwise the carry-vector search, trimmed to its essential part. The
    provenance names the intersection as the left fold of label products
    of the single automata, product(product(carry(a), carry(b)), carry(c)):
    that fold gives the same vertices, edges and start, since a vertex that
    survives the trim is reached by its least breadth-first word through
    survivors only.
    """
    ms = _prepare(ms)
    if any(m.residue == 2 for m in ms):
        return _trivial_graph([m.value for m in ms])
    if len(ms) == 1:
        return build_single(ms[0], max_vertices=max_vertices)
    provenance = f"carry({ms[0].value})"
    for m in ms[1:]:
        provenance = f"product({provenance}, carry({m.value}))"
    return trim_essential(_carry_graph([m.value for m in ms], max_vertices, provenance))


def build_multi_direct(ms, max_vertices: int = DEFAULT_MAX_VERTICES) -> PointedLabeledGraph:
    """Reference construction of the same intersection, one vertex at a time.

    A plain queue-driven breadth-first search over carry-vector tuples with
    a dict of the vectors seen; digit a is admissible when every component
    allows it, and components step independently. It shares no code with
    the level-synchronous search of build_multi, and must give the same
    vertices, edges and start, and the same one-vertex graph when a
    multiplier has residue 2.
    """
    ms = _prepare(ms)
    if any(m.residue == 2 for m in ms):
        return _trivial_graph([m.value for m in ms])
    values = [m.value for m in ms]
    start = (0,) * len(values)
    index = {start: 0}
    vectors = [start]
    table = []
    for Ns in vectors:  # the BFS queue: appended to while it is walked
        row = [-1, -1, -1]
        for a in (0, 1):
            if any((a + N) % 3 > 1 for N in Ns):
                continue
            nxt = tuple((N + M * a) // 3 for N, M in zip(Ns, values))
            dst = index.get(nxt)
            if dst is None:
                if len(vectors) >= max_vertices:
                    raise RefusalError(
                        f"carry-vector automaton exceeds {max_vertices} vertices")
                dst = len(vectors)
                index[nxt] = dst
                vectors.append(nxt)
            row[a] = dst
        table.append(row)
    desc = ",".join(str(v) for v in values)
    return trim_essential(PointedLabeledGraph._make(
        np.array(table, dtype=np.int32), _int_array(vectors, len(values)), 0, f"carry({desc})"))


# Graphs with fewer edges than this count paths in the per-edge Python loop:
# there the kernel's fixed cost, two sparse matrices and their squares
# (about 0.06-0.09 ms on the 6 edges of 7), is more than the whole loop. The
# crossover depends on the word length; the value lies between the measured
# ones, see README "Path counts".
LIMB_KERNEL_EDGES = 128

# From this many edge steps (edges times word length) up, and with at least
# two usable CPUs, the kernel's two halves run at once, the forward one in a
# worker thread: their sparse products and int64 ufuncs release the GIL.
# Below it the thread's start and hand-over cost more than the overlap
# saves. The value is the measured crossover; see README "Path counts".
SPLIT_HALVES_EDGE_STEPS = 1 << 21

_INT64_MAX = (1 << 63) - 1


def usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_SPARSE_KERNELS = None
_SPARSE_KERNELS_LOCK = threading.Lock()


def sparse_kernels():
    """scipy's compiled sparse routines, the extension scipy.sparse._sparsetools,
    loaded on first call without importing scipy.

    The path counts and the power iteration call these routines and nothing
    else of scipy, while `import scipy.sparse` costs about 19 MB of resident
    memory and 0.14-0.2 s of package code. The extension is found in scipy's
    package directory by file name, which runs none of scipy, and loaded
    under a name of its own, so a later `import scipy.sparse` still loads
    and binds scipy's copy.
    """
    global _SPARSE_KERNELS
    with _SPARSE_KERNELS_LOCK:  # threads that ask at once still load it once
        if _SPARSE_KERNELS is None:
            _SPARSE_KERNELS = _load_sparse_kernels()
    return _SPARSE_KERNELS


def _load_sparse_kernels():
    from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
    from importlib.util import find_spec, module_from_spec

    scipy = find_spec("scipy")  # locates the package without importing it
    if scipy is None:
        raise ModuleNotFoundError("cantor3's sparse kernels need scipy", name="scipy")
    where = os.path.join(scipy.submodule_search_locations[0], "sparse")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "cantor3._sparsetools")
    if spec is None:
        raise ImportError(f"no _sparsetools extension in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_paths(g: PointedLabeledGraph, n: int) -> int:
    """Number of length-n label words readable from the start.

    Graphs are right-resolving by construction, so distinct paths carry
    distinct words. Exact integer arithmetic, so large n costs time but
    never precision: small graphs run a per-edge loop over Python ints,
    graphs with at least LIMB_KERNEL_EDGES edges an int64 multi-limb sparse
    kernel that counts the paths of length n // 2 from the start and the
    words of length n - n // 2 readable from each vertex, steps taken in
    pairs, on two threads for large enough graphs and lengths, and takes
    the exact dot product of the two.
    """
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if g.edge_count < LIMB_KERNEL_EDGES:
        return _count_paths_loop(g, n)
    return _count_paths_limbs(g, n)


def _count_paths_loop(g: PointedLabeledGraph, n: int) -> int:
    """Path counts per vertex as Python ints, one gather a step.

    Each step takes every vertex's count from its first in-edge's source in
    one operator.itemgetter call and adds the other in-edges' sources in
    Python. counts[g.n] is a zero sentinel: the first source of a vertex
    with no in-edge, and the gather's last index, so the gather always
    returns a tuple (itemgetter of one index returns the item) ending in 0.
    """
    src, dst, _ = g.edge_arrays()
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    first = np.ones(len(dst), dtype=bool)
    first[1:] = dst[1:] != dst[:-1]
    heads = np.full(g.n + 1, g.n)
    heads[dst[first]] = src[first]
    gather = itemgetter(*heads.tolist())
    rest = list(zip(src[~first].tolist(), dst[~first].tolist()))
    counts = [0] * (g.n + 1)
    counts[g.start] = 1
    for _ in range(n):
        nxt = list(gather(counts))
        for s, d in rest:
            nxt[d] += counts[s]
        counts = nxt
    return sum(counts)


def _count_paths_limbs(g: PointedLabeledGraph, n: int) -> int:
    """Path counts met in the middle, each half in int64 limbs.

    With A the adjacency matrix, rows = destination and columns = source,
    the count 1^T A^n e_start is the dot product F . B of F = A^h e_start,
    the paths of length h = n // 2 from the start to each vertex, and
    B = (A^T)^(n-h) 1, the words of length n - h readable from each vertex.
    Each half holds about half the bits of the count, so the limbs summed
    over the steps are about half as many as in one n-step product. From
    SPLIT_HALVES_EDGE_STEPS edge steps up, on two or more usable CPUs, the
    forward half runs in a worker thread while this one runs the backward
    half, so both halves' matrices are alive at once; elsewhere they run
    one after the other. _exact_dot multiplies them out.
    """
    src, dst, _ = g.edge_arrays()
    h = n // 2
    start = np.eye(g.n, 1, -g.start, dtype=np.int64)
    ones = np.ones((g.n, 1), dtype=np.int64)
    if len(src) * n >= SPLIT_HALVES_EDGE_STEPS and usable_cpus() >= 2:
        # imported here: serial counts never load the thread pool
        from concurrent.futures import ThreadPoolExecutor

        sparse_kernels()  # loaded before the worker exists, which then never waits for it
        with ThreadPoolExecutor(max_workers=1) as pool:
            forward = pool.submit(_limb_steps, dst, src, start, h)
            B, bb = _limb_steps(src, dst, ones, n - h)
            F, bf = forward.result()
    else:
        F, bf = _limb_steps(dst, src, start, h)
        B, bb = _limb_steps(src, dst, ones, n - h)
    return _exact_dot(F, bf, B, bb)


def _limb_steps(rows, cols, X: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """M^k X in base-2^b int64 limbs, with M the matrix of one 1 per (rows, cols) pair.

    X is one column; returns the (vertices x limbs) array and b. Duplicate
    pairs sum. Steps go in pairs: one product with M if k is odd, then
    k // 2 with M @ M. On carry graphs M @ M has about 1.5 times the
    nonzeros of M, so a pair does about 25 % fewer multiply-adds than two
    single steps, in half the Python round trips. No entry of X exceeds
    `bound` (a Python int); a pair multiplies it by at most D, the largest
    row sum of M @ M, so carries are propagated just before bound * D would
    pass 2^63 - 1, repeatedly until the pair fits, and once more at the
    end. A carried limb holds less than 2^b plus the carry from below;
    b = 49 - ceil(log2 D) leaves 14 bits, 7 pairs at D = 4, between carries.

    The limbs are the rows of a (limbs x vertices) buffer, and nothing is
    allocated per product: each limb row goes through scipy's compiled
    csr_matvec (sparse_kernels), which adds M times it into the matching row
    of a second buffer, zeroed in place first; then the two swap. Carries
    run in place through the spare buffer, which grows with the limbs. The
    result is the transposed view. M and M @ M are CSR arrays built by the
    same compiled routines, in the same calls, as scipy's csr_matrix and
    its product, without loading scipy.sparse.
    """
    csr_matvec = sparse_kernels().csr_matvec
    n = len(X)
    M = _csr(n, rows, cols)
    X, Y = X.T.copy(), np.zeros((1, n), dtype=np.int64)
    if k % 2:
        csr_matvec(n, n, *M, X[0], Y[0])
        X, Y = Y, X
    if k >= 2:
        M = _csr_square(n, *M)
    indptr, _, data = M
    sums = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(data, out=sums[1:])
    D = int((sums[indptr[1:]] - sums[indptr[:-1]]).max())  # the largest row sum
    b = 49 - (D - 1).bit_length()
    mask = (1 << b) - 1
    bound = int(X.max())
    for _ in range(k // 2):
        while bound * D > _INT64_MAX:
            X = _carry(X, Y, b)
            if len(Y) < len(X):  # a limb was added: the old spare goes before the new one comes
                del Y
                Y = np.empty_like(X)
            bound = mask + (bound >> b)
        Y.fill(0)
        for j in range(len(X)):
            csr_matvec(n, n, *M, X[j], Y[j])
        X, Y = Y, X
        bound *= D
    return _carry(X, Y, b).T, b


def _index_dtype(*sizes: int) -> type:
    """int32 indices where every size fits in them, as scipy picks, else int64."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _csr(n: int, rows, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the n x n int64 matrix of one 1 per (rows, cols)
    pair, duplicates summed: csr_matrix((ones, (rows, cols)))'s compiled calls."""
    kernels, idx, nnz = sparse_kernels(), _index_dtype(n, len(rows)), len(rows)
    indptr, indices, data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz, np.int64)
    kernels.coo_tocsr(n, n, nnz, rows.astype(idx), cols.astype(idx), np.ones(nnz, np.int64),
                      indptr, indices, data)
    kernels.csr_sort_indices(n, indptr, indices, data)
    kernels.csr_sum_duplicates(n, n, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]


def _csr_square(n: int, indptr, indices, data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M @ M of the n x n CSR matrix M, by the compiled calls scipy's product makes."""
    kernels = sparse_kernels()
    nnz = kernels.csr_matmat_maxnnz(n, n, indptr, indices, indptr, indices)
    idx = _index_dtype(n, nnz)
    indptr, indices = indptr.astype(idx, copy=False), indices.astype(idx, copy=False)
    ptr, ind, dat = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz, np.int64)
    kernels.csr_matmat(n, n, indptr, indices, data, indptr, indices, data, ptr, ind, dat)
    return ptr, ind[:ptr[-1]], dat[:ptr[-1]]


def _carry(X: np.ndarray, Y: np.ndarray, b: int) -> np.ndarray:
    """X's limb rows with each limb's bits from b up moved into the next limb,
    in place through the spare Y of X's shape, or with one limb more."""
    np.right_shift(X, b, out=Y)
    np.bitwise_and(X, (1 << b) - 1, out=X)
    X[1:] += Y[:-1]
    if Y[-1].any():
        X = np.vstack([X, Y[-1:]])
    return X


def _exact_dot(F: np.ndarray, bf: int, B: np.ndarray, bb: int) -> int:
    """The sum over rows of F's base-2^bf limbs times B's base-2^bb limbs, exactly.

    Every limb is split into w-bit pieces held as float64, with
    w = (52 - rows.bit_length()) // 2, and BLAS products Fp @ Bp^T take
    every piece of F against every piece of B, 4096 rows at a time, since
    the pieces take about three times the memory of their limbs. A term is
    below 2^(2w) and each table entry sums fewer than 2^rows.bit_length()
    terms, so every partial sum is an integer below 2^52: the products and
    their sum over the blocks are exact in any order of summation. The
    small table of piece products is shifted into place and added up as
    Python ints.
    """
    w = (52 - len(F).bit_length()) // 2
    fs, bs = _piece_shifts(F, w), _piece_shifts(B, w)
    table = np.zeros((len(fs), len(bs)))
    for i in range(0, len(F), 4096):
        rows = slice(i, i + 4096)
        table += _pieces(F[rows], fs, w) @ _pieces(B[rows], bs, w).T
    table = table.astype(np.int64).tolist()
    return sum(t << (bf * j + s + bb * l + r)
               for (j, s), row in zip(fs, table) for (l, r), t in zip(bs, row))


def _piece_shifts(X: np.ndarray, w: int) -> list[tuple[int, int]]:
    """(limb, shift within the limb) of each w-bit piece of X's limbs, low first."""
    per = -(-int(X.max()).bit_length() // w)
    return [(j, w * q) for j in range(X.shape[1]) for q in range(per)]


def _pieces(X: np.ndarray, shifts: list, w: int) -> np.ndarray:
    """The pieces of X's limbs at `shifts`, one float64 row each."""
    out = np.empty((len(shifts), len(X)))
    for c, (j, s) in enumerate(shifts):
        np.bitwise_and(X[:, j] >> s, (1 << w) - 1, out=out[c], casting="unsafe")
    return out


def validate(g: PointedLabeledGraph) -> ValidationReport:
    """Which presentation properties hold: reachable from the start, and essential.

    Reachability is known from construction: builders number vertices in
    breadth-first order from the start, and the checked constructor
    searches once. Single carry automata and trimmed graphs are essential
    as built; any other graph's table is looked at once.
    """
    if g._essential is None:
        g._essential = bool((g.delta >= 0).any(axis=1).all())
    return ValidationReport(reachable=g._reachable, essential=g._essential)


def to_json_dict(g: PointedLabeledGraph) -> dict:
    return {
        "start": g.start,
        "vertices": [{"id": i, "carries": list(v)} for i, v in enumerate(g.vertices)],
        "edges": [{"from": s, "to": d, "label": a} for (s, d, a) in g.edges],
        "provenance": g.provenance,
    }


def to_json(g: PointedLabeledGraph) -> str:
    return json.dumps(to_json_dict(g), indent=2)


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
