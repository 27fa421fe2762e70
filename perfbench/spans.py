"""Span recording around the calls into cantor3's modules, from outside them.

The traced run replaces module attributes (and one method) with wrappers
that record a span per call: name, start, end, parent span and query id.
Calls made inside the library go through the same module globals, so a
`build_multi` span holds its `build_single` spans and a `hausdorff_dim`
span its `adjacency` and `reachable_set` spans.
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its child spans; one thread runs all
calls, so children never overlap.
"""

from __future__ import annotations

from time import perf_counter


def _graph_size(g, args):
    return g.n


def _multi_size(g, args):
    return (g.n, len(g.edges))


def _edge_steps(count, args):
    g, n = args
    return len(g.edges) * n


def _scc_size(dec, args):
    return (len(dec.components), max(len(c) for c in dec.components))


def _words(count, args):
    return count


# (module, attribute, recorder of the call's output size or None)
TRACED = (
    ("ternary", "parse_multiplier_list", None),
    ("automaton", "build_multi", _multi_size),
    ("automaton", "build_single", _graph_size),
    ("automaton", "count_paths", _edge_steps),
    ("automaton", "PointedLabeledGraph.reachable_set", None),
    ("spectral", "hausdorff_dim", None),
    ("spectral", "scc", _scc_size),
    ("spectral", "adjacency", None),
    ("langops", "is_subset", None),
    ("langops", "pointed_isomorphic", None),
    ("oracle", "brute_count", _words),
)

# The layer expected to take most of the query time on each workload.
PREDICTED_DOMINANT = {
    "scan-singles": "spectral.hausdorff_dim",
    "words": "automaton.count_paths",
}

NAME, START, END, PARENT, QUERY, OUT = range(6)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.stack: list = []
        self.query = -1
        self._saved: list = []

    def _wrap(self, name, fn, out):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][START] = t0
                spans[idx][END] = t1
            if out is not None:
                spans[idx][OUT] = out(result, args)
            return result

        return traced

    def install(self):
        for mod, attr, out in TRACED:
            owner = self.modules[mod]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, path[-1])
            self._saved.append((owner, path[-1], fn))
            setattr(owner, path[-1], self._wrap(f"{mod}.{attr}", fn, out))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run_query(self, qid: int, kind: str, fn, *args):
        """Root span of one query; library spans nest under it."""
        self.query = qid
        return self._wrap(f"query.{kind}", fn, None)(*args)


def summarize(spans: list, lo: int, hi: int) -> dict:
    """Per-layer numbers for the spans lo..hi-1, which hold whole queries."""
    child_time = {}
    largest_single = {}
    for i in range(lo, hi):
        s = spans[i]
        p = s[PARENT]
        if p >= 0:
            child_time[p] = child_time.get(p, 0.0) + s[END] - s[START]
            if s[NAME] == "automaton.build_single" and spans[p][NAME] == "automaton.build_multi":
                largest_single[p] = max(largest_single.get(p, 0), s[OUT])
    m = {}

    def add(key, x):
        m[key] = m.get(key, 0) + x

    final_vertices = 0
    for i in range(lo, hi):
        s = spans[i]
        name, dur = s[NAME], s[END] - s[START]
        add(f"{name}.self_s", dur - child_time.get(i, 0.0))
        add(f"{name}.calls", 1)
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME].startswith("query."):
            add(f"{name}.inclusive_s", dur)
        if s[OUT] is None:
            continue
        if name == "automaton.build_multi":
            add(f"{name}.vertices_out", s[OUT][0])
            add(f"{name}.edges_out", s[OUT][1])
            if i in largest_single:
                final_vertices += s[OUT][0]
        elif name == "spectral.scc":
            add(f"{name}.components", s[OUT][0])
            add(f"{name}.dominant_vertices", s[OUT][1])
        elif name == "automaton.count_paths":
            add(f"{name}.edge_steps", s[OUT])
        elif name == "oracle.brute_count":
            add(f"{name}.words", s[OUT])
    if largest_single:
        # final vertices over the largest single automaton each fold built
        m["automaton.build_multi.final_to_single_ratio"] = (
            final_vertices / sum(largest_single.values()))
    return m


def dominant_layer(summary: dict) -> tuple[str, float]:
    """The library call that took most query time, and its share of it."""
    inclusive = {k[: -len(".inclusive_s")]: v for k, v in summary.items()
                 if k.endswith(".inclusive_s")}
    total = sum(inclusive.values())
    name = max(inclusive, key=inclusive.get)
    return name, inclusive[name] / total
