"""Benchmark child process: import cantor3, report ready, run one job.

Started fresh for every set-up sample and every workload run, with
PYTHONPATH pointing at the checkout's `src` and the BLAS/OpenMP thread
counts set to 1. It prints `ready` once cantor3 is imported and warmed up;
the parent times that line. The parent then sends one job as a JSON line
on stdin (or closes stdin, for a set-up sample), and the child answers
with one JSON line on stdout.

Queries run one at a time in a closed loop, calling the public functions
in the order the `cantor3` command line does. The timed region of a query
holds exactly those calls; graph digests and result records are made
outside it.
"""

import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import cantor3
from cantor3 import automaton, families, langops, oracle, spectral, ternary

from spans import Tracer, dominant_layer, summarize

def _graph(spec: str):
    """A multiplier list, or the literal Y, as `cantor3 contain/iso` read it."""
    if spec.strip() in ("Y", "y"):
        return families.Y_graph()
    return automaton.build_multi(ternary.parse_multiplier_list(spec))


def _dim(q):
    g = automaton.build_multi(ternary.parse_multiplier_list(q["spec"]))
    r = spectral.hausdorff_dim(g)
    sccs = len(spectral.scc(g).components)
    return g, {"vertices": g.n, "edges": len(g.edges), "sccs": sccs,
               "beta": r.beta, "dim": r.dim}


def _contain(q):
    res = langops.is_subset(_graph(q["a"]), _graph(q["b"]))
    return None, {"holds": res.holds,
                  "witness": list(res.witness) if res.witness is not None else None}


def _iso(q):
    return None, {"iso": langops.pointed_isomorphic(_graph(q["a"]), _graph(q["b"]))}


def _blocks(q):
    ms = ternary.parse_multiplier_list(q["spec"])
    return None, {"counts": [oracle.brute_count(ms, n) for n in range(1, q["n"] + 1)]}


def _count(q):
    g = _graph(q["spec"])
    return None, {"count": automaton.count_paths(g, q["n"])}


RUNNERS = {"dim": _dim, "contain": _contain, "iso": _iso, "blocks": _blocks, "count": _count}

MODULES = {"automaton": automaton, "langops": langops, "oracle": oracle,
           "spectral": spectral, "ternary": ternary}


def graph_digest(g) -> str:
    return hashlib.sha256(repr((g.start, g.edges)).encode()).hexdigest()[:16]


def warm_up():
    """Pay lazy imports and first-call costs before the first timed query."""
    for q in ({"kind": "dim", "spec": "7,19"}, {"kind": "contain", "a": "Y", "b": "N:1"},
              {"kind": "iso", "a": "L:1,L:2", "b": "L:2"},
              {"kind": "blocks", "spec": "7", "n": 3}, {"kind": "count", "spec": "7", "n": 5}):
        RUNNERS[q["kind"]](q)


def run_pass(queries, tracer=None):
    times, records = [], []
    for i, q in enumerate(queries):
        run = RUNNERS[q["kind"]]
        t0 = perf_counter()
        try:
            if tracer is None:
                g, rec = run(q)
            else:
                g, rec = tracer.run_query(i, q["kind"], run, q)
        except Exception as e:  # a refused or failed query is a result to report
            g, rec = None, {"error": f"{type(e).__name__}: {e}"}
        times.append(perf_counter() - t0)
        if g is not None:  # a dim's graph, compared with an independent construction
            rec["digest"] = graph_digest(g)
            del g
        records.append(rec)
    return times, records


def run_phase(queries, budget, first_records, tracer=None):
    """Whole passes until the next one would overrun the budget; at least one."""
    passes, differing = [], set()
    start = perf_counter()
    while True:
        p0 = perf_counter()
        lo = len(tracer.spans) if tracer else 0
        times, records = run_pass(queries, tracer)
        hi = len(tracer.spans) if tracer else 0
        if first_records is None:
            first_records = records
        else:
            differing.update(i for i, (a, b) in enumerate(zip(first_records, records)) if a != b)
        passes.append({"times": times, "wall": sum(times), "spans": [lo, hi]})
        now = perf_counter()
        if now - start + (now - p0) > budget:
            return passes, first_records, differing


def run_job(job) -> dict:
    queries = job["queries"]
    seconds = job["seconds"]
    untraced_budget = seconds / 2 if job["trace"] else seconds
    passes, records, differing = run_phase(queries, untraced_budget, None)
    out = {
        "cantor3": str(Path(cantor3.__file__).resolve().parent),
        "passes": passes,
        "records": records,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if job["trace"]:
        tracer = Tracer(MODULES)
        tracer.install()
        try:
            traced, _, more = run_phase(queries, seconds / 2, records, tracer)
        finally:
            tracer.uninstall()
        differing |= more
        out["traced_passes"] = traced
        out["layers"] = [summarize(tracer.spans, *p["spans"]) for p in traced]
        out["dominant"] = [dominant_layer(s) for s in out["layers"]]
        if job.get("spans_path"):
            path = Path(job["spans_path"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "query", "out"],
                                        "spans": tracer.spans}))
    out["differing"] = sorted(differing)
    return out


def main() -> int:
    warm_up()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0  # a set-up sample
    result = run_job(json.loads(line))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
