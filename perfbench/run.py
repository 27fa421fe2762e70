"""cantor3 benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload scan-singles --seed 1 --seconds 50 --trace 0

Run from anywhere; the program under test is the `src/cantor3` package of
the checkout this file sits in. The run

1. generates the workload's queries from the seed (workloads.py);
2. starts a fresh child process that repeats the query list in whole passes
   for --seconds, one query at a time (with --trace 1: half the time
   untraced, half with spans around every call into cantor3's modules);
3. times SETUP_SAMPLES fresh processes, that one and others started before
   and after it, from start until cantor3 is imported and warm (setup_s);
4. checks every distinct query's result against a reference the timed path
   did not produce (references.py), and that every pass gave the same
   results;
5. prints every metric by name with its unit, and as its last line one
   JSON object with `correct`, `attempted`, `failed` and `metrics`.

It exits 1 when any query failed or gave a wrong result, and 2 when the
checkout has no cantor3 sources. Results and spans are also written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import PREDICTED_DOMINANT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7  # fresh processes timed for setup_s, the workload's own included
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics and the end-to-end metric (on a workload) each should move.
LAYER_METRICS = {
    "spectral.hausdorff_dim.self_s": "wall_s, query_p50_s on scan-singles; little change on words",
    "spectral.hausdorff_dim.calls": "wall_s, query_p50_s on scan-singles",
    "automaton.build_multi.self_s": "wall_s on words; little change on scan-singles",
    "automaton.build_multi.vertices_out": "wall_s on words",
    "automaton.build_multi.edges_out": "wall_s on words",
    "automaton.build_multi.final_to_single_ratio": "wall_s on words",
    "automaton.build_single.self_s": "wall_s on words",
    "automaton.PointedLabeledGraph.reachable_set.self_s": "wall_s on scan-singles and words",
    "spectral.scc.self_s": "wall_s, query_tail_s on scan-singles",
    "spectral.scc.components": "wall_s, query_tail_s on scan-singles",
    "spectral.scc.dominant_vertices": "wall_s, query_tail_s on scan-singles",
    "spectral.adjacency.self_s": "wall_s, query_tail_s on scan-singles",
    "automaton.count_paths.self_s": "wall_s on words; no change on scan-singles",
    "automaton.count_paths.edge_steps": "wall_s on words",
    "langops.is_subset.self_s": "query_tail_s on words",
    "langops.pointed_isomorphic.self_s": "query_tail_s on words",
    "oracle.brute_count.self_s": "query_tail_s on words",
    "oracle.brute_count.words": "query_tail_s on words",
    "ternary.parse_multiplier_list.self_s": "setup_s, query_p50_s",
    "bench.tracing_overhead_s": "traced wall_s minus untraced wall_s",
}

E2E_UNITS = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def start_child():
    """A fresh child and the seconds it took to report ready."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark child did not start (exit {proc.returncode})")
    return proc, setup


def measure_setup() -> float:
    proc, setup = start_child()
    proc.communicate(input="", timeout=CHILD_TIMEOUT_S)
    return setup


def run_child(job: dict):
    proc, setup = start_child()
    try:
        out, _ = proc.communicate(input=json.dumps(job) + "\n", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def tail_percentile(per_pass: int) -> float:
    """Highest listed percentile with at least ten of a pass's queries beyond it."""
    for p in TAIL_PERCENTILES:
        if per_pass * (100.0 - p) / 100.0 >= 10:
            return p
    return 100.0  # too few queries for a tail: report the slowest


def percentile(samples, p: float) -> float:
    s = sorted(samples)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def best_times(passes) -> list:
    """Each query's fastest time over the passes.

    On the shared 2-vCPU virtual machine the baseline was measured on,
    throughput drifted by up to 1.8x in spells of 5-35 s, so the fastest of
    several passes spread over the run is the steadiest estimate of a
    query's cost; see README.md for the measurements.
    """
    return [min(ts) for ts in zip(*(p["times"] for p in passes))]


def run_tag(workload: str, seed: int, trace: bool) -> str:
    return f"{workload}-seed{seed}-trace{int(trace)}"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    queries = workloads.generate(workload, seed, tiny)
    # set-up samples before and after the workload, so they span the run
    before = (setup_samples - 1) // 2
    setups = [measure_setup() for _ in range(before)]
    job = {"queries": [workloads.program_input(q) for q in queries], "seconds": seconds,
           "trace": trace, "spans_path": str(OUT_DIR / f"spans-{run_tag(workload, seed, trace)}.json")}
    child, setup = run_child(job)
    setups.append(setup)
    setups += [measure_setup() for _ in range(setup_samples - 1 - before)]
    if Path(child["cantor3"]) != SRC / "cantor3":
        raise RuntimeError(f"benchmark child imported cantor3 from {child['cantor3']}")

    # correctness, outside the timed run; these import cantor3 from SRC
    import references
    from child import graph_digest

    wrong = {}
    for i, (q, rec) in enumerate(zip(queries, child["records"])):
        reason = references.check(q, rec, graph_digest)
        if reason:
            wrong[i] = reason
    for i in child["differing"]:
        wrong.setdefault(i, "result differs between passes")
    passes = child["passes"] + child.get("traced_passes", [])
    attempted = len(queries) * len(passes)
    failed = len(wrong) * len(passes)

    best = best_times(child["passes"])
    tail_p = tail_percentile(len(queries))
    e2e = {
        "wall_s": sum(best),
        "query_p50_s": statistics.median(best),
        "query_tail_s": percentile(best, tail_p),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "queries": len(queries), "query_digest": workloads.digest(queries),
        "passes": len(child["passes"]), "pass_walls": [p["wall"] for p in child["passes"]],
        "tail_percentile": tail_p,
        "setup_samples": setups, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "wrong": {str(i): wrong[i] for i in sorted(wrong)[:20]},
        "end_to_end": e2e,
    }
    if trace:
        traced = child["traced_passes"]
        layers = {}
        for name in LAYER_METRICS:
            if name == "bench.tracing_overhead_s":
                layers[name] = sum(best_times(traced)) - e2e["wall_s"]
            elif name.endswith("_s"):
                layers[name] = statistics.median(s.get(name, 0.0) for s in child["layers"])
            else:
                layers[name] = child["layers"][0].get(name, 0)
        result["per_layer"] = layers
        result["traced_pass_walls"] = [p["wall"] for p in traced]
        name, share = child["dominant"][0]
        predicted = PREDICTED_DOMINANT[workload]
        result["dominant_layer"] = {"predicted": predicted, "measured": name,
                                    "share": share, "holds": name == predicted}
    return result


def report(result: dict) -> dict:
    """Print every metric by name and unit; return the summary for the last line."""
    r = result
    print(f"workload={r['workload']} seed={r['seed']} queries={r['queries']}"
          f" digest={r['query_digest']} passes={r['passes']}")
    e2e = r["end_to_end"]
    notes = {
        "wall_s": f"sum over {r['queries']} queries of each one's best of {r['passes']} passes",
        "query_p50_s": f"median of those {r['queries']} query times",
        "query_tail_s": f"p{r['tail_percentile']:g} of those {r['queries']} query times",
        "setup_s": f"median of {len(r['setup_samples'])} fresh processes",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}  ({notes[name]})")
    print(f"  error_rate = {r['error_rate']:.6g} ratio  ({r['failed']} of {r['attempted']} query runs)")
    for i, reason in r["wrong"].items():
        print(f"  WRONG query {i}: {reason}")
    if r["trace"]:
        for name, value in r["per_layer"].items():
            print(f"  {name} = {value:.6g} {layer_unit(name)}  (moves {LAYER_METRICS[name]})")
        d = r["dominant_layer"]
        verdict = "holds" if d["holds"] else "FAILS"
        print(f"  dominant layer: predicted {d['predicted']}, measured {d['measured']}"
              f" ({d['share']:.1%} of query time): prediction {verdict}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cantor3" / "__init__.py").is_file():
        print(f"error: no cantor3 sources under {SRC}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = report(result)
    OUT_DIR.mkdir(exist_ok=True)
    tag = run_tag(args.workload, args.seed, bool(args.trace))
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
