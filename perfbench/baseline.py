"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads scan-singles,words]
                                  [--trace-seed 1] [--write perfbench/baseline.json]

Runs `run.py` once per workload and seed (untraced), then reports for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the quartile distance as a share of the median, next to a third of the
metric's bound from BENCHMARK.json, which the spread should stay below.
With --trace-seed it also makes one traced run per workload and records the
per-layer medians and the dominant-layer verdict. --write stores it all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, run_tag

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads((OUT_DIR / f"result-{run_tag(workload, seed, bool(trace))}.json").read_text())


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in parse_seeds(args.seeds)]
        entry = {"queries": [r["queries"] for r in runs],
                 "query_digests": [r["query_digest"] for r in runs],
                 "tail_percentile": runs[0]["tail_percentile"],
                 "error_rate": max(r["error_rate"] for r in runs), "end_to_end": {}}
        for name in bounds:
            s = summarize([r["end_to_end"][name] for r in runs])
            entry["end_to_end"][name] = s
            ratio = s["spread"] / (bounds[name] / 3)
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"{w:13s} {name:13s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  (bound/3 {bounds[name] / 3:.4f})"
                  f"{'  OVER' if ratio > 1 else ''}", flush=True)
        if args.trace_seed is not None:
            t = run_once(w, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = t["per_layer"]
            entry["dominant_layer"] = t["dominant_layer"]
            d = t["dominant_layer"]
            print(f"{w:13s} dominant layer {d['measured']} ({d['share']:.1%});"
                  f" predicted {d['predicted']}: {'holds' if d['holds'] else 'FAILS'}", flush=True)
        out["workloads"][w] = entry
    print(f"largest spread over bound/3, setup_s aside: {worst:.2f}")
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
