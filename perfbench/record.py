"""Run the benchmark over several seeds and record its set-up and spread.

    python3 perfbench/record.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace] [--out perfbench/RECORD.json]

Runs perfbench/run.py once per (workload, seed) from the current directory,
which must be the root of a checkout. For every end-to-end metric it
records the ten values, their quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
With --trace it adds one traced run per workload with its per-layer metrics
and sample counts. The output also records each workload's set-up (why it
was chosen, loop type, latencies, shares, sizes) and the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=240,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=str(HERE / "RECORD.json"))
    ns = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in ns.workloads.split(","):
        runs = []
        for seed in range(ns.first_seed, ns.first_seed + ns.seeds):
            t0 = time.monotonic()
            result, detail = run_once(workload, seed, bench["run_seconds"], 0)
            probes = [it["probe_s"] for it in detail["iterations"]]
            runs.append({"seed": seed, "probe_s_median": statistics.median(probes), "run_s": time.monotonic() - t0, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "iterations": len(detail["iterations"])})
            record.setdefault("machine", detail["machine"])
            print(f"{workload} seed {seed}: {runs[-1]['metrics']} correct={result['correct']} "
                  f"({runs[-1]['run_s']:.1f} s)", file=sys.stderr, flush=True)
        entry = {
            "setup": detail["setup"],
            "transport_self_check": detail["transport_self_check"],
            "runs": runs,
            "quartiles": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            entry["quartiles"][metric] = {**spread(values), "bound": bound, "values": values}
        if ns.trace:
            result, detail = run_once(workload, ns.first_seed, bench["run_seconds"], 1)
            entry["traced"] = {
                "seed": ns.first_seed,
                "correct": result["correct"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                "sample_counts": detail["sample_counts"],
            }
        record["workloads"][workload] = entry
        for metric, q in entry["quartiles"].items():
            print(f"{workload} {metric}: median {q['median']:.4g} spread {q['spread']:.3f} (bound {q['bound']})",
                  file=sys.stderr, flush=True)
    Path(ns.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
