#!/usr/bin/env python3
"""Record a baseline: every BENCHMARK.json workload over several seeds.

    python3 perfbench/baseline.py --seeds 1-10 [--out perfbench/BASELINE.json]

Runs run.py once per (workload, seed) untraced, and once per workload traced
on the first seed, each in its own process and one after another. Writes the
median and the quartile spread (IQR / median) of every end-to-end metric,
the traced per-layer metrics, the tracing overhead and the environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _result(out_dir, workload, seed, trace):
    return json.loads((out_dir / f"result-{workload}-{seed}-trace{trace}.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "BASELINE.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[name] = {"median": median, "iqr_over_median": (q3 - q1) / median,
                                "unit": metric["unit"], "values": values}
            print(f"{workload:18s} {name:24s} {median:12.6g} {metric['unit']:6s} "
                  f"spread {(q3 - q1) / median:.3f} (bound {metric['bound']})", flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        # the traced pass repeats the first ops of the untraced run on the
        # same seed, so compare ops per second over exactly those ops
        out_dir = ROOT / ".bench_out"
        plain = _result(out_dir, workload, args.seeds[0], 0)["latencies_ms"]
        slow = _result(out_dir, workload, args.seeds[0], 1)["latencies_ms"]
        n = min(len(plain), len(slow))
        plain_rate, traced_rate = 1e3 * n / sum(plain[:n]), 1e3 * n / sum(slow[:n])
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing": {"ops": n, "untraced_ops_per_s": plain_rate,
                        "traced_ops_per_s": traced_rate,
                        "overhead": 1.0 - traced_rate / plain_rate},
        }
    record["environment"] = _result(out_dir, workload, args.seeds[0], 1)["environment"]
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
