#!/usr/bin/env python3
"""incomefit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pdf_cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from that
checkout's src/, in this one process, with BLAS/OpenMP threads pinned to 1.
A run cycles through the workload's op groups (one year, or one model)
until --seconds have elapsed, and prints the end-to-end metrics (--trace 0).
A traced run (--trace 1) makes one pass over a fixed number of op groups
with every layer wrapped (see tracing.py), so its counts repeat for a seed, and prints
the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Scratch files and the span
dump go to .bench_out/ in the checkout.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10


def _fresh_import():
    """Import incomefit from the checkout as if for the first time."""
    for name in [m for m in sys.modules if m == "incomefit" or m.startswith("incomefit.")]:
        del sys.modules[name]
    import incomefit
    import incomefit.cli  # noqa: F401  (cli is not imported by the package)

    if Path(incomefit.__file__).resolve().parent != SRC / "incomefit":
        raise SystemExit(f"imported incomefit from {incomefit.__file__}, not {SRC}")
    return incomefit


def _package_modules():
    return {m: mod for m, mod in sys.modules.items()
            if m == "incomefit" or m.startswith("incomefit.")}


def setup(workloads, name, seed, workdir):
    """One timed set-up: a fresh import plus the workload's inputs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    incomefit = _fresh_import()
    work = workloads.SETUP[name](incomefit, seed, workdir)
    return time.perf_counter() - start, incomefit, work


def run_ops(workloads, name, work, seconds, tracer, resample_setup):
    """Closed loop over the pass's op groups, cycling, until `seconds` have
    elapsed (checked between groups); a traced run makes one pass over the
    workload's first TRACE_GROUPS groups instead. An untraced run calls
    `resample_setup` between groups at SETUP_REPEATS - 1 evenly spaced times,
    so that set-up is timed across the whole run, as the ops are.
    Returns per-op latencies (s), the failed and wrong-output counts, the
    fits' R^2 values and the first failure messages."""
    latencies, r2, failures, wrong, messages = [], [], 0, 0, []
    start = time.perf_counter()
    n_groups = len(work.groups)
    traced_groups = min(n_groups, workloads.TRACE_GROUPS[name])
    resamples = 0
    for i in range(traced_groups if tracer is not None else sys.maxsize):
        if tracer is None:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
            while resamples < SETUP_REPEATS - 1 and elapsed >= (
                    resamples + 1) * seconds / SETUP_REPEATS:
                resample_setup()
                resamples += 1
        prepare = work.prepares[i % n_groups]
        if prepare is not None:
            prepare()
        for op in work.groups[i % n_groups]:
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{op.kind} raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            try:
                if error is None:
                    r2.extend(op.check(out))
            except workloads.OpFailed as exc:
                error = f"{op.kind}: {exc}"
            except Exception as exc:  # CheckFailed, or an output too broken to parse
                error = f"{op.kind}: wrong output: {type(exc).__name__}: {exc}"
                wrong += 1
            if tracer is not None:
                tracer.active = True
            if error is not None:
                failures += 1
                if len(messages) < 5:
                    messages.append(error)
    return latencies, failures, wrong, r2, messages


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it:
    the eleventh slowest op of the run (the slowest, in a run too short to
    have one). Returns it and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * rank / n


def gmean_unexplained(r2):
    """Geometric mean of 1 - R^2; 1.0 (nothing explained) with no fits."""
    if not r2:
        return 1.0
    return math.exp(statistics.fmean(math.log(max(1.0 - v, 1e-300)) for v in r2))


def environment(np):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pdf_cli", "pdf_cli_separate", "ccdf_fits",
                                 "scalar_quantiles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "incomefit" / "__init__.py").is_file():
        print(f"error: no incomefit package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tracer = None
    setup_times = []

    def resample_setup():
        """Time one more set-up into a scratch directory, then put back the
        package modules the ops were built on."""
        kept = _package_modules()
        setup_times.append(setup(workloads, args.workload, args.seed, workdir / "again")[0])
        shutil.rmtree(workdir / "again", ignore_errors=True)
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(kept)
        gc.collect()  # drop the discarded copy now, so peak memory repeats

    try:
        setup_s, incomefit, work = setup(workloads, args.workload, args.seed, workdir / "in")
        setup_times.append(setup_s)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, incomefit)
        latencies, failed, wrong, r2, messages = run_ops(
            workloads, args.workload, work, args.seconds, tracer, resample_setup)
    finally:
        if tracer is not None:
            tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    n_pass = len(work.ops)
    busy = sum(latencies)
    ops_per_s = len(latencies) / busy
    tail_s, tail_pct = tail(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment(np)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(latencies) / n_pass, "ops_per_pass": n_pass,
        "setup_s_samples": setup_times,
        "fail_ratio": failed / len(latencies), "wrong_outputs": wrong,
        "tail_percentile": tail_pct,
        "environment": env, "first_failures": messages,
        "op_kinds": [op.kind for op in work.ops],
        "latencies_ms": [round(1e3 * t, 3) for t in latencies],
    }
    if args.trace:
        layer = tracing.layer_metrics(tracer.spans)
        layer["trace.ops_per_s"] = (ops_per_s, "1/s")
        layer["cli.bytes_written"] = (work.bytes_written, "B")
        ratios = work.logdensity_mass_ratios
        layer["cli.logdensity_mass_ratio"] = (
            float(np.median(ratios)) if ratios else 0.0, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        summary["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "unexplained_var_gmean": {"value": gmean_unexplained(r2), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    summary["metrics"] = metrics
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"incomefit benchmark: {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else f'{args.seconds:g} s'})")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"{env['cpu_count']} cpus, {env['machine']}")
    print(f"ops: {len(latencies)} ({summary['passes']:.2f} passes of {n_pass}); "
          f"fail_ratio {summary['fail_ratio']:.4f} ({failed}/{len(latencies)}); "
          f"tail at p{summary['tail_percentile']:.1f}")
    for message in messages:
        print(f"failed: {message}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0,
                      "attempted": len(latencies), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
