#!/usr/bin/env python3
"""Time the two bottom layers of incomefit: scalar model calls and kernels.

    python3 scripts/kernel_costs.py

Imports incomefit from this checkout's src/ and prints, after the same
environment line as perfbench/run.py:

- the microseconds per scalar `pdf`, `cdf` and `ccdf` call for each family,
  averaged over seven Python-float incomes spread over the fixture grid;
- the nanoseconds per element of the regularized incomplete gamma P and Q
  and of the normal CDF on the 61-point fixture grid (the bin edges of
  fixtures/synthetic_bimodal.csv), one array call per grid.

Inputs are fixed and every figure is the best of 7 timeit repeats, timed
in the process's CPU time so that other load on a shared host counts less;
two checkouts run on the same host compare directly. perfbench times whole
operations; this script times the layers under them.
"""

import math
import os
import platform
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from incomefit import models, special  # noqa: E402
from incomefit.empirical import load_histogram  # noqa: E402

REPEAT = 7
MODELS = {
    "gamma": models.gamma_model(1.0, 2.2, 1500.0),
    "lognormal": models.lognormal_model(1.0, 7.0, 0.7),
    "bigamma": models.bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0),
    "bilognormal": models.bilognormal_model(
        0.55, math.log(600.0), 0.6, 0.45, math.log(9000.0), 0.55
    ),
}
GAMMA_SHAPES = (0.7, 2.2, 6.0)
GAMMA_SCALE = 1500.0
NORMAL_MU, NORMAL_SIGMA = 7.4, 0.8


def best_seconds(fn, number):
    """Best of REPEAT timeit runs of number calls of fn, per call."""
    return min(timeit.repeat(fn, number=number, repeat=REPEAT, timer=time.process_time)) / number


def scalar_us(fn, model, xs):
    def run():
        for x in xs:
            fn(model, x)

    return best_seconds(run, 300) / len(xs) * 1e6


def main():
    print(f"incomefit kernel costs: best of {REPEAT} timeit repeats, process CPU time")
    print(f"environment: python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, {platform.machine()}")
    grid = load_histogram(ROOT / "fixtures" / "synthetic_bimodal.csv").bin_edges
    xs = grid[::10].tolist()

    print(f"scalar calls, us per call ({len(xs)} incomes from {xs[0]:g} to {xs[-1]:g})")
    print(f"  {'family':12s} {'pdf':>8s} {'cdf':>8s} {'ccdf':>8s}")
    for family, model in MODELS.items():
        costs = [scalar_us(fn, model, xs) for fn in (models.pdf, models.cdf, models.ccdf)]
        print(f"  {family:12s} " + " ".join(f"{c:8.2f}" for c in costs))

    print(f"kernels on the {grid.size}-point fixture grid, ns per element")
    for a in GAMMA_SHAPES:
        t = grid / GAMMA_SCALE
        for name, fn in (("P", special.reg_lower_incomplete_gamma),
                         ("Q", special.reg_upper_incomplete_gamma)):
            ns = best_seconds(lambda: fn(a, t), 50) / grid.size * 1e9
            print(f"  {name}(a, x/m)  a = {a:<4g} m = {GAMMA_SCALE:g}  {ns:9.1f}")
    z = (np.log(grid) - NORMAL_MU) / NORMAL_SIGMA
    ns = best_seconds(lambda: special.std_normal_cdf(z), 500) / grid.size * 1e9
    print(f"  Phi((ln x - mu)/sigma)  mu = {NORMAL_MU:g} sigma = {NORMAL_SIGMA:g}  {ns:9.1f}")


if __name__ == "__main__":
    main()
