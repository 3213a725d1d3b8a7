#!/usr/bin/env python3
"""Time the two bottom layers of incomefit: scalar model calls and kernels.

    python3 scripts/kernel_costs.py

Imports incomefit from this checkout's src/ and prints, after the same
environment line as perfbench/run.py:

- the microseconds per scalar `pdf`, `cdf` and `ccdf` call for each family,
  averaged over seven Python-float incomes spread over the fixture grid;
- the microseconds per query set for each family: 4 quantiles by bisection
  on log income, 3 poverty-line headcounts and densities and 2 tail shares,
  the scalar calls of one perfbench scalar_quantiles query set;
- the nanoseconds per float call of each kernel, through its float entry;
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
WARM_UP_S = 0.3
MODELS = {
    "gamma": models.gamma_model(1.0, 2.2, 1500.0),
    "lognormal": models.lognormal_model(1.0, 7.0, 0.7),
    "bigamma": models.bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0),
    "bilognormal": models.bilognormal_model(
        0.55, math.log(600.0), 0.6, 0.45, math.log(9000.0), 0.55
    ),
}
# a query set's probabilities and income lines, as in perfbench/gen.py
QUANTILE_PROBS = (0.1, 0.5, 0.9, 0.99)
POVERTY_LINES = (1.90 * 365.0, 3.20 * 365.0, 5.50 * 365.0)
RICH_LINES = (20000.0, 50000.0)
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


def quantile(model, mass):
    """Income x with cdf(x) = mass, by bisection on log income."""
    lo, hi = math.log(1e-2), math.log(1e8)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if models.cdf(model, math.exp(mid)) < mass:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def query_set(model, total):
    """The scalar calls of one perfbench scalar_quantiles query set."""
    return ([quantile(model, p * total) for p in QUANTILE_PROBS],
            [models.cdf(model, z) for z in POVERTY_LINES],
            [models.pdf(model, z) for z in POVERTY_LINES],
            [models.ccdf(model, z) for z in RICH_LINES])


def main():
    print(f"incomefit kernel costs: best of {REPEAT} timeit repeats, process CPU time")
    print(f"environment: python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} cpus, {platform.machine()}")
    grid = load_histogram(ROOT / "fixtures" / "synthetic_bimodal.csv").bin_edges
    xs = grid[::10].tolist()

    # the first tenths of a second of scalar calls time slower: warm up
    warm_until = time.process_time() + WARM_UP_S
    while time.process_time() < warm_until:
        for model in MODELS.values():
            for fn in (models.pdf, models.cdf, models.ccdf):
                scalar_us(fn, model, xs)

    print(f"scalar calls, us per call ({len(xs)} incomes from {xs[0]:g} to {xs[-1]:g})")
    print(f"  {'family':12s} {'pdf':>8s} {'cdf':>8s} {'ccdf':>8s}")
    for family, model in MODELS.items():
        costs = [scalar_us(fn, model, xs) for fn in (models.pdf, models.cdf, models.ccdf)]
        print(f"  {family:12s} " + " ".join(f"{c:8.2f}" for c in costs))

    print("query sets, us per set (4 bisected quantiles, 3 headcounts and densities, "
          "2 tail shares)")
    for family, model in MODELS.items():
        total = models.total_amplitude(model)
        us = best_seconds(lambda: query_set(model, total), 20) * 1e6
        print(f"  {family:12s} {us:8.1f}")

    ts = [x / GAMMA_SCALE for x in xs]
    zs = [(math.log(x) - NORMAL_MU) / NORMAL_SIGMA for x in xs]
    print(f"float calls, ns per call (a = {', '.join(f'{a:g}' for a in GAMMA_SHAPES)}; "
          f"x/m and (ln x - mu)/sigma at the {len(xs)} incomes above)")
    for label, fn, args in (
        ("log_gamma(a)", special.log_gamma, [(a,) for a in GAMMA_SHAPES]),
        ("digamma(a)", special.digamma, [(a,) for a in GAMMA_SHAPES]),
        ("gamma_fn(a)", special.gamma_fn, [(a,) for a in GAMMA_SHAPES]),
        ("erf_fn(z)", special.erf_fn, [(v,) for v in zs]),
        ("std_normal_cdf(z)", special.std_normal_cdf, [(v,) for v in zs]),
        ("P(2.2, x/m)", special.reg_lower_incomplete_gamma, [(2.2, v) for v in ts]),
        ("Q(2.2, x/m)", special.reg_upper_incomplete_gamma, [(2.2, v) for v in ts]),
    ):
        def run(fn=fn, args=args):
            for a in args:
                fn(*a)

        ns = best_seconds(run, 2000) / len(args) * 1e9
        print(f"  {label:18s} {ns:9.1f}")

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
