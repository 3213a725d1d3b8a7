#!/usr/bin/env python3
"""Count the Levenberg-Marquardt work of the 24 fixture fits.

    python3 scripts/lm_rounds.py

Imports incomefit from this checkout's src/ and runs the default 8-start
`fit` of each fixture (bimodal, chinaindia, world3), family and target (pdf,
ccdf), the bimodal families' side refines during initialization included.
It wraps `fitter._lm_run` from here, reads the model calls and rows each LM
run returns, and prints, per family and target, summed over the three
fixtures:

- rounds: lockstep rounds, one `_predict` call each, not counting the first
  evaluation of the starts of each LM run;
- proposals: the steps those rounds score, one per running start a round;
- iterations: accepted iterations, the iteration counts the LM runs return
  for their starts (a diverged or merged start returns none);
- evals: every parameter vector `_predict` evaluates, the starts' first
  evaluations included; each is one set of ordinates and columns;
- merged: the starts retired because they reached another start's point;
- 1 row, 2-7 rows, 8 rows: the `models.evaluate_columns` calls, the starts'
  first evaluations included, by the number of parameter vectors they
  score. A one-row call runs in Python floats, a larger one in numpy
  columns, so this is the traffic each of the two sizes serves;
- us/round: process CPU time spent in `fitter._lm_run`, over rounds, in
  microseconds; the best of REPEATS passes over all 24 fits.

The counts do not depend on the machine, so two checkouts compare directly;
us/round does, so compare it between checkouts on one host only.
"""

import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from incomefit import fitter, models  # noqa: E402
from incomefit.empirical import load_histogram, to_ccdf_curve, to_pdf_curve  # noqa: E402

FIXTURES = ("bimodal", "chinaindia", "world3")
TARGETS = ("pdf", "ccdf")
COUNTS = ("rounds", "proposals", "iterations", "evals", "merged",
          "1 row", "2-7 rows", "8 rows")
REPEATS = 5


def counting(counts):
    """Wrap fitter._lm_run and models.evaluate_columns so that they add to
    counts."""
    lm_run, evaluate_columns = fitter._lm_run, models.evaluate_columns

    def counted_evaluate_columns(family, stack, *args):
        k = len(stack)
        counts["1 row" if k == 1 else "8 rows" if k == 8 else "2-7 rows"] += 1
        return evaluate_columns(family, stack, *args)

    def counted_lm_run(family, starts, *args):
        start = time.process_time()
        out = lm_run(family, starts, *args)
        counts["cpu_s"] += time.process_time() - start
        results, calls, rows = out
        runs = [run for run in results if run is not None and run is not fitter._MERGED]
        counts["rounds"] += calls - 1
        counts["proposals"] += rows - len(starts)
        counts["iterations"] += sum(run[2] for run in runs)
        counts["evals"] += rows
        counts["merged"] += results.count(fitter._MERGED)
        return out

    fitter._lm_run = counted_lm_run
    models.evaluate_columns = counted_evaluate_columns


def main():
    counts = Counter()
    counting(counts)
    cells = []
    for family in models.FAMILIES:
        for target in TARGETS:
            hists = [load_histogram(ROOT / "fixtures" / f"synthetic_{fixture}.csv")
                     for fixture in FIXTURES]
            to_curve = to_pdf_curve if target == "pdf" else to_ccdf_curve
            cells.append((family, target, [to_curve(hist) for hist in hists]))
    # each repeat runs every cell once, so the first one also warms up
    runs = [[] for _ in cells]
    for _ in range(REPEATS):
        for (family, target, curves), cell_runs in zip(cells, runs):
            counts.clear()
            for curve in curves:
                fitter.fit(curve, family, fitter.FitConfig(target=target))
            cell_runs.append(counts.copy())
    rows = []
    for (family, target, _), cell_runs in zip(cells, runs):
        values = [cell_runs[0][c] for c in COUNTS]
        if any([run[c] for c in COUNTS] != values for run in cell_runs):
            raise SystemExit(f"{family} {target}: the counts differ between repeats")
        rows.append((family, target, values, min(run["cpu_s"] for run in cell_runs)))

    print(f"incomefit LM work of the {len(rows) * len(FIXTURES)} fixture fits "
          f"(default config), summed over {len(FIXTURES)} fixtures; "
          f"us/round best of {REPEATS}")
    print(f"  {'family':12s} {'target':6s} " + " ".join(f"{c:>10s}" for c in COUNTS)
          + f" {'us/round':>10s}")
    for family, target, values, cpu_s in rows:
        print(f"  {family:12s} {target:6s} " + " ".join(f"{v:10d}" for v in values)
              + f" {cpu_s / values[0] * 1e6:10.1f}")
    totals = [sum(values[i] for _, _, values, _ in rows) for i in range(len(COUNTS))]
    total_s = sum(cpu_s for *_, cpu_s in rows)
    print(f"  {'total':12s} {'':6s} " + " ".join(f"{v:10d}" for v in totals)
          + f" {total_s / totals[0] * 1e6:10.1f}")


if __name__ == "__main__":
    main()
