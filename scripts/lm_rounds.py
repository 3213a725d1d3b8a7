#!/usr/bin/env python3
"""Count the Levenberg-Marquardt work of the 24 fixture fits.

    python3 scripts/lm_rounds.py

Imports incomefit from this checkout's src/ and runs the default 8-start
`fit` of each fixture (bimodal, chinaindia, world3), family and target (pdf,
ccdf), the bimodal families' side refines during initialization included.
It wraps `fitter._predict` and `fitter._lm_run` from here and prints, per
family and target, summed over the three fixtures:

- rounds: lockstep rounds, one `_predict` call each, not counting the first
  evaluation of the starts of each LM run;
- proposals: the steps those rounds score, one per running start a round;
- iterations: accepted iterations, the iteration counts the LM runs return
  for their starts (a diverged start returns none);
- evals: every parameter vector `_predict` evaluates, the starts' first
  evaluations included; each is one set of ordinates and columns.

The counts do not depend on the machine, so two checkouts compare directly.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from incomefit import fitter, models  # noqa: E402
from incomefit.empirical import load_histogram, to_ccdf_curve, to_pdf_curve  # noqa: E402

FIXTURES = ("bimodal", "chinaindia", "world3")
TARGETS = ("pdf", "ccdf")
COUNTS = ("rounds", "proposals", "iterations", "evals")


def counting(counts):
    """Wrap fitter._predict and fitter._lm_run so that they add to counts."""
    predict, lm_run = fitter._predict, fitter._lm_run

    def counted_predict(family, theta, x, target):
        counts["calls"] += 1
        counts["evals"] += len(theta)
        return predict(family, theta, x, target)

    def counted_lm_run(family, starts, *args):
        calls, evals = counts["calls"], counts["evals"]
        results = lm_run(family, starts, *args)
        counts["rounds"] += counts["calls"] - calls - 1
        counts["proposals"] += counts["evals"] - evals - len(starts)
        counts["iterations"] += sum(out[2] for out in results if out is not None)
        return results

    fitter._predict, fitter._lm_run = counted_predict, counted_lm_run


def main():
    counts = Counter()
    counting(counts)
    rows = []
    for family in models.FAMILIES:
        for target in TARGETS:
            before = counts.copy()
            for fixture in FIXTURES:
                hist = load_histogram(ROOT / "fixtures" / f"synthetic_{fixture}.csv")
                curve = to_pdf_curve(hist) if target == "pdf" else to_ccdf_curve(hist)
                fitter.fit(curve, family, fitter.FitConfig(target=target))
            rows.append((family, target, [counts[c] - before[c] for c in COUNTS]))

    print(f"incomefit LM work of the {len(rows) * len(FIXTURES)} fixture fits "
          f"(default config), summed over {len(FIXTURES)} fixtures")
    print(f"  {'family':12s} {'target':6s} " + " ".join(f"{c:>10s}" for c in COUNTS))
    for family, target, values in rows:
        print(f"  {family:12s} {target:6s} " + " ".join(f"{v:10d}" for v in values))
    totals = [sum(values[i] for _, _, values in rows) for i in range(len(COUNTS))]
    print(f"  {'total':12s} {'':6s} " + " ".join(f"{v:10d}" for v in totals))


if __name__ == "__main__":
    main()
