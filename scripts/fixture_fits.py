#!/usr/bin/env python3
"""Write the 36 fixture fit documents and curves of a checkout, for diffing.

    python3 scripts/fixture_fits.py OUTDIR

Runs `incomefit fit` from this checkout's src/, in this one process, on
3 fixtures x 4 families x pdf / `--target ccdf` / `--log-density`. Each
run's result document and `.curve` file go to OUTDIR (best a new or empty
one) with the timestamp line removed, and `runs.txt` lists each run's exit code and stdout. Two
checkouts whose fits agree bit for bit give identical OUTDIRs, so compare
them with `diff -r`.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from incomefit import cli, models  # noqa: E402

FIXTURES = ("bimodal", "chinaindia", "world3")
MODES = {"pdf": [], "ccdf": ["--target", "ccdf"], "logdensity": ["--log-density"]}


def _strip_timestamp(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(ln for ln in lines if not ln.startswith("# timestamp:")),
                    encoding="utf-8")


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python3 scripts/fixture_fits.py OUTDIR")
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    # inputs are named relative to the checkout, so the manifests of two
    # checkouts agree
    os.chdir(ROOT)
    summary = []
    for fixture in FIXTURES:
        for family in models.FAMILIES:
            for mode, flags in MODES.items():
                name = f"{fixture}-{family}-{mode}"
                out = outdir / f"{name}.txt"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(["fit", f"fixtures/synthetic_{fixture}.csv",
                                     "--family", family, *flags, "--out", str(out)])
                for path in outdir.glob(f"{name}.*"):
                    _strip_timestamp(path)
                summary.append(f"{name} exit={code} {stdout.getvalue().strip()}\n")
    (outdir / "runs.txt").write_text("".join(summary), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
