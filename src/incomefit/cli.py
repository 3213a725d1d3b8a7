"""Command-line front end: fit, table, subtract, ccdf.

Every output file starts with manifest comment lines (command, inputs,
config, tool version, UTC timestamp) and is written atomically. Exit codes:
0 success, 1 usage, 2 input error, 3 non-convergence, 4 fit failure.
"""

import argparse
import io
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, models
from .empirical import (
    CCDF,
    PDF,
    load_histogram,
    rebin,
    save_histogram,
    subtract,
    to_ccdf_curve,
    to_pdf_curve,
)
from .errors import (
    AlignmentError,
    ConsistencyError,
    FitFailureError,
    IncomeFitError,
    ParseError,
    PreconditionError,
)
from .fitter import FitConfig, fit, format_fit_result

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_FIT_FAILURE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the documented usage exit code is 1
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunManifest:
    """Provenance block written at the top of every output file."""

    command: str
    input_paths: tuple
    config_items: tuple
    tool_version: str = __version__
    timestamp: str = ""

    def lines(self):
        out = [
            f"incomefit {self.tool_version}",
            f"command: {self.command}",
        ]
        for path in self.input_paths:
            out.append(f"input: {path}")
        for key, value in self.config_items:
            out.append(f"config {key}: {value}")
        out.append(f"timestamp: {self.timestamp}")
        return out


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_atomic(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_items(config):
    items = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, models.ModelSpec):
            value = "explicit:" + ",".join(
                repr(float(v)) for v in models.param_pack(value)
            )
        items.append((f.name, str(value)))
    return tuple(items)


def _parse_config_file(path):
    overrides = {}
    defaults = {f.name: f.default for f in fields(FitConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"expected key = value, got {line!r}", lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in defaults:
                    raise ParseError(f"unknown config key {key!r}", lineno)
                try:
                    overrides[key] = type(defaults[key])(value)
                except ValueError:
                    raise ParseError(f"bad value {value!r} for {key}", lineno) from None
    except (OSError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return overrides


def _build_config(args):
    kwargs = {}
    if getattr(args, "config", None):
        kwargs.update(_parse_config_file(args.config))
    for key in ("target", "weighting", "seed", "max_iterations", "multistart_count"):
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = value
    try:
        return FitConfig(**kwargs)
    except (TypeError, PreconditionError) as exc:
        raise _UsageError(str(exc))


def _load(path):
    try:
        return load_histogram(path)
    except (OSError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}")


def _curve_for(hist, target, normalize, log_density):
    if target == PDF:
        return to_pdf_curve(hist, normalize=normalize, per_log_income=log_density)
    return to_ccdf_curve(hist, normalize=normalize)


def _format_curve(x, y, manifest, kind):
    lines = [f"# {line}" for line in manifest.lines()]
    lines.append(f"# kind: {kind}")
    lines.append("x,y")
    for xi, yi in zip(x, y):
        lines.append(f"{float(xi)!r},{float(yi)!r}")
    return "\n".join(lines) + "\n"


def _plot_path(out_path):
    out = Path(out_path)
    return out.with_name(out.stem + ".curve" + (out.suffix or ".txt"))


def cmd_fit(args):
    hist = _load(args.input)
    config = _build_config(args)
    curve = _curve_for(hist, config.target, args.normalize, args.log_density)
    try:
        result = fit(curve, args.family, config)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE

    manifest = RunManifest(
        command="fit",
        input_paths=(str(args.input),),
        config_items=_config_items(config) + (("family", args.family),),
        timestamp=_now(),
    )
    doc = "\n".join(f"# {line}" for line in manifest.lines())
    doc += "\n" + format_fit_result(result)
    _write_atomic(args.out, doc)

    dense = np.geomspace(curve.x[0], curve.x[-1], 10 * len(curve))
    grid = np.unique(np.concatenate((curve.x, dense)))
    model_fn = models.pdf if config.target == PDF else models.ccdf
    plot = _format_curve(grid, model_fn(result.model, grid), manifest, config.target)
    _write_atomic(_plot_path(args.out), plot)

    print(
        f"{args.family} {config.target} fit: R^2 = {result.r_squared:.6f} "
        f"({result.iterations} iterations, "
        f"{'converged' if result.converged else 'not converged'})"
    )
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _parse_table_inputs(pairs):
    out = []
    for item in pairs:
        if "=" in item:
            year, _, path = item.partition("=")
            year = year.strip()
        else:
            year, path = "", item
        hist = _load(path.strip())
        if not year:
            year = hist.label or path
        out.append((year, path.strip(), hist))
    return out


def cmd_table(args):
    families = [f for f in (args.families or "").split(",") if f]
    targets = [t for t in (args.targets or "").split(",") if t]
    if not families:
        raise _UsageError("at least one family is required")
    if not targets:
        raise _UsageError("at least one target is required")
    for f in families:
        if f not in models.FAMILIES:
            raise _UsageError(f"unknown family {f!r}")
    for t in targets:
        if t not in (PDF, CCDF):
            raise _UsageError(f"unknown target {t!r}")

    inputs = _parse_table_inputs(args.input)
    if not inputs:
        raise _UsageError("at least one --input YEAR=PATH is required")

    columns = [(f, t) for f in families for t in targets]
    base_config = _build_config(args)
    rows = []
    for year, path, hist in inputs:
        cells = []
        for family, target in columns:
            config = replace(base_config, target=target)
            curve = _curve_for(hist, target, args.normalize, False)
            try:
                result = fit(curve, family, config)
            except FitFailureError as exc:
                raise FitFailureError(f"{path} ({family}:{target}): {exc}") from exc
            except IncomeFitError as exc:
                raise IncomeFitError(f"{path} ({family}:{target}): {exc}") from exc
            cells.append(result.r_squared)
        rows.append((year, cells))

    headers = ["year"] + [f"{f}:{t}" for f, t in columns]
    manifest = RunManifest(
        command="table",
        input_paths=tuple(path for _, path, _ in inputs),
        config_items=_config_items(base_config)
        + (("families", ",".join(families)), ("targets", ",".join(targets))),
        timestamp=_now(),
    )

    widths = [max(len(headers[0]), *(len(str(y)) for y, _ in rows))]
    widths += [max(len(h), 8) for h in headers[1:]]
    text_lines = [f"# {line}" for line in manifest.lines()]
    text_lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    csv_lines = [",".join(headers)]
    for year, cells in rows:
        rendered = [str(year).ljust(widths[0])]
        rendered += [f"{v:.5f}".ljust(w) for v, w in zip(cells, widths[1:])]
        text_lines.append("  ".join(rendered).rstrip())
        csv_lines.append(",".join([str(year)] + [f"{v!r}" for v in cells]))
    _write_atomic(args.out, "\n".join(text_lines) + "\n")
    csv_path = Path(args.out).with_suffix(Path(args.out).suffix + ".csv")
    _write_atomic(csv_path, "\n".join(csv_lines) + "\n")
    print("\n".join(text_lines[len(manifest.lines()):]))
    return EXIT_OK


def cmd_subtract(args):
    world = _load(args.world)
    parts = [_load(p) for p in args.parts]
    if args.rebin:
        parts = [
            rebin(p, world.bin_edges)
            if not np.array_equal(p.bin_edges, world.bin_edges)
            else p
            for p in parts
        ]
    residual = subtract(world, parts, renormalize=args.renormalize)
    for part in parts:
        print(f"removed mass {part.total_mass()!r} ({part.label or 'unlabelled'})")
    manifest = RunManifest(
        command="subtract",
        input_paths=(str(args.world),) + tuple(str(p) for p in args.parts),
        config_items=(
            ("renormalize", str(args.renormalize)),
            ("rebin", str(args.rebin)),
        ),
        timestamp=_now(),
    )
    buf = io.StringIO()
    save_histogram(residual, buf, extra_comments=manifest.lines())
    _write_atomic(args.out, buf.getvalue())
    return EXIT_OK


def cmd_ccdf(args):
    hist = _load(args.input)
    curve = to_ccdf_curve(hist, normalize=args.normalize)
    manifest = RunManifest(
        command="ccdf",
        input_paths=(str(args.input),),
        config_items=(("normalize", str(args.normalize)),),
        timestamp=_now(),
    )
    _write_atomic(args.out, _format_curve(curve.x, curve.y, manifest, CCDF))
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="incomefit",
        description="Fit gamma/log-normal families and their two-component "
        "mixtures to binned income data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_fit_flags(p):
        p.add_argument("--target", choices=(PDF, CCDF), default=None)
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--weighting", choices=("uniform", "relative"), default=None)
        p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
        p.add_argument("--multistart", dest="multistart_count", type=int, default=None)

    p_fit = sub.add_parser("fit", help="fit one family to one histogram")
    p_fit.add_argument("input")
    p_fit.add_argument("--family", choices=models.FAMILIES, required=True)
    p_fit.add_argument(
        "--log-density",
        action="store_true",
        help="fit density per unit ln(income) instead of per USD",
    )
    p_fit.add_argument("--out", default="fit_result.txt")
    add_fit_flags(p_fit)

    p_table = sub.add_parser("table", help="grid of R^2 over years and columns")
    p_table.add_argument(
        "--input", action="append", default=[], metavar="YEAR=PATH",
        help="repeatable; bare PATH takes the year from the file label",
    )
    p_table.add_argument("--families", default="", help="comma-separated families")
    p_table.add_argument("--targets", default=PDF, help="comma-separated targets")
    p_table.add_argument("--out", default="r2_table.txt")
    add_fit_flags(p_table)

    p_sub = sub.add_parser("subtract", help="remove part histograms from a world")
    p_sub.add_argument("world")
    p_sub.add_argument("--parts", nargs="*", default=[])
    p_sub.add_argument("--renormalize", action="store_true")
    p_sub.add_argument("--rebin", action="store_true",
                       help="rebin parts onto the world bin edges first")
    p_sub.add_argument("--out", default="residual.csv")

    p_ccdf = sub.add_parser("ccdf", help="write the empirical CCDF curve")
    p_ccdf.add_argument("input")
    p_ccdf.add_argument("--normalize", action="store_true")
    p_ccdf.add_argument("--out", default="ccdf.csv")

    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "table": cmd_table,
    "subtract": cmd_subtract,
    "ccdf": cmd_ccdf,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, AlignmentError, ConsistencyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitFailureError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILURE
    except IncomeFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
