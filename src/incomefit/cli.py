"""Command-line front end: fit, table, subtract, ccdf.

Every output file starts with the comment lines that _manifest returns (tool
version, command, inputs, config, and the UTC timestamp of that call) and is
written atomically. Exit codes: 0 success, 1 usage, 2 input error,
3 non-convergence, 4 fit failure. Commands let errors propagate; main alone
turns them into a message on stderr and exit code 1, 2 or 4.
"""

import argparse
import functools
import io
import os
import sys
from dataclasses import fields, replace
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


def _manifest(command, input_paths, config_items):
    """Provenance lines written at the top of every output file."""
    lines = [f"incomefit {__version__}", f"command: {command}"]
    lines += [f"input: {path}" for path in input_paths]
    lines += [f"config {key}: {value}" for key, value in config_items]
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines.append(f"timestamp: {timestamp}")
    return lines


def _write_atomic(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name opened with O_EXCL and mode 0o666 gets the umask's
    # permissions, as a plain open(path, "w") would; mkstemp forces 0o600
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_items(config):
    return tuple((f.name, str(getattr(config, f.name))) for f in fields(config))


def _parse_config_file(path):
    overrides = {}
    defaults = {f.name: f.default for f in fields(FitConfig)}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
                    # FitConfig's range checks each look at one field
                    FitConfig(**{key: overrides[key]})
                except PreconditionError as exc:
                    raise ParseError(str(exc), lineno) from None
                except ValueError:
                    raise ParseError(f"bad value {value!r} for {key}", lineno) from None
    except (OSError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return overrides


def _build_config(args):
    kwargs = {}
    if args.config:
        kwargs.update(_parse_config_file(args.config))
    # add_fit_flags gives fit and table one flag per FitConfig field
    for f in fields(FitConfig):
        value = getattr(args, f.name)
        if value is not None:
            kwargs[f.name] = value
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
    lines = [f"# {line}" for line in manifest]
    lines.append(f"# kind: {kind}")
    lines.append("x,y")
    lines += [f"{xi!r},{yi!r}" for xi, yi in zip(x.tolist(), y.tolist())]
    return "\n".join(lines) + "\n"


def _plot_path(out_path):
    out = Path(out_path)
    return out.with_name(out.stem + ".curve" + (out.suffix or ".txt"))


def cmd_fit(args):
    config = _build_config(args)
    if args.log_density and config.target == CCDF:
        raise _UsageError("--log-density applies only to the pdf target")
    hist = _load(args.input)
    curve = _curve_for(hist, config.target, args.normalize, args.log_density)
    result = fit(curve, args.family, config)

    manifest = _manifest("fit", (str(args.input),), _config_items(config) + (
        ("family", args.family), ("normalize", str(args.normalize)),
        ("log_density", str(args.log_density))))
    doc = "\n".join(f"# {line}" for line in manifest)
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
    base_config = _build_config(args)
    families = [f for f in (args.families or "").split(",") if f]
    # without --targets, the one target that --target or the config file gives
    targets = base_config.target if args.targets is None else args.targets
    targets = [t for t in targets.split(",") if t]
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
    manifest = _manifest(
        "table",
        [path for _, path, _ in inputs],
        # the targets line names the targets used; the config target may be none
        tuple(item for item in _config_items(base_config) if item[0] != "target")
        + (("families", ",".join(families)), ("targets", ",".join(targets)),
           ("normalize", str(args.normalize))),
    )

    widths = [max(len(headers[0]), *(len(str(y)) for y, _ in rows))]
    widths += [max(len(h), 8) for h in headers[1:]]
    text_lines = [f"# {line}" for line in manifest]
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
    print("\n".join(text_lines[len(manifest):]))
    return EXIT_OK


def cmd_subtract(args):
    world = _load(args.world)
    parts = [_load(p) for p in args.parts]
    if args.rebin:
        parts = [rebin(p, world.bin_edges) for p in parts]
    residual = subtract(world, parts, renormalize=args.renormalize)
    for part in parts:
        print(f"removed mass {part.total_mass()!r} ({part.label or 'unlabelled'})")
    manifest = _manifest(
        "subtract",
        [str(args.world)] + [str(p) for p in args.parts],
        (("renormalize", str(args.renormalize)), ("rebin", str(args.rebin))),
    )
    buf = io.StringIO()
    save_histogram(residual, buf, extra_comments=manifest)
    _write_atomic(args.out, buf.getvalue())
    return EXIT_OK


def cmd_ccdf(args):
    hist = _load(args.input)
    curve = to_ccdf_curve(hist, normalize=args.normalize)
    manifest = _manifest(
        "ccdf", (str(args.input),), (("normalize", str(args.normalize)),)
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
        p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
        p.add_argument("--weighting", choices=("uniform", "relative"), default=None)
        p.add_argument("--multistart", dest="multistart_count", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--config", default=None, help="key = value config file")

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
    p_table.add_argument("--targets", help="comma-separated; default: the config target")
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


# built on first use and kept: parsing leaves the parser unchanged (append
# actions copy their default list), and building it costs about 1 ms a call
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
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
