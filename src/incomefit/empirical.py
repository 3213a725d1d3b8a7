"""Binned income data: ingestion, empirical PDF/CCDF curves, and histogram
arithmetic (subtracting country distributions from a world total, rebinning).

File format
-----------
Delimiter-separated text (comma, or any whitespace), one header row, then one
row per bin. Either explicit edges

    bin_low,bin_high,mass

or geometric midpoints, from which edges are reconstructed:

    bin_mid,mass

Lines starting with ``#`` are comments; ``# label: ...`` and
``# currency: ...`` comments carry metadata. Decimal point, no thousands
separators. Masses are population shares.
"""

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    ConsistencyError,
    DomainError,
    ParseError,
    PreconditionError,
)

__all__ = [
    "IncomeHistogram",
    "EmpiricalCurve",
    "load_histogram",
    "save_histogram",
    "to_pdf_curve",
    "to_ccdf_curve",
    "subtract",
    "rebin",
]

PDF = "pdf"
CCDF = "ccdf"

_NEGATIVE_CLAMP = 1e-12


def _readonly(arr):
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class IncomeHistogram:
    """Binned empirical distribution: B+1 increasing edges and B bin masses."""

    bin_edges: np.ndarray
    mass: np.ndarray
    label: str = ""
    currency_note: str = ""

    def __post_init__(self):
        edges = _readonly(self.bin_edges)
        mass = _readonly(self.mass)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "mass", mass)
        if edges.ndim != 1 or mass.ndim != 1 or edges.size != mass.size + 1:
            raise PreconditionError(
                f"need B+1 edges for B masses, got {edges.size} edges, {mass.size} masses"
            )
        if mass.size < 2:
            raise PreconditionError("histogram needs at least 2 bins")
        if not np.all(np.isfinite(edges)) or not np.all(np.isfinite(mass)):
            raise PreconditionError("edges and masses must be finite")
        if edges[0] <= 0.0 or np.any(np.diff(edges) <= 0.0):
            raise PreconditionError("bin edges must be positive and strictly increasing")
        if np.any(mass < 0.0):
            raise PreconditionError("bin masses must be >= 0")
        if mass.sum() <= 0.0:
            raise PreconditionError("total mass must be > 0")

    @property
    def n_bins(self):
        return self.mass.size

    def total_mass(self):
        return float(self.mass.sum())


@dataclass(frozen=True)
class EmpiricalCurve:
    """Evaluation points and ordinates of an empirical PDF or CCDF."""

    x: np.ndarray
    y: np.ndarray
    kind: str
    label: str = ""

    def __post_init__(self):
        x = _readonly(self.x)
        y = _readonly(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.kind not in (PDF, CCDF):
            raise PreconditionError(f"kind must be {PDF!r} or {CCDF!r}, got {self.kind!r}")
        if x.ndim != 1 or x.shape != y.shape:
            raise PreconditionError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(x > 0.0)):
            raise PreconditionError("x must be finite and > 0")
        if np.any(np.diff(x) <= 0.0):
            raise PreconditionError("x must be strictly increasing")
        if np.any(y < 0.0):
            raise PreconditionError("ordinates must be >= 0")
        if self.kind == CCDF:
            slack = 1e-12 * max(float(y[0]), 1.0)
            if np.any(np.diff(y) > slack):
                raise PreconditionError("CCDF ordinates must be nonincreasing")

    def __len__(self):
        return self.x.size


def _split_row(line):
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def _parse_float(token, lineno, column):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"column {column!r}: cannot parse {token!r} as a number", lineno)


def load_histogram(source):
    """Read a histogram from a path or text stream; rows sorted by bin edge."""
    if isinstance(source, (str, Path)):
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_histogram(fh)

    label = ""
    currency = ""
    header = None
    rows = []  # (lineno, values)
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            for key in ("label", "currency"):
                prefix = key + ":"
                if body.lower().startswith(prefix):
                    value = body[len(prefix):].strip()
                    if key == "label":
                        label = value
                    else:
                        currency = value
            continue
        if header is None:
            header = [h.strip().lower() for h in _split_row(line)]
            continue
        rows.append((lineno, _split_row(line)))

    if header is None:
        raise ParseError("missing header row")
    if {"bin_low", "bin_high", "mass"} <= set(header):
        mode = "edges"
        cols = (header.index("bin_low"), header.index("bin_high"), header.index("mass"))
    elif {"bin_mid", "mass"} <= set(header):
        mode = "mids"
        cols = (header.index("bin_mid"), header.index("mass"))
    else:
        raise ParseError(
            "header must contain bin_low/bin_high/mass or bin_mid/mass, "
            f"got {header}"
        )
    if not rows:
        raise ParseError("no data rows")

    parsed = []
    names = ("bin_low", "bin_high", "mass") if mode == "edges" else ("bin_mid", "mass")
    for lineno, fields in rows:
        if len(fields) < len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", lineno)
        values = tuple(_parse_float(fields[c], lineno, n) for c, n in zip(cols, names))
        if values[-1] < 0.0:
            raise ParseError(f"negative mass {values[-1]!r}", lineno)
        if values[0] <= 0.0:
            raise ParseError(f"non-positive income {values[0]!r}", lineno)
        parsed.append((lineno, values))

    parsed.sort(key=lambda item: item[1][0])

    if mode == "edges":
        lows = np.array([v[0] for _, v in parsed])
        highs = np.array([v[1] for _, v in parsed])
        masses = np.array([v[2] for _, v in parsed])
        for i, (lineno, v) in enumerate(parsed):
            if v[1] <= v[0]:
                raise ParseError(f"bin_high {v[1]!r} not above bin_low {v[0]!r}", lineno)
            if i and abs(lows[i] - highs[i - 1]) > 1e-9 * lows[i]:
                raise ParseError(
                    f"bins not contiguous: previous bin_high {highs[i-1]!r}, "
                    f"this bin_low {lows[i]!r}",
                    lineno,
                )
        edges = np.append(lows, highs[-1])
    else:
        mids = np.array([v[0] for _, v in parsed])
        masses = np.array([v[1] for _, v in parsed])
        if np.any(np.diff(mids) <= 0.0):
            raise ParseError("bin_mid values must be strictly increasing")
        if mids.size < 2:
            raise ParseError("need at least 2 midpoints to reconstruct edges")
        inner = np.sqrt(mids[:-1] * mids[1:])
        first = mids[0] * np.sqrt(mids[0] / mids[1])
        last = mids[-1] * np.sqrt(mids[-1] / mids[-2])
        edges = np.concatenate(([first], inner, [last]))

    try:
        return IncomeHistogram(edges, masses, label=label, currency_note=currency)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def save_histogram(hist, target, extra_comments=()):
    """Write a histogram in the bin_low/bin_high/mass format it loads from.

    Floats are written with repr, so an untransformed load/save round trip
    is bit-exact.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            save_histogram(hist, fh, extra_comments)
        return
    for comment in extra_comments:
        target.write(f"# {comment}\n")
    if hist.label:
        target.write(f"# label: {hist.label}\n")
    if hist.currency_note:
        target.write(f"# currency: {hist.currency_note}\n")
    target.write("bin_low,bin_high,mass\n")
    rows = zip(hist.bin_edges[:-1].tolist(), hist.bin_edges[1:].tolist(), hist.mass.tolist())
    target.write("".join(f"{lo!r},{hi!r},{m!r}\n" for lo, hi, m in rows))


def dumps_histogram(hist, extra_comments=()):
    buf = io.StringIO()
    save_histogram(hist, buf, extra_comments)
    return buf.getvalue()


def to_pdf_curve(hist, normalize=False, per_log_income=False):
    """Empirical density curve at geometric bin midpoints.

    Ordinates are mass per USD (mass / linear bin width); with
    per_log_income=True they are mass per unit ln(income) instead, which
    matches the shapes seen on log-axis density plots.
    """
    mass = hist.mass.astype(float)
    if normalize:
        mass = mass / mass.sum()
    lo = hist.bin_edges[:-1]
    hi = hist.bin_edges[1:]
    x = np.sqrt(lo * hi)
    if per_log_income:
        y = mass / (np.log(hi) - np.log(lo))
    else:
        y = mass / (hi - lo)
    return EmpiricalCurve(x, y, PDF, label=hist.label)


def to_ccdf_curve(hist, normalize=False):
    """Empirical tail-mass curve at bin lower edges; y[0] is the total mass."""
    mass = hist.mass.astype(float)
    if normalize:
        mass = mass / mass.sum()
    y = np.cumsum(mass[::-1])[::-1]
    x = hist.bin_edges[:-1]
    return EmpiricalCurve(x, y, CCDF, label=hist.label)


def subtract(world, parts, renormalize=False):
    """Remove part histograms (e.g. China and India) from a world histogram.

    All inputs must share identical bin edges. Residual masses within 1e-12
    below zero are clamped to zero; anything more negative is a data
    inconsistency and raises.
    """
    residual = world.mass.astype(float).copy()
    for part in parts:
        if part.bin_edges.shape != world.bin_edges.shape or not np.array_equal(
            part.bin_edges, world.bin_edges
        ):
            raise AlignmentError(
                f"bin edges of part {part.label or '<unlabelled>'!r} do not match "
                f"the world histogram (world spans "
                f"[{world.bin_edges[0]!r}, {world.bin_edges[-1]!r}] with "
                f"{world.n_bins} bins; part spans "
                f"[{part.bin_edges[0]!r}, {part.bin_edges[-1]!r}] with "
                f"{part.n_bins} bins)"
            )
        residual -= part.mass

    low = residual < -_NEGATIVE_CLAMP
    if low.any():
        i = int(np.argmin(residual))
        raise ConsistencyError(
            f"parts exceed the world in bin {i} "
            f"[{world.bin_edges[i]!r}, {world.bin_edges[i+1]!r}] "
            f"by {-residual[i]!r}"
        )
    residual = np.where(residual < 0.0, 0.0, residual)

    total = residual.sum()
    if total <= 0.0:
        raise ConsistencyError("zero total mass after subtraction")
    if renormalize:
        residual = residual / total
    label = world.label
    if parts or renormalize:
        label = (world.label + "-residual") if world.label else "residual"
    return IncomeHistogram(
        world.bin_edges, residual, label=label, currency_note=world.currency_note
    )


def rebin(hist, new_edges):
    """Reapportion masses onto new edges, uniform in log-income within bins.

    The new edges must lie within the source span; total mass is conserved
    when the spans coincide.
    """
    new = np.asarray(new_edges, dtype=float)
    if new.ndim != 1 or new.size < 3:
        raise DomainError("new_edges must be a 1-d array with at least 3 edges")
    if np.any(np.diff(new) <= 0.0) or new[0] <= 0.0:
        raise DomainError("new_edges must be positive and strictly increasing")
    old = hist.bin_edges
    span_slack = 1e-12 * old[-1]
    if new[0] < old[0] - span_slack or new[-1] > old[-1] + span_slack:
        raise DomainError(
            f"new edges [{new[0]!r}, {new[-1]!r}] exceed the source span "
            f"[{old[0]!r}, {old[-1]!r}]"
        )

    log_old = np.log(old)[:, None]
    log_new = np.log(new)
    # (i, j): the overlap of source bin i with new bin j, in log income; the
    # sum over i runs in order, bit for bit as adding the rows one by one
    overlap = np.minimum(log_new[1:], log_old[1:]) - np.maximum(log_new[:-1], log_old[:-1])
    share = hist.mass[:, None] * np.clip(overlap, 0.0, None) / np.diff(log_old, axis=0)
    out = share.sum(axis=0)
    return IncomeHistogram(new, out, label=hist.label, currency_note=hist.currency_note)
