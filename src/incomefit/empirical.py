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


def load_histogram(source):
    """Read a histogram from a path or text stream; rows sorted by bin edge."""
    if isinstance(source, (str, Path)):
        # utf-8-sig: spreadsheet exports often start with a byte-order mark
        with open(source, "r", encoding="utf-8-sig") as fh:
            return load_histogram(fh)

    meta = {"label": "", "currency": ""}
    header = None
    rows = []  # [value per column in cols..., lineno]
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, colon, value = line.lstrip("#").strip().partition(":")
            if colon and key.lower() in meta:
                meta[key.lower()] = value.strip()
            continue
        fields = line.split(",") if "," in line else line.split()
        if header is None:
            header = [h.strip().lower() for h in fields]
            if {"bin_low", "bin_high", "mass"} <= set(header):
                cols = [header.index(n) for n in ("bin_low", "bin_high", "mass")]
            elif {"bin_mid", "mass"} <= set(header):
                cols = [header.index(n) for n in ("bin_mid", "mass")]
            else:
                raise ParseError(
                    "header must contain bin_low/bin_high/mass or bin_mid/mass, "
                    f"got {header}"
                )
            continue
        if len(fields) < len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", lineno)
        row = []
        for c in cols:
            try:
                row.append(float(fields[c]))
            except ValueError:
                raise ParseError(
                    f"column {header[c]!r}: cannot parse {fields[c].strip()!r} as a number",
                    lineno,
                )
        if row[-1] < 0.0:
            raise ParseError(f"negative mass {row[-1]!r}", lineno)
        if row[0] <= 0.0:
            raise ParseError(f"non-positive income {row[0]!r}", lineno)
        row.append(lineno)
        rows.append(row)

    if header is None:
        raise ParseError("missing header row")
    if not rows:
        raise ParseError("no data rows")
    rows.sort(key=lambda r: r[0])
    table = np.array(rows)

    if len(cols) == 3:  # bin_low, bin_high, mass
        lows, highs, masses, lines = table.T
        # the first bad bin in edge order: empty, or apart from the bin
        # before it (the first bin is compared with its own bin_low)
        empty = highs <= lows
        apart = np.abs(lows - np.append(lows[0], highs[:-1])) > 1e-9 * lows
        bad = np.flatnonzero(empty | apart)
        if bad.size:
            i = bad[0]
            lo, hi = float(lows[i]), float(highs[i])
            if empty[i]:
                raise ParseError(f"bin_high {hi!r} not above bin_low {lo!r}", int(lines[i]))
            raise ParseError(
                f"bins not contiguous: previous bin_high {float(highs[i - 1])!r}, "
                f"this bin_low {lo!r}",
                int(lines[i]),
            )
        edges = np.append(lows, highs[-1])
    else:
        mids, masses, _ = table.T
        if np.any(np.diff(mids) <= 0.0):
            raise ParseError("bin_mid values must be strictly increasing")
        if mids.size < 2:
            raise ParseError("need at least 2 midpoints to reconstruct edges")
        inner = np.sqrt(mids[:-1] * mids[1:])
        first = mids[0] * np.sqrt(mids[0] / mids[1])
        last = mids[-1] * np.sqrt(mids[-1] / mids[-2])
        edges = np.concatenate(([first], inner, [last]))

    try:
        return IncomeHistogram(
            edges, masses, label=meta["label"], currency_note=meta["currency"]
        )
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
        if not np.array_equal(part.bin_edges, world.bin_edges):
            raise AlignmentError(
                f"bin edges of part {part.label or '<unlabelled>'!r} do not match "
                f"the world histogram (world spans "
                f"[{float(world.bin_edges[0])!r}, {float(world.bin_edges[-1])!r}] with "
                f"{world.n_bins} bins; part spans "
                f"[{float(part.bin_edges[0])!r}, {float(part.bin_edges[-1])!r}] with "
                f"{part.n_bins} bins)"
            )
        residual -= part.mass

    low = residual < -_NEGATIVE_CLAMP
    if low.any():
        i = int(np.argmin(residual))
        raise ConsistencyError(
            f"parts exceed the world in bin {i} "
            f"[{float(world.bin_edges[i])!r}, {float(world.bin_edges[i + 1])!r}] "
            f"by {float(-residual[i])!r}"
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
    when the spans coincide. The histogram's own edges return it as it is.
    """
    new = np.asarray(new_edges, dtype=float)
    if new.ndim != 1 or new.size < 3:
        raise DomainError("new_edges must be a 1-d array with at least 3 edges")
    if np.any(np.diff(new) <= 0.0) or new[0] <= 0.0:
        raise DomainError("new_edges must be positive and strictly increasing")
    old = hist.bin_edges
    if np.array_equal(new, old):
        return hist
    span_slack = 1e-12 * old[-1]
    if new[0] < old[0] - span_slack or new[-1] > old[-1] + span_slack:
        raise DomainError(
            f"new edges [{float(new[0])!r}, {float(new[-1])!r}] exceed the source span "
            f"[{float(old[0])!r}, {float(old[-1])!r}]"
        )

    log_old = np.log(old)[:, None]
    log_new = np.log(new)
    # (i, j): the overlap of source bin i with new bin j, in log income; the
    # sum over i runs in order, bit for bit as adding the rows one by one
    overlap = np.minimum(log_new[1:], log_old[1:]) - np.maximum(log_new[:-1], log_old[:-1])
    share = hist.mass[:, None] * np.clip(overlap, 0.0, None) / np.diff(log_old, axis=0)
    out = share.sum(axis=0)
    return IncomeHistogram(new, out, label=hist.label, currency_note=hist.currency_note)
