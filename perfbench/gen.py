"""Seeded inputs for the benchmark workloads.

Nothing here calls incomefit: bin masses come from Gauss-Legendre quadrature
of closed-form densities (math.lgamma for the gamma normalizer), so the
program under test only ever sees the generated histograms, curves and
parameter vectors.

A synthetic year is a world histogram on the fixtures' 60-bin log grid from
30 to 60000 (2011 PPP USD) holding 2-3 gamma or log-normal components, with
2% multiplicative noise on every bin mass: real survey data are noisy, and
noise-free masses take exact-fit paths real data never take. Each year also
carries a "China + India" part on a 30-bin grid over the same span, so that
`subtract --rebin` has to reapportion it onto the world grid.
"""

import math
from dataclasses import dataclass

import numpy as np

FINE_EDGES = np.geomspace(30.0, 60000.0, 61)
COARSE_EDGES = np.geomspace(30.0, 60000.0, 31)
NOISE = 0.02
FAMILIES = ("gamma", "lognormal", "bigamma", "bilognormal")

# headcount lines (2011 PPP USD per year) and rich-line thresholds for the
# scalar queries: $1.90, $3.20 and $5.50 a day; top-decile-like cut-offs
POVERTY_LINES = (1.90 * 365.0, 3.20 * 365.0, 5.50 * 365.0)
RICH_LINES = (20000.0, 50000.0)
QUANTILE_PROBS = (0.1, 0.5, 0.9, 0.99)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class Component:
    kind: str  # "gamma" or "lognormal"
    amplitude: float
    a: float  # gamma shape n, or log-normal mu
    b: float  # gamma scale m, or log-normal sigma


@dataclass(frozen=True)
class Year:
    label: str
    world_mass: np.ndarray  # on FINE_EDGES, noisy
    part_mass: np.ndarray  # on COARSE_EDGES, noisy


def _density_per_log_x(comp, log_x):
    """comp's mass per unit ln(income) at exp(log_x)."""
    if comp.kind == "lognormal":
        z = (log_x - comp.a) / comp.b
        return comp.amplitude / (comp.b * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    n, m = comp.a, comp.b
    x = np.exp(log_x)
    return comp.amplitude * np.exp(n * log_x - x / m - math.lgamma(n) - n * math.log(m))


def bin_masses(components, edges):
    """Exact-to-quadrature-error masses of a component mixture per bin."""
    lo = np.log(edges[:-1])[:, None]
    hi = np.log(edges[1:])[:, None]
    half = 0.5 * (hi - lo)
    nodes = lo + half * (_GL_NODES[None, :] + 1.0)
    total = np.zeros(edges.size - 1)
    for comp in components:
        total += (half * _density_per_log_x(comp, nodes) * _GL_WEIGHTS).sum(axis=1)
    return total


def loguniform_rebin(mass, old_edges, new_edges):
    """Same reapportioning rule as `incomefit rebin`, for the generator's own
    feasibility check; never handed to the program."""
    log_old, log_new = np.log(old_edges), np.log(new_edges)
    widths = np.diff(log_old)
    out = np.zeros(new_edges.size - 1)
    for j, m in enumerate(mass):
        overlap = np.minimum(log_new[1:], log_old[j + 1]) - np.maximum(log_new[:-1], log_old[j])
        out += m * np.clip(overlap, 0.0, None) / widths[j]
    return out


# Year templates, in the spirit of the paper's 1988-2011 series: a poor
# mode, a China + India mode that drifts up from the poor one towards the
# middle, and a rich mode. Entries are (kind, amplitude, median income,
# width), width being sigma for a log-normal and the shape n for a gamma.
# A two-mode year has China + India inside its poor mode. The seed jitters
# every number by a few percent and draws the noise; the templates stay, so
# each run sees the same mix of easy curves and hard (three-mode, hence
# misspecified for every family) ones.
TEMPLATES = (
    (("lognormal", 0.62, 700.0, 0.60), ("lognormal", 0.38, 12000.0, 0.55)),
    (("gamma", 0.40, 650.0, 3.0), ("lognormal", 0.30, 1300.0, 0.45), ("lognormal", 0.30, 13000.0, 0.55)),
    (("lognormal", 0.42, 750.0, 0.55), ("gamma", 0.28, 1800.0, 4.0), ("gamma", 0.30, 14000.0, 2.5)),
    (("gamma", 0.64, 800.0, 2.5), ("gamma", 0.36, 15000.0, 3.0)),
    (("lognormal", 0.40, 700.0, 0.55), ("lognormal", 0.28, 2400.0, 0.45), ("gamma", 0.32, 15000.0, 3.0)),
    (("gamma", 0.38, 750.0, 3.5), ("lognormal", 0.30, 3000.0, 0.50), ("lognormal", 0.32, 16000.0, 0.60)),
    (("lognormal", 0.60, 850.0, 0.65), ("gamma", 0.40, 16000.0, 2.5)),
    (("lognormal", 0.36, 800.0, 0.55), ("gamma", 0.30, 3600.0, 4.5), ("lognormal", 0.34, 17000.0, 0.55)),
    (("gamma", 0.36, 850.0, 3.0), ("gamma", 0.30, 4200.0, 3.5), ("gamma", 0.34, 18000.0, 2.5)),
    (("lognormal", 0.58, 900.0, 0.60), ("lognormal", 0.42, 18000.0, 0.60)),
    (("lognormal", 0.34, 850.0, 0.55), ("lognormal", 0.30, 4800.0, 0.50), ("gamma", 0.36, 19000.0, 3.0)),
    (("gamma", 0.34, 900.0, 3.0), ("lognormal", 0.30, 5500.0, 0.50), ("lognormal", 0.36, 20000.0, 0.55)),
)


def _component(kind, amplitude, median, width):
    if kind == "lognormal":
        return Component(kind, amplitude, math.log(median), width)
    # the median of a gamma is close to scale * (shape - 1/3)
    return Component(kind, amplitude, width, median / (width - 1.0 / 3.0))


def _noisy(rng, mass):
    z = np.clip(rng.standard_normal(mass.size), -4.0, 4.0)
    return mass * (1.0 + NOISE * z)


def _scaled(comp, factor):
    return Component(comp.kind, comp.amplitude * factor, comp.a, comp.b)


def draw_year(rng, template, label, separate_surveys=False):
    """One noisy world year from a template, plus its China + India part.

    China + India is the middle mode of a three-mode year and a 0.6-0.85
    share of the poor mode of a two-mode year. By default the world histogram
    is compiled from the country tables, as an aggregate is: the rest of the
    world with its own noise on the fine grid, plus the China + India table
    rebinned onto it. Subtracting that table leaves exactly the noisy rest of
    the world, a poor and a rich mode: the valley the paper fits.

    With `separate_surveys` the world is a survey of its own, noisy on the
    fine grid, and China + India (a 0.6-0.85 share of its mode in every year)
    a separate coarse one. The residual then carries both noises, amplified
    where China + India dominate, and a sawtooth where rebin's log-uniform
    split misses the density's slope.
    """
    jitter = rng.uniform(0.95, 1.05, size=(len(template), 3))
    components = [
        _component(kind, amp * j[0], median * j[1], width * j[2])
        for (kind, amp, median, width), j in zip(template, jitter)
    ]
    total = sum(c.amplitude for c in components)
    components = [Component(c.kind, c.amplitude / total, c.a, c.b) for c in components]
    ci = 1 if len(components) == 3 else 0
    if separate_surveys:
        world = _noisy(rng, bin_masses(components, FINE_EDGES))
    share = float(rng.uniform(0.6, 0.85))
    part_noise = 1.0 + NOISE * np.clip(rng.standard_normal(COARSE_EDGES.size - 1), -4.0, 4.0)

    if not separate_surveys:
        if ci == 1:
            share = 1.0
        rest = components[:ci] + components[ci + 1:] + [_scaled(components[ci], 1.0 - share)]
        part = bin_masses((_scaled(components[ci], share),), COARSE_EDGES) * part_noise
        world = _noisy(rng, bin_masses(rest, FINE_EDGES))
        return Year(label, world + loguniform_rebin(part, COARSE_EDGES, FINE_EDGES), part)

    while True:
        part = bin_masses((_scaled(components[ci], share),), COARSE_EDGES) * part_noise
        # the residual must stay clearly positive in every bin, or subtract
        # would (rightly) reject the year as inconsistent
        if np.all(world - loguniform_rebin(part, COARSE_EDGES, FINE_EDGES) > 0.02 * world):
            break
        share *= 0.8
    return Year(label, world, part)


def make_years(seed, template_ids, separate_surveys=False):
    rng = np.random.default_rng([seed, 1])
    return [draw_year(rng, TEMPLATES[t], f"y{i:02d}t{t:02d}", separate_surveys)
            for i, t in enumerate(template_ids)]


def write_histogram(path, edges, mass, label):
    """bin_low,bin_high,mass file, floats written with repr."""
    lines = [f"# label: {label}", "# currency: synthetic 2011 PPP USD", "bin_low,bin_high,mass"]
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), mass.tolist())
    lines += [f"{lo!r},{hi!r},{m!r}" for lo, hi, m in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ccdf_points(mass, edges):
    """Normalized tail-mass curve at bin lower edges."""
    norm = mass / mass.sum()
    return edges[:-1].copy(), np.cumsum(norm[::-1])[::-1]


def draw_models(seed, count):
    """(family, canonical parameter vector) pairs cycling through the four
    families, over the acceptance suite's parameter ranges."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(count):
        family = FAMILIES[i % 4]
        a1, a2 = rng.uniform(0.3, 1.2, 2)
        n1, n2 = rng.uniform(1.0, 6.0, 2)
        m1, m2 = rng.uniform(200.0, 15000.0, 2)
        mu1, mu2 = rng.uniform(5.0, 10.0, 2)
        s1, s2 = rng.uniform(0.3, 1.1, 2)
        vec = {
            "gamma": (a1, n1, m1),
            "lognormal": (a1, mu1, s1),
            "bigamma": (a1, n1, m1, a2, n2, m2),
            "bilognormal": (a1, mu1, s1, a2, mu2, s2),
        }[family]
        out.append((family, tuple(float(v) for v in vec)))
    return out
