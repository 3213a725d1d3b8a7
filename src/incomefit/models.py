"""The four distribution families: gamma, log-normal, and their two-component
mixtures, with PDF / CDF / CCDF evaluation and synthetic sampling.

Conventions
-----------
Every density carries an explicit amplitude A equal to the component's total
probability mass, so a unit-amplitude density integrates to 1 over (0, inf).
Mixture components are kept in canonical order (ascending scale for gamma,
ascending mu for log-normal) to remove the label-switching degeneracy.

Canonical parameter vectors:

    gamma        [A, n, m]            shape n, scale m (rate 1/m)
    lognormal    [A, mu, sigma]
    bigamma      [A1, n1, m1, A2, n2, m2]
    bilognormal  [A1, mu1, sigma1, A2, mu2, sigma2]
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, PreconditionError
from .special import (
    log_gamma,
    reg_lower_incomplete_gamma,
    reg_upper_incomplete_gamma,
    std_normal_cdf,
)

__all__ = [
    "FAMILIES",
    "LogNormalParams",
    "GammaParams",
    "BiGammaParams",
    "BiLogNormalParams",
    "ModelSpec",
    "gamma_model",
    "lognormal_model",
    "bigamma_model",
    "bilognormal_model",
    "family_param_count",
    "family_param_names",
    "pdf",
    "cdf",
    "ccdf",
    "evaluate",
    "total_amplitude",
    "sample",
    "param_pack",
    "param_unpack",
    "format_model",
]

FAMILIES = ("gamma", "lognormal", "bigamma", "bilognormal")

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _validate(params, positive):
    """Every field finite, the amplitude >= 0 and the named fields > 0."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not np.isfinite(value):
            raise PreconditionError(f"{f.name} must be finite, got {value}")
    if params.amplitude < 0.0:
        raise PreconditionError(f"amplitude must be >= 0, got {params.amplitude}")
    for name in positive:
        if getattr(params, name) <= 0.0:
            raise PreconditionError(f"{name} must be > 0, got {getattr(params, name)}")


@dataclass(frozen=True)
class LogNormalParams:
    """Amplitude A, location mu (log income) and spread sigma (> 0)."""

    amplitude: float
    mu: float
    sigma: float

    def __post_init__(self):
        _validate(self, ("sigma",))


@dataclass(frozen=True)
class GammaParams:
    """Amplitude A, shape n (> 0) and scale m in income units (> 0)."""

    amplitude: float
    shape: float
    scale: float

    def __post_init__(self):
        _validate(self, ("shape", "scale"))


@dataclass(frozen=True)
class BiGammaParams:
    """Two gamma components, canonically ordered by ascending scale."""

    component1: GammaParams
    component2: GammaParams

    def __post_init__(self):
        if self.component1.scale > self.component2.scale:
            c1, c2 = self.component2, self.component1
            object.__setattr__(self, "component1", c1)
            object.__setattr__(self, "component2", c2)


@dataclass(frozen=True)
class BiLogNormalParams:
    """Two log-normal components, canonically ordered by ascending mu."""

    component1: LogNormalParams
    component2: LogNormalParams

    def __post_init__(self):
        if self.component1.mu > self.component2.mu:
            c1, c2 = self.component2, self.component1
            object.__setattr__(self, "component1", c1)
            object.__setattr__(self, "component2", c2)


_PARAMS_TYPE = {
    "gamma": GammaParams,
    "lognormal": LogNormalParams,
    "bigamma": BiGammaParams,
    "bilognormal": BiLogNormalParams,
}

_PARAM_NAMES = {
    "gamma": ("A", "n", "m"),
    "lognormal": ("A", "mu", "sigma"),
    "bigamma": ("A1", "n1", "m1", "A2", "n2", "m2"),
    "bilognormal": ("A1", "mu1", "sigma1", "A2", "mu2", "sigma2"),
}


@dataclass(frozen=True)
class ModelSpec:
    """A family tag plus the matching parameter record."""

    family: str
    params: object

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PreconditionError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        expected = _PARAMS_TYPE[self.family]
        if not isinstance(self.params, expected):
            raise PreconditionError(
                f"family {self.family!r} requires {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )


def gamma_model(amplitude, shape, scale):
    return ModelSpec("gamma", GammaParams(amplitude, shape, scale))


def lognormal_model(amplitude, mu, sigma):
    return ModelSpec("lognormal", LogNormalParams(amplitude, mu, sigma))


def bigamma_model(a1, n1, m1, a2, n2, m2):
    return ModelSpec("bigamma", BiGammaParams(GammaParams(a1, n1, m1), GammaParams(a2, n2, m2)))


def bilognormal_model(a1, mu1, s1, a2, mu2, s2):
    return ModelSpec(
        "bilognormal",
        BiLogNormalParams(LogNormalParams(a1, mu1, s1), LogNormalParams(a2, mu2, s2)),
    )


def family_param_count(family):
    return len(_PARAM_NAMES[family])


def family_param_names(family):
    return _PARAM_NAMES[family]


def is_bimodal(family):
    return family in ("bigamma", "bilognormal")


def unimodal_counterpart(family):
    return {"bigamma": "gamma", "bilognormal": "lognormal"}[family]


def bimodal_counterpart(family):
    return {"gamma": "bigamma", "lognormal": "bilognormal"}[family]


def total_amplitude(model):
    """Sum of component amplitudes; the x -> inf limit of the CDF."""
    return float(sum(param_pack(model)[::3]))


def _gamma_component(amplitude, shape, scale, x, which):
    if amplitude == 0.0:
        return np.zeros_like(x)
    if which == "cdf":
        return amplitude * reg_lower_incomplete_gamma(shape, x / scale)
    if which == "ccdf":
        # upper incomplete gamma directly: keeps tail structure, no cancellation
        return amplitude * reg_upper_incomplete_gamma(shape, x / scale)
    # log-space evaluation: finite for any valid parameters, underflows to 0
    log_f = (
        math.log(amplitude)
        - log_gamma(shape)
        - shape * math.log(scale)
        + (shape - 1.0) * np.log(x)
        - x / scale
    )
    with np.errstate(under="ignore"):
        return np.exp(log_f)


def _lognormal_component(amplitude, mu, sigma, x, which):
    if amplitude == 0.0:
        return np.zeros_like(x)
    if which == "pdf":
        z = (np.log(x) - mu) / sigma
        return amplitude / (x * sigma * _SQRT_TWO_PI) * np.exp(-0.5 * z * z)
    out = np.zeros_like(x) if which == "cdf" else np.full_like(x, amplitude)
    pos = x > 0.0
    if pos.any():
        z = (np.log(x[pos]) - mu) / sigma
        out[pos] = amplitude * std_normal_cdf(z if which == "cdf" else -z)
    return out


_COMPONENT = {
    "gamma": _gamma_component,
    "lognormal": _lognormal_component,
    "bigamma": _gamma_component,
    "bilognormal": _lognormal_component,
}


def evaluate(family, vec, x, which):
    """Summed "pdf", "cdf" or "ccdf" ordinates at a float array or numpy float x.

    vec is the family's canonical parameter vector, three slots per
    component. Nothing is validated: callers guarantee positive shapes,
    scales and sigmas, non-negative amplitudes and x in the domain.
    """
    component = _COMPONENT[family]
    v = [float(t) for t in vec]
    out = component(*v[:3], x, which)
    if len(v) == 6:
        out = out + component(*v[3:], x, which)
    return out


def _evaluate_model(model, x, which):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("x must be finite")
    if which == "pdf" and not (arr > 0.0).all():
        raise DomainError("x must be > 0")
    if which != "pdf" and not (arr >= 0.0).all():
        raise DomainError("x must be >= 0")
    if arr.ndim == 0:
        # a numpy float runs the same formulas in numpy's faster scalar math
        return float(evaluate(model.family, param_pack(model), arr[()], which))
    return evaluate(model.family, param_pack(model), arr, which)


def pdf(model, x):
    """Probability density per income unit at x > 0."""
    return _evaluate_model(model, x, "pdf")


def cdf(model, x):
    """Cumulative mass below x >= 0; rises from 0 to the total amplitude."""
    return _evaluate_model(model, x, "cdf")


def ccdf(model, x):
    """Tail mass above x >= 0; falls from the total amplitude to 0."""
    return _evaluate_model(model, x, "ccdf")


def sample(model, count, seed):
    """Draw incomes from a model whose amplitudes sum to 1.

    Deterministic for a given seed: one uniform draw per sample selects the
    mixture component, then each component's block is drawn in order
    (standard normal for log-normal, shape-scale gamma for gamma).
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    total = total_amplitude(model)
    if abs(total - 1.0) > 1e-9:
        raise PreconditionError(
            f"sampling requires amplitudes summing to 1, got {total!r}"
        )
    rng = np.random.default_rng(seed)
    comps = param_pack(model).reshape(-1, 3)
    out = np.empty(count, dtype=float)
    if len(comps) == 1:
        selectors = [np.ones(count, dtype=bool)]
    else:
        u = rng.random(count)
        first = u < comps[0, 0]
        selectors = [first, ~first]
    for (_, a, b), mask in zip(comps, selectors):
        k = int(mask.sum())
        if k == 0:
            continue
        if model.family in ("lognormal", "bilognormal"):
            out[mask] = np.exp(a + b * rng.standard_normal(k))
        else:
            out[mask] = b * rng.standard_gamma(a, k)
    return out


def param_pack(model):
    """Flatten a model to its canonical parameter vector."""
    p = model.params
    if is_bimodal(model.family):
        return np.array(_slots(p.component1) + _slots(p.component2), dtype=float)
    return np.array(_slots(p), dtype=float)


def _slots(p):
    if isinstance(p, GammaParams):
        return (p.amplitude, p.shape, p.scale)
    return (p.amplitude, p.mu, p.sigma)


def param_unpack(family, vector):
    """Build a ModelSpec from a canonical parameter vector."""
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    vec = np.asarray(vector, dtype=float)
    expected = family_param_count(family)
    if vec.shape != (expected,):
        raise PreconditionError(
            f"family {family!r} needs {expected} parameters, got {vec.shape}"
        )
    v = [float(t) for t in vec]
    if not is_bimodal(family):
        return ModelSpec(family, _PARAMS_TYPE[family](*v))
    kind = _PARAMS_TYPE[unimodal_counterpart(family)]
    return ModelSpec(family, _PARAMS_TYPE[family](kind(*v[:3]), kind(*v[3:])))


def format_model(model):
    """Key-value rendering: family line, then one named parameter per line."""
    lines = [f"family = {model.family}"]
    for name, value in zip(family_param_names(model.family), param_pack(model)):
        lines.append(f"{name} = {float(value)!r}")
    return "\n".join(lines) + "\n"
