"""The four distribution families: gamma, log-normal, and their two-component
mixtures, with PDF / CDF / CCDF evaluation, the derivative columns a fit
needs, and synthetic sampling.

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
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PreconditionError
from .special import (
    digamma,
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
    "evaluate_columns",
    "total_amplitude",
    "sample",
    "param_pack",
    "param_unpack",
    "format_model",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_INF = math.inf
# forward-difference step of a gamma ccdf's shape column in ln n, relative to
# max(|ln n|, 1)
_SHAPE_STEP = 1e-6


def _validate(params, positive):
    """Every field finite, the amplitude >= 0 and the named fields > 0."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not -_INF < value < _INF:
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
class _Mixture:
    """Two components of one kind, canonically ordered by ascending _order."""

    component1: object
    component2: object

    def __post_init__(self):
        if getattr(self.component1, self._order) > getattr(self.component2, self._order):
            c1, c2 = self.component2, self.component1
            object.__setattr__(self, "component1", c1)
            object.__setattr__(self, "component2", c2)


class BiGammaParams(_Mixture):
    """Two gamma components, canonically ordered by ascending scale."""

    _order = "scale"


class BiLogNormalParams(_Mixture):
    """Two log-normal components, canonically ordered by ascending mu."""

    _order = "mu"


@dataclass(frozen=True)
class ModelSpec:
    """A family tag plus the matching parameter record.

    Building one also derives the canonical parameter vector, as a tuple of
    floats, once; param_pack and every scalar pdf/cdf/ccdf call read it.
    """

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
        p = self.params
        parts = (p.component1, p.component2) if is_bimodal(self.family) else (p,)
        vector = tuple(float(getattr(c, f.name)) for c in parts for f in fields(c))
        object.__setattr__(self, "_vector", vector)


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
    return family in _UNIMODAL


def unimodal_counterpart(family):
    return _UNIMODAL[family]


def bimodal_counterpart(family):
    return _BIMODAL[family]


def total_amplitude(model):
    """Sum of component amplitudes; the x -> inf limit of the CDF."""
    return float(sum(param_pack(model)[::3]))


def _each(fn, *params):
    """fn of each start's parameters, computed in math on Python floats: a
    float for float parameters, a (k, 1) column for (k, 1) columns. numpy's
    exp and log may differ from math's in the last bit, so the scalar terms
    of a stacked call stay in math, as those of a single one are."""
    if isinstance(params[0], float):
        return fn(*params)
    rows = zip(*[p.ravel().tolist() for p in params])
    return np.array([fn(*row) for row in rows])[:, None]


def _gamma_component(amplitude, shape, scale, x, which):
    if which == "cdf":
        return amplitude * reg_lower_incomplete_gamma(shape, x / scale)
    if which == "ccdf":
        # upper incomplete gamma directly: keeps tail structure, no cancellation
        return amplitude * reg_upper_incomplete_gamma(shape, x / scale)
    # log-space evaluation: finite for any valid parameters, underflows to 0
    log_f = (
        _each(lambda a, n, m: math.log(a) - log_gamma(n) - n * math.log(m),
              amplitude, shape, scale)
        + (shape - 1.0) * np.log(x)
        - x / scale
    )
    return np.exp(log_f)


def _lognormal_component(amplitude, mu, sigma, x, which):
    if which == "pdf":
        z = (np.log(x) - mu) / sigma
        # np.divide: a float x whose product underflows to 0 gives inf and
        # numpy's warning, as an array does, not ZeroDivisionError
        return np.divide(amplitude, x * sigma * _SQRT_TWO_PI) * np.exp(-0.5 * z * z)
    at_zero = 0.0 if which == "cdf" else amplitude
    if isinstance(x, float):
        if not x > 0.0:
            return at_zero
        # z in Python floats: numpy's log, then IEEE arithmetic as the array's
        z = (float(np.log(x)) - mu) / sigma
        return amplitude * std_normal_cdf(z if which == "cdf" else -z)
    # x * amplitude has the (k, n) shape of a stacked call
    out = np.full_like(x * amplitude, at_zero)
    pos = x > 0.0
    if pos.any():
        z = (np.log(x[pos]) - mu) / sigma
        out[..., pos] = amplitude * std_normal_cdf(z if which == "cdf" else -z)
    return out


def _gamma_columns(amplitude, shape, scale, x, which, f):
    """Columns d/d ln A, d/d ln n, d/d ln m of a gamma component whose
    ordinates are f. The pdf's shape column is closed form; the ccdf's is a
    forward difference in ln n, one more component evaluation."""
    if which == "pdf":
        # n f (ln x - ln m - psi(n)), finite and 0 where f underflowed to 0;
        # f (x/m - n), where x/m may be inf once f underflowed to 0
        log_offset = _each(lambda n, m: math.log(m) + digamma(n), shape, scale)
        d_shape = shape * f * (np.log(x) - log_offset)
        d_scale = np.where(f > 0.0, f * (x / scale - shape), 0.0)
        return f, d_shape, d_scale
    step = _each(lambda n: _SHAPE_STEP * max(abs(math.log(n)), 1.0), shape)
    stepped_shape = _each(lambda n, h: math.exp(math.log(n) + h), shape, step)
    stepped = _gamma_component(amplitude, stepped_shape, scale, x, which)
    d_shape = (stepped - f) / step
    # x times the density, A t^n e^-t / Gamma(n) at t = x/m: 0 at x = 0
    t = x / scale
    with np.errstate(divide="ignore", under="ignore"):
        d_scale = np.exp(
            _each(lambda a, n: math.log(a) - log_gamma(n), amplitude, shape)
            + shape * np.log(t)
            - t
        )
    return f, d_shape, d_scale


def _lognormal_columns(amplitude, mu, sigma, x, which, f):
    """Columns d/d ln A, d/d mu, d/d ln sigma of a log-normal component whose
    ordinates are f."""
    if which == "pdf":
        # f z / sigma and f (z^2 - 1); where f underflowed to 0, z may be inf
        z = (np.log(x) - mu) / sigma
        live = f > 0.0
        return f, np.where(live, f * z / sigma, 0.0), np.where(live, f * (z * z - 1.0), 0.0)
    # A phi(z) / sigma and A phi(z) z, both 0 at x = 0; z is finite here, as
    # the normal CDF kernel rejects an infinite one
    d_mu, d_sigma = np.zeros_like(f), np.zeros_like(f)
    pos = x > 0.0
    z = (np.log(x[pos]) - mu) / sigma
    dens = amplitude / _SQRT_TWO_PI * np.exp(-0.5 * z * z)
    d_mu[..., pos] = dens / sigma
    d_sigma[..., pos] = dens * z
    return f, d_mu, d_sigma


class _Kind(NamedTuple):
    """A component kind. A family is a kind (one component) or "bi" + kind
    (two). For each of a component's three slots, names gives its name and
    logs whether the fitter fits it, and evaluate_columns differentiates in
    it, as a logarithm: true for the amplitude and every slot that must be > 0."""

    record: type
    mixture: type
    names: tuple
    logs: tuple
    component: object
    columns: object


_KINDS = {
    "gamma": _Kind(GammaParams, BiGammaParams, ("A", "n", "m"), (True, True, True),
                   _gamma_component, _gamma_columns),
    "lognormal": _Kind(LogNormalParams, BiLogNormalParams, ("A", "mu", "sigma"),
                       (True, False, True), _lognormal_component, _lognormal_columns),
}
# each family's kind and component count; the tables keyed by family are built
# here, once, so that a model call makes one lookup
_FAMILY = {prefix + kind: (kind, n) for n, prefix in ((1, ""), (2, "bi")) for kind in _KINDS}
FAMILIES = tuple(_FAMILY)
_UNIMODAL = {family: kind for family, (kind, n) in _FAMILY.items() if n == 2}
_BIMODAL = {kind: family for family, kind in _UNIMODAL.items()}
_PARAMS_TYPE = {f: (_KINDS[k].record, _KINDS[k].mixture)[n - 1] for f, (k, n) in _FAMILY.items()}
_PARAM_NAMES = {f: _KINDS[k].names if n == 1 else
                tuple(s + i for i in "12" for s in _KINDS[k].names)
                for f, (k, n) in _FAMILY.items()}
LOG_SLOTS = {f: np.array(_KINDS[k].logs * n) for f, (k, n) in _FAMILY.items()}
_CORE = {f: (_KINDS[k].component, _KINDS[k].columns) for f, (k, _) in _FAMILY.items()}


def evaluate_columns(family, stack, x, which):
    """Ordinates and derivative columns of a (k, p) stack of canonical
    parameter vectors, one per row: (k, x.size) summed "pdf" or "ccdf"
    ordinates, those of pdf or ccdf on each row's model, and (k, x.size, p)
    columns, taken with respect to the logarithm of every amplitude, shape,
    scale and sigma and to mu itself. All are closed form but a gamma "ccdf"
    shape column, a forward difference in ln n that costs one more component
    evaluation. Nothing is validated: callers guarantee valid parameters and
    x in the domain.

    Each row equals its one-row call bit for bit. A component runs only on
    the rows where its amplitude is above 0: elsewhere its ordinates and
    columns are 0, and no kernel sees its parameters. A kernel error in any
    row fails the whole call.
    """
    k, p = stack.shape
    component, columns = _CORE[family]
    # every third slot of the flat stack is an amplitude, all >= 0; tested in
    # floats, which costs a tenth of numpy's all() on these sizes
    every = all(stack.ravel()[::3].tolist())
    # a live row alone runs in floats: (1, 1) columns give its bits slower
    v = stack[0].tolist() if k == 1 and every else list(stack.T[:, :, None])
    cols = np.empty((k, x.size, p)) if every else np.zeros((k, x.size, p))
    for c in range(0, p, 3):
        slots, at = v[c:c + 3], Ellipsis
        if not every:
            at = stack[:, c] > 0.0
            if not at.any():
                continue
            slots = [s[at] for s in slots]
        f = component(*slots, x, which)
        # filled column by column: np.stack costs twice as much on these sizes
        for j, col in enumerate(columns(*slots, x, which, f), c):
            cols[at, :, j] = col
    # a component's d/d ln A column is its ordinates
    return (cols[..., 0] + cols[..., 3] if p == 6 else cols[..., 0].copy()), cols


def _evaluate_model(model, x, which):
    # a scalar (a Python or numpy float, or any 0-d input) that passes the
    # checks is evaluated as a Python float; any other input, or a scalar
    # that fails a check, goes through the array checks and raises their
    # DomainError. Both run the one or two components on the model's vector.
    if type(x) is not float and np.ndim(x) == 0:
        x = float(np.asarray(x, dtype=float))
    if type(x) is not float or not (0.0 < x < _INF if which == "pdf" else 0.0 <= x < _INF):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise DomainError("x must be finite")
        if which == "pdf" and not (x > 0.0).all():
            raise DomainError("x must be > 0")
        if which != "pdf" and not (x >= 0.0).all():
            raise DomainError("x must be >= 0")
    v = model._vector
    component = _CORE[model.family][0]
    # a zero-mass component adds 0 (x is finite here), and no kernel sees it
    out = component(v[0], v[1], v[2], x, which) if v[0] > 0.0 else 0.0 * x
    if len(v) == 6 and v[3] > 0.0:
        out = out + component(v[3], v[4], v[5], x, which)
    return float(out) if type(x) is float else out


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
    # size-0 draws (one component's uniforms, an empty block) leave rng as it was
    second = (rng.random((len(comps) - 1, count)) >= comps[:-1, :1]).any(axis=0)
    for (_, a, b), mask in zip(comps, (~second, second)):
        k = int(mask.sum())
        if _FAMILY[model.family][0] == "lognormal":
            out[mask] = np.exp(a + b * rng.standard_normal(k))
        else:
            out[mask] = b * rng.standard_gamma(a, k)
    return out


def param_pack(model):
    """Flatten a model to its canonical parameter vector."""
    return np.array(model._vector)


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
    kind = _KINDS[_FAMILY[family][0]]
    parts = [kind.record(*v[i:i + 3]) for i in range(0, len(v), 3)]
    return ModelSpec(family, kind.mixture(*parts) if len(parts) == 2 else parts[0])


def format_model(model):
    """Key-value rendering: family line, then one named parameter per line."""
    lines = [f"family = {model.family}"]
    for name, value in zip(family_param_names(model.family), param_pack(model)):
        lines.append(f"{name} = {float(value)!r}")
    return "\n".join(lines) + "\n"
