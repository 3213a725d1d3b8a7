"""Nonlinear least-squares fitting of model families to empirical curves.

The engine is a damped Gauss-Newton (Levenberg-Marquardt) loop over an
unconstrained parameter space: amplitudes, shapes, scales and sigmas live as
their logarithms, log-normal locations stay linear. Every fit runs a jittered
multistart and keeps the best sum of squares; goodness of fit is the ordinary
coefficient of determination on the curve ordinates.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .empirical import CCDF, PDF
from .errors import (
    DomainError,
    FitFailureError,
    IncomeFitError,
    PreconditionError,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "r_squared",
    "initialize",
    "fit",
    "refit_nested",
    "format_fit_result",
]

_DAMPING_CAP = 1e15
_DAMPING_FLOOR = 1e-15
_JITTER_SIGMA = 0.3

# which slots of the canonical parameter vector are strictly positive and
# therefore fitted as logarithms (mu of a log-normal stays linear)
_POSITIVE_SLOTS = {
    "gamma": np.array((True, True, True)),
    "lognormal": np.array((True, False, True)),
    "bigamma": np.array((True, True, True, True, True, True)),
    "bilognormal": np.array((True, False, True, True, False, True)),
}
# the shapes, scales and sigmas, which must stay > 0; an amplitude (slot 0
# of a component) may underflow to 0, giving a zero-mass component
_NONZERO_SLOTS = {
    family: pos & (np.arange(pos.size) % 3 > 0) for family, pos in _POSITIVE_SLOTS.items()
}


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults are sensible for income-scale curves.

    init_strategy is "moments", "valley-split", "auto" (moments for unimodal
    families, valley-split for bimodal ones) or an explicit ModelSpec.
    """

    target: str = PDF
    max_iterations: int = 500
    step_tol: float = 1e-10
    residual_tol: float = 1e-12
    damping_init: float = 1e-3
    damping_up: float = 10.0
    damping_down: float = 0.1
    weighting: str = "uniform"
    init_strategy: object = "auto"
    finite_diff_rel_step: float = 1e-6
    multistart_count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.target not in (PDF, CCDF):
            raise PreconditionError(f"target must be {PDF!r} or {CCDF!r}")
        if self.max_iterations < 1:
            raise PreconditionError("max_iterations must be >= 1")
        if self.multistart_count < 1:
            raise PreconditionError("multistart_count must be >= 1")
        for name in ("step_tol", "residual_tol", "damping_init", "damping_up",
                     "damping_down", "finite_diff_rel_step"):
            if getattr(self, name) <= 0.0:
                raise PreconditionError(f"{name} must be > 0")
        if self.weighting not in ("uniform", "relative"):
            raise PreconditionError("weighting must be 'uniform' or 'relative'")
        ok_str = self.init_strategy in ("auto", "moments", "valley-split")
        if not ok_str and not isinstance(self.init_strategy, models.ModelSpec):
            raise PreconditionError(
                "init_strategy must be 'auto', 'moments', 'valley-split' "
                "or a ModelSpec"
            )


@dataclass(frozen=True)
class FitResult:
    model: models.ModelSpec
    r_squared: float
    ss_res: float
    ss_tot: float
    residuals: np.ndarray
    iterations: int
    converged: bool
    init_used: models.ModelSpec
    init_strategy: str


def r_squared(observed, predicted, weights=None):
    """Coefficient of determination 1 - SS_res / SS_tot with weighted mean."""
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    w = np.ones_like(obs) if weights is None else np.asarray(weights, dtype=float)
    if obs.shape != pred.shape or obs.shape != w.shape or obs.ndim != 1:
        raise PreconditionError("observed, predicted and weights must match in length")
    if obs.size < 2:
        raise PreconditionError("need at least 2 points")
    if np.any(w <= 0.0):
        raise PreconditionError("weights must be > 0")
    ss_tot = _weighted_ss_tot(obs, w)
    ss_res = float(np.sum(w * (obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# parameter transforms and the model-evaluation shim


def _to_unconstrained(family, vec):
    theta = np.array(vec, dtype=float)
    pos = _POSITIVE_SLOTS[family]
    theta[pos] = np.log(np.maximum(theta[pos], 1e-300))
    return theta


def _from_unconstrained(family, theta):
    vec = np.array(theta, dtype=float)
    pos = _POSITIVE_SLOTS[family]
    with np.errstate(over="ignore", under="ignore"):
        vec[pos] = np.exp(vec[pos])
    return vec


def _predict(family, theta, x, target):
    """Model ordinates for an unconstrained parameter vector, or None.

    The exponential map keeps amplitudes, shapes, scales and sigmas >= 0.
    A proposal is rejected by returning None, so the optimizer treats it as
    an infinitely bad step, when a parameter is not finite, a shape, scale
    or sigma underflows to 0, a kernel fails, or an ordinate is not finite.
    An amplitude may underflow: a zero-mass component is valid.
    """
    with np.errstate(all="ignore"):
        vec = _from_unconstrained(family, theta)
        if not np.all(np.isfinite(vec)) or not np.all(vec[_NONZERO_SLOTS[family]] > 0.0):
            return None
        try:
            f = models.evaluate(family, vec, x, target)
        except IncomeFitError:
            return None
    if not np.all(np.isfinite(f)):
        return None
    return f


def _jacobian(family, theta, x, target, f0, rel_step, sqrt_w):
    n_par = theta.size
    jac = np.empty((x.size, n_par))
    for j in range(n_par):
        h = rel_step * max(abs(theta[j]), 1.0)
        stepped = theta.copy()
        stepped[j] += h
        fj = _predict(family, stepped, x, target)
        if fj is None:
            return None
        jac[:, j] = sqrt_w * (fj - f0) / h
    return jac


# ---------------------------------------------------------------------------
# the Levenberg-Marquardt core


@np.errstate(over="ignore", invalid="ignore")
def _lm_run(family, theta0, x, y, weights, target, config):
    """One damped Gauss-Newton descent. Returns None for a diverged start."""
    sqrt_w = np.sqrt(weights)
    f = _predict(family, theta0, x, target)
    if f is None:
        return None
    theta = theta0.copy()
    r = sqrt_w * (y - f)
    ss = float(r @ r)
    lam = config.damping_init
    converged = ss == 0.0
    iterations = 0

    while not converged and iterations < config.max_iterations:
        iterations += 1
        jac = _jacobian(family, theta, x, target, f, config.finite_diff_rel_step, sqrt_w)
        if jac is None:
            break
        normal = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(normal).copy()
        floor = max(diag.max(), 0.0) * 1e-14 + 1e-300
        diag[diag < floor] = floor

        accepted = False
        while lam <= _DAMPING_CAP:
            try:
                delta = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                trial = theta + delta
                f_trial = _predict(family, trial, x, target)
                if f_trial is not None:
                    r_trial = sqrt_w * (y - f_trial)
                    ss_trial = float(r_trial @ r_trial)
                    if np.isfinite(ss_trial) and ss_trial <= ss:
                        accepted = True
                        break
            lam *= config.damping_up
        if not accepted:
            break

        assert ss_trial <= ss, "accepted LM step increased the sum of squares"
        ss_prev = ss
        theta, f, r, ss = trial, f_trial, r_trial, ss_trial
        lam = max(lam * config.damping_down, _DAMPING_FLOOR)

        step_norm = float(np.linalg.norm(delta))
        if step_norm <= config.step_tol * (float(np.linalg.norm(theta)) + config.step_tol):
            converged = True
        elif ss_prev - ss <= config.residual_tol * ss_prev:
            converged = True
        elif ss == 0.0:
            converged = True

    if not math.isfinite(ss):
        return None
    return theta, ss, iterations, converged, f


def _curve_weights(curve, weighting):
    if weighting == "uniform":
        return np.ones_like(curve.y)
    if np.any(curve.y <= 0.0):
        raise PreconditionError("relative weighting requires strictly positive ordinates")
    return 1.0 / curve.y**2


def _min_points(family):
    # accept down to one point below twice the parameter count, i.e. a
    # residual system with at least (p - 1) degrees of freedom
    return 2 * models.family_param_count(family) - 1


# ---------------------------------------------------------------------------
# initialization


def _density_points(curve):
    """Density-like (x, y) points; CCDF curves are differenced."""
    if curve.kind == PDF:
        return curve.x, curve.y
    x = np.sqrt(curve.x[:-1] * curve.x[1:])
    y = np.clip(-np.diff(curve.y), 0.0, None) / np.diff(curve.x)
    return x, y


def _curve_mass(curve):
    if curve.kind == CCDF:
        return float(curve.y[0])
    return float(np.trapezoid(curve.y, curve.x))


def _moments_params(x, y, subfamily, mass):
    total = float(np.trapezoid(y, x))
    if total <= 0.0 or mass <= 0.0:
        # flat or empty stretch: fall back to a broad mid-range guess
        mid = math.sqrt(float(x[0]) * float(x[-1]))
        if subfamily == "gamma":
            return np.array((max(mass, 1e-6), 1.5, mid))
        return np.array((max(mass, 1e-6), math.log(mid), 1.0))
    if subfamily == "gamma":
        mean = float(np.trapezoid(x * y, x)) / total
        var = float(np.trapezoid((x - mean) ** 2 * y, x)) / total
        if var <= 0.0:
            return np.array((mass, 1.5, mean))
        return np.array((mass, mean * mean / var, var / mean))
    log_x = np.log(x)
    mu = float(np.trapezoid(log_x * y, x)) / total
    var = float(np.trapezoid((log_x - mu) ** 2 * y, x)) / total
    sigma = math.sqrt(var) if var > 1e-6 else 1e-3
    return np.array((mass, mu, sigma))


def _smooth5(y):
    padded = np.concatenate((y[:2][::-1], y, y[-2:][::-1]))
    kernel = np.full(5, 0.2)
    return np.convolve(padded, kernel, mode="valid")


def _find_valley(x, y):
    """x of the deepest smoothed minimum between the two highest maxima."""
    s = _smooth5(y)
    peaks = [
        i for i in range(1, s.size - 1) if s[i] >= s[i - 1] and s[i] >= s[i + 1]
    ]
    if len(peaks) < 2:
        return None
    top_two = sorted(sorted(peaks, key=lambda i: s[i], reverse=True)[:2])
    left, right = top_two
    if right - left < 2:
        return None
    interior = np.arange(left + 1, right)
    valley = interior[np.argmin(s[interior])]
    return float(x[valley])


def _median_split(x, y):
    cumulative = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    total = cumulative[-1]
    if total <= 0.0:
        return float(np.sqrt(x[0] * x[-1]))
    idx = int(np.searchsorted(cumulative, 0.5 * total))
    idx = min(max(idx, 1), x.size - 1)
    return float(x[idx])


def _side_refine(x, y, subfamily, start):
    """Short single-start LM polish of a side's moment estimate vector."""
    theta0 = _to_unconstrained(subfamily, start)
    cfg = FitConfig(target=PDF, max_iterations=60, multistart_count=1)
    out = _lm_run(subfamily, theta0, x, y, np.ones_like(y), PDF, cfg)
    if out is None:
        return start
    return _from_unconstrained(subfamily, out[0])


def _valley_split_init(x, y, family):
    subfamily = models.unimodal_counterpart(family)
    split = _find_valley(x, y)
    if split is None or not (x[0] < split < x[-1]):
        split = _median_split(x, y)
    left = x <= split
    right = ~left
    if left.sum() < 3 or right.sum() < 3:
        half = x.size // 2
        left = np.arange(x.size) < half
        right = ~left
    halves = []
    for side in (left, right):
        xs, ys = x[side], y[side]
        mass = float(np.trapezoid(ys, xs)) if xs.size > 1 else float(ys.sum())
        vec = _moments_params(xs, ys, subfamily, max(mass, 1e-9))
        if xs.size >= 4:
            vec = _side_refine(xs, ys, subfamily, vec)
        halves.append(vec)
    return np.concatenate(halves)


def initialize(curve, family, strategy="auto"):
    """Starting ModelSpec for a fit; always returns a valid spec.

    moments: match mean/variance (gamma) or log-mean/log-variance
    (log-normal), amplitude from the curve's mass. valley-split: locate the
    deepest smoothed minimum between the two highest peaks, fit each side
    unimodally, concatenate; falls back to a median split when no interior
    valley exists. Every string strategy resolves by family alone:
    valley-split for bimodal families, moments for unimodal ones.
    """
    if isinstance(strategy, models.ModelSpec):
        if strategy.family != family:
            raise PreconditionError(
                f"explicit init is for family {strategy.family!r}, fitting {family!r}"
            )
        return strategy
    x, y = _density_points(curve)
    if models.is_bimodal(family):
        vec = _valley_split_init(x, y, family)
    else:
        vec = _moments_params(x, y, family, _curve_mass(curve))
    return models.param_unpack(family, vec)


# ---------------------------------------------------------------------------
# the public fit entry points


def _strategy_name(strategy):
    return "explicit" if isinstance(strategy, models.ModelSpec) else strategy


def fit(curve, family, config=None):
    """Fit one family to an empirical curve; best of a jittered multistart."""
    config = config or FitConfig()
    if family not in models.FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    if curve.kind != config.target:
        raise PreconditionError(
            f"curve kind {curve.kind!r} does not match fit target {config.target!r}"
        )
    n_par = models.family_param_count(family)
    if len(curve) < _min_points(family):
        raise PreconditionError(
            f"{family} needs at least {_min_points(family)} points, "
            f"curve has {len(curve)}"
        )
    weights = _curve_weights(curve, config.weighting)
    init = initialize(curve, family, config.init_strategy)
    theta0 = _to_unconstrained(family, models.param_pack(init))

    rng = np.random.default_rng(config.seed)
    starts = [theta0]
    for _ in range(config.multistart_count - 1):
        starts.append(theta0 + _JITTER_SIGMA * rng.standard_normal(n_par))

    runs = []
    for theta_start in starts:
        out = _lm_run(family, theta_start, curve.x, curve.y, weights, config.target, config)
        if out is not None:
            runs.append(out)
    if not runs:
        raise FitFailureError(
            f"all {config.multistart_count} starts diverged fitting {family} "
            f"({config.target}, {len(curve)} points, init {init.params!r})"
        )

    def rank(run):
        theta, ss, iterations, _, _ = run
        vec = _from_unconstrained(family, theta)
        return (ss, iterations, tuple(vec))

    theta, ss, iterations, converged, f = min(runs, key=rank)
    model = models.param_unpack(family, _from_unconstrained(family, theta))
    ss_tot = _weighted_ss_tot(curve.y, weights)
    return FitResult(
        model=model,
        r_squared=1.0 - ss / ss_tot,
        ss_res=ss,
        ss_tot=ss_tot,
        residuals=curve.y - f,
        iterations=iterations,
        converged=converged,
        init_used=init,
        init_strategy=_strategy_name(config.init_strategy),
    )


def _weighted_ss_tot(y, weights):
    mean = float(np.sum(weights * y) / np.sum(weights))
    ss_tot = float(np.sum(weights * (y - mean) ** 2))
    if ss_tot == 0.0:
        raise DomainError("observed values are all equal; R^2 undefined")
    return ss_tot


def _embedding(unimodal_model, second_share):
    """Bimodal spec: the unimodal component plus a second bump shifted by +1
    in log income, with second_share times the first one's amplitude."""
    family = models.bimodal_counterpart(unimodal_model.family)
    first = models.param_pack(unimodal_model)
    if unimodal_model.family == "gamma":
        second = first * (second_share, 1.0, math.e)
    else:
        second = first * (second_share, 1.0, 1.0) + (0.0, 1.0, 0.0)
    return models.param_unpack(family, np.concatenate((first, second)))


def refit_nested(curve, unimodal_result, config=None):
    """Upgrade a converged unimodal fit to its two-component family.

    Seeded at the unimodal optimum plus a small second bump shifted by +1 in
    log income. The returned ss_res never exceeds the unimodal one (beyond
    1e-12): if the optimizer fails to improve, the degenerate embedding with
    a zero-amplitude second component is returned instead.
    """
    config = config or FitConfig()
    uni_family = unimodal_result.model.family
    if models.is_bimodal(uni_family):
        raise PreconditionError("refit_nested expects a unimodal fit result")
    family = models.bimodal_counterpart(uni_family)

    weights = _curve_weights(curve, config.weighting)
    uni_vec = models.param_pack(unimodal_result.model)
    uni_pred = models.evaluate(uni_family, uni_vec, curve.x, config.target)
    uni_ss = float(np.sum(weights * (curve.y - uni_pred) ** 2))

    seed_spec = _embedding(unimodal_result.model, 0.05)
    attempt = fit(curve, family, replace(config, init_strategy=seed_spec))
    if attempt.ss_res <= uni_ss + 1e-12:
        return attempt

    embedded = _embedding(unimodal_result.model, 0.0)
    ss_tot = _weighted_ss_tot(curve.y, weights)
    return FitResult(
        model=embedded,
        r_squared=1.0 - uni_ss / ss_tot,
        ss_res=uni_ss,
        ss_tot=ss_tot,
        residuals=curve.y - uni_pred,
        iterations=attempt.iterations,
        converged=unimodal_result.converged,
        init_used=seed_spec,
        init_strategy="explicit",
    )


def format_fit_result(result):
    """Key-value rendering of a fit result, model parameters first."""
    lines = [models.format_model(result.model).rstrip("\n")]
    lines.append(f"r_squared = {result.r_squared!r}")
    lines.append(f"ss_res = {result.ss_res!r}")
    lines.append(f"ss_tot = {result.ss_tot!r}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {'true' if result.converged else 'false'}")
    lines.append(f"init_strategy = {result.init_strategy}")
    return "\n".join(lines) + "\n"
