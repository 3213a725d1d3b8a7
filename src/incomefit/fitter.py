"""Nonlinear least-squares fitting of model families to empirical curves.

The engine is a damped Gauss-Newton (Levenberg-Marquardt) loop over an
unconstrained parameter space: amplitudes, shapes, scales and sigmas live as
their logarithms, log-normal locations stay linear. Its damping follows
Nielsen's gain-ratio rule, which lowers it by up to 3x after a step that
cuts the sum of squares as the linear model predicts, and raises it by a
doubling factor after each rejected step. Every fit runs a jittered
multistart and keeps the best sum of squares; goodness of fit is the ordinary
coefficient of determination on the curve ordinates.

The starts of a multistart run in lockstep as one batch: each round scores
one proposal of every running start in a single call of
models.evaluate_columns on their (k, p) stack, the fitter's one entry into
the model core, which gives the ordinates and the Jacobian columns. Each
start keeps its own damping, iteration count and stop, and every batched
step is bit for bit the one-start computation. A running start that comes
within _MERGE_RADIUS = 1e-2 (max-norm in the unconstrained coordinates) of
another start, running or finished, whose sum of squares is lower (or
equal, at a lower start index) is merged: it leaves the batch with no
result. Every start that is not merged ends bit for bit as it does running
alone. The arrays are numpy stacks, one row per running start; each start's
scalars (sum of squares, damping, iteration count) are Python floats and
ints. Only the gain ratio's (2 rho - 1)^3 stays in numpy, whose power may
differ from Python's in the last bit.
"""

import math
import numbers
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

_DAMPING_INIT = 1e-3
_DAMPING_CAP = 1e15
_DAMPING_FLOOR = 1e-15
_JITTER_SIGMA = 0.3
_STEP_TOL = 1e-10  # converged when |step| <= tol * (|theta| + tol)
_RESIDUAL_TOL = 1e-12  # converged when a step cuts SS by at most tol * SS
_MERGE_RADIUS = 1e-2  # max-norm distance in theta within which starts merge
_MERGED = "merged"  # _lm_run's result for a merged start

# models.LOG_SLOTS marks the slots fitted as logarithms. Exclusive lower
# bounds: shapes, scales and sigmas must stay > 0, while an amplitude (slot 0
# of a component) may underflow to 0, a zero-mass component
_LOWER_BOUNDS = {family: np.where(logs & (np.arange(logs.size) % 3 > 0), 0.0, -np.inf)
                 for family, logs in models.LOG_SLOTS.items()}


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults are sensible for income-scale curves."""

    target: str = PDF
    max_iterations: int = 500
    weighting: str = "uniform"
    multistart_count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.target not in (PDF, CCDF):
            raise PreconditionError(f"target must be {PDF!r} or {CCDF!r}")
        for name in ("max_iterations", "multistart_count", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise PreconditionError(f"{name} must be an integer")
        if self.max_iterations < 1:
            raise PreconditionError("max_iterations must be >= 1")
        if self.multistart_count < 1:
            raise PreconditionError("multistart_count must be >= 1")
        if self.weighting not in ("uniform", "relative"):
            raise PreconditionError("weighting must be 'uniform' or 'relative'")
        if self.seed < 0:
            raise PreconditionError("seed must be >= 0")


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
    # the multistart's work: model calls, the vectors they scored, merged starts
    model_calls: int
    model_rows: int
    merged_starts: int


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
    logs = models.LOG_SLOTS[family]
    theta[logs] = np.log(np.maximum(theta[logs], 1e-300))
    return theta


def _from_unconstrained(family, theta):
    with np.errstate(over="ignore", under="ignore"):
        return np.where(models.LOG_SLOTS[family], np.exp(theta), theta)


def _predict(family, theta, x, target):
    """Model ordinates, their columns and an acceptance mask for a (k, p)
    stack of unconstrained vectors, one row per start.

    One models.evaluate_columns call gives the ordinates, bit for bit those
    of models.pdf or models.ccdf on each row's model, and their derivatives
    in theta's coordinates, for every row at once. The exponential map keeps
    amplitudes, shapes, scales and sigmas >= 0. A row is rejected (its mask
    entry is False, so the optimizer treats it as an infinitely bad step)
    when a parameter is not finite, a shape, scale or sigma underflows to 0,
    a kernel fails on it, or one of its ordinates or columns is not finite.
    An amplitude may underflow: a zero-mass component is valid. A kernel
    error fails the whole stacked call, so the rows are then evaluated one
    by one, as one-row stacks, and only the failing rows are rejected.
    """
    k, p = theta.shape
    with np.errstate(all="ignore"):
        vec = np.where(models.LOG_SLOTS[family], np.exp(theta), theta)
        # finite, and > 0 in the shape, scale and sigma slots, in one pass
        ok = ((vec > _LOWER_BOUNDS[family]) & (vec < np.inf)).all(axis=1)
        if not ok.all():
            # a rejected row runs with zero mass, so no kernel sees it
            vec[~ok, ::3] = 0.0
        try:
            f, cols = models.evaluate_columns(family, vec, x, target)
        except IncomeFitError:
            f, cols = np.full((k, x.size), np.nan), np.full((k, x.size, p), np.nan)
            for i in np.flatnonzero(ok):
                try:
                    f[i], cols[i] = models.evaluate_columns(family, vec[i:i + 1], x, target)
                except IncomeFitError:
                    pass
    cols_ok = np.isfinite(cols.reshape(k, -1)).all(axis=1)
    return f, cols, ok & np.isfinite(f).all(axis=1) & cols_ok


def _sum_squares(r):
    """r . r of each row: np.vecdot runs numpy's 1-D dot on each row, so bit
    for bit the dot of each row alone, which einsum is not."""
    return np.vecdot(r, r)


def _solve(a, b):
    """Solutions of a (k, p, p) stack of systems; a NaN row for a singular one.
    A batched solve fails as a whole when any matrix is singular, so the
    systems are then solved one by one."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


# ---------------------------------------------------------------------------
# the Levenberg-Marquardt core


@np.errstate(over="ignore", invalid="ignore")
def _lm_run(family, starts, x, y, weights, target, max_iterations):
    """Up to max_iterations damped Gauss-Newton steps from each row of the
    (k, p) stack of starts, all run in lockstep.

    Each round makes one proposal for every running start, at that start's
    own damping, and scores them all in one model call. The damping follows
    Nielsen's gain-ratio rule (Madsen, Nielsen and Tingleff, "Methods for
    non-linear least squares problems", 2004, Alg. 3.16): an accepted step
    scales it by max(1/3, 1 - (2 rho - 1)^3), where rho is the actual cut in
    the sum of squares over the cut the linear model predicts, and resets
    the factor nu to 2; a rejected one multiplies it by nu and doubles nu.
    A start keeps its own damping, nu, iteration count and stop, so it ends
    exactly as it would running alone: when it converges, reaches
    max_iterations, or its damping passes _DAMPING_CAP; it then leaves the
    stack. After a round that accepts a step, a running start is merged (it
    leaves with no result) when its theta lies within _MERGE_RADIUS, in the
    max-norm, of another start's latest theta, running or finished, whose ss
    is lower, or equal at a lower index: the clustering multistart of Rinnooy
    Kan and Timmer (Math. Programming 39, 1987). Merging only removes rows.
    Returns one (theta, ss, iterations, converged, f) tuple per start, None
    for a diverged and _MERGED for a merged start, then the number of
    _predict calls and of the parameter vectors they scored.

    Only the arrays are numpy; each start's ss, lam, nu, iterations and row
    in starts are Python scalars, tested start by start, and only the cube
    of 2 rho - 1 is a numpy power, for bit identity. Accepted rows are copied
    in place; a stopped start's result views arrays no later round writes.
    """
    sqrt_w = np.sqrt(weights)
    theta = np.array(starts, dtype=float)
    k, p = theta.shape
    f, cols, ok = _predict(family, theta, x, target)
    n_calls, n_rows = 1, k
    r = sqrt_w * (y - f)
    # a start whose first evaluation is rejected has diverged: its NaN sum of
    # squares stops it at once, with no result
    ss = [s if good else math.nan for s, good in zip(_sum_squares(r).tolist(), ok.tolist())]
    lam, nu, iterations = [_DAMPING_INIT] * k, [2.0] * k, [0] * k
    converged = [s == 0.0 for s in ss]
    stop = [c or math.isnan(s) for c, s in zip(converged, ss)]
    # a start begins a new iteration, with new normal equations, after an
    # accepted proposal; after a rejected one it retries at a higher damping
    begins = [True] * k
    normal, grad, scale = np.empty((k, p, p)), np.empty((k, p)), np.empty((k, p))
    index = list(range(k))  # the running starts' rows in starts
    results = [None] * k
    # every start's latest theta and ss, by its row in starts; a merged or
    # diverged start's ss is NaN, so no start merges into it
    last, last_ss = theta.copy(), list(ss)

    while True:
        if any(stop):
            for j, halt in enumerate(stop):
                if halt and math.isfinite(ss[j]):
                    results[index[j]] = (theta[j], ss[j], iterations[j], converged[j], f[j])
            keep = [j for j, halt in enumerate(stop) if not halt]
            if not keep:
                return results, n_calls, n_rows
            theta, f, cols, r, normal, grad, scale = (
                a[keep] for a in (theta, f, cols, r, normal, grad, scale))
            ss, lam, nu, iterations, begins, index = (
                [a[j] for j in keep] for a in (ss, lam, nu, iterations, begins, index))

        if any(begins):
            # every start's normal equations at its current point: a
            # retrying start's come out the same again, bit for bit
            iterations = [i + b for i, b in zip(iterations, begins)]
            jac = sqrt_w[:, None] * cols
            jac_t = jac.transpose(0, 2, 1)
            normal = jac_t @ jac
            grad = (jac_t @ r[:, :, None])[:, :, 0]
            diag = normal.diagonal(axis1=1, axis2=2)
            floor = np.maximum(diag.max(axis=1, keepdims=True), 0.0) * 1e-14 + 1e-300
            scale = np.maximum(diag, floor)
        # the Marquardt term lam D, added to the diagonal of a copy
        lam_scale = np.array(lam)[:, None] * scale
        damped = normal.copy()
        damped.reshape(len(damped), p * p)[:, :: p + 1] += lam_scale
        delta = _solve(damped, grad)
        # a step that is not finite is rejected unscored, as its NaN trial is
        if not np.isfinite(delta).all():
            delta[~np.isfinite(delta).all(axis=1)] = np.nan

        trial = theta + delta
        f_trial, cols_trial, ok = _predict(family, trial, x, target)
        n_calls, n_rows = n_calls + 1, n_rows + len(trial)
        r_trial = sqrt_w * (y - f_trial)
        ss_trial = _sum_squares(r_trial).tolist()
        begins = [good and math.isfinite(t) and t <= s
                  for good, t, s in zip(ok.tolist(), ss_trial, ss)]
        if any(begins):
            step_ss, trial_ss = _sum_squares(delta).tolist(), _sum_squares(trial).tolist()
            # 2 rho - 1 for the ratio rho of the actual cut to the linear
            # model's cut delta . (J^T r + lam D delta); a predicted cut that
            # is not finite and positive counts as rho = 1
            predicted = np.vecdot(delta, grad + lam_scale * delta).tolist()
            twos = [2.0 * ((s - t) / d) - 1.0 if b and 0.0 < d < math.inf else 1.0
                    for b, s, t, d in zip(begins, ss, ss_trial, predicted)]
            cubes = (np.array(twos) ** 3).tolist()
        stop, converged = [], [False] * len(begins)
        for j, accepted in enumerate(begins):
            if accepted:
                s, t = ss[j], ss_trial[j]
                assert t <= s, "accepted LM step increased SS"
                converged[j] = (
                    math.sqrt(step_ss[j]) <= _STEP_TOL * (math.sqrt(trial_ss[j]) + _STEP_TOL)
                    or s - t <= _RESIDUAL_TOL * s or t == 0.0)
                lam[j] = max(lam[j] * max(1.0 / 3.0, 1.0 - cubes[j]), _DAMPING_FLOOR)
                nu[j], ss[j] = 2.0, t
            else:
                lam[j], nu[j] = lam[j] * nu[j], 2.0 * nu[j]
            stop.append(converged[j] or (accepted and iterations[j] >= max_iterations)
                        or lam[j] > _DAMPING_CAP)
        if all(begins):
            theta, f, cols, r = trial, f_trial, cols_trial, r_trial
        elif any(begins):
            rows = np.array(begins)[:, None]
            for a, b in ((theta, trial), (f, f_trial), (r, r_trial)):
                np.copyto(a, b, where=rows)
            np.copyto(cols, cols_trial, where=rows[:, :, None])
        if k == 1 or not any(begins):
            continue
        # the merge check, every running row against every start's latest
        # theta; a row is at distance 0 from itself, and a squared distance
        # above 2 p R^2 rules out a max-norm distance <= R
        last[index] = theta
        for j, i in enumerate(index):
            last_ss[i] = ss[j]
        d = last - theta[:, None]
        if np.count_nonzero(np.vecdot(d, d) <= 2 * p * _MERGE_RADIUS**2) == len(theta):
            continue
        for j, m in zip(*np.nonzero(np.abs(d).max(axis=2) <= _MERGE_RADIUS)):
            i = index[j]
            if (last_ss[m], m) < (last_ss[i], i) and not stop[j]:
                stop[j], results[i] = True, _MERGED
                ss[j] = last[i] = last_ss[i] = math.nan


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
        # relative: one nonzero bin leaves a rounding residue, not 0
        if var <= 1e-12 * mean * mean:
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
    (out,), _, _ = _lm_run(subfamily, theta0[None], x, y, np.ones_like(y), PDF, 60)
    if out is None:
        return start
    return _from_unconstrained(subfamily, out[0])


def _valley_split_init(x, y, family):
    subfamily = models.unimodal_counterpart(family)
    split = _find_valley(x, y)
    if split is None:
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


def initialize(curve, family):
    """Starting ModelSpec for a fit. A bimodal family needs 2 density points:
    a CCDF curve has one fewer of them than it has points.

    Picks by family. Unimodal families match moments: mean/variance (gamma)
    or log-mean/log-variance (log-normal), amplitude from the curve's mass.
    Bimodal families split at the valley: locate the deepest smoothed
    minimum between the two highest peaks, fit each side unimodally,
    concatenate; falls back to a median split when no interior valley exists.
    """
    x, y = _density_points(curve)
    if models.is_bimodal(family):
        if x.size < 2:
            raise PreconditionError(f"{family} needs at least 2 density points, got {x.size}")
        vec = _valley_split_init(x, y, family)
    else:
        vec = _moments_params(x, y, family, _curve_mass(curve))
    return models.param_unpack(family, vec)


# ---------------------------------------------------------------------------
# the public fit entry points


def fit(curve, family, config=None, init=None):
    """Fit one family to an empirical curve; best of a jittered multistart.

    init is the starting ModelSpec, which must be of the fitted family;
    None starts from initialize(curve, family).
    """
    config = config or FitConfig()
    if family not in models.FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    if curve.kind != config.target:
        raise PreconditionError(
            f"curve kind {curve.kind!r} does not match fit target {config.target!r}"
        )
    if len(curve) < _min_points(family):
        raise PreconditionError(
            f"{family} needs at least {_min_points(family)} points, "
            f"curve has {len(curve)}"
        )
    weights = _curve_weights(curve, config.weighting)
    if init is None:
        init = initialize(curve, family)
    elif init.family != family:
        raise PreconditionError(
            f"explicit init is for family {init.family!r}, fitting {family!r}"
        )
    theta0 = _to_unconstrained(family, models.param_pack(init))

    rng = np.random.default_rng(config.seed)  # a block fills row by row, as a draw per start
    jitter = _JITTER_SIGMA * rng.standard_normal((config.multistart_count - 1, theta0.size))
    starts = np.vstack((theta0, theta0 + jitter))

    outs, calls, rows = _lm_run(
        family, starts, curve.x, curve.y, weights, curve.kind, config.max_iterations
    )
    runs = [out for out in outs if out is not None and out is not _MERGED]
    if not runs:
        raise FitFailureError(
            f"all {config.multistart_count} starts diverged fitting {family} "
            f"({curve.kind}, {len(curve)} points, init {init.params!r})"
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
        model_calls=calls,
        model_rows=rows,
        merged_starts=outs.count(_MERGED),
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

    Runs fit under the same config with init set to the unimodal optimum
    plus a small second bump shifted by +1 in log income. The returned
    ss_res never exceeds the unimodal one (beyond 1e-12): if the optimizer
    fails to improve, the degenerate embedding with a zero-amplitude second
    component is returned instead.
    """
    config = config or FitConfig()
    uni_family = unimodal_result.model.family
    if models.is_bimodal(uni_family):
        raise PreconditionError("refit_nested expects a unimodal fit result")
    family = models.bimodal_counterpart(uni_family)

    weights = _curve_weights(curve, config.weighting)
    evaluate = models.pdf if curve.kind == PDF else models.ccdf
    uni_pred = evaluate(unimodal_result.model, curve.x)
    uni_ss = float(np.sum(weights * (curve.y - uni_pred) ** 2))

    seed_spec = _embedding(unimodal_result.model, 0.05)
    attempt = fit(curve, family, config, init=seed_spec)
    if attempt.ss_res <= uni_ss + 1e-12:
        return attempt

    # the attempt's ss_tot, iterations, init_used and work counts carry over
    return replace(
        attempt,
        model=_embedding(unimodal_result.model, 0.0),
        r_squared=1.0 - uni_ss / attempt.ss_tot,
        ss_res=uni_ss,
        residuals=curve.y - uni_pred,
        converged=unimodal_result.converged,
    )


def format_fit_result(result):
    """Key-value rendering of a fit result, model parameters first."""
    lines = [models.format_model(result.model).rstrip("\n")]
    lines.append(f"r_squared = {result.r_squared!r}")
    lines.append(f"ss_res = {result.ss_res!r}")
    lines.append(f"ss_tot = {result.ss_tot!r}")
    lines.append(f"iterations = {result.iterations}")
    lines.append(f"converged = {'true' if result.converged else 'false'}")
    return "\n".join(lines) + "\n"
