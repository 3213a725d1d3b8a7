"""Special-function kernel: gamma, regularized incomplete gamma, erf, normal CDF.

Everything the model CDFs/CCDFs need, with double-precision accuracy.
Log-gamma, erf and the normal CDF apply the math module's lgamma, erf and
erfc element by element; the regularized incomplete gamma is evaluated here
by series and continued fraction. All functions accept scalars or numpy
arrays and are pure and reentrant.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowRangeError

__all__ = [
    "PrecisionBudget",
    "DEFAULT_BUDGET",
    "gamma_fn",
    "log_gamma",
    "reg_lower_incomplete_gamma",
    "reg_upper_incomplete_gamma",
    "erf_fn",
    "std_normal_cdf",
]


@dataclass(frozen=True)
class PrecisionBudget:
    """Accuracy target and iteration caps for the iterative kernels.

    abs_tol is the target absolute error of function values; the caps bound
    the series / continued-fraction loops of the incomplete gamma.
    """

    abs_tol: float = 1e-12
    max_series_terms: int = 512
    max_cf_iterations: int = 512

    def __post_init__(self):
        if not 0.0 < self.abs_tol <= 1e-8:
            raise DomainError(f"abs_tol must be in (0, 1e-8], got {self.abs_tol}")
        if self.max_series_terms < 100:
            raise DomainError("max_series_terms must be >= 100")
        if self.max_cf_iterations < 100:
            raise DomainError("max_cf_iterations must be >= 100")


# Module-level budget; per-call override (_budget) exists for tests only.
DEFAULT_BUDGET = PrecisionBudget()

# exp(log_gamma) overflows the 64-bit float range just above this argument.
GAMMA_OVERFLOW_THRESHOLD = 171.62

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min / sys.float_info.epsilon
_SQRT2 = math.sqrt(2.0)


def _as_array(x, name, require=None):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if require == "positive" and not (arr > 0.0).all():
        raise DomainError(f"{name} must be > 0")
    if require == "nonnegative" and not (arr >= 0.0).all():
        raise DomainError(f"{name} must be >= 0")
    return arr


def _maybe_scalar(value, *inputs):
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(np.asarray(value).item())
    return value


def _elementwise(fn, arr):
    """fn applied to each element of a float array, keeping its shape; a
    0-d array gives a float."""
    if arr.ndim == 0:
        return fn(float(arr))
    return np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def _phi(z):
    return 0.5 * math.erfc(-z / _SQRT2)


def log_gamma(a):
    """Natural log of the gamma function for a > 0."""
    arr = _as_array(a, "a", require="positive")
    return _maybe_scalar(_elementwise(math.lgamma, arr), a)


def gamma_fn(a):
    """Gamma function for a > 0.

    Raises OverflowRangeError instead of returning inf once the result
    exceeds the 64-bit float range (a above ~171.62).
    """
    lg = np.asarray(log_gamma(a))
    if np.any(lg >= _LOG_FLOAT_MAX):
        raise OverflowRangeError(
            f"gamma_fn overflows for a > {GAMMA_OVERFLOW_THRESHOLD}"
        )
    return _maybe_scalar(np.exp(lg), a)


def _lower_series(a, x, budget):
    """Regularized lower incomplete gamma by series; requires x < a + 1."""
    term = 1.0 / a
    total = term.copy()
    denom = a.copy()
    active = x > 0.0
    term_tol = budget.abs_tol * 1e-2
    for n in range(1, budget.max_series_terms + 1):
        denom = np.where(active, denom + 1.0, denom)
        term = np.where(active, term * x / denom, term)
        total = np.where(active, total + term, total)
        active = active & (np.abs(term) >= np.abs(total) * term_tol)
        if not active.any():
            break
    else:
        raise ConvergenceError(
            "incomplete gamma series did not converge", budget.max_series_terms
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prefix = -x + a * np.log(x) - log_gamma(a)
    p = np.where(x > 0.0, total * np.exp(log_prefix), 0.0)
    return p


def _upper_continued_fraction(a, x, budget):
    """Regularized upper incomplete gamma by modified Lentz CF; requires x >= a + 1."""
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    tol = budget.abs_tol * 1e-2
    for i in range(1, budget.max_cf_iterations + 1):
        an = -i * (i - a)
        b = np.where(active, b + 2.0, b)
        d_new = an * d + b
        d_new = np.where(np.abs(d_new) < _TINY, _TINY, d_new)
        c_new = b + an / c
        c_new = np.where(np.abs(c_new) < _TINY, _TINY, c_new)
        d_new = 1.0 / d_new
        delta = d_new * c_new
        h = np.where(active, h * delta, h)
        d = np.where(active, d_new, d)
        c = np.where(active, c_new, c)
        active = active & (np.abs(delta - 1.0) >= tol)
        if not active.any():
            break
    else:
        raise ConvergenceError(
            "incomplete gamma continued fraction did not converge",
            budget.max_cf_iterations,
        )
    log_prefix = -x + a * np.log(x) - log_gamma(a)
    return np.exp(log_prefix) * h


def _regularized_gamma_pair(a, x, budget):
    """(P, Q) with P computed directly below the regime split and Q above it."""
    a_arr = _as_array(a, "a", require="positive")
    x_arr = _as_array(x, "x", require="nonnegative")
    a_b, x_b = np.broadcast_arrays(a_arr, x_arr)
    a_b = np.ascontiguousarray(a_b, dtype=float)
    x_b = np.ascontiguousarray(x_b, dtype=float)

    p = np.empty_like(x_b)
    q = np.empty_like(x_b)
    series = x_b < a_b + 1.0
    if series.any():
        ps = _lower_series(a_b[series], x_b[series], budget)
        p[series] = ps
        q[series] = 1.0 - ps
    tail = ~series
    if tail.any():
        qt = _upper_continued_fraction(a_b[tail], x_b[tail], budget)
        q[tail] = qt
        p[tail] = 1.0 - qt
    return p, q


def reg_lower_incomplete_gamma(a, x, _budget=None):
    """Regularized lower incomplete gamma P(a, x) in [0, 1].

    Series expansion for x < a + 1, continued fraction for x >= a + 1.
    The _budget keyword is a test hook; production code uses the module
    default.
    """
    budget = DEFAULT_BUDGET if _budget is None else _budget
    p, _ = _regularized_gamma_pair(a, x, budget)
    return _maybe_scalar(p, a, x)


def reg_upper_incomplete_gamma(a, x, _budget=None):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction in the tail regime, so
    small tail masses keep full relative structure instead of cancelling.
    """
    budget = DEFAULT_BUDGET if _budget is None else _budget
    _, q = _regularized_gamma_pair(a, x, budget)
    return _maybe_scalar(q, a, x)


def erf_fn(x):
    """Error function."""
    arr = _as_array(x, "x")
    return _maybe_scalar(_elementwise(math.erf, arr), x)


def std_normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z / sqrt(2)) / 2.

    The complementary error function keeps the negative tail's relative
    precision instead of cancelling against 1.
    """
    arr = _as_array(z, "z")
    return _maybe_scalar(_elementwise(_phi, arr), z)
