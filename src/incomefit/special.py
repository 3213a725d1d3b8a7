"""Special-function kernel: gamma, regularized incomplete gamma, erf, normal CDF.

Everything the model CDFs/CCDFs need, with double-precision accuracy.
Log-gamma, erf and the normal CDF apply the math module's lgamma, erf and
erfc element by element. The regularized incomplete gamma is evaluated here:
its series and continued fraction run element by element on Python floats,
each element stopping at its own convergence, while the prefactor
exp(-x + a log x - log Gamma(a)) is computed in numpy. numpy's exp differs
from math.exp in the last bit on a few percent of arguments, so the numpy
prefactor keeps P and Q bit-identical to the array loops they replaced.
All functions accept scalars or numpy arrays and are pure and reentrant.
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


def _series_or_fraction(a, x, budget):
    """The part of P or Q that needs iterating, for one (a, x) pair of floats.

    Below the regime split (x < a + 1) this is the series sum S with
    P = S * prefix; above it the modified Lentz continued fraction H with
    Q = H * prefix, where prefix = exp(-x + a log x - log Gamma(a)). Each
    pair stops at its own convergence; a NaN stops it, as a failed
    comparison does.
    """
    tol = budget.abs_tol * 1e-2
    if x < a + 1.0:
        if x == 0.0:
            return 0.0
        term = total = 1.0 / a
        denom = a
        for _ in range(budget.max_series_terms):
            denom += 1.0
            term = term * x / denom
            total += term
            if not abs(term) >= abs(total) * tol:
                return total
        raise ConvergenceError(
            "incomplete gamma series did not converge", budget.max_series_terms
        )
    b = x + 1.0 - a
    c = 1.0 / _TINY
    # b is 0 only where x + 1 rounds to a (a >= 2**53); IEEE 1/0 is inf
    d = 1.0 / b if b else math.inf
    h = d
    for i in range(1, budget.max_cf_iterations + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if not abs(delta - 1.0) >= tol:
            return h
    raise ConvergenceError(
        "incomplete gamma continued fraction did not converge",
        budget.max_cf_iterations,
    )


def _regularized_gamma(a, x, budget, upper):
    """Q(a, x) if upper else P(a, x), each computed directly in its own
    regime (Q above the split, P below) and as 1 minus the other elsewhere.
    """
    a_arr = _as_array(a, "a", require="positive")
    x_arr = _as_array(x, "x", require="nonnegative")
    a_b, x_b = np.broadcast_arrays(a_arr, x_arr)
    pairs = zip(a_b.ravel().tolist(), x_b.ravel().tolist())
    sums = np.reshape([_series_or_fraction(u, v, budget) for u, v in pairs], x_b.shape)
    with np.errstate(divide="ignore"):  # log(0) at x = 0, whose sum is 0
        log_prefix = -x_b + a_b * np.log(x_b) - _elementwise(math.lgamma, a_b)
    part = sums * np.exp(log_prefix)
    direct = (x_b >= a_b + 1.0) if upper else (x_b < a_b + 1.0)
    return np.where(direct, part, 1.0 - part)


def reg_lower_incomplete_gamma(a, x, _budget=None):
    """Regularized lower incomplete gamma P(a, x) in [0, 1].

    Series expansion for x < a + 1, continued fraction for x >= a + 1.
    The _budget keyword is a test hook; production code uses the module
    default.
    """
    budget = DEFAULT_BUDGET if _budget is None else _budget
    return _maybe_scalar(_regularized_gamma(a, x, budget, upper=False), a, x)


def reg_upper_incomplete_gamma(a, x, _budget=None):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction in the tail regime, so
    small tail masses keep full relative structure instead of cancelling.
    """
    budget = DEFAULT_BUDGET if _budget is None else _budget
    return _maybe_scalar(_regularized_gamma(a, x, budget, upper=True), a, x)


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
