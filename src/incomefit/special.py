"""Special-function kernel: gamma, digamma, regularized incomplete gamma, erf,
normal CDF.

Everything the model CDFs/CCDFs need, with double-precision accuracy.
Gamma, log-gamma, erf and the normal CDF apply the math module's gamma,
lgamma, erf and erfc element by element. The digamma function, which the
math module lacks, shifts its argument up to a >= 10 by the recurrence
psi(a) = psi(a + 1) - 1/a and sums the asymptotic series there. The
regularized incomplete gamma is evaluated here: its series and continued
fraction run element by element on Python floats, each element stopping at
its own convergence (relative tolerance 1e-14) or raising ConvergenceError
after 512 terms, while the prefactor exp(-x + a log x - log Gamma(a)) is
computed with numpy's log and exp, on the scalar for a pair of floats.
numpy's exp differs from math.exp in the last bit on a few percent of
arguments, so math.exp there would move the last bits of P and Q, and with
them the fitted gamma parameters; numpy's keeps both fixed.
All functions accept scalars or numpy arrays and are pure and reentrant; a
scalar or 0-d input gives a float. Each function has one float entry: a
Python or numpy float inside its domain, tested by a single chained
comparison, goes straight to the math and builds no array. Anything else,
an invalid float included, takes the array path, which raises the errors;
a float gives the bits of a 0-d or one-element array.
"""

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowRangeError

__all__ = [
    "gamma_fn",
    "log_gamma",
    "digamma",
    "reg_lower_incomplete_gamma",
    "reg_upper_incomplete_gamma",
    "erf_fn",
    "std_normal_cdf",
]

# exp(log_gamma) overflows the 64-bit float range just above this argument.
GAMMA_OVERFLOW_THRESHOLD = 171.62
# log_gamma itself overflows it just above this one.
LOG_GAMMA_OVERFLOW_THRESHOLD = 2.5599833278516383e305

# the incomplete gamma's series and continued fraction stop once a term
# changes the result by less than _TOL relative, or raise after _MAX_TERMS
_TOL = 1e-14
_MAX_TERMS = 512

_TINY = sys.float_info.min / sys.float_info.epsilon
_SQRT2 = math.sqrt(2.0)
_INF = math.inf


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


def _elementwise(fn, x, name, require=None):
    """The array path of a one-argument kernel: the math function fn applied
    to each element of the validated input x, keeping its shape; a 0-d
    input gives a float."""
    arr = _as_array(x, name, require)
    if arr.ndim == 0:
        return fn(float(arr))
    return np.array([fn(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def _phi(z):
    return 0.5 * math.erfc(-z / _SQRT2)


def _lgamma(a):
    try:
        return math.lgamma(a)
    except OverflowError:
        raise OverflowRangeError(
            f"log_gamma overflows for a > {LOG_GAMMA_OVERFLOW_THRESHOLD!r}"
        ) from None


def log_gamma(a):
    """Natural log of the gamma function for a > 0; OverflowRangeError
    once it leaves the 64-bit float range (a above ~2.56e305)."""
    # a float above the threshold is left to the array path, which raises
    if isinstance(a, float) and 0.0 < a <= LOG_GAMMA_OVERFLOW_THRESHOLD:
        return math.lgamma(a)
    return _elementwise(_lgamma, a, "a", require="positive")


def _digamma(a):
    shift = 0.0
    while a < 10.0:
        shift += 1.0 / a
        a += 1.0
    # psi(a) ~ ln a - 1/(2a) - sum_k B_2k / (2k a^2k), k = 1..7, in Horner
    # form; at a >= 10 the first omitted term is below 5e-17
    s = 1.0 / (a * a)
    tail = s * (1 / 12 - s * (1 / 120 - s * (1 / 252 - s * (
        1 / 240 - s * (1 / 132 - s * (691 / 32760 - s / 12))))))
    return math.log(a) - 0.5 / a - tail - shift


def digamma(a):
    """Digamma function psi(a) = d ln Gamma(a) / da for a > 0."""
    if isinstance(a, float) and 0.0 < a < _INF:
        # a numpy float would run the recurrence in numpy scalars, whose
        # 1/a warns on overflow where a Python float's does not
        return _digamma(float(a))
    return _elementwise(_digamma, a, "a", require="positive")


def gamma_fn(a):
    """Gamma function for a > 0.

    Raises OverflowRangeError instead of returning inf once the result
    exceeds the 64-bit float range (a above ~171.62).
    """
    try:
        if isinstance(a, float) and 0.0 < a < _INF:
            return math.gamma(a)
        return _elementwise(math.gamma, a, "a", require="positive")
    except OverflowError:
        raise OverflowRangeError(
            f"gamma_fn overflows for a > {GAMMA_OVERFLOW_THRESHOLD}"
        ) from None


def _series_or_fraction(a, x):
    """The part of P or Q that needs iterating, for one (a, x) pair of floats.

    Below the regime split (x < a + 1) this is the series sum S with
    P = S * prefix; above it the modified Lentz continued fraction H with
    Q = H * prefix, where prefix = exp(-x + a log x - log Gamma(a)). Each
    pair stops at its own convergence; a NaN stops it, as a failed
    comparison does.
    """
    # the constants as locals and a float counter: the loops run on float
    # operations alone, which the interpreter specializes
    tiny, tol = _TINY, _TOL
    if x < a + 1.0:
        if x == 0.0:
            return 0.0
        # every term, and so the sum, is positive: no abs() needed
        term = total = 1.0 / a
        denom = a
        for _ in range(_MAX_TERMS):
            denom += 1.0
            term = term * x / denom
            total += term
            if not term >= total * tol:
                return total
        raise ConvergenceError("incomplete gamma series did not converge", _MAX_TERMS)
    b = x + 1.0 - a
    c = 1.0 / tiny
    # b is 0 only where x + 1 rounds to a (a >= 2**53); IEEE 1/0 is inf
    d = 1.0 / b if b else math.inf
    h = d
    i = 0.0
    for _ in range(_MAX_TERMS):
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        # |delta - 1| < tol, or a NaN
        step = delta - 1.0
        if not (step >= tol or step <= -tol):
            return h
    raise ConvergenceError(
        "incomplete gamma continued fraction did not converge", _MAX_TERMS
    )


def _regularized_gamma(a, x, upper):
    """Q(a, x) if upper else P(a, x), each computed directly in its own
    regime (Q above the split, P below) and as 1 minus the other elsewhere.
    The directly computed part is capped at 1, which rounding can exceed for
    tiny shapes, so both P and Q stay in [0, 1].
    """
    if (isinstance(a, float) and isinstance(x, float)
            and 0.0 < a <= LOG_GAMMA_OVERFLOW_THRESHOLD and 0.0 <= x < _INF):
        # the array path's steps on one pair, the prefactor in numpy's log
        # and exp; a shape whose log-gamma overflows is left to the array
        # path, which raises in the same order
        a, x = float(a), float(x)
        if x == 0.0:
            return 1.0 if upper else 0.0
        part = _series_or_fraction(a, x) * float(
            np.exp(-x + a * float(np.log(x)) - math.lgamma(a)))
        if part > 1.0:
            part = 1.0
        return part if (x >= a + 1.0) == upper else 1.0 - part
    a_arr = _as_array(a, "a", require="positive")
    x_arr = _as_array(x, "x", require="nonnegative")
    a_b, x_b = np.broadcast_arrays(a_arr, x_arr)
    a_list, x_list = a_b.ravel().tolist(), x_b.ravel().tolist()
    sums = np.array([_series_or_fraction(u, v) for u, v in zip(a_list, x_list)])
    log_gammas = np.array([_lgamma(u) for u in a_list]).reshape(a_b.shape)
    # log(0) at x = 0, whose sum is 0; a log x past the float range for a
    # shape near log-gamma's threshold, which a float's product takes to
    # +-inf without a warning
    with np.errstate(divide="ignore", over="ignore"):
        log_prefix = -x_b + a_b * np.log(x_b) - log_gammas
    part = np.minimum(sums.reshape(x_b.shape) * np.exp(log_prefix), 1.0)
    direct = (x_b >= a_b + 1.0) if upper else (x_b < a_b + 1.0)
    out = np.where(direct, part, 1.0 - part)
    return float(out) if out.ndim == 0 else out


def reg_lower_incomplete_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) in [0, 1].

    Series expansion for x < a + 1, continued fraction for x >= a + 1.
    """
    return _regularized_gamma(a, x, False)


def reg_upper_incomplete_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Computed directly from the continued fraction in the tail regime, so
    small tail masses keep full relative structure instead of cancelling.
    """
    return _regularized_gamma(a, x, True)


def erf_fn(x):
    """Error function."""
    if isinstance(x, float) and -_INF < x < _INF:
        return math.erf(x)
    return _elementwise(math.erf, x, "x")


def std_normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z / sqrt(2)) / 2.

    The complementary error function keeps the negative tail's relative
    precision instead of cancelling against 1.
    """
    if isinstance(z, float) and -_INF < z < _INF:
        return 0.5 * math.erfc(-z / _SQRT2)
    return _elementwise(_phi, z, "z")
