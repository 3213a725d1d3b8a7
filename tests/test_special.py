"""Special-function kernel against independent quadrature/recurrence oracles."""

import math
import struct

import numpy as np
import pytest
from scipy import integrate, special as sp_special

from incomefit import models, special
from incomefit.errors import ConvergenceError, DomainError, OverflowRangeError
from incomefit.special import (
    GAMMA_OVERFLOW_THRESHOLD,
    LOG_GAMMA_OVERFLOW_THRESHOLD,
    digamma,
    erf_fn,
    gamma_fn,
    log_gamma,
    reg_lower_incomplete_gamma,
    reg_upper_incomplete_gamma,
    std_normal_cdf,
)

# frozen from a 40-digit arbitrary-precision computation (independent oracle)
LOG_GAMMA_100 = 359.1342053695753987760440104602869096126
P_2p7_4p1 = 0.8250385020548468104902204808507178575
ERF_1 = 0.8427007929497148693412206350826092593
PHI_1p96 = 0.9750021048517795658634157309591628100


def quad_lower_gamma(a, x):
    """Adaptive-quadrature oracle for P(a, x)."""
    value, err = integrate.quad(
        lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x, epsabs=1e-13, epsrel=1e-13
    )
    return value / math.gamma(a)


def quad_erf(x):
    value, err = integrate.quad(
        lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, x,
        epsabs=1e-13, epsrel=1e-13,
    )
    return value


class TestGammaFn:
    def test_integer_factorials(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-10)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-10)
        assert gamma_fn(5.0) == 24.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
        assert gamma_fn(0.5) == math.sqrt(math.pi)

    def test_half_squared_is_pi(self):
        assert gamma_fn(0.5) ** 2 == pytest.approx(math.pi, rel=1e-10)

    def test_recurrence_1000_points(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.001, 160.0, 1000)
        lhs = np.array([gamma_fn(v + 1.0) for v in a])
        rhs = a * np.array([gamma_fn(v) for v in a])
        assert np.max(np.abs(lhs - rhs) / lhs) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)

    def test_overflow_raises_near_threshold(self):
        assert math.isfinite(gamma_fn(171.0))
        with pytest.raises(OverflowRangeError):
            gamma_fn(GAMMA_OVERFLOW_THRESHOLD + 0.5)


class TestLogGamma:
    def test_trivial_zeros(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-13)

    def test_high_precision_oracle_at_100(self):
        assert log_gamma(100.0) == pytest.approx(LOG_GAMMA_100, abs=1e-10)

    def test_agrees_with_gamma_fn(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.01, 170.0, 200):
            assert math.exp(log_gamma(a)) == pytest.approx(gamma_fn(a), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma(-1.0)
        with pytest.raises(DomainError):
            log_gamma([])

    @pytest.mark.parametrize("a", [1e-17, 1e-15])
    def test_tiny_arguments_match_lgamma(self, a):
        # log Gamma(a) ~ -log(a) near zero: finite, 39.14 at 1e-17
        assert log_gamma(a) == math.lgamma(a)

    def test_float_path_matches_lgamma(self):
        rng = np.random.default_rng(5)
        for a in [1e-300, 0.5, 1.0, 2.5, 1e300] + rng.uniform(0.01, 200.0, 100).tolist():
            assert log_gamma(a) == math.lgamma(a)
        # a 0-d array takes the array path and still gives a float
        zero_d = log_gamma(np.array(2.5))
        assert type(zero_d) is float and zero_d == math.lgamma(2.5)

    @pytest.mark.parametrize(
        "a, message",
        [(0.0, "a must be > 0"), (-1.0, "a must be > 0"),
         (math.nan, "a must be finite"), (math.inf, "a must be finite")],
    )
    def test_float_path_raises_like_array_path(self, a, message):
        for arg in (a, np.array([a])):
            with pytest.raises(DomainError) as info:
                log_gamma(arg)
            assert str(info.value) == message

    def test_overflow_raises_range_error(self):
        assert math.isfinite(log_gamma(LOG_GAMMA_OVERFLOW_THRESHOLD))
        beyond = math.nextafter(LOG_GAMMA_OVERFLOW_THRESHOLD, math.inf)
        for a in (beyond, 1e306, np.array([2.0, 1e306])):
            with pytest.raises(OverflowRangeError):
                log_gamma(a)

    def test_tiny_shape_gamma_density_is_positive(self):
        value = models.pdf(models.gamma_model(1.0, 1e-17, 1000.0), 10.0)
        assert math.isfinite(value) and value > 0.0


class TestDigamma:
    def test_matches_scipy(self):
        # the recurrence's switch to the asymptotic series at a = 10, the
        # root near 1.46 and a log-spaced sweep of the domain
        a = np.concatenate((
            np.geomspace(1e-6, 1e6, 20001),
            np.linspace(0.5, 12.0, 2001),
            [1.4616321449683622, math.nextafter(10.0, 0.0), 10.0],
        ))
        ours, ref = digamma(a), sp_special.digamma(a)
        small = np.abs(ref) < 20.0
        assert np.abs(ours - ref)[small].max() <= 1e-13
        assert (np.abs(ours - ref) / np.abs(ref))[~small].max() <= 1e-14

    def test_float_path_matches_array_path(self):
        for a in (1e-6, 0.7, 2.2, 9.999, 10.0, 1e6):
            value = digamma(a)
            assert type(value) is float and value == digamma(np.array([a]))[0]
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-15)

    def test_domain_error(self):
        for a in (0.0, -1.0, math.nan, math.inf, []):
            with pytest.raises(DomainError):
                digamma(a)


class TestRegularizedGamma:
    def test_exponential_special_case(self):
        # P(1, x) = 1 - exp(-x)
        for x in (0.1, 1.0, 3.7):
            assert reg_lower_incomplete_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), abs=1e-12
            )

    def test_zero_argument(self):
        assert reg_lower_incomplete_gamma(3.5, 0.0) == 0.0

    def test_frozen_quadrature_value(self):
        got = reg_lower_incomplete_gamma(2.7, 4.1)
        assert got == pytest.approx(P_2p7_4p1, abs=1e-10)
        assert got == pytest.approx(quad_lower_gamma(2.7, 4.1), abs=1e-10)

    def test_against_quadrature_oracle_200_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.05, 40.0))
            x = float(rng.uniform(0.0, 3.0 * a + 10.0))
            assert reg_lower_incomplete_gamma(a, x) == pytest.approx(
                quad_lower_gamma(a, x), abs=1e-10
            )

    def test_complement_identity(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.1, 80.0, 500)
        x = rng.uniform(0.0, 200.0, 500)
        p = reg_lower_incomplete_gamma(a, x)
        q = reg_upper_incomplete_gamma(a, x)
        assert np.max(np.abs(p + q - 1.0)) <= 1e-12

    def test_nondecreasing_in_x(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = float(rng.uniform(0.05, 60.0))
            grid = np.sort(rng.uniform(0.0, 4.0 * a + 20.0, 200))
            p = reg_lower_incomplete_gamma(a, grid)
            assert np.min(np.diff(p)) >= -1e-14

    def test_limits(self):
        assert reg_lower_incomplete_gamma(2.0, 1e4) == pytest.approx(1.0, abs=1e-12)
        assert reg_upper_incomplete_gamma(2.0, 0.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_lower_incomplete_gamma(-1.0, 2.0)
        with pytest.raises(DomainError):
            reg_lower_incomplete_gamma(2.0, -0.5)

    def test_budget_exhaustion_carries_iterations(self):
        cases = [
            # the series just below the regime split, at a very large shape
            (reg_lower_incomplete_gamma, 1e5, 1e5 + 0.9),
            # the continued fraction just above it
            (reg_upper_incomplete_gamma, 1e6, 1e6 + 1.0),
            # in an array, one element that cannot converge fails the call
            (reg_lower_incomplete_gamma, [2.0, 1e5], [1.0, 1e5 + 0.9]),
        ]
        for fn, a, x in cases:
            with pytest.raises(ConvergenceError) as info:
                fn(a, x)
            assert info.value.iterations == 512

    def test_tiny_shape_stays_in_unit_interval(self):
        # the series times its prefactor rounds above 1 at a = x = 1e-300
        assert reg_lower_incomplete_gamma(1e-300, 1e-300) <= 1.0
        assert reg_upper_incomplete_gamma(1e-300, 1e-300) >= 0.0
        model = models.gamma_model(1.0, 1e-300, 1.0)
        assert models.ccdf(model, 1e-300) >= 0.0
        assert models.cdf(model, 1e-300) <= 1.0

    @pytest.mark.parametrize("fn", [reg_lower_incomplete_gamma, reg_upper_incomplete_gamma])
    def test_huge_shape_raises_overflow_range_error(self, fn):
        # its log-gamma overflows on the float path and the array path alike,
        # at x = 0 too
        for a, x in ((1e306, 1.0), (1e306, 0.0), ([2.0, 1e306], [1.0, 1.0])):
            with pytest.raises(OverflowRangeError):
                fn(a, x)

    def test_zero_fraction_start_is_a_convergence_error(self):
        # for a >= 2**53, x + 1 - a is 0 at x = a: the fraction starts at 1/0
        with pytest.raises(ConvergenceError):
            reg_upper_incomplete_gamma(2.0**53, 2.0**53)

    @pytest.mark.parametrize("fn", [reg_lower_incomplete_gamma, reg_upper_incomplete_gamma])
    def test_array_equals_scalar_calls(self, fn):
        rng = np.random.default_rng(37)
        a = rng.uniform(0.05, 60.0, 300)
        x = a * rng.uniform(0.0, 3.0, 300)
        x[::25] = 0.0
        got = fn(a, x)
        assert got.shape == (300,)
        assert got.tolist() == [fn(float(u), float(v)) for u, v in zip(a, x)]
        # a column of shapes against a row of arguments broadcasts to a grid
        col, row = a[:12].reshape(12, 1), x[:20].reshape(1, 20)
        grid = fn(col, row)
        assert grid.shape == (12, 20)
        expected = [[fn(float(u), float(v)) for v in row[0]] for u in col[:, 0]]
        assert grid.tolist() == expected
        scalar = fn(np.array(2.5), np.array(1.7))
        assert type(scalar) is float and scalar == fn(2.5, 1.7)

    def test_far_tail_relative_precision(self):
        # Q straight from the continued fraction keeps tiny tail masses to full
        # relative precision
        rng = np.random.default_rng(41)
        a = rng.uniform(0.05, 80.0, 2000)
        x = rng.uniform(a + 1.0, 650.0)
        got = reg_upper_incomplete_gamma(a, x)
        oracle = sp_special.gammaincc(a, x)
        assert np.all(oracle > 0.0)
        assert np.max(np.abs(got - oracle) / oracle) <= 1e-11


class TestErf:
    def test_zero_and_symmetry(self):
        assert erf_fn(0.0) == 0.0
        rng = np.random.default_rng(19)
        for x in rng.uniform(0.0, 5.0, 50):
            assert erf_fn(-x) == -erf_fn(x)

    def test_frozen_value_at_one(self):
        assert erf_fn(1.0) == pytest.approx(ERF_1, abs=1e-10)
        assert erf_fn(1.0) == pytest.approx(quad_erf(1.0), abs=1e-10)

    def test_against_quadrature_oracle_200_points(self):
        rng = np.random.default_rng(23)
        for x in rng.uniform(-4.0, 4.0, 200):
            assert erf_fn(float(x)) == pytest.approx(quad_erf(float(x)), abs=1e-10)

    def test_strictly_increasing(self):
        # beyond |x| ~ 5.7 the value saturates to 1.0 in double precision
        grid = np.linspace(-5.0, 5.0, 400)
        vals = erf_fn(grid)
        assert np.all(np.diff(vals) > 0.0)


class TestStdNormalCdf:
    def test_center_and_limit(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        assert std_normal_cdf(1.96) == pytest.approx(PHI_1p96, abs=1e-10)

    def test_reflection(self):
        rng = np.random.default_rng(29)
        for z in rng.uniform(0.0, 8.0, 100):
            assert std_normal_cdf(-z) == pytest.approx(1.0 - std_normal_cdf(z), abs=1e-15)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        for z in rng.uniform(-5.0, 5.0, 200):
            oracle, _ = integrate.quad(
                lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
                -12.0, float(z), epsabs=1e-13, epsrel=1e-13,
            )
            assert std_normal_cdf(float(z)) == pytest.approx(oracle, abs=1e-10)


# the float entries' boundaries: signed zeros, the smallest subnormal, a tiny
# normal, NaN, infinities, a negative, and log-gamma's overflow just past
# its threshold and far above it
BOUNDARY = [
    0.0, -0.0, 5e-324, 1e-300, 0.5, 2.5, 171.0, 172.0, 1e300, -1.0,
    math.nan, math.inf, -math.inf,
    LOG_GAMMA_OVERFLOW_THRESHOLD, math.nextafter(LOG_GAMMA_OVERFLOW_THRESHOLD, math.inf), 1e306,
]


def _outcome(fn, *args):
    """The bits of fn's float result, or its error's type and message."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    assert type(out) is float
    return struct.pack("<d", out)


class TestFloatEntry:
    @pytest.mark.parametrize("name", ["log_gamma", "digamma", "gamma_fn", "erf_fn", "std_normal_cdf"])
    def test_float_gives_the_zero_d_array_outcome(self, name):
        fn = getattr(special, name)
        for v in BOUNDARY:
            expected = _outcome(fn, np.array(v))
            for scalar in (v, np.float64(v)):
                assert _outcome(fn, scalar) == expected, (name, v, type(scalar))

    @pytest.mark.parametrize("name", ["reg_lower_incomplete_gamma", "reg_upper_incomplete_gamma"])
    def test_float_pair_gives_the_zero_d_array_outcome(self, name):
        fn = getattr(special, name)
        values = BOUNDARY + [1.5, 3.5, 40.0]
        for a in values:
            for x in values:
                expected = _outcome(fn, np.array(a), np.array(x))
                for pair in ((a, x), (np.float64(a), np.float64(x)),
                             (np.float64(a), x), (a, np.float64(x))):
                    assert _outcome(fn, *pair) == expected, (name, a, x, type(pair[0]))

    def test_boundary_outcomes(self):
        # the entries route these as intended: a result where the array path
        # gives one, and its error where it raises
        assert log_gamma(LOG_GAMMA_OVERFLOW_THRESHOLD) < math.inf
        assert _outcome(log_gamma, 1e306)[0] is OverflowRangeError
        assert _outcome(log_gamma, -0.0) == (DomainError, "a must be > 0")
        assert _outcome(std_normal_cdf, math.inf) == (DomainError, "z must be finite")
        assert _outcome(erf_fn, math.nan) == (DomainError, "x must be finite")
        assert _outcome(gamma_fn, 172.0)[0] is OverflowRangeError
        assert _outcome(reg_lower_incomplete_gamma, 2.5, -0.0) == struct.pack("<d", 0.0)
        assert _outcome(reg_upper_incomplete_gamma, 2.5, -0.0) == struct.pack("<d", 1.0)
        assert _outcome(reg_upper_incomplete_gamma, 2.5, -1.0) == (DomainError, "x must be >= 0")
        assert _outcome(reg_upper_incomplete_gamma, 1e306, 1.0)[0] is OverflowRangeError
