"""Fitting engine: recovery, initialization, nesting, invariants."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, binned_histogram, exact_curve
from incomefit import fitter, models
from incomefit.empirical import EmpiricalCurve, load_histogram, to_ccdf_curve, to_pdf_curve
from incomefit.errors import DomainError, FitFailureError, PreconditionError
from incomefit.fitter import (
    FitConfig,
    _from_unconstrained,
    _find_valley,
    _lm_run,
    _predict,
    _solve,
    _sum_squares,
    _to_unconstrained,
    _weighted_ss_tot,
    fit,
    format_fit_result,
    initialize,
    r_squared,
    refit_nested,
)

DATA = Path(__file__).resolve().parent / "data"

TRUTHS = {
    "gamma": models.gamma_model(0.8, 2.2, 1500.0),
    "lognormal": models.lognormal_model(0.9, 7.4, 0.8),
    "bigamma": models.bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0),
    "bilognormal": models.bilognormal_model(
        0.55, math.log(600.0), 0.6, 0.45, math.log(9000.0), 0.55
    ),
}

# initial parameter vectors on the bimodal fixture's unnormalized curves;
# initialization must reproduce them bit for bit
FROZEN_INITS = {
    ("pdf", "gamma"): [1.0017928514756955, 0.642188388517464, 7937.133400915537],
    ("pdf", "lognormal"): [1.0017928514756955, 7.614818369184042, 1.465750746465208],
    ("pdf", "bigamma"): [
        0.5005551038820978, 3.964341414090092, 153.81716049268252,
        0.438303954663377, 3.8427239430730338, 2441.8951901416394,
    ],
    ("pdf", "bilognormal"): [
        0.5506867932430258, 6.3984797159095415, 0.6020522757695282,
        0.45774366511843523, 9.106636424997914, 0.5665258798164297,
    ],
    ("ccdf", "gamma"): [0.9998733812373075, 0.647974050734858, 7847.764159509838],
    ("ccdf", "lognormal"): [0.9998733812373075, 7.613984549622739, 1.4650188549999932],
    ("ccdf", "bigamma"): [
        0.5005551038820979, 3.964341414090079, 153.81716049268334,
        0.4383039556313396, 3.8427239314852364, 2441.8952026227653,
    ],
    ("ccdf", "bilognormal"): [
        0.5506867932430264, 6.3984797159095415, 0.6020522757695288,
        0.4577439383746565, 9.106636851659614, 0.5665262572121279,
    ],
}


# R^2 at 6 decimals and the converged flag of the default 8-start fit of each
# fixture, family and target; the fitter's internals may move parameters in
# their last digits, but not these
FIXTURE_FITS = {
    ("bimodal", "pdf", "gamma"): (0.984991, True),
    ("bimodal", "pdf", "lognormal"): (0.995581, True),
    ("bimodal", "pdf", "bigamma"): (0.991959, True),
    ("bimodal", "pdf", "bilognormal"): (1.0, True),
    ("bimodal", "ccdf", "gamma"): (0.978449, True),
    ("bimodal", "ccdf", "lognormal"): (0.980378, True),
    ("bimodal", "ccdf", "bigamma"): (0.999901, True),
    ("bimodal", "ccdf", "bilognormal"): (1.0, True),
    ("chinaindia", "pdf", "gamma"): (0.994807, True),
    ("chinaindia", "pdf", "lognormal"): (1.0, True),
    ("chinaindia", "pdf", "bigamma"): (0.999783, True),
    ("chinaindia", "pdf", "bilognormal"): (1.0, False),
    ("chinaindia", "ccdf", "gamma"): (0.999797, True),
    ("chinaindia", "ccdf", "lognormal"): (1.0, True),
    ("chinaindia", "ccdf", "bigamma"): (0.999995, True),
    ("chinaindia", "ccdf", "bilognormal"): (1.0, True),
    ("world3", "pdf", "gamma"): (0.946058, True),
    ("world3", "pdf", "lognormal"): (0.981641, True),
    ("world3", "pdf", "bigamma"): (0.996627, True),
    ("world3", "pdf", "bilognormal"): (0.998518, True),
    ("world3", "ccdf", "gamma"): (0.977697, True),
    ("world3", "ccdf", "lognormal"): (0.989591, True),
    ("world3", "ccdf", "bigamma"): (0.999239, True),
    ("world3", "ccdf", "bilognormal"): (0.999746, True),
}


def _predict_one(family, theta, x, target):
    """_predict on the one-row stack of theta: that row's (f, cols), or None
    where the row is rejected."""
    f, cols, ok = _predict(family, theta[None], x, target)
    return (f[0], cols[0]) if ok[0] else None


class TestRSquared:
    def test_perfect_prediction(self):
        obs = np.array([1.0, 2.0, 5.0])
        assert r_squared(obs, obs) == 1.0

    def test_mean_prediction_scores_zero(self):
        obs = np.array([1.0, 2.0, 3.0, 10.0])
        w = np.array([1.0, 2.0, 1.0, 0.5])
        mean = np.sum(w * obs) / np.sum(w)
        assert r_squared(obs, np.full_like(obs, mean), w) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5)

    def test_degenerate_observed(self):
        with pytest.raises(DomainError):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_bad_weights(self):
        with pytest.raises(PreconditionError):
            r_squared([1.0, 2.0], [1.0, 2.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            r_squared([1.0, 2.0], [1.0])


class TestExactRecovery:
    @pytest.mark.parametrize("family", list(TRUTHS))
    @pytest.mark.parametrize("target", ["pdf", "ccdf"])
    def test_noiseless_sixty_points(self, family, target):
        truth = TRUTHS[family]
        curve = exact_curve(truth, target)
        result = fit(curve, family, FitConfig(target=target))
        packed_truth = models.param_pack(truth)
        packed_fit = models.param_pack(result.model)
        assert np.max(np.abs(packed_fit / packed_truth - 1.0)) <= 1e-6
        assert result.r_squared >= 1.0 - 1e-12
        assert result.converged


class TestNoisyRecovery:
    def test_bilognormal_two_percent_mu(self):
        s = 0.6
        mu1, mu2 = math.log(500.0), math.log(500.0) + 3 * s
        truth = models.bilognormal_model(0.5, mu1, s, 0.5, mu2, s)
        x = np.geomspace(40.0, 80000.0, 100)
        clean = models.pdf(truth, x)
        rng = np.random.default_rng(321)
        y = np.clip(clean * (1.0 + 0.01 * rng.standard_normal(x.size)), 0.0, None)
        result = fit(EmpiricalCurve(x, y, "pdf"), "bilognormal", FitConfig(seed=5))
        packed = models.param_pack(result.model)
        assert abs(packed[1] - mu1) / abs(mu1) <= 0.02
        assert abs(packed[4] - mu2) / abs(mu2) <= 0.02
        assert result.r_squared >= 0.99


class TestPreconditions:
    def test_min_points_boundary(self):
        truth = TRUTHS["gamma"]
        five = exact_curve(truth, "pdf", n_points=5)
        four = exact_curve(truth, "pdf", n_points=4)
        fit(five, "gamma")  # 5 points suffice for a 3-parameter family
        with pytest.raises(PreconditionError):
            fit(four, "gamma")

    def test_target_mismatch(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        with pytest.raises(PreconditionError):
            fit(curve, "gamma", FitConfig(target="ccdf"))

    def test_unknown_family(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        with pytest.raises(PreconditionError):
            fit(curve, "pareto")

    def test_relative_weighting_needs_positive_ordinates(self):
        x = np.geomspace(10.0, 1e4, 10)
        y = np.append(models.pdf(TRUTHS["gamma"], x[:-1]), 0.0)
        curve = EmpiricalCurve(x, y, "pdf")
        with pytest.raises(PreconditionError):
            fit(curve, "gamma", FitConfig(weighting="relative"))

    def test_all_starts_diverging_raises(self):
        # a shape of 5e6 forces the incomplete gamma past its iteration
        # budget at every jittered start
        init = models.gamma_model(1.0, 5e6, 1e-3)
        x = np.geomspace(3000.0, 8000.0, 30)
        curve = EmpiricalCurve(x, np.linspace(1.0, 0.2, 30), "ccdf")
        with pytest.raises(FitFailureError):
            fit(curve, "gamma", FitConfig(target="ccdf", multistart_count=3),
                init=init)

    def test_overflowing_sum_of_squares_raises(self):
        # an amplitude of 1e200 overflows the sum of squares: the start has
        # diverged, it must not come back as a fit with R^2 = -inf
        curve = to_ccdf_curve(load_histogram(FIXTURES / "synthetic_bimodal.csv"))
        init = models.gamma_model(1e200, 2.0, 1000.0)
        with pytest.raises(FitFailureError):
            fit(curve, "gamma", FitConfig(target="ccdf", multistart_count=1),
                init=init)


class TestInitialize:
    def test_moments_within_basin(self):
        truth = TRUTHS["gamma"]
        curve = exact_curve(truth, "pdf")
        init = initialize(curve, "gamma")
        assert init.params.shape == pytest.approx(truth.params.shape, rel=0.25)
        assert init.params.scale == pytest.approx(truth.params.scale, rel=0.25)

    def test_moments_lognormal(self):
        truth = TRUTHS["lognormal"]
        curve = exact_curve(truth, "pdf")
        init = initialize(curve, "lognormal")
        assert init.params.mu == pytest.approx(truth.params.mu, rel=0.25)
        assert init.params.sigma == pytest.approx(truth.params.sigma, rel=0.25)

    def test_valley_between_separated_medians(self):
        # on per-log-income ordinates the components are clean log-space bumps
        s = 0.5
        mu1, mu2 = math.log(400.0), math.log(400.0) + 3 * s
        truth = models.bilognormal_model(0.5, mu1, s, 0.5, mu2, s)
        x = np.geomspace(30.0, 80000.0, 80)
        split = _find_valley(x, x * models.pdf(truth, x))
        assert split is not None
        assert math.exp(mu1) < split < math.exp(mu2)

    def test_flat_curve_falls_back_without_error(self):
        x = np.geomspace(100.0, 10000.0, 30)
        curve = EmpiricalCurve(x, np.full(30, 0.25), "pdf")
        init = initialize(curve, "bilognormal")
        assert init.family == "bilognormal"

    @pytest.mark.parametrize("family", ["bigamma", "bilognormal"])
    def test_half_split_when_the_mass_sits_in_the_first_two_bins(self, monkeypatch, family):
        # no interior valley, and the median split leaves two points on the
        # left: each side gets half of the points instead
        x = np.geomspace(100.0, 10000.0, 20)
        y = np.zeros(20)
        y[:2] = 1.0
        assert _find_valley(x, y) is None
        assert fitter._median_split(x, y) == x[1]
        sides, moments = [], fitter._moments_params
        monkeypatch.setattr(fitter, "_moments_params",
                            lambda xs, *args: sides.append(xs.size) or moments(xs, *args))
        init = initialize(EmpiricalCurve(x, y, "pdf"), family)
        assert sides == [10, 10]
        assert init.family == family

    def test_one_point_sides_take_their_ordinate_as_mass(self):
        # a curve too short to fit: each half holds one point, whose ordinate
        # stands in for the side's mass
        x, y = np.array([100.0, 10000.0]), np.array([0.3, 0.7])
        init = initialize(EmpiricalCurve(x, y, "pdf"), "bigamma")
        assert models.param_pack(init)[::3].tolist() == [0.3, 0.7]

    def test_single_nonzero_bin_gives_zero_variance_gamma_moments(self):
        x = np.linspace(100.0, 1000.0, 10)
        y = np.zeros(10)
        y[4] = 2.0
        init = initialize(EmpiricalCurve(x, y, "pdf"), "gamma")
        # the fallback shape, at the bin's income as the scale
        assert (init.params.amplitude, init.params.shape, init.params.scale) == (200.0, 1.5, 500.0)

    @pytest.mark.parametrize("family", ["bigamma", "bilognormal"])
    def test_one_density_point_is_rejected_for_bimodal_families(self, family):
        # a 2-point CCDF curve differences to one density point: no side to split
        curve = EmpiricalCurve([100.0, 1000.0], [0.9, 0.2], "ccdf")
        with pytest.raises(PreconditionError, match=f"{family} needs at least 2 density "
                                                   "points, got 1"):
            initialize(curve, family)

    def test_every_single_nonzero_bin_gives_the_fallback_gamma_shape(self):
        # the trapezoid variance of one nonzero bin is a rounding residue on
        # some bins; it must not start a fit at shape mean^2 / residue
        x = np.geomspace(30.0, 60000.0, 60)
        shapes = []
        for i in range(x.size):
            y = np.zeros(x.size)
            y[i] = 0.37
            shapes.append(initialize(EmpiricalCurve(x, y, "pdf"), "gamma").params.shape)
        assert shapes == [1.5] * x.size

    def test_explicit_passthrough(self):
        spec = TRUTHS["bigamma"]
        curve = exact_curve(spec, "pdf")
        res = fit(curve, "bigamma", FitConfig(multistart_count=1), init=spec)
        assert res.init_used is spec
        with pytest.raises(PreconditionError):
            fit(curve, "bilognormal", init=spec)

    def test_ccdf_curves_supported(self):
        truth = TRUTHS["bilognormal"]
        curve = exact_curve(truth, "ccdf")
        init = initialize(curve, "bilognormal")
        assert init.family == "bilognormal"

    @pytest.mark.parametrize("kind, family", sorted(FROZEN_INITS))
    def test_initial_vectors_frozen(self, kind, family):
        hist = load_histogram(FIXTURES / "synthetic_bimodal.csv")
        curve = to_pdf_curve(hist) if kind == "pdf" else to_ccdf_curve(hist)
        packed = models.param_pack(initialize(curve, family))
        assert [float(v) for v in packed] == FROZEN_INITS[kind, family]


class TestRefitNested:
    def test_unimodal_data_never_worse(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        uni = fit(curve, "gamma")
        bi = refit_nested(curve, uni)
        assert bi.model.family == "bigamma"
        assert bi.ss_res <= uni.ss_res + 1e-12
        assert bi.r_squared >= uni.r_squared - 1e-9

    def test_three_sigma_separation_gains(self):
        # measured on per-log-income ordinates: gains of ~0.14 (log-normal)
        # and ~0.16 (gamma); 0.05 is the frozen floor
        s = 0.6
        truth = models.bilognormal_model(
            0.5, math.log(500.0), s, 0.5, math.log(500.0) + 3 * s, s
        )
        hist = binned_histogram([truth], edges=np.geomspace(30.0, 80000.0, 61))
        curve = to_pdf_curve(hist, per_log_income=True)
        for family in ("lognormal", "gamma"):
            uni = fit(curve, family)
            bi = refit_nested(curve, uni)
            assert bi.r_squared - uni.r_squared >= 0.05

    def test_near_unimodal_ties(self):
        # 2018-like data: one dominant bump, gamma and bi-gamma nearly equal
        truth = models.gamma_model(1.0, 2.4, 3500.0)
        hist = binned_histogram([truth])
        rng = np.random.default_rng(77)
        noisy = hist.mass * (1.0 + 0.01 * rng.standard_normal(hist.mass.size))
        from incomefit.empirical import IncomeHistogram

        curve = to_pdf_curve(IncomeHistogram(hist.bin_edges, np.clip(noisy, 0, None)))
        uni = fit(curve, "gamma")
        bi = refit_nested(curve, uni)
        assert bi.r_squared >= uni.r_squared - 1e-12
        assert bi.r_squared - uni.r_squared <= 0.01
        assert uni.r_squared >= 0.98

    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    def test_fallback_embeds_the_unimodal_fit(self, family, monkeypatch):
        # an attempt worse than the unimodal fit must give way to the
        # degenerate embedding: the unimodal component plus a zero-mass one
        curve = exact_curve(TRUTHS["bilognormal"], "pdf")
        uni = fit(curve, family)
        worse = replace(uni, ss_res=2.0 * uni.ss_res + 1.0, iterations=7,
                        converged=not uni.converged)
        monkeypatch.setattr("incomefit.fitter.fit", lambda *args, **kwargs: worse)
        bi = refit_nested(curve, uni)
        vec = models.param_pack(bi.model)
        assert bi.model.family == models.bimodal_counterpart(family)
        assert vec[3] == 0.0
        assert np.array_equal(vec[:3], models.param_pack(uni.model))
        uni_ss = float(np.sum((curve.y - models.pdf(uni.model, curve.x)) ** 2))
        assert bi.ss_res == uni_ss
        assert bi.ss_res == pytest.approx(uni.ss_res, rel=1e-12)
        assert bi.r_squared == 1.0 - bi.ss_res / bi.ss_tot
        assert bi.converged == uni.converged
        assert bi.iterations == 7

    def test_rejects_bimodal_input(self):
        curve = exact_curve(TRUTHS["bigamma"], "pdf")
        bi = fit(curve, "bigamma")
        with pytest.raises(PreconditionError):
            refit_nested(curve, bi)

    def test_nested_guarantee_random_curves(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            mu = rng.uniform(5.0, 9.0)
            s = rng.uniform(0.4, 1.0)
            amp = rng.uniform(0.5, 1.5)
            hist = binned_histogram([models.lognormal_model(amp, mu, s)])
            noisy = np.clip(
                hist.mass * (1.0 + 0.05 * rng.standard_normal(hist.mass.size)),
                1e-12, None,
            )
            from incomefit.empirical import IncomeHistogram

            curve = to_pdf_curve(IncomeHistogram(hist.bin_edges, noisy))
            family = "gamma" if trial % 2 else "lognormal"
            uni = fit(curve, family, FitConfig(multistart_count=2, seed=trial))
            bi = refit_nested(curve, uni, FitConfig(multistart_count=2, seed=trial))
            assert bi.ss_res <= uni.ss_res + 1e-12


class TestInvariants:
    def test_determinism_bit_identical(self):
        truth = TRUTHS["bilognormal"]
        hist = binned_histogram([truth])
        rng = np.random.default_rng(11)
        noisy = np.clip(hist.mass * (1.0 + 0.02 * rng.standard_normal(hist.mass.size)),
                        1e-12, None)
        from incomefit.empirical import IncomeHistogram

        curve = to_pdf_curve(IncomeHistogram(hist.bin_edges, noisy))
        config = FitConfig(seed=123)
        a = fit(curve, "bilognormal", config)
        b = fit(curve, "bilognormal", config)
        assert np.array_equal(models.param_pack(a.model), models.param_pack(b.model))
        assert a.r_squared == b.r_squared
        assert a.iterations == b.iterations

    def test_scale_equivariance(self):
        truth = TRUTHS["bilognormal"]
        curve = exact_curve(truth, "pdf")
        c = 37.5
        scaled = EmpiricalCurve(curve.x, c * curve.y, "pdf")
        r1 = fit(curve, "bilognormal")
        r2 = fit(scaled, "bilognormal")
        p1, p2 = models.param_pack(r1.model), models.param_pack(r2.model)
        amps, shapes = [0, 3], [1, 2, 4, 5]
        assert np.max(np.abs(p2[amps] / (c * p1[amps]) - 1.0)) <= 1e-8
        assert np.max(np.abs(p2[shapes] / p1[shapes] - 1.0)) <= 1e-8
        assert abs(r1.r_squared - r2.r_squared) <= 1e-12

    @pytest.mark.parametrize("target", ["pdf", "ccdf"])
    def test_huge_shape_start_fails_the_fit_cleanly(self, target):
        # log Gamma(n) overflows for every start: each proposal is rejected
        # with the kernel's OverflowRangeError, and the fit fails as a whole
        hist = load_histogram(FIXTURES / "synthetic_bimodal.csv")
        curve = to_pdf_curve(hist) if target == "pdf" else to_ccdf_curve(hist)
        init = models.gamma_model(1.0, 1e306, 1000.0)
        with pytest.raises(FitFailureError):
            fit(curve, "gamma", FitConfig(target=target), init=init)

    def test_r_squared_consistency_field(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        res = fit(curve, "gamma")
        assert res.r_squared == 1.0 - res.ss_res / res.ss_tot

    @pytest.mark.parametrize(
        "family,target,jitter",
        [
            ("gamma", "pdf", 0.2),
            ("gamma", "ccdf", 0.2),
            ("lognormal", "pdf", 0.2),
            ("lognormal", "ccdf", 0.2),
            ("bigamma", "pdf", 0.1),
            ("bigamma", "ccdf", 0.1),
            ("bilognormal", "pdf", 0.1),
            ("bilognormal", "ccdf", 0.1),
        ],
    )
    def test_forward_jacobian_matches_central_oracle(self, family, target, jitter):
        # per-column 2-norm agreement with central differences; a gamma
        # ccdf's shape column is a forward difference at relative step 1e-6,
        # whose truncation measures below 3e-6 on these constructions, and
        # every other column, the gamma pdf's shape column included, is
        # closed form, within the oracle's own 3e-9
        truth = TRUTHS[family]
        x = np.geomspace(50.0, 50000.0, 40)
        theta = _to_unconstrained(family, models.param_pack(truth))
        differenced = "gamma" in family and target == "ccdf"
        analytic = np.arange(theta.size) % 3 != 1 if differenced else slice(None)
        rng = np.random.default_rng(41)
        for _ in range(5):
            point = theta + jitter * rng.standard_normal(theta.size)
            predicted = _predict_one(family, point, x, target)
            assert predicted is not None
            jac = predicted[1]
            central = np.empty_like(jac)
            for j in range(point.size):
                h = 1e-6 * max(abs(point[j]), 1.0)
                up, down = point.copy(), point.copy()
                up[j] += h
                down[j] -= h
                central[:, j] = (
                    _predict_one(family, up, x, target)[0]
                    - _predict_one(family, down, x, target)[0]
                ) / (2.0 * h)
            col_norm = np.linalg.norm(central, axis=0)
            err = np.linalg.norm(jac - central, axis=0) / col_norm
            assert err.max() <= 1e-5
            assert err[analytic].max() <= 1e-8

    @pytest.mark.parametrize("target", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_jacobian_zero_where_ordinates_underflow(self, family, target):
        # a scale or sigma of exp(-690) or exp(-700) squashes its component's
        # ordinates to 0 on most of the grid; there its columns must be 0, as
        # a difference of two zeros is, not the 0 * inf of a naive formula
        x = np.geomspace(50.0, 50000.0, 40)
        theta = _to_unconstrained(family, models.param_pack(TRUTHS[family]))
        sub = models.unimodal_counterpart(family) if models.is_bimodal(family) else family
        evaluate = models.pdf if target == "pdf" else models.ccdf
        checked = 0
        for j in range(2, theta.size, 3):
            for log_scale in (-690.0, -700.0):
                squashed = theta.copy()
                squashed[j] = log_scale
                vec = _from_unconstrained(family, squashed)
                with np.errstate(all="ignore"):
                    try:
                        evaluate(models.param_unpack(family, vec), x)
                    except DomainError:
                        continue  # x / m overflows, which the gamma ccdf kernel rejects
                # _predict returns None for a non-finite column
                predicted = _predict_one(family, squashed, x, target)
                assert predicted is not None
                jac = predicted[1]
                comp = slice(j - 2, j + 1)
                own = _predict_one(sub, squashed[comp], x, target)[0]
                assert np.any(own == 0.0)
                assert np.all(jac[own == 0.0, comp] == 0.0)
                checked += 1
        assert checked >= theta.size // 3

    def test_shim_rejects_pathological_proposals(self, monkeypatch):
        family = "gamma"
        x = np.geomspace(10.0, 1e4, 20)
        wild = np.array([800.0, 800.0, 800.0])  # exp overflow -> reject
        assert _predict_one(family, wild, x, "pdf") is None
        sane = _to_unconstrained(family, [1.0, 2.0, 100.0])
        f, cols = _predict_one(family, sane, x, "pdf")
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(cols))
        # a non-finite column rejects a proposal, as a non-finite ordinate does
        cols[3, 1] = np.nan
        monkeypatch.setattr(models, "evaluate_columns", lambda *args: (f[None], cols[None]))
        assert _predict_one(family, sane, x, "pdf") is None

    @pytest.mark.parametrize("target", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_shim_underflow_rules(self, family, target):
        # exp(-800) underflows to 0.0: a zero shape, scale or sigma is
        # rejected, a zero amplitude is a valid zero-mass component
        x = np.geomspace(10.0, 1e4, 20)
        vec = models.param_pack(TRUTHS[family])
        theta = _to_unconstrained(family, vec)
        must_stay_positive = (1, 2) if "gamma" in family else (2,)
        evaluate = models.pdf if target == "pdf" else models.ccdf
        for j in range(theta.size):
            low = theta.copy()
            low[j] = -800.0
            predicted = _predict_one(family, low, x, target)
            if j % 3 == 0:
                zero_mass = vec.copy()
                zero_mass[j] = 0.0
                expected = evaluate(models.param_unpack(family, zero_mass), x)
                assert predicted is not None
                assert predicted[0] == pytest.approx(expected, rel=1e-12, abs=0.0)
            elif j % 3 in must_stay_positive:
                assert predicted is None

    def test_transform_round_trip(self):
        for family, truth in TRUTHS.items():
            vec = models.param_pack(truth)
            back = _from_unconstrained(family, _to_unconstrained(family, vec))
            assert back == pytest.approx(vec, rel=1e-14)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(PreconditionError):
            FitConfig(target="histogram")
        with pytest.raises(PreconditionError):
            FitConfig(max_iterations=0)
        with pytest.raises(PreconditionError):
            FitConfig(multistart_count=0)
        with pytest.raises(TypeError):
            FitConfig(step_tol=1e-10)
        with pytest.raises(TypeError):
            FitConfig(residual_tol=1e-12)
        with pytest.raises(PreconditionError):
            FitConfig(weighting="quadratic")
        with pytest.raises(TypeError):
            FitConfig(init_strategy="auto")
        for name in ("max_iterations", "multistart_count", "seed"):
            with pytest.raises(PreconditionError, match=f"{name} must be an integer"):
                FitConfig(**{name: 2.5})
        assert FitConfig(max_iterations=np.int64(3), seed=np.int32(1)).seed == 1

    def test_negative_seed_rejected(self):
        with pytest.raises(PreconditionError, match="seed must be >= 0"):
            FitConfig(seed=-1)
        assert FitConfig(seed=0).seed == 0

    def test_relative_weighting_fit(self):
        truth = TRUTHS["gamma"]
        curve = exact_curve(truth, "ccdf")
        res = fit(curve, "gamma", FitConfig(target="ccdf", weighting="relative"))
        packed = models.param_pack(res.model)
        assert np.max(np.abs(packed / models.param_pack(truth) - 1.0)) <= 1e-6


class TestFormat:
    def test_format_has_contract_fields(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        res = fit(curve, "gamma")
        text = format_fit_result(res)
        for key in ("family", "A", "n", "m", "r_squared", "ss_res",
                    "iterations", "converged"):
            assert any(line.startswith(key + " ") for line in text.splitlines())


class TestFixtureFits:
    @pytest.mark.parametrize("fixture, kind, family", sorted(FIXTURE_FITS))
    def test_r_squared_and_convergence_pinned(self, fixture, kind, family):
        hist = load_histogram(FIXTURES / f"synthetic_{fixture}.csv")
        curve = to_pdf_curve(hist) if kind == "pdf" else to_ccdf_curve(hist)
        res = fit(curve, family, FitConfig(target=kind))
        assert (round(res.r_squared, 6), res.converged) == FIXTURE_FITS[fixture, kind, family]

    def test_flat_valley_fit_does_not_crawl(self):
        # a bigamma per-USD fit of this residual crawls through a flat valley
        # under a fixed x10 / /10 damping, 795 iterations and past the
        # default cap; the gain-ratio damping must end it well before
        hist = load_histogram(DATA / "crawl_y66t06.csv")
        res = fit(to_pdf_curve(hist), "bigamma")
        assert res.converged
        assert res.iterations <= 100
        assert round(res.r_squared, 6) == 0.987719


def _same_run(a, b):
    """Two _lm_run results for one start agree bit for bit."""
    if a is None or b is None:
        return a is None and b is None
    return (a[0].tobytes() == b[0].tobytes() and a[1:4] == b[1:4]
            and a[4].tobytes() == b[4].tobytes())


def _rank(family):
    """fit's order of LM results: ss, then iterations, then parameters."""
    return lambda run: (run[1], run[2], tuple(_from_unconstrained(family, run[0])))


def _lone(family, starts, *args):
    """Each start's _lm_run result when it runs alone."""
    return [_lm_run(family, start[None], *args)[0][0] for start in starts]


def _check_merge_contract(family, stacked, alone, ss_tot):
    """Every unmerged start of a stacked run ends as it does alone, bit for
    bit, and no merged start's lone run ends more than 1e-9 ss_tot below the
    best unmerged one, which is returned."""
    assert len(stacked) == len(alone)
    for run, lone in zip(stacked, alone):
        if run is not fitter._MERGED:
            assert _same_run(run, lone)
    best = min((run for run in stacked if run is not None and run is not fitter._MERGED),
               key=_rank(family))
    for run, lone in zip(stacked, alone):
        if run is fitter._MERGED and lone is not None:
            assert lone[1] >= best[1] - 1e-9 * ss_tot
    return best


def _check_fit_merge_contract(family, curve, config, monkeypatch):
    """fit's stacked run keeps the merge contract and leaves its starts as
    given, and fit returns the best unmerged lone run, bit for bit."""
    calls = []

    def spy(*args):
        given = np.array(args[1])
        out = _lm_run(*args)
        assert np.array(args[1]).tobytes() == given.tobytes()
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(fitter, "_lm_run", spy)
    result = fit(curve, family, config)
    ((args, stacked),) = [(a, out) for a, out in calls if a[0] == family]
    assert len(args[1]) == config.multistart_count
    alone = _lone(args[0], args[1], *args[2:])
    best = _check_merge_contract(family, stacked, alone, result.ss_tot)
    packed = models.param_pack(result.model)
    assert packed.tobytes() == _from_unconstrained(family, best[0]).tobytes()
    assert (result.ss_res, result.iterations, result.converged) == best[1:4]
    return args


class TestLockstep:
    @pytest.mark.parametrize("kind", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_stack_equals_start_by_start(self, family, kind, monkeypatch):
        # fit runs its starts as one stack; each start that is not merged
        # must end exactly as it does alone, no merged start may have ended
        # lower alone, and fit must return the best of the unmerged lone runs
        hist = load_histogram(FIXTURES / "synthetic_world3.csv")
        curve = to_pdf_curve(hist) if kind == "pdf" else to_ccdf_curve(hist)
        _check_fit_merge_contract(family, curve, FitConfig(target=kind), monkeypatch)

    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_relative_weights_stack_equals_start_by_start(self, family, monkeypatch):
        # as above, with fit's weights 1/y^2 on a ccdf curve
        curve = to_ccdf_curve(load_histogram(FIXTURES / "synthetic_world3.csv"))
        config = FitConfig(target="ccdf", weighting="relative")
        args = _check_fit_merge_contract(family, curve, config, monkeypatch)
        assert args[4].tobytes() == (1.0 / curve.y**2).tobytes()

    def test_later_rounds_leave_early_results_and_starts_alone(self):
        # the core updates its arrays in place; a start that stops early must
        # keep the result it stopped with (byte-equal to a copy of its lone
        # run, taken before the stacked run starts) unless it was merged, and
        # the caller's starts must come back as given; at 0.3 most starts
        # merge, so a wider jitter keeps starts that stop at different rounds
        curve = to_pdf_curve(load_histogram(FIXTURES / "synthetic_world3.csv"))
        theta0 = _to_unconstrained("bigamma", models.param_pack(initialize(curve, "bigamma")))
        run_args = (curve.x, curve.y, np.ones_like(curve.y), "pdf", 500)
        for jitter in (0.3, 1.0):
            starts = theta0 + jitter * np.random.default_rng(11).standard_normal((6, theta0.size))
            given = starts.copy()
            copies = []
            for (run,) in (_lm_run("bigamma", start[None], *run_args)[0] for start in starts):
                copies.append((run[0].copy(), *run[1:4], run[4].copy()))
            # the starts leave the stack after different numbers of iterations
            assert len({run[2] for run in copies}) >= 3
            stacked, _, _ = _lm_run("bigamma", starts, *run_args)
            assert starts.tobytes() == given.tobytes()
            _check_merge_contract("bigamma", stacked, copies,
                                  _weighted_ss_tot(curve.y, run_args[2]))
        assert len({run[2] for run in stacked if run is not fitter._MERGED}) >= 3

    @pytest.mark.parametrize("mode", ["raise", "nan"])
    def test_failing_start_leaves_the_others_alone(self, mode, monkeypatch):
        # the log-gamma kernel fails (raises, or returns NaN) on every shape
        # one start's lone run visits after its first evaluation; only that
        # start's proposals are rejected, and the others end as they do alone
        # unless merged
        curve = to_pdf_curve(load_histogram(FIXTURES / "synthetic_world3.csv"))
        theta0 = _to_unconstrained("gamma", models.param_pack(initialize(curve, "gamma")))
        rng = np.random.default_rng(3)
        starts = theta0 + 0.3 * rng.standard_normal((4, theta0.size))
        starts[0] = theta0
        run_args = (curve.x, curve.y, np.ones_like(curve.y), "pdf", 500)
        log_gamma = models.log_gamma
        seen = []

        def recording(n):
            seen.append(n)
            return log_gamma(n)

        monkeypatch.setattr(models, "log_gamma", recording)
        lone, visited = [], []
        for start in starts:
            seen.clear()
            lone.append(_lm_run("gamma", start[None], *run_args)[0][0])
            visited.append(set(seen))
        poisoned = 2
        seen.clear()
        _predict("gamma", starts[poisoned][None], curve.x, "pdf")
        first = set(seen)
        bad = visited[poisoned] - first - set().union(*(visited[i] for i in (0, 1, 3)))
        assert len(bad) > 10

        def failing(n):
            if n in bad:
                seen.append(n)
                if mode == "raise":
                    raise DomainError("poisoned shape")
                return math.nan
            return log_gamma(n)

        monkeypatch.setattr(models, "log_gamma", failing)
        given = starts.copy()
        seen.clear()
        stacked, _, _ = _lm_run("gamma", starts, *run_args)
        assert starts.tobytes() == given.tobytes()
        # the poisoned start met the failing kernel within the stack
        assert seen
        poisoned_alone = _lm_run("gamma", starts[poisoned][None], *run_args)[0][0]
        assert poisoned_alone is not None
        assert not _same_run(poisoned_alone, lone[poisoned])
        alone = lone[:poisoned] + [poisoned_alone] + lone[poisoned + 1:]
        _check_merge_contract("gamma", stacked, alone, _weighted_ss_tot(curve.y, run_args[2]))
        assert stacked[poisoned] is not None

    def test_merge_keeps_the_lower_sum_of_squares(self):
        # a start placed 1e-3 from a converged one merges into it, whatever
        # their order; of two identical starts (a tie) the later one merges
        curve = to_pdf_curve(load_histogram(FIXTURES / "synthetic_world3.csv"))
        theta0 = _to_unconstrained("gamma", models.param_pack(initialize(curve, "gamma")))
        run_args = (curve.x, curve.y, np.ones_like(curve.y), "pdf", 500)
        (best,), _, _ = _lm_run("gamma", theta0[None], *run_args)
        near = best[0] + 1e-3 * np.array((1.0, -1.0, 1.0))
        for starts, merged in (((near, best[0]), 0), ((best[0], near), 1),
                               ((theta0, theta0), 1)):
            stacked, _, _ = _lm_run("gamma", np.array(starts), *run_args)
            assert stacked[merged] is fitter._MERGED
            kept = stacked[1 - merged]
            assert _same_run(kept, _lm_run("gamma", starts[1 - merged][None], *run_args)[0][0])

    def test_singular_system_leaves_the_others_alone(self):
        # a batched solve fails as a whole on one singular matrix; the others
        # must still get their lone solutions, and the singular one NaN
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3, 3))
        a[1] = 0.0
        b = rng.standard_normal((4, 3))
        out = _solve(a, b)
        assert np.all(np.isnan(out[1]))
        for i in (0, 2, 3):
            assert out[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()

    def test_row_reductions_equal_one_row_ones(self):
        # the core's sums of squares and step norms on a stack must be, bit
        # for bit, the 1-D dot and np.linalg.norm of each row alone
        rng = np.random.default_rng(7)
        for n in (3, 6, 60, 61):
            rows = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-8, 3, (8, 1))
            sums = _sum_squares(rows)
            for row, total in zip(rows, sums):
                assert total == float(row @ row)
                assert math.sqrt(total) == float(np.linalg.norm(row))


class TestWorkCounts:
    @pytest.mark.parametrize("kind", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_counts_are_the_model_calls_seen(self, family, kind, monkeypatch):
        # model_calls and model_rows count the multistart run's _predict
        # calls, the first evaluation of the starts included, and the
        # parameter vectors they score
        hist = load_histogram(FIXTURES / "synthetic_world3.csv")
        curve = to_pdf_curve(hist) if kind == "pdf" else to_ccdf_curve(hist)
        init = initialize(curve, family)
        seen = []

        def spy(family, theta, *args):
            seen.append(len(theta))
            return _predict(family, theta, *args)

        monkeypatch.setattr(fitter, "_predict", spy)
        result = fit(curve, family, FitConfig(target=kind), init=init)
        assert seen[0] == FitConfig().multistart_count
        assert (result.model_calls, result.model_rows) == (len(seen), sum(seen))

    def test_merging_retires_starts_and_saves_rows(self):
        curve = to_pdf_curve(load_histogram(FIXTURES / "synthetic_world3.csv"))
        config = FitConfig()
        result = fit(curve, "bigamma", config)
        assert result.merged_starts >= 1
        assert result.model_rows < config.multistart_count * result.model_calls

    def test_fallback_carries_the_attempts_counts(self, monkeypatch):
        curve = exact_curve(TRUTHS["bilognormal"], "pdf")
        uni = fit(curve, "lognormal")
        worse = replace(uni, ss_res=2.0 * uni.ss_res + 1.0,
                        model_calls=11, model_rows=53, merged_starts=3)
        monkeypatch.setattr("incomefit.fitter.fit", lambda *args, **kwargs: worse)
        bi = refit_nested(curve, uni)
        assert models.param_pack(bi.model)[3] == 0.0
        assert (bi.model_calls, bi.model_rows, bi.merged_starts) == (11, 53, 3)
