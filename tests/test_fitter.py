"""Fitting engine: recovery, initialization, nesting, invariants."""

import math

import numpy as np
import pytest

from conftest import FIXTURES, binned_histogram, exact_curve
from incomefit import models
from incomefit.empirical import EmpiricalCurve, load_histogram, to_ccdf_curve, to_pdf_curve
from incomefit.errors import DomainError, FitFailureError, PreconditionError
from incomefit.fitter import (
    FitConfig,
    _from_unconstrained,
    _jacobian,
    _find_valley,
    _predict,
    _to_unconstrained,
    fit,
    format_fit_result,
    initialize,
    r_squared,
    refit_nested,
)

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
        0.5005554838385553, 3.964335691263879, 153.81749357535548,
        0.4383040517080168, 3.8427213377996607, 2441.897301244382,
    ],
    ("pdf", "bilognormal"): [
        0.5506867928794698, 6.398479715354117, 0.6020522753119751,
        0.4577436722861857, 9.106636435724374, 0.5665258916203104,
    ],
    ("ccdf", "gamma"): [0.9998733812373075, 0.647974050734858, 7847.764159509838],
    ("ccdf", "lognormal"): [0.9998733812373075, 7.613984549622739, 1.4650188549999932],
    ("ccdf", "bigamma"): [
        0.5005554838357803, 3.9643356913386083, 153.8174935717451,
        0.438304194401235, 3.8427188749806094, 2441.899473399799,
    ],
    ("ccdf", "bilognormal"): [
        0.5506867928794219, 6.398479715354028, 0.6020522753118933,
        0.4577439455601311, 9.106636862413012, 0.566526269035628,
    ],
}


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
            fit(curve, "gamma", FitConfig(target="ccdf", init_strategy=init,
                                          multistart_count=3))

    def test_overflowing_sum_of_squares_raises(self):
        # an amplitude of 1e200 overflows the sum of squares: the start has
        # diverged, it must not come back as a fit with R^2 = -inf
        curve = to_ccdf_curve(load_histogram(FIXTURES / "synthetic_bimodal.csv"))
        init = models.gamma_model(1e200, 2.0, 1000.0)
        with pytest.raises(FitFailureError):
            fit(curve, "gamma", FitConfig(target="ccdf", init_strategy=init,
                                          multistart_count=1))


class TestInitialize:
    def test_moments_within_basin(self):
        truth = TRUTHS["gamma"]
        curve = exact_curve(truth, "pdf")
        init = initialize(curve, "gamma", "moments")
        assert init.params.shape == pytest.approx(truth.params.shape, rel=0.25)
        assert init.params.scale == pytest.approx(truth.params.scale, rel=0.25)

    def test_moments_lognormal(self):
        truth = TRUTHS["lognormal"]
        curve = exact_curve(truth, "pdf")
        init = initialize(curve, "lognormal", "moments")
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
        init = initialize(curve, "bilognormal", "valley-split")
        assert init.family == "bilognormal"

    def test_explicit_passthrough(self):
        spec = TRUTHS["bigamma"]
        curve = exact_curve(spec, "pdf")
        assert initialize(curve, "bigamma", spec) is spec
        with pytest.raises(PreconditionError):
            initialize(curve, "bilognormal", spec)

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

    def test_r_squared_consistency_field(self):
        curve = exact_curve(TRUTHS["gamma"], "pdf")
        res = fit(curve, "gamma")
        assert res.r_squared == 1.0 - res.ss_res / res.ss_tot

    @pytest.mark.parametrize(
        "family,target,jitter",
        [
            ("gamma", "pdf", 0.2),
            ("lognormal", "ccdf", 0.2),
            ("bigamma", "ccdf", 0.1),
            ("bilognormal", "ccdf", 0.1),
        ],
    )
    def test_forward_jacobian_matches_central_oracle(self, family, target, jitter):
        # per-column 2-norm agreement; the forward scheme's truncation at
        # relative step 1e-6 measures below 7e-6 on these constructions
        truth = TRUTHS[family]
        x = np.geomspace(50.0, 50000.0, 40)
        theta = _to_unconstrained(family, models.param_pack(truth))
        rng = np.random.default_rng(41)
        sqrt_w = np.ones_like(x)
        for _ in range(5):
            point = theta + jitter * rng.standard_normal(theta.size)
            f0 = _predict(family, point, x, target)
            assert f0 is not None
            fwd = _jacobian(family, point, x, target, f0, 1e-6, sqrt_w)
            central = np.empty_like(fwd)
            for j in range(point.size):
                h = 1e-6 * max(abs(point[j]), 1.0)
                up, down = point.copy(), point.copy()
                up[j] += h
                down[j] -= h
                central[:, j] = (
                    _predict(family, up, x, target) - _predict(family, down, x, target)
                ) / (2.0 * h)
            col_norm = np.linalg.norm(central, axis=0)
            err = np.linalg.norm(fwd - central, axis=0) / col_norm
            assert err.max() <= 1e-5

    def test_shim_rejects_pathological_proposals(self):
        family = "gamma"
        x = np.geomspace(10.0, 1e4, 20)
        wild = np.array([800.0, 800.0, 800.0])  # exp overflow -> reject
        assert _predict(family, wild, x, "pdf") is None
        sane = _to_unconstrained(family, [1.0, 2.0, 100.0])
        f = _predict(family, sane, x, "pdf")
        assert f is not None and np.all(np.isfinite(f))

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
            f = _predict(family, low, x, target)
            if j % 3 == 0:
                zero_mass = vec.copy()
                zero_mass[j] = 0.0
                expected = evaluate(models.param_unpack(family, zero_mass), x)
                assert f is not None
                assert f == pytest.approx(expected, rel=1e-12, abs=0.0)
            elif j % 3 in must_stay_positive:
                assert f is None

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
        with pytest.raises(PreconditionError):
            FitConfig(step_tol=-1.0)
        with pytest.raises(PreconditionError):
            FitConfig(weighting="quadratic")
        with pytest.raises(PreconditionError):
            FitConfig(init_strategy="guess")

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
                    "iterations", "converged", "init_strategy"):
            assert any(line.startswith(key + " ") for line in text.splitlines())
