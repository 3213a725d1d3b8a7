"""Model families: closed forms, mixture linearity, packing."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from scipy import integrate, stats

import incomefit
from incomefit import models
from incomefit.errors import DomainError, OverflowRangeError, PreconditionError
from incomefit.models import (
    BiGammaParams,
    GammaParams,
    LogNormalParams,
    ModelSpec,
    bigamma_model,
    bilognormal_model,
    ccdf,
    cdf,
    gamma_model,
    lognormal_model,
    param_pack,
    param_unpack,
    pdf,
    total_amplitude,
)

# frozen from a 40-digit oracle: P(2.5, 5000/3000)
GAMMA_CDF_2p5_3000_AT_5000 = 0.3512576413324066152778846915390266


def random_models(rng, count):
    """A spread of plausible parameter draws across all four families."""
    out = []
    for _ in range(count):
        a1, a2 = rng.uniform(0.2, 1.5, 2)
        n1, n2 = rng.uniform(0.8, 6.0, 2)
        m1, m2 = rng.uniform(100.0, 20000.0, 2)
        mu1, mu2 = rng.uniform(4.0, 10.5, 2)
        s1, s2 = rng.uniform(0.25, 1.3, 2)
        out.extend(
            [
                gamma_model(a1, n1, m1),
                lognormal_model(a1, mu1, s1),
                bigamma_model(a1, n1, m1, a2, n2, m2),
                bilognormal_model(a1, mu1, s1, a2, mu2, s2),
            ]
        )
    return out


class TestPdf:
    def test_lognormal_mode_value(self):
        model = lognormal_model(1.0, 0.0, 1.0)
        assert pdf(model, 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_gamma_exponential_case(self):
        model = gamma_model(1.0, 1.0, 1.0)
        assert pdf(model, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_mixture_additivity(self):
        rng = np.random.default_rng(5)
        x = np.exp(rng.uniform(np.log(10.0), np.log(1e5), 100))
        mix = bilognormal_model(0.7, 6.0, 0.5, 0.3, 9.0, 0.7)
        parts = (
            lognormal_model(0.7, 6.0, 0.5),
            lognormal_model(0.3, 9.0, 0.7),
        )
        expected = pdf(parts[0], x) + pdf(parts[1], x)
        assert np.array_equal(pdf(mix, x), expected)

    def test_bigamma_additivity(self):
        rng = np.random.default_rng(6)
        x = np.exp(rng.uniform(np.log(10.0), np.log(1e5), 100))
        mix = bigamma_model(0.6, 2.0, 300.0, 0.4, 3.5, 4000.0)
        expected = pdf(gamma_model(0.6, 2.0, 300.0), x) + pdf(
            gamma_model(0.4, 3.5, 4000.0), x
        )
        assert np.array_equal(pdf(mix, x), expected)

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(7)
        x = np.geomspace(1.0, 1e6, 200)
        for model in random_models(rng, 10):
            vals = pdf(model, x)
            assert np.all(np.isfinite(vals))
            assert np.all(vals >= 0.0)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            pdf(gamma_model(1.0, 2.0, 100.0), 0.0)
        with pytest.raises(DomainError):
            pdf(lognormal_model(1.0, 0.0, 1.0), -5.0)
        with pytest.raises(DomainError):
            pdf(gamma_model(1.0, 2.0, 100.0), [1.0, math.inf])


class TestCdf:
    def test_lognormal_median(self):
        mu = 7.3
        assert cdf(lognormal_model(1.0, mu, 0.8), math.exp(mu)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_gamma_exponential_case(self):
        assert cdf(gamma_model(1.0, 1.0, 1.0), 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )

    def test_frozen_quadrature_value(self):
        model = gamma_model(1.0, 2.5, 3000.0)
        assert cdf(model, 5000.0) == pytest.approx(GAMMA_CDF_2p5_3000_AT_5000, abs=1e-9)
        oracle, _ = integrate.quad(lambda t: pdf(model, t), 1e-12, 5000.0,
                                   epsabs=1e-12, epsrel=1e-12)
        assert cdf(model, 5000.0) == pytest.approx(oracle, abs=1e-9)

    def test_cdf_at_zero(self):
        for model in random_models(np.random.default_rng(8), 3):
            assert cdf(model, 0.0) == 0.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        x = np.geomspace(0.5, 1e6, 300)
        for model in random_models(rng, 8):
            vals = cdf(model, x)
            assert np.all(np.diff(vals) >= 0.0)
            assert vals[-1] <= total_amplitude(model) + 1e-12

    def test_domain_error_negative(self):
        with pytest.raises(DomainError):
            cdf(gamma_model(1.0, 2.0, 100.0), -1.0)

    @pytest.mark.parametrize(
        "model",
        [
            gamma_model(1.0, 2.2, 1500.0),
            lognormal_model(1.0, 7.0, 0.7),
            bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0),
            bilognormal_model(0.55, math.log(600.0), 0.6, 0.45, math.log(9000.0), 0.55),
        ],
        ids=["gamma", "lognormal", "bigamma", "bilognormal"],
    )
    def test_large_sorted_array_matches_scipy(self, model):
        x = np.geomspace(5.0, 2e5, 10**5)
        expected = np.zeros_like(x)
        for amp, a, b in param_pack(model).reshape(-1, 3):
            if "gamma" in model.family:
                expected += amp * stats.gamma.cdf(x, a, scale=b)
            else:
                expected += amp * stats.lognorm.cdf(x, b, scale=math.exp(a))
        assert np.max(np.abs(cdf(model, x) - expected)) <= 1e-13


class TestCcdf:
    def test_value_at_zero_is_total_amplitude(self):
        for model in random_models(np.random.default_rng(10), 3):
            assert ccdf(model, 0.0) == pytest.approx(total_amplitude(model), rel=1e-12)

    def test_lognormal_median_complement(self):
        mu = 6.1
        assert ccdf(lognormal_model(1.0, mu, 0.5), math.exp(mu)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_bigamma_linearity(self):
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(0.0, np.log(1e5), 100))
        mix = bigamma_model(0.45, 1.5, 250.0, 0.55, 4.0, 6000.0)
        expected = ccdf(gamma_model(0.45, 1.5, 250.0), x) + ccdf(
            gamma_model(0.55, 4.0, 6000.0), x
        )
        assert np.array_equal(ccdf(mix, x), expected)

    def test_complement_identity(self):
        rng = np.random.default_rng(12)
        x = np.geomspace(1.0, 1e6, 200)
        for model in random_models(rng, 8):
            total = total_amplitude(model)
            assert np.max(np.abs(cdf(model, x) + ccdf(model, x) - total)) <= 1e-12

    def test_nonincreasing(self):
        x = np.geomspace(0.5, 1e6, 300)
        for model in random_models(np.random.default_rng(13), 8):
            assert np.all(np.diff(ccdf(model, x)) <= 0.0)


class TestNormalization:
    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    def test_unit_amplitude_integrates_to_one(self, family):
        rng = np.random.default_rng(14)
        for _ in range(50):
            if family == "gamma":
                n = float(rng.uniform(1.0, 8.0))
                m = float(rng.uniform(100.0, 20000.0))
                model = gamma_model(1.0, n, m)
                x_hi = float(stats.gamma.ppf(1.0 - 1e-10, n, scale=m))
            else:
                mu = float(rng.uniform(4.0, 10.0))
                s = float(rng.uniform(0.25, 1.2))
                model = lognormal_model(1.0, mu, s)
                x_hi = float(stats.lognorm.ppf(1.0 - 1e-10, s, scale=math.exp(mu)))
            mass, _ = integrate.quad(
                lambda t: pdf(model, t), 1e-9, x_hi, limit=200,
                epsabs=1e-10, epsrel=1e-10,
            )
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cdf_derivative_matches_pdf(self):
        rng = np.random.default_rng(15)
        for model in random_models(rng, 5):
            x = np.exp(rng.uniform(np.log(50.0), np.log(1e5), 5))
            h = 1e-5 * x
            derivative = (cdf(model, x + h) - cdf(model, x - h)) / (2.0 * h)
            density = pdf(model, x)
            tol = np.maximum(1e-6, 1e-4 * density)
            assert np.all(np.abs(derivative - density) <= tol)



class TestEvaluateColumns:
    @pytest.mark.parametrize("which", ["pdf", "ccdf"])
    def test_values_bit_identical_to_evaluate(self, which):
        # the ordinates of a one-row stack are those of pdf or ccdf
        rng = np.random.default_rng(23)
        x = np.geomspace(30.0, 60000.0, 60)
        if which == "ccdf":
            x = np.concatenate(([0.0], x))
        evaluate = pdf if which == "pdf" else ccdf
        for model in random_models(rng, 5):
            vec = param_pack(model)
            values, cols = models.evaluate_columns(model.family, vec[None], x, which)
            assert values.tobytes() == evaluate(model, x).tobytes()
            assert cols.shape == (1, x.size, vec.size)
            assert np.all(np.isfinite(cols))
            if which == "ccdf":
                # the tail mass at 0 is the amplitude, whatever the shape
                assert np.array_equal(cols[0, 0], vec * (np.arange(vec.size) % 3 == 0))

    @pytest.mark.parametrize("which", ["pdf", "ccdf"])
    def test_zero_amplitude_component_has_zero_columns(self, which):
        # a subnormal sigma makes z infinite: the columns are still 0, not
        # the NaN of 0 * inf
        x = np.geomspace(10.0, 1e4, 20)
        for family, vec in (
            ("bigamma", [1.0, 2.0, 100.0, 0.0, 2.0, 500.0]),
            ("bilognormal", [1.0, 6.0, 0.5, 0.0, 8.0, 0.7]),
            ("bilognormal", [1.0, 6.0, 0.5, 0.0, 8.0, 1e-320]),
        ):
            _, cols = models.evaluate_columns(family, np.array([vec]), x, which)
            assert np.all(cols[0, :, 3:] == 0.0)


    @pytest.mark.parametrize("which", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_stacked_rows_equal_single_vector_calls(self, family, which):
        # every row of a (k, p) stack, a one-row stack included, equals the
        # call on the one-row stack of that row bit for bit, also where a
        # row's component has zero mass: in one row, in every row, or in a
        # one-row stack
        rng = np.random.default_rng(29)
        x = np.geomspace(30.0, 60000.0, 60)
        if which == "ccdf":
            x = np.concatenate(([0.0], x))
        stack = np.array([param_pack(m) for m in random_models(rng, 6) if m.family == family])
        zero_mass = stack.copy()
        zero_mass[:, -3] = 0.0
        for rows in (stack, stack[:1], np.vstack((stack, zero_mass[:1])), zero_mass,
                     zero_mass[:1]):
            values, cols = models.evaluate_columns(family, rows, x, which)
            assert values.shape == (len(rows), x.size)
            assert cols.shape == (len(rows), x.size, rows.shape[1])
            for row, row_values, row_cols in zip(rows, values, cols):
                alone_values, alone_cols = models.evaluate_columns(family, row[None], x, which)
                assert row_values.tobytes() == alone_values[0].tobytes()
                assert row_cols.tobytes() == alone_cols[0].tobytes()

    @pytest.mark.parametrize("which", ["pdf", "ccdf"])
    @pytest.mark.parametrize("family", ["bigamma", "bilognormal"])
    def test_zero_mass_component_makes_no_kernel_call(self, family, which, monkeypatch):
        # the dead components' parameters make every kernel raise, so a
        # stacked call must run them on no row; each row still equals its
        # one-row call bit for bit, and its dead columns are 0
        rng = np.random.default_rng(37)
        x = np.concatenate(([0.0], np.geomspace(30.0, 60000.0, 60)))[which == "pdf":]
        stack = np.array([param_pack(m) for m in random_models(rng, 6) if m.family == family])
        dead = (0.0, 77.0, 500.0) if family == "bigamma" else (0.0, 1000.0, 1e-3)
        stack[1::2, 3:] = dead
        stack[2, :3] = dead

        def refusing(kernel):
            def guarded(*args):
                # a gamma shape of 77 or a normal CDF argument beyond 1e5
                # comes only from a dead component
                if any(np.any((np.asarray(a) == 77.0) | (np.abs(a) > 1e5)) for a in args):
                    raise AssertionError("kernel called on a zero-mass component")
                return kernel(*args)
            return guarded

        for name in ("log_gamma", "digamma", "reg_upper_incomplete_gamma", "std_normal_cdf"):
            monkeypatch.setattr(models, name, refusing(getattr(models, name)))
        values, cols = models.evaluate_columns(family, stack, x, which)
        for i, row in enumerate(stack):
            alone_values, alone_cols = models.evaluate_columns(family, row[None], x, which)
            assert values[i].tobytes() == alone_values[0].tobytes()
            assert cols[i].tobytes() == alone_cols[0].tobytes()
            for c in range(0, 6, 3):
                if row[c] == 0.0:
                    assert np.all(cols[i, :, c:c + 3] == 0.0)


def _bits(value):
    return np.float64(value).tobytes()


class TestScalarCalls:
    @pytest.mark.parametrize("fn", [pdf, cdf, ccdf])
    def test_float_equals_zero_d_array(self, fn):
        # a Python float, a numpy float and a 0-d array all take the scalar
        # path: each gives a float with the bits of a one-element array call,
        # and no RuntimeWarning (the suite makes those errors)
        zero_mass = [
            bigamma_model(0.0, 2.0, 256.0, 0.6, 3.5, 2048.0),
            bilognormal_model(0.4, 6.0, 0.5, 0.0, 9.0, 0.7),
        ]
        # with a power-of-two scale m, x = (n + 1) m puts x/m exactly on the
        # incomplete gamma's regime split
        split = gamma_model(0.7, 2.5, 1024.0)
        for model in random_models(np.random.default_rng(31), 2) + zero_mass + [split]:
            xs = [0.5, 1234.5, 3e5, 1e-300, 1e8] + ([] if fn is pdf else [0.0])
            if model.family in ("gamma", "bigamma"):
                for _, n, m in param_pack(model).reshape(-1, 3).tolist():
                    x = (n + 1.0) * m
                    xs += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
            for x in xs:
                expected = fn(model, np.array([x]))[0]
                for scalar in (x, np.float64(x), np.array(x)):
                    out = fn(model, scalar)
                    assert type(out) is float
                    assert _bits(out) == _bits(expected), (model, x)

    @pytest.mark.parametrize("fn, bad", [
        (pdf, (0.0, -1.0, math.nan, math.inf)),
        (cdf, (-1.0, math.nan, -math.inf)),
        (ccdf, (-1.0, math.nan, math.inf)),
    ])
    def test_invalid_floats_raise_the_array_errors(self, fn, bad):
        model = gamma_model(1.0, 2.0, 100.0)
        for x in bad:
            with pytest.raises(DomainError) as expected:
                fn(model, np.array([x]))
            for scalar in (x, np.float64(x), np.array(x)):
                with pytest.raises(DomainError) as raised:
                    fn(model, scalar)
                assert str(raised.value) == str(expected.value)

    def test_underflowing_denominator_warns_as_the_array_does(self):
        # x sigma sqrt(2 pi) underflows to 0: a float gives numpy's NaN and
        # RuntimeWarnings, as a one-element array does, not ZeroDivisionError
        model = lognormal_model(1.0, 0.0, 0.1)
        with pytest.warns(RuntimeWarning):
            expected = pdf(model, np.array([5e-324]))[0]
        with pytest.warns(RuntimeWarning):
            out = pdf(model, 5e-324)
        assert math.isnan(out) and math.isnan(expected)

    @pytest.mark.parametrize("fn", [pdf, cdf, ccdf])
    def test_huge_shape_raises_overflow_range_error(self, fn):
        # log Gamma(n) leaves the float range above n ~ 2.56e305: the package's
        # error, which the fitter rejects a proposal on, not math's OverflowError
        model = gamma_model(1.0, 1e306, 1.0)
        for x in (1.0, np.array([1.0, 2.0])):
            with pytest.raises(OverflowRangeError):
                fn(model, x)


class TestPackUnpack:
    def test_round_trip_gamma(self):
        assert np.array_equal(
            param_pack(param_unpack("gamma", [1.0, 2.0, 3.0])), [1.0, 2.0, 3.0]
        )

    def test_round_trip_all_families(self):
        vectors = {
            "gamma": [0.8, 2.5, 1200.0],
            "lognormal": [0.9, 7.1, 0.55],
            "bigamma": [0.6, 2.0, 400.0, 0.4, 4.0, 3000.0],
            "bilognormal": [0.5, 6.0, 0.6, 0.5, 9.0, 0.5],
        }
        for family, vec in vectors.items():
            assert np.array_equal(param_pack(param_unpack(family, vec)), vec)

    def test_wrong_arity_rejected(self):
        with pytest.raises(PreconditionError):
            param_unpack("bilognormal", [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(PreconditionError):
            param_unpack("gamma", [1.0, 2.0])
        with pytest.raises(PreconditionError):
            param_unpack("trigamma", [1.0, 2.0, 3.0])

    def test_canonicalization_swaps_components(self):
        packed = param_pack(bigamma_model(0.3, 2.0, 5000.0, 0.7, 1.5, 100.0))
        assert np.array_equal(packed, [0.7, 1.5, 100.0, 0.3, 2.0, 5000.0])
        packed = param_pack(bilognormal_model(0.2, 9.0, 0.4, 0.8, 6.0, 0.7))
        assert np.array_equal(packed, [0.8, 6.0, 0.7, 0.2, 9.0, 0.4])


class TestModelVector:
    # models built from ints and numpy scalars, next to the raw inputs
    MIXED = [
        (gamma_model(1, 2, 1024), (1, 2, 1024)),
        (lognormal_model(np.float32(0.1), np.int64(7), np.float64(0.75)),
         (np.float32(0.1), np.int64(7), np.float64(0.75))),
        (bigamma_model(np.float64(0.25), 3, np.int32(4096), 1, np.float32(2.5), 256),
         (1, np.float32(2.5), 256, np.float64(0.25), 3, np.int32(4096))),
        (bilognormal_model(np.float32(0.3), 9, np.float64(0.5), 1, np.int16(6), np.float32(0.7)),
         (1, np.int16(6), np.float32(0.7), np.float32(0.3), 9, np.float64(0.5))),
    ]

    def test_int_and_numpy_inputs_pack_and_format_as_floats(self):
        for model, raw in self.MIXED:
            packed = param_pack(model)
            assert packed.dtype == np.float64
            assert _bits(packed) == _bits(np.array(raw, dtype=float))
            floats = param_unpack(model.family, [float(v) for v in raw])
            assert models.format_model(model) == models.format_model(floats)
        assert models.format_model(self.MIXED[0][0]) == (
            "family = gamma\nA = 1.0\nn = 2.0\nm = 1024.0\n"
        )

    @pytest.mark.parametrize("fn", [pdf, cdf, ccdf])
    def test_int_and_numpy_inputs_evaluate_as_one_element_arrays(self, fn):
        xs = [1e-300, 0.5, 300.0, 1234.5, 5000.0, 3e5, 1e8]
        for model, raw in self.MIXED:
            floats = param_unpack(model.family, [float(v) for v in raw])
            for x in xs:
                out = fn(model, x)
                assert type(out) is float
                assert _bits(out) == _bits(fn(model, np.array([x]))[0]), (model, x)
                assert _bits(out) == _bits(fn(floats, x)), (model, x)

    def test_replaced_params_evaluate_the_new_vector(self):
        model = gamma_model(1.0, 2.0, 100.0)
        moved = dataclasses.replace(model, params=GammaParams(1.0, 3.0, 100.0))
        assert param_pack(moved).tolist() == [1.0, 3.0, 100.0]
        assert pdf(moved, 50.0) == pdf(gamma_model(1.0, 3.0, 100.0), 50.0)
        assert pdf(moved, 50.0) != pdf(model, 50.0)
        # a replaced record is put in canonical order before the vector is taken
        bimodal = bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0)
        swapped = dataclasses.replace(bimodal, params=BiGammaParams(
            GammaParams(0.3, 5.0, 8000.0), GammaParams(0.7, 1.5, 200.0)))
        assert param_pack(swapped).tolist() == [0.7, 1.5, 200.0, 0.3, 5.0, 8000.0]
        expected = bigamma_model(0.7, 1.5, 200.0, 0.3, 5.0, 8000.0)
        for fn in (pdf, cdf, ccdf):
            assert fn(swapped, 2500.0) == fn(expected, 2500.0)


class TestSpecValidation:
    def test_family_params_mismatch(self):
        with pytest.raises(PreconditionError):
            ModelSpec("gamma", LogNormalParams(1.0, 0.0, 1.0))
        with pytest.raises(PreconditionError):
            ModelSpec("bigamma", GammaParams(1.0, 2.0, 3.0))

    def test_invalid_parameters(self):
        with pytest.raises(PreconditionError):
            GammaParams(1.0, -2.0, 3.0)
        with pytest.raises(PreconditionError):
            GammaParams(-0.1, 2.0, 3.0)
        with pytest.raises(PreconditionError):
            LogNormalParams(1.0, 0.0, 0.0)
        with pytest.raises(PreconditionError):
            GammaParams(math.nan, 2.0, 3.0)

    def test_zero_amplitude_component_allowed(self):
        spec = ModelSpec(
            "bigamma",
            BiGammaParams(GammaParams(1.0, 2.0, 100.0), GammaParams(0.0, 2.0, 500.0)),
        )
        x = np.geomspace(10.0, 1e4, 20)
        assert np.array_equal(pdf(spec, x), pdf(gamma_model(1.0, 2.0, 100.0), x))

    def test_format_model_round_trips_family_and_names(self):
        text = models.format_model(bigamma_model(0.6, 2.0, 400.0, 0.4, 4.0, 3000.0))
        lines = text.strip().splitlines()
        assert lines[0] == "family = bigamma"
        keys = [line.split(" = ")[0] for line in lines[1:]]
        assert keys == ["A1", "n1", "m1", "A2", "n2", "m2"]


def test_every_exported_name_exists():
    # a deleted function must not stay behind in its module's __all__
    modules = [incomefit] + [importlib.import_module(f"incomefit.{info.name}")
                             for info in pkgutil.iter_modules(incomefit.__path__)]
    assert sum(hasattr(m, "__all__") for m in modules) >= 5
    missing = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
