"""Histogram ingestion, empirical curves, subtraction, rebinning."""

import io

import numpy as np
import pytest

from conftest import binned_histogram, smooth5
from incomefit import models
from incomefit.empirical import (
    EmpiricalCurve,
    IncomeHistogram,
    dumps_histogram,
    load_histogram,
    rebin,
    subtract,
    to_ccdf_curve,
    to_pdf_curve,
)
from incomefit.errors import (
    AlignmentError,
    ConsistencyError,
    DomainError,
    ParseError,
    PreconditionError,
)

BASIC = """\
# label: world-1988
# currency: 2011 PPP USD
bin_low,bin_high,mass
100,1000,0.2
1000,10000,0.5
10000,60000,0.3
"""


def random_histogram(rng, n_bins=None):
    b = n_bins or int(rng.integers(2, 40))
    edges = np.geomspace(rng.uniform(1.0, 100.0), rng.uniform(1e4, 1e6), b + 1)
    mass = rng.uniform(0.0, 1.0, b)
    mass[int(rng.integers(0, b))] += 0.5  # keep total > 0
    return IncomeHistogram(edges, mass)


class TestLoad:
    def test_basic_fixture(self):
        h = load_histogram(io.StringIO(BASIC))
        assert h.n_bins == 3
        assert h.label == "world-1988"
        assert h.currency_note == "2011 PPP USD"
        assert np.array_equal(h.bin_edges, [100.0, 1000.0, 10000.0, 60000.0])
        assert np.array_equal(h.mass, [0.2, 0.5, 0.3])

    def test_whitespace_delimited(self):
        text = "bin_low bin_high mass\n100 1000 0.4\n1000 9000 0.6\n"
        h = load_histogram(io.StringIO(text))
        assert np.array_equal(h.mass, [0.4, 0.6])

    def test_shuffled_rows_load_identically(self):
        shuffled = "bin_low,bin_high,mass\n10000,60000,0.3\n100,1000,0.2\n1000,10000,0.5\n"
        a = load_histogram(io.StringIO(BASIC))
        b = load_histogram(io.StringIO(shuffled))
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert np.array_equal(a.mass, b.mass)

    def test_negative_mass_names_row(self):
        text = "bin_low,bin_high,mass\n100,1000,0.5\n1000,2000,-0.1\n"
        with pytest.raises(ParseError) as info:
            load_histogram(io.StringIO(text))
        assert "line 3" in str(info.value)

    def test_malformed_number_names_row(self):
        text = "bin_low,bin_high,mass\n100,1000,0.5\n1000,2000,zebra\n"
        with pytest.raises(ParseError) as info:
            load_histogram(io.StringIO(text))
        assert "line 3" in str(info.value)

    def test_non_contiguous_bins_rejected(self):
        text = "bin_low,bin_high,mass\n100,900,0.5\n1000,2000,0.5\n"
        with pytest.raises(ParseError):
            load_histogram(io.StringIO(text))

    def test_overlapping_bins_rejected(self):
        text = "bin_low,bin_high,mass\n100,1500,0.5\n1000,2000,0.5\n"
        with pytest.raises(ParseError):
            load_histogram(io.StringIO(text))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_histogram(io.StringIO("100,1000,0.5\n1000,2000,0.5\n"))

    @pytest.mark.parametrize("text, message, line", [
        ("# label: x\n# no header follows\n", "missing header row", None),
        ("bin_low,bin_high,mass\n", "no data rows", None),
        ("bin_low,bin_high,mass\n100,1000,0.5\n0,100,0.5\n", "non-positive income 0.0", 3),
        ("bin_mid,mass\n300,0.5\n-5,0.5\n", "non-positive income -5.0", 3),
        ("bin_low,bin_high,mass\n100,1000,0.5\n1000,1000,0.5\n",
         "bin_high 1000.0 not above bin_low 1000.0", 3),
        ("bin_mid,mass\n300,0.5\n300,0.5\n", "bin_mid values must be strictly increasing",
         None),
        ("bin_mid,mass\n300,1.0\n", "need at least 2 midpoints to reconstruct edges", None),
        ("bin_low,bin_high,mass\n100,1000,1.0\n", "histogram needs at least 2 bins", None),
    ], ids=["comments-only", "header-only", "zero-bin-low", "negative-bin-mid",
            "empty-bin", "duplicate-bin-mid", "one-bin-mid", "one-bin-edges"])
    def test_rejected_input_is_a_parse_error(self, text, message, line):
        with pytest.raises(ParseError) as info:
            load_histogram(io.StringIO(text))
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    def test_bin_mid_reconstruction(self):
        mids = np.sqrt(np.array([100.0, 1000.0]) * np.array([1000.0, 10000.0]))
        text = "bin_mid,mass\n" + "".join(f"{float(m)!r},0.5\n" for m in mids)
        h = load_histogram(io.StringIO(text))
        assert h.bin_edges == pytest.approx([100.0, 1000.0, 10000.0], rel=1e-12)

    @pytest.mark.parametrize("text", [BASIC, "bin_low,bin_high,mass\n100,1000,0.4\n1000,9000,0.6\n"],
                             ids=["comments-first", "header-first"])
    def test_byte_order_mark_and_crlf_load_as_plain(self, tmp_path, text):
        plain, exported = tmp_path / "plain.csv", tmp_path / "exported.csv"
        plain.write_bytes(text.encode("utf-8"))
        exported.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        a, b = load_histogram(plain), load_histogram(exported)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert np.array_equal(a.mass, b.mass)
        assert (a.label, a.currency_note) == (b.label, b.currency_note)

    def test_round_trip_bit_exact(self):
        h = load_histogram(io.StringIO(BASIC))
        again = load_histogram(io.StringIO(dumps_histogram(h)))
        assert np.array_equal(h.bin_edges, again.bin_edges)
        assert np.array_equal(h.mass, again.mass)
        assert dumps_histogram(h) == dumps_histogram(again)


class TestPdfCurve:
    def test_density_is_mass_over_width(self):
        h = IncomeHistogram([1000.0, 2000.0, 4000.0], [1.0, 0.0])
        curve = to_pdf_curve(h)
        assert curve.x[0] == pytest.approx(np.sqrt(1000.0 * 2000.0), rel=1e-14)
        assert curve.y[0] == pytest.approx(1.0 / 1000.0, rel=1e-14)

    def test_normalize_is_scale_invariant(self):
        h = load_histogram(io.StringIO(BASIC))
        doubled = IncomeHistogram(h.bin_edges, 2.0 * h.mass)
        a = to_pdf_curve(h, normalize=True)
        b = to_pdf_curve(doubled, normalize=True)
        assert np.array_equal(a.y, b.y)

    def test_per_log_income_option(self):
        h = load_histogram(io.StringIO(BASIC))
        curve = to_pdf_curve(h, per_log_income=True)
        widths = np.diff(np.log(h.bin_edges))
        assert curve.y == pytest.approx(h.mass / widths, rel=1e-14)

    def test_world_fixture_is_bimodal(self):
        # two local maxima straddling a valley, as in the world-1988 shape
        world = binned_histogram(
            [
                models.lognormal_model(0.5, np.log(700.0), 0.55),
                models.lognormal_model(0.5, np.log(15000.0), 0.5),
            ]
        )
        curve = to_pdf_curve(world, per_log_income=True)
        s = smooth5(curve.y)
        peaks = [
            i for i in range(1, s.size - 1) if s[i] >= s[i - 1] and s[i] >= s[i + 1]
        ]
        assert len(peaks) >= 2

    def test_reintegration_recovers_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu = rng.uniform(5.5, 9.5)
            sigma = rng.uniform(0.4, 1.0)
            h = binned_histogram([models.lognormal_model(1.0, mu, sigma)])
            curve = to_pdf_curve(h, normalize=True)
            total = np.trapezoid(curve.y, curve.x)
            assert total == pytest.approx(1.0, abs=0.02)


class TestCcdfCurve:
    def test_right_tail_sums(self):
        h = load_histogram(io.StringIO(BASIC))
        curve = to_ccdf_curve(h, normalize=True)
        assert np.array_equal(curve.x, [100.0, 1000.0, 10000.0])
        assert curve.y == pytest.approx([1.0, 0.8, 0.3], rel=1e-14)

    def test_first_ordinate_is_one_when_normalized(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            curve = to_ccdf_curve(random_histogram(rng), normalize=True)
            assert curve.y[0] == pytest.approx(1.0, rel=1e-12)

    def test_unnormalized_keeps_total(self):
        h = IncomeHistogram([100.0, 1000.0, 10000.0], [0.5, 0.34])
        curve = to_ccdf_curve(h)
        assert curve.y[0] == pytest.approx(0.84, rel=1e-14)

    def test_last_ordinate_is_last_mass(self):
        h = load_histogram(io.StringIO(BASIC))
        curve = to_ccdf_curve(h)
        assert curve.y[-1] == pytest.approx(h.mass[-1], rel=1e-14)

    def test_nonincreasing_property(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            curve = to_ccdf_curve(random_histogram(rng))
            assert np.all(np.diff(curve.y) <= 1e-15)


class TestSubtract:
    def test_empty_parts_is_identity(self):
        h = load_histogram(io.StringIO(BASIC))
        out = subtract(h, [])
        assert np.array_equal(out.mass, h.mass)
        assert np.array_equal(out.bin_edges, h.bin_edges)

    def test_subtracting_world_from_itself_errors(self):
        h = load_histogram(io.StringIO(BASIC))
        with pytest.raises(ConsistencyError, match="zero total mass"):
            subtract(h, [h], renormalize=True)

    def test_component_removal_recovers_other_component(self):
        comp1 = models.lognormal_model(0.5, np.log(600.0), 0.6)
        comp2 = models.lognormal_model(0.5, np.log(9000.0), 0.55)
        world = binned_histogram([comp1, comp2])
        part = binned_histogram([comp1])
        expected = binned_histogram([comp2])
        residual = subtract(world, [part])
        assert np.max(np.abs(residual.mass - expected.mass)) <= 1e-9

    def test_mismatched_edges_raise_alignment(self):
        h = load_histogram(io.StringIO(BASIC))
        other = IncomeHistogram([100.0, 2000.0, 60000.0], [0.1, 0.1])
        with pytest.raises(AlignmentError):
            subtract(h, [other])

    def test_part_exceeding_world_names_bin(self):
        h = load_histogram(io.StringIO(BASIC))
        part = IncomeHistogram(h.bin_edges, [0.3, 0.1, 0.1])
        with pytest.raises(ConsistencyError) as info:
            subtract(h, [part])
        assert "bin 0" in str(info.value)

    def test_linearity(self):
        rng = np.random.default_rng(24)
        edges = np.geomspace(50.0, 5e4, 21)
        world = IncomeHistogram(edges, rng.uniform(0.5, 1.0, 20))
        a = IncomeHistogram(edges, rng.uniform(0.0, 0.2, 20))
        b = IncomeHistogram(edges, rng.uniform(0.0, 0.2, 20))
        joint = subtract(world, [a, b])
        nested = subtract(subtract(world, [a]), [b])
        assert np.array_equal(joint.mass, nested.mass)

    def test_tiny_negative_clamped(self):
        edges = [100.0, 1000.0, 10000.0]
        world = IncomeHistogram(edges, [0.5, 0.5])
        part = IncomeHistogram(edges, [0.5 + 5e-13, 0.25])
        out = subtract(world, [part])
        assert out.mass[0] == 0.0


class TestRebin:
    def test_identity(self):
        h = load_histogram(io.StringIO(BASIC))
        out = rebin(h, h.bin_edges)
        assert out.mass == pytest.approx(h.mass, abs=1e-15)

    def test_log_halves_split_mass_equally(self):
        h = load_histogram(io.StringIO(BASIC))
        mid = float(np.sqrt(100.0 * 1000.0))
        out = rebin(h, [100.0, mid, 1000.0, 10000.0, 60000.0])
        assert out.mass[0] == pytest.approx(out.mass[1], rel=1e-12)
        assert out.mass[0] + out.mass[1] == pytest.approx(0.2, rel=1e-12)

    def test_total_mass_conserved(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            h = random_histogram(rng, n_bins=15)
            new_edges = np.geomspace(h.bin_edges[0], h.bin_edges[-1], 29)
            out = rebin(h, new_edges)
            assert abs(out.total_mass() - h.total_mass()) <= 1e-12

    def test_equals_the_per_bin_loop(self):
        # the reference: each source bin's mass added in turn, in log income
        def loop(hist, new):
            log_old, log_new = np.log(hist.bin_edges), np.log(new)
            out = np.zeros(new.size - 1)
            for j, m in enumerate(hist.mass):
                overlap = (np.minimum(log_new[1:], log_old[j + 1])
                           - np.maximum(log_new[:-1], log_old[j]))
                out += m * np.clip(overlap, 0.0, None) / (log_old[j + 1] - log_old[j])
            return out

        rng = np.random.default_rng(26)
        for _ in range(50):
            h = random_histogram(rng)
            mass = np.where(rng.random(h.n_bins) < 0.3, 0.0, h.mass)
            h = IncomeHistogram(h.bin_edges, mass if mass.sum() > 0.0 else h.mass)
            new = np.sort(rng.uniform(h.bin_edges[0], h.bin_edges[-1], int(rng.integers(3, 60))))
            assert np.array_equal(rebin(h, new).mass, loop(h, new))

    def test_zero_mass_bins_stay_empty(self):
        edges = np.geomspace(10.0, 1e5, 11)
        mass = np.array([0.1, 0.0, 0.0, 0.3, 0.2, 0.0, 0.1, 0.2, 0.0, 0.1])
        h = IncomeHistogram(edges, mass)
        # every source edge, and the log midpoint of every source bin
        out = rebin(h, np.sort(np.concatenate((edges, np.sqrt(edges[:-1] * edges[1:])))))
        assert abs(out.total_mass() - h.total_mass()) <= 1e-12
        halves = out.mass.reshape(-1, 2)
        assert np.all(halves[mass == 0.0] == 0.0)
        assert np.all(halves[mass > 0.0] > 0.0)

    @pytest.mark.parametrize("edges, message", [
        ([100.0, 1000.0], "at least 3 edges"),
        ([100.0, 1000.0, 1000.0], "strictly increasing"),
        ([100.0, 5000.0, 1000.0], "strictly increasing"),
    ], ids=["two-edges", "repeated-edge", "decreasing-edge"])
    def test_bad_new_edges(self, edges, message):
        h = load_histogram(io.StringIO(BASIC))
        with pytest.raises(DomainError, match=message):
            rebin(h, edges)

    def test_span_violation(self):
        h = load_histogram(io.StringIO(BASIC))
        with pytest.raises(DomainError):
            rebin(h, [50.0, 1000.0, 60000.0])
        with pytest.raises(DomainError):
            rebin(h, [100.0, 1000.0, 70000.0])


class TestTypeInvariants:
    def test_histogram_invariants(self):
        with pytest.raises(PreconditionError):
            IncomeHistogram([100.0, 90.0, 200.0], [0.5, 0.5])  # decreasing edges
        with pytest.raises(PreconditionError):
            IncomeHistogram([-1.0, 100.0, 200.0], [0.5, 0.5])  # non-positive edge
        with pytest.raises(PreconditionError):
            IncomeHistogram([100.0, 200.0], [1.0])  # B < 2
        with pytest.raises(PreconditionError):
            IncomeHistogram([100.0, 200.0, 300.0], [0.0, 0.0])  # zero total

    def test_curve_invariants(self):
        with pytest.raises(PreconditionError):
            EmpiricalCurve([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], "pdf")
        with pytest.raises(PreconditionError):
            EmpiricalCurve([1.0, 2.0], [1.0, -1.0], "pdf")
        with pytest.raises(PreconditionError):
            EmpiricalCurve([1.0, 2.0], [0.5, 0.9], "ccdf")  # increasing ccdf
        with pytest.raises(PreconditionError):
            EmpiricalCurve([1.0, 2.0], [1.0, 0.5], "spectrum")
        for x in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(PreconditionError):
                EmpiricalCurve(x, [1.0, 1.0], "pdf")
            with pytest.raises(PreconditionError):
                EmpiricalCurve(x, [1.0, 0.5], "ccdf")

    def test_arrays_are_readonly(self):
        h = IncomeHistogram([100.0, 200.0, 400.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            h.mass[0] = 2.0
