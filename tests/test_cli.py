"""Command-line interface: exit codes, output files, determinism."""

import os
import re
import stat
from dataclasses import fields

import numpy as np
import pytest

from conftest import FIXTURES, valley_ratio
from incomefit import models
from incomefit.cli import build_parser, main
from incomefit.empirical import (
    IncomeHistogram,
    load_histogram,
    rebin,
    save_histogram,
    subtract,
    to_ccdf_curve,
    to_pdf_curve,
)
from incomefit.errors import FitFailureError, PreconditionError
from incomefit.fitter import FitConfig, fit

BIMODAL = FIXTURES / "synthetic_bimodal.csv"
WORLD3 = FIXTURES / "synthetic_world3.csv"
CHINAINDIA = FIXTURES / "synthetic_chinaindia.csv"


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def strip_manifest(text):
    # the manifest block runs from "# incomefit ..." through "# timestamp: ..."
    kept = []
    in_manifest = False
    for line in text.splitlines():
        if line.startswith("# incomefit "):
            in_manifest = True
            continue
        if in_manifest:
            if line.startswith("# timestamp:"):
                in_manifest = False
            continue
        kept.append(line)
    return "\n".join(kept) + "\n"


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp:")
    )


class TestFit:
    def test_bimodal_fixture_high_r_squared(self, tmp_path):
        out = tmp_path / "result.txt"
        code = main(
            ["fit", str(BIMODAL), "--family", "bilognormal", "--target", "pdf",
             "--out", str(out)]
        )
        assert code == 0
        doc = read_kv(out)
        assert doc["family"] == "bilognormal"
        assert float(doc["r_squared"]) >= 0.999
        assert doc["converged"] == "true"

    def test_plot_data_written_on_dense_grid(self, tmp_path):
        out = tmp_path / "result.txt"
        main(["fit", str(BIMODAL), "--family", "gamma", "--out", str(out)])
        plot = tmp_path / "result.curve.txt"
        rows = [
            line.split(",")
            for line in plot.read_text().splitlines()
            if line and not line.startswith("#") and line != "x,y"
        ]
        xs = np.array([float(r[0]) for r in rows])
        ys = np.array([float(r[1]) for r in rows])
        assert xs.size >= 600  # curve grid plus the 10x denser log grid
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.isfinite(ys))

    def test_five_point_curve_accepted_four_rejected(self, tmp_path):
        hist = load_histogram(BIMODAL)
        for n_bins, expected in ((5, 0), (4, 2)):
            edges = np.geomspace(30.0, 60000.0, n_bins + 1)
            from incomefit.empirical import rebin

            small = rebin(hist, edges)
            path = tmp_path / f"small{n_bins}.csv"
            save_histogram(small, path)
            code = main(
                ["fit", str(path), "--family", "gamma",
                 "--out", str(tmp_path / f"r{n_bins}.txt")]
            )
            assert code == expected, f"{n_bins} bins -> exit {code}"

    def test_determinism_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["fit", str(WORLD3), "--family", "bigamma", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())

    def test_non_convergence_exit_three_still_writes(self, tmp_path):
        out = tmp_path / "result.txt"
        code = main(
            ["fit", str(WORLD3), "--family", "bilognormal", "--out", str(out),
             "--max-iterations", "1", "--multistart", "1"]
        )
        assert code == 3
        assert out.exists()
        assert read_kv(out)["converged"] == "false"

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_low,bin_high,mass\n100,1000,-0.5\n1000,2000,0.5\n")
        assert main(["fit", str(bad), "--family", "gamma",
                     "--out", str(tmp_path / "r.txt")]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv"), "--family", "gamma",
                     "--out", str(tmp_path / "r.txt")]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "fit.conf"
        config.write_text("seed = 4\nmultistart_count = 2\ntarget = ccdf\n")
        out = tmp_path / "result.txt"
        # flag overrides the config file's target
        code = main(
            ["fit", str(BIMODAL), "--family", "lognormal", "--config", str(config),
             "--target", "pdf", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "# config target: pdf" in text
        assert "# config seed: 4" in text

    @pytest.mark.parametrize("entry", ["seed = abc", "multistart_count = 2.5", "seed 4"])
    def test_config_value_error_exit_two(self, tmp_path, capsys, entry):
        config = tmp_path / "fit.conf"
        config.write_text(f"# fit settings\n{entry}\n")
        code = main(["fit", str(BIMODAL), "--family", "gamma", "--config", str(config),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        ["max_iterations = 0", "weighting = bogus", "init_strategy = moments",
         "init_strategy = auto", "damping_up = 5", "step_tol = 1e-10",
         "residual_tol = 1e-12"],
    )
    def test_config_range_error_exit_two(self, tmp_path, capsys, entry):
        config = tmp_path / "fit.conf"
        config.write_text(f"seed = 3\n{entry}\n")
        code = main(["fit", str(BIMODAL), "--family", "gamma", "--config", str(config),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and "line 2" in err

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = main(["fit", str(BIMODAL), "--family", "gamma", "--seed", "-1",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "usage error: seed must be >= 0\n"
        assert not out.exists()

    def test_negative_seed_in_config_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "fit.conf"
        config.write_text("seed = -3\n")
        out = tmp_path / "result.txt"
        code = main(["fit", str(BIMODAL), "--family", "gamma", "--config", str(config),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {config}: line 1: seed must be >= 0\n")
        assert not out.exists()

    def test_config_file_with_byte_order_mark_and_crlf(self, tmp_path):
        config = tmp_path / "fit.conf"
        config.write_bytes(b"\xef\xbb\xbfseed = 4\r\nmultistart_count = 2\r\n")
        out = tmp_path / "result.txt"
        code = main(["fit", str(BIMODAL), "--family", "lognormal", "--config", str(config),
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# config seed: 4" in text
        assert "# config multistart_count: 2" in text

    def test_readme_lists_the_config_keys(self):
        readme = (FIXTURES.parent / "README.md").read_text()
        paragraph = readme[readme.index("`--config` points to"):]
        key_list = paragraph[paragraph.index("("):paragraph.index(")")]
        assert re.findall(r"`(\w+)`", key_list) == [f.name for f in fields(FitConfig)]

    def test_fit_failure_exit_four(self, tmp_path, capsys, monkeypatch):
        def diverge(curve, family, config=None, init=None):
            raise FitFailureError("all 8 starts diverged")

        monkeypatch.setattr("incomefit.cli.fit", diverge)
        code = main(["fit", str(BIMODAL), "--family", "gamma",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 4
        assert capsys.readouterr().err.startswith("fit failure:")
        assert list(tmp_path.iterdir()) == []

    def test_huge_shape_start_exit_four(self, tmp_path, capsys, monkeypatch):
        # a start whose log-gamma overflows is a fit failure, not a crash
        monkeypatch.setattr("incomefit.fitter.initialize",
                            lambda curve, family: models.gamma_model(1.0, 1e306, 1000.0))
        code = main(["fit", str(BIMODAL), "--family", "gamma",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 4
        assert capsys.readouterr().err.startswith("fit failure:")
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_exit_two(self, tmp_path, capsys):
        config = tmp_path / "nope.conf"
        code = main(["fit", str(BIMODAL), "--family", "gamma", "--config", str(config),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert str(config) in capsys.readouterr().err

    def test_ccdf_target_matches_library_fit(self, tmp_path):
        out = tmp_path / "result.txt"
        code = main(["fit", str(WORLD3), "--family", "gamma", "--target", "ccdf",
                     "--out", str(out)])
        assert code == 0
        expected = fit(to_ccdf_curve(load_histogram(WORLD3)), "gamma", FitConfig(target="ccdf"))
        assert read_kv(out)["r_squared"] == repr(expected.r_squared)
        assert "# kind: ccdf" in (tmp_path / "result.curve.txt").read_text().splitlines()

    def test_log_density_flag(self, tmp_path):
        out = tmp_path / "result.txt"
        code = main(
            ["fit", str(BIMODAL), "--family", "bilognormal", "--log-density",
             "--out", str(out)]
        )
        assert code == 0
        assert float(read_kv(out)["r_squared"]) >= 0.999

    def test_manifest_records_how_the_curve_was_built(self, tmp_path):
        # a per-USD fit and a normalized per-ln-income fit of one file fit
        # different curves, so their manifests must differ
        docs = []
        for flags in ([], ["--log-density", "--normalize"]):
            out = tmp_path / f"result{len(docs)}.txt"
            assert main(["fit", str(WORLD3), "--family", "lognormal", "--out", str(out)]
                        + flags) == 0
            docs.append(strip_timestamp(out.read_text()).splitlines())
        per_usd, per_log = ([ln for ln in doc if ln.startswith("# config ")] for doc in docs)
        assert "# config normalize: False" in per_usd
        assert "# config log_density: False" in per_usd
        assert "# config normalize: True" in per_log
        assert "# config log_density: True" in per_log
        assert per_usd != per_log

    def test_log_density_with_ccdf_target_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "result.txt"
        code = main(["fit", str(WORLD3), "--family", "lognormal", "--target", "ccdf",
                     "--log-density", "--out", str(out)])
        assert code == 1
        assert "--log-density" in capsys.readouterr().err
        assert not out.exists()


class TestTable:
    def test_manifest_records_normalize(self, tmp_path):
        for flags in ([], ["--normalize"]):
            out = tmp_path / "table.txt"
            assert main(["table", "--input", f"2018={WORLD3}", "--families", "gamma",
                         "--out", str(out)] + flags) == 0
            assert f"# config normalize: {bool(flags)}" in out.read_text().splitlines()

    def test_grid_matches_individual_fits(self, tmp_path):
        out = tmp_path / "table.txt"
        code = main(
            ["table", "--input", f"1988={BIMODAL}", "--input", f"2018={WORLD3}",
             "--families", "gamma,bigamma", "--targets", "pdf",
             "--out", str(out), "--seed", "3"]
        )
        assert code == 0
        csv_lines = (tmp_path / "table.txt.csv").read_text().splitlines()
        header = csv_lines[0].split(",")
        assert header == ["year", "gamma:pdf", "bigamma:pdf"]
        cells = {}
        for line in csv_lines[1:]:
            fields = line.split(",")
            cells[fields[0]] = [float(v) for v in fields[1:]]
        assert set(cells) == {"1988", "2018"}

        for year, path in (("1988", BIMODAL), ("2018", WORLD3)):
            for i, family in enumerate(("gamma", "bigamma")):
                single = tmp_path / f"{year}-{family}.txt"
                main(["fit", str(path), "--family", family, "--seed", "3",
                      "--out", str(single)])
                assert float(read_kv(single)["r_squared"]) == cells[year][i]

    def test_both_targets_get_columns(self, tmp_path):
        out = tmp_path / "table.txt"
        code = main(["table", "--input", f"2018={WORLD3}", "--families", "gamma",
                     "--targets", "pdf,ccdf", "--out", str(out)])
        assert code == 0
        header = (tmp_path / "table.txt.csv").read_text().splitlines()[0]
        assert header.split(",") == ["year", "gamma:pdf", "gamma:ccdf"]

    @pytest.mark.parametrize("flags, used", [
        (["--target", "ccdf"], "ccdf"),
        (["--config", "{config}"], "ccdf"),
        (["--config", "{config}", "--targets", "pdf"], "pdf"),
    ], ids=["flag", "config", "targets-flag"])
    def test_targets_default_to_the_config_target(self, tmp_path, flags, used):
        config = tmp_path / "fit.conf"
        config.write_text("target = ccdf\n")
        out = tmp_path / "table.txt"
        assert main(["table", "--input", f"y={BIMODAL}", "--families", "gamma",
                     "--out", str(out)] + [f.format(config=config) for f in flags]) == 0
        header = (tmp_path / "table.txt.csv").read_text().splitlines()[0]
        assert header.split(",") == ["year", f"gamma:{used}"]
        # the manifest names no target that no column used
        manifest = out.read_text().splitlines()
        assert f"# config targets: {used}" in manifest
        assert not any(line.startswith("# config target:") for line in manifest)

    @pytest.mark.parametrize(
        "error, expected", [(FitFailureError, 4), (PreconditionError, 2)]
    )
    def test_fit_errors_name_input_and_cell(self, tmp_path, capsys, monkeypatch,
                                            error, expected):
        def fail(curve, family, config=None, init=None):
            raise error("no fit")

        monkeypatch.setattr("incomefit.cli.fit", fail)
        code = main(["table", "--input", f"2018={WORLD3}", "--families", "gamma",
                     "--out", str(tmp_path / "t.txt")])
        assert code == expected
        err = capsys.readouterr().err
        assert str(WORLD3) in err and "(gamma:pdf)" in err

    def test_year_from_label_metadata(self, tmp_path):
        out = tmp_path / "table.txt"
        code = main(
            ["table", "--input", str(BIMODAL), "--families", "gamma",
             "--out", str(out)]
        )
        assert code == 0
        assert "synthetic-bimodal" in (tmp_path / "table.txt.csv").read_text()

    def test_empty_families_usage_error(self, tmp_path):
        code = main(
            ["table", "--input", f"1988={BIMODAL}", "--families", "",
             "--out", str(tmp_path / "t.txt")]
        )
        assert code == 1
        for flags in (
            ["--input", f"1988={BIMODAL}", "--families", "pareto"],
            ["--input", f"1988={BIMODAL}", "--families", "gamma", "--targets", "cdf"],
            ["--input", f"1988={BIMODAL}", "--families", "gamma", "--targets", ""],
            ["--families", "gamma"],
        ):
            assert main(["table", *flags, "--out", str(tmp_path / "t.txt")]) == 1, flags
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["table", "--input", f"1988={BIMODAL}", "--families", "gamma",
                     "--seed", "-2", "--out", str(tmp_path / "t.txt")])
        assert code == 1
        assert capsys.readouterr().err == "usage error: seed must be >= 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_failing_input_aborts_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_low,bin_high,mass\nnope\n")
        code = main(
            ["table", "--input", f"1988={bad}", "--families", "gamma",
             "--out", str(tmp_path / "t.txt")]
        )
        assert code == 2
        assert str(bad) in capsys.readouterr().err


class TestSubtract:
    def test_no_parts_round_trips_input(self, tmp_path):
        out = tmp_path / "residual.csv"
        assert main(["subtract", str(WORLD3), "--out", str(out)]) == 0
        assert strip_manifest(out.read_text()) == WORLD3.read_text()

    def test_removing_middle_deepens_valley(self, tmp_path):
        out = tmp_path / "residual.csv"
        code = main(
            ["subtract", str(WORLD3), "--parts", str(CHINAINDIA), "--out", str(out)]
        )
        assert code == 0
        world = load_histogram(WORLD3)
        residual = load_histogram(out)
        before = valley_ratio(to_pdf_curve(world, per_log_income=True))
        after = valley_ratio(to_pdf_curve(residual, per_log_income=True))
        assert before is not None and after is not None
        assert after < before

    def test_mismatched_edges_need_rebin_flag(self, tmp_path):
        part = load_histogram(CHINAINDIA)
        from incomefit.empirical import IncomeHistogram, rebin

        coarse = rebin(part, np.geomspace(30.0, 60000.0, 31))
        # leave headroom so the rebinned mass stays below the world bin-wise
        coarse = IncomeHistogram(coarse.bin_edges, 0.5 * coarse.mass,
                                 label=coarse.label)
        path = tmp_path / "coarse.csv"
        save_histogram(coarse, path)
        out = tmp_path / "residual.csv"
        assert main(["subtract", str(WORLD3), "--parts", str(path),
                     "--out", str(out)]) == 2
        assert main(["subtract", str(WORLD3), "--parts", str(path), "--rebin",
                     "--out", str(out)]) == 0

    def test_rebin_leaves_a_part_on_the_world_edges_as_it_is(self, tmp_path):
        world = load_histogram(WORLD3)
        shares = np.random.default_rng(6).uniform(0.0, 0.9, world.n_bins)
        part = IncomeHistogram(world.bin_edges, shares * world.mass)
        # rebinning onto the same edges moves a mass, and so the residual, in
        # its last bit
        assert not np.array_equal(subtract(world, [rebin(part, world.bin_edges)]).mass,
                                  subtract(world, [part]).mass)
        save_histogram(part, tmp_path / "part.csv")
        plain, rebinned = tmp_path / "plain.csv", tmp_path / "rebinned.csv"
        for out, flags in ((plain, []), (rebinned, ["--rebin"])):
            assert main(["subtract", str(WORLD3), "--parts", str(tmp_path / "part.csv"),
                         "--out", str(out)] + flags) == 0
        assert strip_manifest(rebinned.read_text()) == strip_manifest(plain.read_text())

    def test_zero_residual_errors(self, tmp_path):
        out = tmp_path / "residual.csv"
        code = main(
            ["subtract", str(WORLD3), "--parts", str(WORLD3), "--renormalize",
             "--out", str(out)]
        )
        assert code == 2

    def test_logs_removed_mass(self, tmp_path, capsys):
        out = tmp_path / "residual.csv"
        main(["subtract", str(WORLD3), "--parts", str(CHINAINDIA), "--out", str(out)])
        captured = capsys.readouterr().out
        assert "removed mass" in captured


class TestCcdf:
    def test_known_ordinates(self, tmp_path):
        src = tmp_path / "h.csv"
        src.write_text(
            "bin_low,bin_high,mass\n100,1000,0.2\n1000,10000,0.5\n10000,60000,0.3\n"
        )
        out = tmp_path / "ccdf.csv"
        assert main(["ccdf", str(src), "--normalize", "--out", str(out)]) == 0
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and line != "x,y"
        ]
        ys = [float(r[1]) for r in rows]
        assert ys == pytest.approx([1.0, 0.8, 0.3])

    def test_unnormalized_coverage(self, tmp_path):
        src = tmp_path / "h.csv"
        # 84% population coverage: first ordinate stays 0.84 unnormalized
        src.write_text("bin_low,bin_high,mass\n100,1000,0.5\n1000,10000,0.34\n")
        out = tmp_path / "ccdf.csv"
        assert main(["ccdf", str(src), "--out", str(out)]) == 0
        first = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and line != "x,y"
        ][0]
        assert float(first.split(",")[1]) == pytest.approx(0.84)

    def test_output_nonincreasing(self, tmp_path):
        out = tmp_path / "ccdf.csv"
        assert main(["ccdf", str(WORLD3), "--out", str(out)]) == 0
        ys = [
            float(line.split(",")[1])
            for line in out.read_text().splitlines()
            if line and not line.startswith("#") and line != "x,y"
        ]
        assert all(b <= a for a, b in zip(ys, ys[1:]))

    def test_output_mode_follows_umask(self, tmp_path):
        # as a plain open(path, "w") would give, not mkstemp's 0o600
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            out = tmp_path / f"ccdf_{umask:o}.csv"
            old = os.umask(umask)
            try:
                assert main(["ccdf", str(WORLD3), "--out", str(out)]) == 0
            finally:
                os.umask(old)
            assert stat.S_IMODE(out.stat().st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ccdf_22.csv", "ccdf_77.csv"]


class TestUsage:
    def test_unknown_family_exit_one(self, tmp_path):
        assert main(["fit", str(BIMODAL), "--family", "pareto",
                     "--out", str(tmp_path / "r.txt")]) == 1
        # a FitConfig range error given as a flag is a usage error
        assert main(["fit", str(BIMODAL), "--family", "gamma", "--max-iterations", "0",
                     "--out", str(tmp_path / "r.txt")]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_exit_one(self):
        assert main(["transmogrify"]) == 1

    def test_repeated_calls_share_no_state(self, tmp_path):
        # main keeps one parser per process: a table's appended inputs must
        # not carry over to the next call, nor a usage error break the next
        out = tmp_path / "t.txt"
        for path in (BIMODAL, WORLD3):
            assert main(["table", "--input", f"y={path}", "--families", "gamma",
                         "--out", str(out)]) == 0
            assert str(path) in out.read_text()
            assert len((tmp_path / "t.txt.csv").read_text().splitlines()) == 2
        assert main(["table", "--input", f"y={BIMODAL}", "--families", "pareto",
                     "--out", str(out)]) == 1
        assert main(["table", "--input", f"y={WORLD3}", "--families", "gamma",
                     "--out", str(out)]) == 0
        assert len((tmp_path / "t.txt.csv").read_text().splitlines()) == 2

    def test_fit_flags_match_fit_config(self):
        # _build_config reads one flag per FitConfig field, in field order
        not_config = {"command", "input", "family", "log_density", "out", "families",
                      "targets", "normalize", "config"}
        for argv in (["fit", str(BIMODAL), "--family", "gamma"], ["table"]):
            args = build_parser().parse_args(argv)
            dests = [dest for dest in vars(args) if dest not in not_config]
            assert dests == [f.name for f in fields(FitConfig)]
