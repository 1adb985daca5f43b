"""CLI contract: CSV layouts, figure presets, exit codes, determinism."""

import ast
import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casq
from casq import analytic, cli, crosscheck, fock, moments, montecarlo

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None
from casq.params import SystemParams, coefficients, threshold_epsilon, threshold_tolerance


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_coeffs_reference_row(tmp_path):
    out = tmp_path / "coeffs.csv"
    rc = cli.main(["coeffs", "--a", "100", "--kappa", "0.8", "--beta", "0:0.002:0.001",
                   "--epsilon", "0", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["beta", "R", "S", "U", "V", "B",
                      "lambda_minus", "lambda_plus", "epsilon_threshold"]
    assert len(rows) == 3
    first = [float(v) for v in rows[0]]
    assert first == pytest.approx([0, 25, 25.4, -25, -25, 1, 0.4, 0.4, 0.4], rel=1e-11)


def test_coeffs_no_atoms_keeps_cavity_loss(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert cli.main(["coeffs", "--a", "0", "--kappa", "0.8", "--beta", "0.3",
                     "--epsilon", "0.1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    beta, r, s, u, v, b, lam_m, lam_p, eps_th = (float(x) for x in rows[0])
    assert r == u == v == 0.0
    assert s == pytest.approx(0.4, rel=1e-12)
    assert (lam_m, lam_p) == (pytest.approx(0.3, rel=1e-9), pytest.approx(0.5, rel=1e-9))


def test_coeffs_relative_drive(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert cli.main(["coeffs", "--beta", "0.1", "--epsilon-rel-threshold", "0.5",
                     "--out", str(out)]) == 0
    _, rows = read_csv(out)
    lam_minus, eps_th = float(rows[0][6]), float(rows[0][8])
    assert lam_minus == pytest.approx(0.5 * eps_th, rel=1e-12)


@pytest.mark.parametrize("system", [
    ["--beta", "1.9"],
    # threshold drive positive at both ends of the sweep, negative between them
    ["--a", "10", "--beta", "0:40:0.5"],
])
def test_coeffs_relative_drive_needs_positive_threshold(tmp_path, system):
    assert cli.main(["coeffs", *system, "--epsilon-rel-threshold", "0.5",
                     "--out", str(tmp_path / "coeffs.csv")]) == 2


@pytest.mark.parametrize("command", ["coeffs", "variance", "mean-photon"])
@pytest.mark.parametrize("fraction", ["-0.5", "nan", "inf"])
def test_relative_drive_fraction_validated(tmp_path, command, fraction):
    out = tmp_path / "out.csv"
    assert cli.main([command, "--a", "25", "--beta", "0:0.5:0.1",
                     "--epsilon-rel-threshold", fraction, "--out", str(out)]) == 2
    assert not out.exists()


def test_variance_sweep_matches_library(tmp_path):
    out = tmp_path / "var.csv"
    assert cli.main(["variance", "--a", "25", "--kappa", "0.8", "--beta", "0:0.2:0.1",
                     "--epsilon", "0.3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    for row in rows:
        beta, eps, vp, vm, mean_n = (float(x) for x in row)
        v = analytic.variance_steady(SystemParams(a=25, kappa=0.8, beta=beta, epsilon=eps))
        assert vp == pytest.approx(v.plus, rel=1e-11)
        assert vm == pytest.approx(v.minus, rel=1e-11)


def test_spectrum_and_pnd_outputs(tmp_path):
    spec = tmp_path / "s.csv"
    assert cli.main(["spectrum", "--a", "25", "--beta", "0.1",
                     "--epsilon-rel-threshold", "0.5", "--omega", "0:1:0.5",
                     "--out", str(spec)]) == 0
    header, rows = read_csv(spec)
    assert header == ["omega", "s_plus", "s_minus"] and len(rows) == 3

    pnd = tmp_path / "p.csv"
    assert cli.main(["pnd", "--a", "100", "--beta", "0.067", "--epsilon", "0.3",
                     "--n-max", "8", "--out", str(pnd)]) == 0
    _, rows = read_csv(pnd)
    probs = np.array([float(r[1]) for r in rows])
    rec = analytic.steady_record(SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3))
    np.testing.assert_allclose(probs, analytic.photon_distribution(rec, 8).probs, rtol=1e-11)


def test_mean_photon_transient_flag(tmp_path):
    out = tmp_path / "n.csv"
    assert cli.main(["mean-photon", "--a", "0", "--kappa", "0.8", "--beta", "0",
                     "--epsilon", "0.2", "--t-end", "200", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_mean_photon_transient_svg(tmp_path):
    assert cli.main(["mean-photon", "--a", "25", "--beta", "0:0.2:0.05", "--epsilon", "0.1",
                     "--t-end", "5", "--format", "svg", "--out", str(tmp_path / "n.csv")]) == 0
    svg = (tmp_path / "n.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg") and "mean photon number at t=5 (analytic)" in svg


class TestFigures:
    def test_fig2_minimum_and_byte_stability(self, tmp_path):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "2", "--out", out]) == 0
        data = open(tmp_path / "fig2.csv", "rb").read()
        rows = np.genfromtxt(tmp_path / "fig2.csv", delimiter=",", names=True)
        i = int(np.argmin(rows["var_minus_threshold"]))
        assert rows["beta"][i] == pytest.approx(0.067, abs=5e-3)
        assert rows["var_minus_threshold"][i] == pytest.approx(0.068, abs=2e-3)
        # the amplifier wins (solid below dotted) through the squeezing
        # region; the curves cross near beta ~ 1.2
        region = rows["beta"] <= 1.0
        assert np.all(
            rows["var_minus_no_crystal"][region] >= rows["var_minus_threshold"][region] - 1e-12
        )
        assert cli.main(["figure", "2", "--out", out]) == 0
        assert open(tmp_path / "fig2.csv", "rb").read() == data

    def test_fig2_csv_round_trip_at_printed_precision(self, tmp_path):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "2", "--out", out]) == 0
        with open(tmp_path / "fig2.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                for field in line.strip().split(","):
                    assert f"{float(field):.12g}" == field

    def test_fig3_gain_family(self, tmp_path):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "3", "--beta-step", "0.001", "--out", out]) == 0
        rows = np.genfromtxt(tmp_path / "fig3.csv", delimiter=",", names=True)
        mins = [rows[f"var_minus_threshold_a{g}"].min() for g in (25, 50, 100)]
        assert mins[0] > mins[1] > mins[2]

    def test_fig4_perfect_squeezing_at_origin(self, tmp_path, capsys):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "4", "--beta-step", "0.002", "--out", out]) == 0
        assert "clipped" in capsys.readouterr().err
        rows = np.genfromtxt(tmp_path / "fig4.csv", delimiter=",", names=True)
        assert rows["s_minus_threshold"][0] == 0.0
        assert rows["s_minus_no_crystal"][0] == 1.0
        # dotted curve dips to almost perfect squeezing near beta = 0.016
        j = int(np.argmin(rows["s_minus_no_crystal"]))
        assert rows["beta"][j] == pytest.approx(0.016, abs=4e-3)
        assert rows["s_minus_no_crystal"][j] < 0.05

    def test_fig5_amplifier_contribution_and_clip(self, tmp_path, capsys):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "5", "--beta-step", "0.002", "--out", out]) == 0
        assert "clipped" in capsys.readouterr().err
        rows = np.genfromtxt(tmp_path / "fig5.csv", delimiter=",", names=True)
        small = rows["beta"] < 0.3
        assert np.all(rows["mean_n_pa"][small] > rows["mean_n_no_crystal"][small])
        assert rows["beta"].max() < 1.5  # unstable tail clipped

    def test_fig4_fig5_match_per_beta_reference(self, tmp_path):
        # the per-beta scalar loops the figures were first written as
        step, a, kappa = 0.002, 25.0, 0.8
        fig4, fig5 = [], []
        for beta in np.arange(0.0, 2.0 + step / 2.0, step):
            p0 = SystemParams(a=a, kappa=kappa, beta=float(beta), epsilon=0.0)
            tol = threshold_tolerance(p0)
            if threshold_epsilon(p0) > 0 and coefficients(p0).lambda_minus > tol:
                dotted = float(analytic.spectrum(p0, [0.0]).s_minus[0])
                solid = float(analytic.spectrum(p0.with_relative_drive(1.0), [0.0]).s_minus[0])
                fig4.append((beta, dotted, solid))
            p_on = p0.with_epsilon(0.3)
            if coefficients(p_on).lambda_minus > tol and coefficients(p0).lambda_minus > tol:
                fig5.append((beta, analytic.steady_record(p0).n_cl,
                             analytic.steady_record(p_on).n_cl))
        out = str(tmp_path) + os.sep
        for n, rows in ((4, fig4), (5, fig5)):
            assert cli.main(["figure", str(n), "--beta-step", str(step), "--out", out]) == 0
            lines = (tmp_path / f"fig{n}.csv").read_text(encoding="utf-8").splitlines()[1:]
            assert lines == [",".join(cli._fmt(v) for v in row) for row in rows]

    @pytest.mark.parametrize("n, columns", [
        (5, ("mean_n_no_crystal", "mean_n_pa")),
        (6, ("p_no_crystal", "p_pa")),
    ])
    def test_zero_epsilon_draws_undriven_curve(self, tmp_path, n, columns):
        out = str(tmp_path) + os.sep
        grid = ["--beta-step", "0.01"] if n == 5 else []
        assert cli.main(["figure", str(n), "--epsilon", "0", *grid, "--out", out]) == 0
        rows = np.genfromtxt(tmp_path / f"fig{n}.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(rows[columns[0]], rows[columns[1]])

    def test_fig6_parity_ladder(self, tmp_path):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "6", "--n-max", "12", "--out", out]) == 0
        rows = np.genfromtxt(tmp_path / "fig6.csv", delimiter=",", names=True)
        for col in ("p_no_crystal", "p_pa"):
            probs = rows[col]
            for even in range(0, 11, 2):
                if even:
                    assert probs[even] >= probs[even - 1]
                assert probs[even] >= probs[even + 1]

    def test_svg_rendering(self, tmp_path):
        out = str(tmp_path) + os.sep
        assert cli.main(["figure", "6", "--n-max", "12", "--format", "svg", "--out", out]) == 0
        tree = ET.parse(tmp_path / "fig6.svg")
        tag = tree.getroot().tag
        assert tag.endswith("svg")


# cells of each column dtype the writer formats, edge values drawn often
_CELLS = {
    "float64": st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308]),
    "int64": st.integers(-2**63, 2**63 - 1) | st.sampled_from([-1, -10**12, 10**12, 10**15]),
    "str": st.text(st.characters(codec="utf-8", exclude_characters=",")),
}


@st.composite
def csv_columns(draw):
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=5))
    return [np.array(draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)), dtype=kind)
            for kind in kinds]


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=csv_columns())
    def test_columns_written_as_cells(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{i}" for i in range(len(columns))]
        cli._write_csv(path, header, columns)
        want = ",".join(header) + "\n" + "".join(
            ",".join(cli._fmt(v) for v in row) + "\n" for row in zip(*columns))
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("value, cell", [
        (-0.0, "-0"), (5e-324, "4.94065645841e-324"), (1e308, "1e+308"), (math.nan, "nan"),
        (-math.inf, "-inf"), (np.float64(0.1) * 3, "0.3"), (2.0, "2"),
        (np.int64(-10**15), "-1000000000000000"), (7, "7"), ("a b;c", "a b;c"),
    ])
    def test_cell_rule(self, value, cell):
        assert cli._fmt(value) == cell

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", ["x", "y"], [np.arange(3), np.arange(2)])


VERIFY_CHECKS = [
    "moments n_cl vs analytic", "moments <a+^2> vs analytic", "moments <a-^2> vs analytic",
    "oracle mean_n vs analytic", "oracle var_plus vs analytic", "oracle var_minus vs analytic",
    "oracle P(n) vs closed form (max |delta|)",
    "mc <a+^2> vs analytic", "mc <a-^2> vs analytic", "mc n_cl vs analytic",
]


class TestVerify:
    def test_default_point_passes(self, capsys, tmp_path):
        table = tmp_path / "v.csv"
        assert cli.main(["verify", "--n-traj", "3000", "--out", str(table)]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert out.count("PASS") >= 10
        header, rows = read_csv(table)
        assert header == ["check", "reference", "value", "bound", "status"]
        assert [(r[0], r[4]) for r in rows] == [(name, "PASS") for name in VERIFY_CHECKS]

    def test_mismatch_exit_code(self, capsys):
        assert cli.main(["verify", "--n-traj", "3000", "--oracle-rtol", "1e-13"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_pnd_row_keeps_three_digits(self, tmp_path):
        # two oracle states that agree within 1.9e-15 per entry gave these
        # differences; the row must not carry their round-off
        name = "oracle P(n) vs closed form (max |delta|)"
        tables = []
        for value in (3.95618896532e-08, 3.95618877658e-08):
            path = tmp_path / f"{value!r}.csv"
            cli._write_csv(path, ["check", "reference", "value", "bound", "status"],
                           zip(crosscheck._check_row(name, 0.0, value, 1e-4, digits=3)))
            tables.append(path.read_bytes())
        assert tables[0] == tables[1]
        assert tables[0].decode().splitlines()[1] == f"{name},0,3.96e-08,0.0001,PASS"
        # the status is decided before rounding: 1.0004e-4 shows as 1e-4 and fails
        assert crosscheck._check_row(name, 0.0, 1.0004e-4, 1e-4, digits=3)[2:] == (
            1e-4, 1e-4, "FAIL")

    def test_near_threshold_oracle_rows_at_default_dim(self, monkeypatch):
        # at 0.9 of threshold the number basis needs ~1216 levels; by
        # default the squeezed frame sizes its own basis (68 levels for
        # n_th = 1.78) and passes every oracle row under the default bounds
        # (the Monte Carlo rows are not the point here)
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9)
        states = []
        solve = fock.steady_state
        monkeypatch.setattr(fock, "steady_state",
                            lambda *a, **kw: states.append(solve(*a, **kw)) or states[-1])
        args = cli._build_parser().parse_args(["verify"])
        rows, _ = crosscheck.verify_point(p, dim=args.dim, n_traj=200, dt=0.01, t_end=1.0,
                                          seed=cli.MC_SEED, sigma=args.sigma,
                                          oracle_rtol=args.oracle_rtol, pnd_atol=args.pnd_atol)
        assert args.dim is None
        (rho,) = states
        assert rho.frame_r and 40 < rho.dim <= 80
        oracle = [row for row in rows if row[0].startswith("oracle")]
        assert len(oracle) == 4 and all(row[4] == "PASS" for row in oracle)

    def test_default_point_runs_without_a_process_pool(self, monkeypatch, capsys):
        # its 20000 trajectories are recorded once, below the pool's break-even
        def no_pool(*args, **kwargs):
            raise AssertionError("casq verify started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli.main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12 and all(line.endswith("PASS") for line in lines[1:-1])

    def test_vacuum_point_trivially_consistent(self, capsys):
        # the CLI's Monte Carlo defaults here: dt = 0.01 / max(lambda_+-, kappa, 1) and its seed
        p = SystemParams(a=0.0, kappa=0.8, beta=0.0, epsilon=0.0)
        rows, ok = crosscheck.verify_point(p, dim=16, n_traj=200, dt=0.01, t_end=1.0,
                                           seed=cli.MC_SEED, sigma=3.0, oracle_rtol=1e-3,
                                           pnd_atol=1e-4)
        assert ok and [row[0] for row in rows] == VERIFY_CHECKS
        assert cli.main(["verify", "--a", "0", "--beta", "0", "--epsilon", "0",
                         "--dim", "16", "--n-traj", "200", "--t-end", "1"]) == 0
        # the CLI prints exactly these rows, in the fixed-width layout the benchmark parses
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:-1] == [f"{name:<42}{ref:>16.8g}{val:>16.8g}{bound:>12.3g}{status:>6}"
                               for name, ref, val, bound, status in rows]
        assert lines[-1] == "verification PASSED"


class TestExitCodes:
    def test_not_stable(self):
        assert cli.main(["variance", "--a", "0", "--kappa", "0.8", "--beta", "0",
                         "--epsilon", "0.6"]) == 3

    def test_invalid_params(self):
        assert cli.main(["variance", "--kappa", "-1", "--beta", "0"]) == 2

    def test_io_failure(self, tmp_path):
        assert cli.main(["coeffs", "--beta", "0",
                         "--out", str(tmp_path / "missing" / "x.csv")]) == 5

    def test_truncation_reported_as_config_error(self):
        assert cli.main(["oracle", "--a", "100", "--kappa", "0.8", "--beta", "0",
                         "--epsilon", "0", "--dim", "32"]) == 2

    @pytest.mark.parametrize("args", [
        ["variance", "--beta", "0:1:0"],
        ["variance", "--beta", "0:1"],
        ["coeffs", "--beta", "0:abc:0.1"],
        ["spectrum", "--omega", "0:inf:1"],
        ["coeffs", "--beta", "0:nan:0.1"],
        ["coeffs", "--beta", "0:1:inf"],
        ["spectrum", "--omega", "nan"],
        ["coeffs", "--beta", "0:1e300:1e-10"],
    ], ids=["zero-step", "two-fields", "token", "inf-stop", "nan-stop", "inf-step", "nan-value",
            "inf-count"])
    def test_bad_range_syntax(self, tmp_path, args, capsys):
        out = tmp_path / "out.csv"
        assert cli.main([*args, "--out", str(out)]) == 2
        assert "range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["coeffs", "--beta", "0:1:1e-6"],
        ["spectrum", "--omega", "0:1:1e-6"],
        ["figure", "2", "--beta-step", "2e-6"],
    ], ids=["coeffs-beta", "spectrum-omega", "figure-beta-step"])
    def test_grid_size_bounded(self, tmp_path, args, capsys):
        # one point over the bound, so that a missing check costs megabytes
        assert cli.main([*args, "--out", str(tmp_path) + os.sep]) == 2
        assert f"more than {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_size_bound_is_inclusive(self):
        assert cli._parse_range("0:0.999999:1e-6").size == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("step", ["0", "-0.001", "inf", "nan"])
    def test_nonpositive_beta_step(self, tmp_path, step):
        assert cli.main(["figure", "2", "--beta-step", step,
                         "--out", str(tmp_path) + os.sep]) == 2

    @pytest.mark.parametrize("args", [["2", "--kappa", "-1"], ["3", "--a", "-5"],
                                      ["4", "--omega", "nan"]],
                             ids=["fig2-kappa", "fig3-a", "fig4-omega-nan"])
    def test_figure_knobs_validated(self, tmp_path, args):
        assert cli.main(["figure", *args, "--out", str(tmp_path) + os.sep]) == 2
        assert not (tmp_path / f"fig{args[0]}.csv").exists()

    def test_oracle_defaults_solve_in_the_frame(self, tmp_path):
        # A = 100, beta = 0, epsilon = 0: <n> = 62.5, which 150 number
        # states cannot hold; the self-sized frame does, and so do 150
        # levels of that frame, which --dim counts
        out = tmp_path / "oracle.csv"
        p = SystemParams(a=100, kappa=0.8, beta=0.0, epsilon=0.0)
        var = analytic.variance_steady(p)
        for dim, rtol in (([], 1e-10), (["--dim", "150"], 1e-6)):
            assert cli.main(["oracle", *dim, "--out", str(out)]) == 0
            _, ((t, mean_n, var_plus, var_minus, *_),) = read_csv(out)
            assert t == "inf"
            assert float(mean_n) == pytest.approx(analytic.steady_record(p).n_cl, rel=rtol)
            assert float(var_plus) == pytest.approx(var.plus, rel=rtol)
            assert float(var_minus) == pytest.approx(var.minus, rel=rtol)
        sweep = tmp_path / "variance.csv"
        assert cli.main(["variance", "--engine", "oracle", "--beta", "0:0.2:0.1", "--jobs", "1",
                         "--out", str(sweep)]) == 0
        assert len(read_csv(sweep)[1]) == 3

    def test_oracle_dim_counts_frame_levels(self, tmp_path, monkeypatch, capsys):
        # 0.9 of threshold: the sized frame needs 68 levels, and the cap's
        # advice to pass dim can be followed on the command line
        monkeypatch.setattr(fock, "FRAME_DIM_MAX", 64)
        point = ["--a", "25", "--beta", "0.1", "--epsilon-rel-threshold", "0.9"]
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle", *point, "--out", str(out)]) == 2
        assert "needs 68 levels, more than 64" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["oracle", *point, "--dim", "64", "--out", str(out)]) == 0
        _, ((_, mean_n, var_plus, var_minus, *_),) = read_csv(out)
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9)
        var = analytic.variance_steady(p)
        assert float(mean_n) == pytest.approx(analytic.steady_record(p).n_cl, rel=1e-9)
        assert float(var_plus) == pytest.approx(var.plus, rel=1e-9)
        assert float(var_minus) == pytest.approx(var.minus, rel=1e-9)

    @pytest.mark.parametrize("command", ["verify", "oracle"])
    def test_frame_dim_above_cap_refused_before_building(self, tmp_path, monkeypatch, command,
                                                         capsys):
        # 20000 levels would allocate gigabytes of index arrays
        monkeypatch.setattr(fock, "_even_steady_state",
                            lambda *args: pytest.fail("a frame above the cap was built"))
        assert cli.main([command, "--dim", "20000", "--out", str(tmp_path) + os.sep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dim must be <= FRAME_DIM_MAX = {fock.FRAME_DIM_MAX}" in captured.err
        assert not list(tmp_path.iterdir())

    def test_transient_dim_above_cap_refused_before_allocating(self, tmp_path, monkeypatch,
                                                               capsys):
        # the --t-end number basis has the frame's cap: unchecked, vacuum
        # allocates dim^2 complex entries first (6.4 GB at 20000 levels)
        monkeypatch.setattr(fock, "FRAME_DIM_MAX", 64)
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle", "--t-end", "0.01", "--dim", "64", "--out", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        monkeypatch.setattr(fock, "vacuum", lambda *args: pytest.fail("allocated"))
        assert cli.main(["oracle", "--t-end", "0.01", "--dim", "65", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dim must be <= FRAME_DIM_MAX = 64 for the transient, got 65" in captured.err
        assert not list(tmp_path.iterdir())

    def test_oracle_large_gain_solves_in_one_frame(self, tmp_path):
        # A = 400, beta = 0, epsilon = 0: <n> = 250, in 474 sized frame levels
        out = tmp_path / "oracle.csv"
        assert cli.main(["oracle", "--a", "400", "--out", str(out)]) == 0
        _, ((t, mean_n, var_plus, var_minus, *_),) = read_csv(out)
        p = SystemParams(a=400, kappa=0.8, beta=0.0, epsilon=0.0)
        var = analytic.variance_steady(p)
        assert t == "inf"
        assert float(mean_n) == pytest.approx(analytic.steady_record(p).n_cl, rel=1e-9)
        assert float(var_plus) == pytest.approx(var.plus, rel=1e-9)
        assert float(var_minus) == pytest.approx(var.minus, rel=1e-9)

    @pytest.mark.parametrize("args", [
        ["oracle", "--dim", "0"],
        ["oracle", "--dim", "-5"],
        ["oracle", "--dim", "1"],
        ["oracle", "--dim", "0", "--t-end", "1"],
        ["verify", "--dim", "0"],
    ], ids=["oracle-0", "oracle-neg", "oracle-1", "oracle-transient-0", "verify-0"])
    def test_fock_basis_too_small(self, tmp_path, args, capsys):
        assert cli.main([*args, "--out", str(tmp_path / "out.csv")]) == 2
        assert "dim must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args", [
        ["mc", "--seed", "-1"],
        ["variance", "--engine", "mc", "--beta", "0.2", "--seed", "-3"],
    ], ids=["mc", "variance-mc"])
    def test_negative_seed_rejected(self, tmp_path, args, capsys):
        assert cli.main([*args, "--a", "4", "--epsilon-rel-threshold", "0.5", "--n-traj", "64",
                         "--out", str(tmp_path / "out.csv")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flag", ["--dt", "--t-end"])
    def test_mc_zero_time_rejected(self, tmp_path, flag):
        assert cli.main(["mc", "--a", "4", "--beta", "0.2", "--epsilon-rel-threshold", "0.5",
                         "--n-traj", "64", flag, "0", "--out", str(tmp_path / "mc.csv")]) == 2

    @pytest.mark.parametrize("command", [["mc"], ["variance", "--engine", "mc"]],
                             ids=["mc", "variance-mc"])
    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-end", "inf"),
                                             ("--t-end", "nan")],
                             ids=["dt-nan", "t-end-inf", "t-end-nan"])
    def test_mc_non_finite_time_rejected(self, tmp_path, command, flag, value, capsys):
        out = tmp_path / "out.csv"
        assert cli.main([*command, "--a", "4", "--beta", "0.2", "--epsilon-rel-threshold", "0.5",
                         "--n-traj", "64", flag, value, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    # the --dt cases of the test above do not apply: the analytic engine reads --t-end only
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_analytic_transient_non_finite_time_rejected(self, tmp_path, value, capsys):
        out = tmp_path / "mean_photon.csv"
        assert cli.main(["mean-photon", "--beta", "0.1", "--t-end", value, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t-end", "nan"), ("--t-end", "inf"),
                                             ("--dt", "nan"), ("--dt", "inf")],
                             ids=["t-end-nan", "t-end-inf", "dt-nan", "dt-inf"])
    def test_oracle_non_finite_time_rejected(self, tmp_path, flag, value, capsys):
        out = tmp_path / "oracle.csv"
        times = [flag, value] if flag == "--t-end" else ["--t-end", "1", flag, value]
        assert cli.main(["oracle", "--a", "4", "--beta", "0.2", "--epsilon-rel-threshold", "0.5",
                         "--dim", "16", *times, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--sigma", "-1"), ("--sigma", "0"),
                                             ("--oracle-rtol", "nan"), ("--pnd-atol", "-1"),
                                             ("--pnd-atol", "inf")],
                             ids=["sigma-negative", "sigma-zero", "oracle-rtol-nan",
                                  "pnd-atol-negative", "pnd-atol-inf"])
    def test_verify_bound_rejected(self, tmp_path, monkeypatch, flag, value, capsys):
        def engine(*args, **kwargs):
            pytest.fail("an engine ran before the bounds were checked")

        for module, name in ((moments, "steady_from_linear_solve"), (fock, "steady_state"),
                             (montecarlo, "run")):
            monkeypatch.setattr(module, name, engine)
        out = tmp_path / "verify.csv"
        assert cli.main(["verify", flag, value, "--out", str(out)]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_max", ["-1", "-3"])
    def test_oracle_pnd_n_max_outside_basis(self, tmp_path, n_max, capsys, monkeypatch):
        # refused before the oracle solves anything
        monkeypatch.setattr(fock, "steady_state", lambda *args, **kwargs: pytest.fail("solved"))
        out = tmp_path / "pnd.csv"
        assert cli.main(["pnd", "--engine", "oracle", "--a", "0", "--beta", "0", "--epsilon", "0",
                         "--dim", "8", "--n-max", n_max, "--out", str(out)]) == 2
        assert f"n_max must be >= 0, got {n_max}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["pnd"], ["pnd", "--engine", "oracle"], ["figure", "6"]],
                             ids=["pnd-analytic", "pnd-oracle", "figure6"])
    def test_n_max_past_the_grid_bound(self, tmp_path, command, capsys, monkeypatch):
        # refused before the steady state or the P(n) table is built: the
        # work, O(n_max^2) time or (n_max + 1) x dim arrays, bounds n_max
        for module, name in ((analytic, "photon_distribution"), (fock, "steady_state"),
                             (fock, "observables")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("allocated"))
        assert cli.MAX_PND_N == 20_000
        n_max = cli.MAX_PND_N + 1
        assert cli.main([*command, "--n-max", str(n_max), "--out", str(tmp_path) + os.sep]) == 2
        assert f"n_max {n_max} is more than {cli.MAX_PND_N}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_oracle_pnd_n_max_past_the_frame_dim(self, tmp_path):
        # 8 frame levels give the lab P(8) = 2.1e-5 of a squeezed state
        out = tmp_path / "pnd.csv"
        assert cli.main(["pnd", "--engine", "oracle", "--a", "0", "--beta", "0",
                         "--epsilon", "0.2", "--dim", "8", "--n-max", "8", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2)
        ref = analytic.photon_distribution(analytic.steady_record(p), 8).probs
        assert ref[8] > 1e-5
        np.testing.assert_allclose([float(r[1]) for r in rows], ref, rtol=0, atol=2e-9)

    def test_oracle_pnd_n_max_at_basis_edge(self, tmp_path):
        out = tmp_path / "pnd.csv"
        assert cli.main(["pnd", "--engine", "oracle", "--a", "0", "--beta", "0", "--epsilon", "0",
                         "--dim", "8", "--n-max", "7", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [str(n) for n in range(8)]

    def test_oracle_pnd_in_the_frame_reaches_past_its_dim(self, tmp_path):
        # without --dim the figure-6 point solves in 23 frame levels, and
        # --n-max is not bounded by them
        out = tmp_path / "pnd.csv"
        assert cli.main(["pnd", "--engine", "oracle", "--a", "100", "--beta", "0.067",
                         "--epsilon", "0.3", "--n-max", "64", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        p = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
        ref = analytic.photon_distribution(analytic.steady_record(p), 64).probs
        np.testing.assert_allclose([float(r[1]) for r in rows], ref, rtol=1e-11, atol=1e-13)
        assert cli.main(["pnd", "--engine", "oracle", "--a", "100", "--n-max", "-1",
                         "--out", str(out)]) == 2

    @pytest.mark.parametrize("args", [
        ["2", "--a", "25,abc"], ["3", "--a", "25,abc"], ["2", "--a", ""],
        ["2", "--a", "25,50"], ["4", "--a", "25,50"], ["5", "--a", "25,50"], ["6", "--a", "25,50"],
    ], ids=["fig2-token", "fig3-token", "fig2-empty", "fig2-list", "fig4-list", "fig5-list",
            "fig6-list"])
    def test_figure_gain_rejected(self, tmp_path, args):
        grid = [] if args[0] == "6" else ["--beta-step", "0.01"]
        assert cli.main(["figure", *args, *grid, "--out", str(tmp_path) + os.sep]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["2", "--epsilon", "0.5"], ["2", "--omega", "3"], ["2", "--beta", "1"],
        ["2", "--n-max", "3"], ["3", "--omega", "1"], ["4", "--epsilon", "0.2"],
        ["4", "--n-max", "3"], ["5", "--omega", "1"], ["5", "--beta", "0.1"],
        ["6", "--beta-step", "0.01"], ["6", "--omega", "1"],
    ], ids=["fig2-epsilon", "fig2-omega", "fig2-beta", "fig2-n-max", "fig3-omega",
            "fig4-epsilon", "fig4-n-max", "fig5-omega", "fig5-beta", "fig6-beta-step",
            "fig6-omega"])
    def test_figure_option_the_preset_ignores_rejected(self, tmp_path, args, capsys):
        assert cli.main(["figure", *args, "--out", str(tmp_path) + os.sep]) == 2
        assert f"figure {args[0]} does not read {args[1]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["mean-photon", "--engine", "oracle", "--t-end", "5"],
        ["variance", "--engine", "oracle", "--dt", "0.01"],
        ["variance", "--t-end", "5"],
        ["mean-photon", "--t-end", "5", "--dt", "0.01"],
        ["variance", "--jobs", "-3"],
        ["mean-photon", "--jobs", "0"],
        ["mean-photon", "--t-end", "5", "--jobs", "-1"],
    ], ids=["oracle-t-end", "oracle-dt", "analytic-t-end", "transient-dt", "jobs-negative",
            "jobs-zero", "transient-jobs"])
    def test_ignored_sweep_option_rejected(self, tmp_path, args):
        out = tmp_path / "out.csv"
        # a point every engine handles at once, so only the option can fail
        dim = ["--dim", "32"] if "oracle" in args else []
        assert cli.main([*args, "--a", "0", "--beta", "0", "--epsilon", "0.2", *dim,
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args, flags", [
        (["pnd", "--dim", "3"], "--dim"),
        (["variance", "--dim", "32"], "--dim"),
        (["variance", "--n-traj", "3", "--seed", "5"], "--n-traj, --seed"),
        (["mean-photon", "--seed", "5"], "--seed"),
        (["mean-photon", "--t-end", "5", "--n-traj", "64"], "--n-traj"),
        (["variance", "--engine", "oracle", "--n-traj", "64"], "--n-traj"),
        (["mean-photon", "--engine", "mc", "--dim", "32"], "--dim"),
        (["oracle", "--dim", "8", "--dt", "0.01"], "--dt"),
    ], ids=["pnd-dim", "analytic-dim", "analytic-n-traj-seed", "analytic-seed",
            "transient-n-traj", "oracle-n-traj", "mc-dim", "steady-state-dt"])
    def test_option_the_engine_ignores_rejected(self, tmp_path, args, flags, capsys):
        out = tmp_path / "out.csv"
        assert cli.main([*args, "--a", "0", "--beta", "0", "--epsilon", "0.2",
                         "--out", str(out)]) == 2
        assert f"does not read {flags}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["coeffs", "--beta", "0"],
        ["verify", "--a", "0", "--beta", "0", "--epsilon", "0", "--dim", "16", "--n-traj", "200",
         "--t-end", "1"],
        ["mc", "--a", "4", "--beta", "0.2", "--epsilon-rel-threshold", "0.5", "--n-traj", "64"],
        ["oracle", "--a", "0", "--beta", "0", "--epsilon", "0", "--dim", "8"],
    ], ids=["coeffs", "verify", "mc", "oracle"])
    def test_format_rejected_where_nothing_is_plotted(self, tmp_path, args):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--format", "svg", "--out", str(tmp_path) + os.sep])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())


def test_pooled_oracle_sweep_matches_serial(tmp_path):
    args = ["variance", "--engine", "oracle", "--a", "25", "--kappa", "0.8",
            "--beta", "0.08:0.16:0.04", "--epsilon-rel-threshold", "0.5",
            "--dim", "224"]
    pooled = tmp_path / "pooled.csv"
    serial = tmp_path / "serial.csv"
    assert cli.main(args + ["--jobs", "2", "--out", str(pooled)]) == 0
    assert cli.main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()
    _, rows = read_csv(pooled)
    beta, eps, vp, vm, mean_n = (float(v) for v in rows[0])
    ref = analytic.variance_steady(SystemParams(a=25, kappa=0.8, beta=beta, epsilon=eps))
    assert vm == pytest.approx(ref.minus, rel=1e-9)


def oracle_sweep_bytes(out, jobs):
    """The CSV bytes of a two-point oracle sweep on --jobs processes."""
    assert cli.main(["variance", "--engine", "oracle", "--a", "1", "--beta", "0.1:0.2:0.1",
                     "--epsilon-rel-threshold", "0.5", "--dim", "40", "--jobs", str(jobs),
                     "--out", out]) == 0
    return Path(out).read_bytes()


def test_pooled_sweep_in_daemonic_process(tmp_path):
    # a multiprocessing.Pool worker is daemonic and may not start children
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply_async(oracle_sweep_bytes, (str(tmp_path / "pooled.csv"), 2))
        got = pooled.get(timeout=120)
    assert got == oracle_sweep_bytes(str(tmp_path / "serial.csv"), 1)


@pytest.mark.parametrize("beta, n_traj", [("0.1:0.2:0.1", "64"), ("0.1", "4100")],
                         ids=["pooled-points", "pooled-trajectories"])
def test_pooled_mc_sweep_matches_serial(tmp_path, monkeypatch, beta, n_traj):
    # two points run on a pool of two; one point of three work units runs
    # its trajectories on two processes, with the pool's break-even lowered
    # to let so small an ensemble start it
    monkeypatch.setattr(montecarlo, "_POOL_MIN_WORK", 0)
    args = ["variance", "--engine", "mc", "--a", "4", "--kappa", "0.8", "--beta", beta,
            "--epsilon-rel-threshold", "0.5", "--n-traj", n_traj, "--dt", "0.01",
            "--t-end", "1", "--seed", "3"]
    pooled = tmp_path / "pooled.csv"
    serial = tmp_path / "serial.csv"
    assert cli.main(args + ["--jobs", "2", "--out", str(pooled)]) == 0
    assert cli.main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("command", ["variance", "mean-photon"])
def test_analytic_sweep_runs_in_process(tmp_path, monkeypatch, command):
    def no_pool(*args, **kwargs):
        raise AssertionError("an analytic sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    args = (command, "--a", "25", "--beta", "0:2:0.01", "--epsilon", "0.3", "--format", "svg")
    assert cli.main([*args, "--jobs", "2", "--out", str(tmp_path) + os.sep]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN_DIGESTS[args]


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    out = str(tmp_path) + os.sep
    for options, n_rows in ((["--n-max", "12"], 13), ([], 33)):
        assert cli.main(["figure", "6", *options, "--out", out]) == 0
        assert len(read_csv(tmp_path / "fig6.csv")[1]) == n_rows


def test_cli_reads_no_private_engine_names():
    # the CLI reaches params, the engines and the cross-check through public names
    # only, and leaves the moments engine to casq.crosscheck
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {"params", "analytic", "fock", "moments", "montecarlo", "crosscheck"}
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    private += [f"{module}.{name}" for module, name in imports
                if module in modules and name.startswith("_")]
    assert private == []
    assert "moments" not in {module or name for module, name in imports}


def test_cli_solves_the_oracle_steady_state_in_the_frame():
    # one meaning of --dim: every steady state the CLI or the cross-check
    # asks of the oracle is solved in the squeezed frame
    calls = []
    for module in (cli, crosscheck):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "steady_state"
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "fock"]
    assert calls
    for call in calls:
        values = [kw.value for kw in call.keywords if kw.arg == "frame"]
        assert len(values) == 1 and isinstance(values[0], ast.Constant)
        assert values[0].value == "auto"


def test_jobs_default_is_the_usable_cores():
    args = cli._build_parser().parse_args(["variance"])
    assert args.jobs == montecarlo.usable_cores() >= 1


# SHA-256 of every file each command writes, recorded before the CLI's output
# path was refactored; figure CSVs must stay byte-identical across refactors.
# Never regenerate these to make the test pass.  fig5.svg and mean_photon.svg
# were re-recorded once, when SVG text began to be XML-escaped: their y label
# `<n>` is now written `&lt;n&gt;`, and no other byte moved.
GOLDEN_DIGESTS = {
    ("figure", "2", "--format", "svg"): {
        "fig2.csv": "2e35d3dfb46d565139a27dcadf4322aac79b8b2f8a1d0d9c494dfcc399b496f2",
        "fig2.svg": "ec36c3ebf40886328fab047c690766bc95d48568be1708e3a68b16904f171774",
    },
    ("figure", "3", "--format", "svg"): {
        "fig3.csv": "0ffdc8280db6e5627358c748b6cb8aa98d10bf9bb47747f2c862bdb0932b1b63",
        "fig3.svg": "50895c5ff06708a81a54678085b24c5b4ea21c16e1d2bf01edae17d962e70c01",
    },
    ("figure", "4", "--format", "svg"): {
        "fig4.csv": "f1e9ab2b20f1d1e0896a36ad6a29f6887b45b0fc2a7c278bcfd977fc00d4f0c3",
        "fig4.svg": "0e491eafefb989b1d8b40cbd296dcc1f0fdfd39e98e71c7a0f7ba35c3cdc70ed",
    },
    ("figure", "5", "--format", "svg"): {
        "fig5.csv": "92e8943f807e34590fd3184b241ebe55fa82a83207abdc54838b2e0df8cea059",
        "fig5.svg": "765fce5fa3775438800f90a3f995c2dc320ee9ce6d3154d626090f67b8054190",
    },
    ("figure", "6", "--format", "svg"): {
        "fig6.csv": "fac1be947e33b2c931575fa1d3c6214705201da3069659eca9c991dbf52d7bee",
        "fig6.svg": "6da24216c75735e5db3b2f9c3b73fee2b52007a4fab92ae62361d93509d38b10",
    },
    ("coeffs",): {
        "coeffs.csv": "a92f4dd4c61a68b4e94c3be235381d415f349e145160d59796be8e1ce96b579e",
    },
    ("variance", "--a", "25", "--beta", "0:2:0.01", "--epsilon", "0.3", "--format", "svg"): {
        "variance.csv": "7ccf343e0c94c5222ff880eb27ac355243aa916c40e43b59c4da6d9828a61650",
        "variance.svg": "29f96c56b42d0e30d0f52e7327353c45ec61b5a61452d80abb81a84087392894",
    },
    ("mean-photon", "--a", "25", "--beta", "0:2:0.01", "--epsilon", "0.3", "--format", "svg"): {
        "mean_photon.csv": "fbc4df0fc0dce5799156e6628cf6091414723b1570c002bf121b9795577b8b36",
        "mean_photon.svg": "f0aa6c3a37291d883289a194c20acb8a55e664fc961af889b998d869c870ea17",
    },
    ("spectrum", "--a", "25", "--beta", "0.1", "--epsilon-rel-threshold", "0.5",
     "--format", "svg"): {
        "spectrum.csv": "e465aa1d76a3f4d119f6c019e5495fdbc510e3019d8da0eaa279d0d9dadede70",
        "spectrum.svg": "e93d319baf37d37da431f073161a9571de780b7b2856e041a7c2a95f89cfd4e9",
    },
    ("pnd", "--a", "100", "--beta", "0.067", "--epsilon", "0.3", "--format", "svg"): {
        "pnd.csv": "96948bc77590d9e2fe93ffc0f95242dcca3882541fb4b65956246859150d4dda",
        "pnd.svg": "a49a4abeb625b98c641e084bc7d95698d92208d2181b618018e97dbc6dffacd7",
    },
}


@pytest.mark.parametrize("args", list(GOLDEN_DIGESTS),
                         ids=lambda a: a[0] + a[1] if a[0] == "figure" else a[0])
def test_output_bytes_match_golden_digests(tmp_path, args):
    assert cli.main([*args, "--out", str(tmp_path) + os.sep]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == GOLDEN_DIGESTS[args]


@pytest.mark.parametrize("args", [a for a in GOLDEN_DIGESTS if "svg" in a],
                         ids=lambda a: a[0] + a[1] if a[0] == "figure" else a[0])
def test_golden_svgs_are_well_formed_xml(tmp_path, args):
    assert cli.main([*args, "--out", str(tmp_path) + os.sep]) == 0
    (svg,) = tmp_path.glob("*.svg")
    assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert cli.main(["coeffs", "--beta", "0"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == str(tmp_path / "coeffs.csv")
    assert (tmp_path / "coeffs.csv").exists()


def _child_env():
    """Environment whose interpreter imports the casq this test imported, from any cwd."""
    env = dict(os.environ)
    parent = os.path.dirname(os.path.abspath(casq.__path__[0]))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (parent, env.get("PYTHONPATH")) if p)
    return env


def _declared_entry_point():
    """The `casq` console script as `[project.scripts]` declares it, or None.

    Read from the checkout's pyproject.toml where tomllib exists, else from
    the installed distribution's metadata.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with open(pyproject, "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["casq"]
        return EntryPoint(name="casq", value=value, group="console_scripts")
    found = entry_points(group="console_scripts", name="casq")
    return next(iter(found), None)


def test_console_entry_points(tmp_path):
    env = _child_env()
    out = tmp_path / "c.csv"
    script_args = ["coeffs", "--beta", "0", "--out", str(out)]

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, env=env)

    proc = run([sys.executable, "-m", "casq.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "figure" in proc.stdout

    proc = run([sys.executable, "-m", "casq", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "figure" in proc.stdout

    installed = shutil.which("casq")
    if installed is not None:
        proc = run([installed, *script_args])
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        out.unlink()

    ep = _declared_entry_point()
    if ep is None:
        pytest.skip("no tomllib to read pyproject.toml and no installed casq metadata")
    # what the wrapper that pip generates for [project.scripts] does
    wrapper = (f"import sys\n"
               f"from {ep.module} import {ep.attr}\n"
               f"sys.argv[0] = 'casq'\n"
               f"sys.exit({ep.attr}())\n")
    proc = run([sys.executable, "-c", wrapper, *script_args])
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


# (code run after `import os, sys; out = sys.argv[1]`, modules loaded, modules not loaded)
_SCIPY_PROBES = {
    "import-casq": ("import casq", (), ("scipy",)),
    "figure2-coeffs": ("from casq import cli\n"
                       "cli.main(['figure', '2', '--out', out])\n"
                       "cli.main(['coeffs', '--out', os.path.join(out, 'c.csv')])",
                       (), ("scipy",)),
    "figure6": ("from casq import cli\ncli.main(['figure', '6', '--out', out])", (), ("scipy",)),
    "pnd-analytic": ("from casq import cli\ncli.main(['pnd', '--out', os.path.join(out, 'p.csv')])",
                     (), ("scipy",)),
    "verify": ("from casq import cli\ncli.main(['verify', '--out', os.path.join(out, 'v.csv')])",
               ("scipy.sparse.linalg",), ("scipy.special",)),
    "steady-state": ("from casq import fock\n"
                     "from casq.params import SystemParams\n"
                     "p = SystemParams(a=100.0, kappa=0.8, beta=0.0677, epsilon=0.0)\n"
                     "fock.steady_state(p, 8, boundary_tol=None)",
                     ("scipy.sparse.linalg",), ()),
}


def _modules_after(tmp_path, body):
    """sys.modules of a fresh interpreter after `import os, sys; out = sys.argv[1]` and body."""
    code = f"import os, sys\nout = sys.argv[1]\n{body}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("case", list(_SCIPY_PROBES))
def test_scipy_is_imported_only_where_used(tmp_path, case):
    body, loaded, absent = _SCIPY_PROBES[case]
    modules = {m for m in _modules_after(tmp_path, body) if m.split(".")[0] == "scipy"}
    for name in loaded:
        assert name in modules
    for name in absent:
        assert not any(m == name or m.startswith(name + ".") for m in modules), modules


@pytest.mark.parametrize("case", ["import-casq", "figure2-coeffs", "verify"])
def test_multiprocessing_is_imported_only_where_a_pool_starts(tmp_path, case):
    # none of these starts a pool (verify's 20000 x 1 run stays in process);
    # the benchmark's tracer reads every layer module from sys.modules
    modules = _modules_after(tmp_path, _SCIPY_PROBES[case][0])
    assert not {m for m in modules if m.split(".")[0] == "multiprocessing"}
    assert {f"casq.{layer}" for layer in
            ("params", "analytic", "fock", "montecarlo", "moments", "cli")} <= modules
