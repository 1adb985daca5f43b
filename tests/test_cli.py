"""CLI contract: CSV layouts, figure presets, exit codes, determinism."""

import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import numpy as np
import pytest

import casq
from casq import analytic, cli

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
        assert cli.main(["figure", str(n), "--epsilon", "0", "--beta-step", "0.01",
                         "--out", out]) == 0
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

    def test_vacuum_point_trivially_consistent(self):
        assert cli.main(["verify", "--a", "0", "--beta", "0", "--epsilon", "0",
                         "--dim", "16", "--n-traj", "200", "--t-end", "1"]) == 0


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

    def test_bad_range_syntax(self):
        assert cli.main(["variance", "--beta", "0:1:0"]) == 2

    @pytest.mark.parametrize("step", ["0", "-0.001"])
    def test_nonpositive_beta_step(self, tmp_path, step):
        assert cli.main(["figure", "2", "--beta-step", step,
                         "--out", str(tmp_path) + os.sep]) == 2

    @pytest.mark.parametrize("args", [["2", "--kappa", "-1"], ["3", "--a", "-5"]],
                             ids=["fig2-kappa", "fig3-a"])
    def test_figure_knobs_validated(self, tmp_path, args):
        assert cli.main(["figure", *args, "--out", str(tmp_path) + os.sep]) == 2
        assert not (tmp_path / f"fig{args[0]}.csv").exists()

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
    assert vm == pytest.approx(ref.minus, rel=2e-2)  # coarse sanity; precision is tested elsewhere


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
