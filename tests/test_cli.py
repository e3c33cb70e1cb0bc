"""End-to-end tests of the command-line driver and its artifacts."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sqglab import (
    field_from_modes,
    hs_norm,
    make_grid,
    product_estimate_ratio,
    read_field,
    sample_band_limited,
    scan_bound,
    smoothing_limit_scan,
    write_field,
)
from sqglab.cli import main


def read_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSolve:
    """The solve subcommand and its artifact set."""

    def test_artifacts_and_manifest(self, tmp_path):
        """A converged run writes the field, report, norms, and checksums."""
        out = tmp_path / "run"
        rc = main(["solve", "--K", "64", "--outdir", str(out)])
        assert rc == 0
        manifest = read_manifest(out)
        assert manifest["experiment"] == "solve"
        assert set(manifest["artifacts"]) == {"theta.sqgf", "report.json", "norms.json"}
        for name, digest in manifest["artifacts"].items():
            assert sha256(out / name) == digest
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["converged"] is True
        assert all(step["matvecs"] >= step["inner_iters"] for step in report["steps"])
        assert report["steps"][-1]["transform_size"] > 0
        assert report["steps"][0]["inner_residual"] == 0.0
        assert all(0.0 <= step["inner_residual"] <= 1e-10 for step in report["steps"])
        # a force whose solves iterate leaves a nonzero final residual below inner_tol
        assert main(["solve", "--K", "64", "--force", "two_mode", "--outdir", str(tmp_path / "two")]) == 0
        with open(tmp_path / "two" / "report.json") as fh:
            steps = json.load(fh)["steps"]
        assert all(0.0 < s["inner_residual"] <= 1e-10 for s in steps if s["inner_iters"] > 0)
        assert any(s["inner_iters"] > 0 for s in steps)
        theta = read_field(out / "theta.sqgf")
        with open(out / "norms.json") as fh:
            norms = json.load(fh)
        np.testing.assert_allclose(hs_norm(theta, 0.0), norms["l2"], rtol=1e-13)

    def test_byte_identical_reruns(self, tmp_path):
        """Identical configs reproduce every artifact bit for bit, for solve and for a small ineq-scan."""
        rc_a = main(["solve", "--K", "64", "--outdir", str(tmp_path / "a")])
        rc_b = main(["solve", "--K", "64", "--outdir", str(tmp_path / "b")])
        assert rc_a == 0 and rc_b == 0
        for name in ("theta.sqgf", "report.json", "norms.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        scan = ["ineq-scan", "--K", "32", "--samples", "5", "--interp_samples", "10", "--cancel_samples", "3"]
        assert main([*scan, "--outdir", str(tmp_path / "scan_a")]) == 0
        assert main([*scan, "--outdir", str(tmp_path / "scan_b")]) == 0
        names = read_manifest(tmp_path / "scan_a")["artifacts"]
        assert {"product_witness_f.sqgf", "commutator_probe.json", "lemma_checks.json"} <= set(names)
        for name in names:
            assert (tmp_path / "scan_a" / name).read_bytes() == (tmp_path / "scan_b" / name).read_bytes()

    def test_force_file_input(self, tmp_path):
        """A stored field drives the solve in place of a built-in force."""
        grid = make_grid(64, math.pi)
        f = field_from_modes(grid, {(2, 1): 0.002j, (1, 0): 0.001})
        path = tmp_path / "force.sqgf"
        write_field(path, f, representation="spectral")
        out = tmp_path / "run"
        rc = main(["solve", "--K", "64", "--force_file", str(path), "--outdir", str(out)])
        assert rc == 0

    def test_force_file_grid_mismatch(self, tmp_path, capsys):
        """A force stored on a different grid is refused."""
        grid = make_grid(32, math.pi)
        f = field_from_modes(grid, {(1, 0): 0.01})
        path = tmp_path / "force.sqgf"
        write_field(path, f, representation="spectral")
        rc = main(["solve", "--K", "64", "--force_file", str(path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_smallness_gate_exit(self, tmp_path, capsys):
        """Forces past the threshold exit with code 2, before the output directory is made."""
        rc = main(["solve", "--K", "64", "--amplitude", "10.0", "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert "smallness gate" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_iteration_cap_exit(self, tmp_path, capsys):
        """Hitting the outer cap exits with code 3."""
        rc = main(
            [
                "solve",
                "--K",
                "64",
                "--force",
                "two_mode",
                "--max_outer",
                "1",
                "--outdir",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 3
        assert "no convergence" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreached_inner_tol_exit(self, tmp_path, capsys):
        """A linear solve that cannot reach inner_tol within the fixed GMRES budget exits with code 3, naming
        inner_tol and the budget, before the output directory is made."""
        rc = main(["solve", "--K", "64", "--force", "two_mode", "--inner_tol", "1e-30", "--outdir", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no convergence: linear solve did not reach inner_tol=1e-30 within the GMRES budget of 400" in err
        assert not (tmp_path / "o").exists()


def assert_refused_before_any_solve(tmp_path, capsys, monkeypatch, argv, j):
    """continuity with argv exits 1 with one line naming level j and both distances, solves nothing and
    makes no output directory."""
    import sqglab.experiments as experiments

    def no_solve(*args):
        raise AssertionError("a solve was made")

    monkeypatch.setattr(experiments, "outer_iterate", no_solve)
    assert main(["continuity", *argv, "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"j={j}: the realized distance" in err and "intended 2^-j ||g||" in err, err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


class TestContinuity:
    """Vanishing-perturbation sweep."""

    def test_gap_table(self, tmp_path):
        """Force gaps halve per level and solution gaps shrink with them."""
        out = tmp_path / "run"
        rc = main(
            ["continuity", "--K", "32", "--j_min", "1", "--j_max", "4", "--outdir", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "continuity.csv")
        assert header == ["j", "d_low", "d_crit", "gap_low", "gap_crit"]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]
        d_low = [float(r[1]) for r in rows]
        gap_crit = [float(r[4]) for r in rows]
        np.testing.assert_allclose(np.diff(np.log2(d_low)), -1.0, rtol=1e-10)
        assert all(b < a for a, b in zip(gap_crit, gap_crit[1:]))
        assert set(read_manifest(out)["artifacts"]) == {"continuity.csv"}

    @pytest.mark.parametrize("argv, j", [
        (["--K", "32", "--j_min", "1", "--j_max", "60"], 28),
        (["--K", "16", "--j_min", "48", "--j_max", "56"], 48),
    ])
    def test_lost_perturbation_refused(self, tmp_path, capsys, monkeypatch, argv, j):
        """A level whose realized distance ||f_j - f_inf|| is off 2^-j ||g|| by more than sqrt(eps) relative,
        because f_inf + 2^-j g rounded the perturbation, exits 1 before any solve, naming the first such j and
        both distances, and makes no output directory. At the default forces that first j is 28."""
        assert_refused_before_any_solve(tmp_path, capsys, monkeypatch, argv, j)

    def test_zero_perturbation(self, tmp_path, capsys, monkeypatch):
        """A vanishing perturbation leaves every distance 0, so it is refused at j_min in the same way."""
        argv = ["--K", "32", "--perturbation_amplitude", "0.0", "--j_min", "1", "--j_max", "2"]
        assert_refused_before_any_solve(tmp_path, capsys, monkeypatch, argv, 1)

    def test_distances_kept_through_j_20(self, tmp_path):
        """Up to j = 20 the realized distances stay inside the tolerance, so the sweep runs."""
        assert main(["continuity", "--K", "32", "--j_min", "18", "--j_max", "20", "--outdir", str(tmp_path / "o")]) == 0
        _, rows = read_csv_rows(tmp_path / "o" / "continuity.csv")
        np.testing.assert_allclose(np.diff(np.log2([float(r[2]) for r in rows])), -1.0, rtol=1e-8)

    def test_bad_range(self, tmp_path, capsys):
        """j_max below j_min is a configuration error."""
        rc = main(["continuity", "--j_min", "3", "--j_max", "1", "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "j_min" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestNonuniform:
    """Carrier-level norm table."""

    def test_patch_only_table(self, tmp_path):
        """Without the torus bridge the table fills analytic columns only."""
        out = tmp_path / "run"
        rc = main(["nonuniform", "--n_min", "3", "--n_max", "6", "--outdir", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "nonuniform.csv")
        assert header[:4] == ["n", "d_low", "d_crit", "g2_gap"]
        assert len(rows) == 4
        d_crit = [float(r[2]) for r in rows]
        np.testing.assert_allclose(np.diff(np.log2(d_crit)), -0.2, atol=1e-9)
        full_gap_col = header.index("full_gap")
        assert all(r[full_gap_col] == "" for r in rows)
        _, plot_rows = read_csv_rows(out / "plot.csv")
        np.testing.assert_allclose(float(plot_rows[0][1]), math.log2(d_crit[0]), rtol=1e-15)
        assert read_manifest(out)["warnings"] == []

    def test_torus_columns(self, tmp_path):
        """With a wide enough grid the measured gap matches the analytic one."""
        out = tmp_path / "run"
        rc = main(
            [
                "nonuniform",
                "--torus",
                "true",
                "--K",
                "512",
                "--L",
                "16pi",
                "--n_min",
                "3",
                "--n_max",
                "3",
                "--outdir",
                str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "nonuniform.csv")
        row = dict(zip(header, rows[0]))
        np.testing.assert_allclose(float(row["full_gap"]), float(row["d_crit"]), rtol=1e-3)
        assert float(row["rem_f"]) < 1e-6 * float(row["d_crit"])

    def test_unresolvable_carrier_warns(self, tmp_path, capsys):
        """Carriers past the dealias cutoff skip torus columns with a warning."""
        out = tmp_path / "run"
        rc = main(
            [
                "nonuniform",
                "--torus",
                "true",
                "--K",
                "256",
                "--L",
                "16pi",
                "--n_min",
                "3",
                "--n_max",
                "3",
                "--outdir",
                str(out),
            ]
        )
        assert rc == 0
        warnings = read_manifest(out)["warnings"]
        assert len(warnings) == 1 and "n=3" in warnings[0]
        assert "n=3" in capsys.readouterr().out
        header, rows = read_csv_rows(out / "nonuniform.csv")
        assert rows[0][header.index("full_gap")] == ""

    def test_triangle_violation_warns(self, tmp_path, capsys, monkeypatch):
        """A torus row whose solved gap, remainders and data distance sum below the patch g2_gap breaks the
        triangle inequality; the run still writes its table and exits 0, with the violation a manifest warning.
        The patch g2_gap is set to 100 d_crit here (the sum is about 2 d_crit), since the real one satisfies it."""
        import dataclasses

        import sqglab.counterexample as counterexample

        decompose = counterexample.decompose_second_iterate
        monkeypatch.setattr(counterexample, "decompose_second_iterate",
                            lambda spec, n: dataclasses.replace(p := decompose(spec, n), g2_gap=100.0 * p.d_crit))
        out = tmp_path / "run"
        rc = main(["nonuniform", "--torus", "true", "--K", "512", "--L", "16pi", "--n_min", "3", "--n_max", "3",
                   "--outdir", str(out)])
        assert rc == 0
        warnings = read_manifest(out)["warnings"]
        assert len(warnings) == 1 and warnings[0].startswith("n=3: triangle inequality violated")
        assert f"warning: {warnings[0]}" in capsys.readouterr().out
        header, rows = read_csv_rows(out / "nonuniform.csv")
        assert rows[0][header.index("full_gap")] != ""

    def test_stalled_torus_run_exits_3(self, tmp_path, capsys, monkeypatch):
        """With inner_tol=1e-4 the K=1024, L=16pi torus solve of the n=3 force reaches its top level 4 and
        stalls there, its solve returning its start with the residual 1.75e-7 above the target 7.8e-10. It
        exits 3 at the second top-level solve, naming inner_tol, instead of after the 60-step outer cap."""
        import sqglab.solver as solver

        levels = []
        solve = solver._linear_solve_info
        monkeypatch.setattr(solver, "_linear_solve_info", lambda v, f, N, *a: levels.append(N) or solve(v, f, N, *a))
        rc = main(["nonuniform", "--torus", "true", "--K", "1024", "--L", "16pi", "--n_min", "3", "--n_max", "3",
                   "--inner_tol", "1e-4", "--outdir", str(tmp_path / "run")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "outer iteration stalled at inner_tol=0.0001" in err and "with residual 1.750e-07" in err
        assert levels == [1, 2, 3, 4, 4]
        assert not (tmp_path / "run").exists()

    def test_torus_leg_error_exits_1(self, tmp_path, capsys, monkeypatch):
        """Only an unresolvable carrier becomes a warning; other torus errors fail the run."""
        import sqglab.counterexample as counterexample

        def broken(u, grid):
            raise ValueError("grid mode spacing is not an integer multiple of the patch spacing")

        monkeypatch.setattr(counterexample, "to_torus", broken)
        rc = main(["nonuniform", "--torus", "true", "--K", "256", "--L", "16pi",
                   "--n_min", "3", "--n_max", "3", "--outdir", str(tmp_path / "run")])
        assert rc == 1
        assert "integer multiple" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bad_range(self, tmp_path, capsys):
        """n_max below n_min is a configuration error."""
        rc = main(["nonuniform", "--n_min", "5", "--n_max", "3", "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "n_min" in capsys.readouterr().err

    def test_range_past_the_patch_lattice_refused_at_once(self, tmp_path, capsys, monkeypatch):
        """A level range whose top is past the int64 patch lattice (57 at h_xi = 1/32) exits 1 within a
        second, naming the bound, before any level runs, and makes no output directory."""
        import sqglab.counterexample as counterexample

        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(counterexample, "decompose_second_iterate", no_level)
        start = time.perf_counter()
        rc = main(["nonuniform", "--n_min", "3", "--n_max", "58", "--outdir", str(tmp_path / "o")])
        assert time.perf_counter() - start < 1.0
        assert rc == 1
        err = capsys.readouterr().err
        assert "integer in [3, 57], got 58" in err and len(err.splitlines()) == 1, err
        assert not (tmp_path / "o").exists()


class TestRlcheck:
    """Oscillation-average table."""

    def test_table_values(self, tmp_path):
        """The deviation column is exactly zero once the support clears."""
        out = tmp_path / "run"
        rc = main(["rlcheck", "--outdir", str(out)])
        assert rc == 0
        header, rows = read_csv_rows(out / "rlcheck.csv")
        assert header == ["n", "value", "limit", "rel_dev"]
        assert len(rows) == 12
        assert float(rows[0][3]) > 1e-3
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_levels_past_the_float_range(self, tmp_path):
        """Levels whose frequency 2^{n+1}/h_xi overflows a float still tabulate, with zero deviation."""
        out = tmp_path / "run"
        assert main(["rlcheck", "--n_min", "1016", "--n_max", "1030", "--outdir", str(out)]) == 0
        _, rows = read_csv_rows(out / "rlcheck.csv")
        assert [int(r[0]) for r in rows] == list(range(1016, 1031))
        assert all(r[1] == r[2] and float(r[3]) == 0.0 for r in rows)

    def test_bad_range(self, tmp_path, capsys):
        """Levels below 1 are rejected."""
        rc = main(["rlcheck", "--n_min", "0", "--outdir", str(tmp_path / "o")])
        assert rc == 1
        assert "n_min" in capsys.readouterr().err


class TestIneqScan:
    """Randomized estimate probes plus the unconditional checks."""

    def test_probe_artifacts(self, tmp_path):
        """Witness files reproduce the recorded worst ratio."""
        out = tmp_path / "run"
        rc = main(
            [
                "ineq-scan",
                "--K",
                "32",
                "--samples",
                "5",
                "--interp_samples",
                "5",
                "--cancel_samples",
                "3",
                "--outdir",
                str(out),
            ]
        )
        assert rc == 0
        with open(out / "product_probe.json") as fh:
            probe = json.load(fh)
        assert set(probe) == {"exponents", "samples", "worst_ratio", "witness_files"}
        assert probe["samples"] == 5
        f = read_field(out / probe["witness_files"][0])
        g = read_field(out / probe["witness_files"][1])
        np.testing.assert_allclose(
            product_estimate_ratio(f, g, tuple(probe["exponents"])),
            probe["worst_ratio"],
            rtol=1e-12,
        )
        with open(out / "lemma_checks.json") as fh:
            checks = json.load(fh)
        assert checks["interpolation"]["failures"] == 0
        assert checks["smoothing_scan"]["failures"] == 0
        assert checks["cancellation"]["max_relative_pairing"] <= 1e-10
        manifest = read_manifest(out)
        assert "commutator_probe.json" in manifest["artifacts"]
        for name, digest in manifest["artifacts"].items():
            assert sha256(out / name) == digest

    def test_smoothing_scan_near_sigma_two(self, tmp_path):
        """Seed 25 draws sigma = 1.9966 in scan 3, above the monotone limit 1.9776.

        Its scan values rise as eps halves, which is correct there, and stay
        under the uniform bound; the run passes and counts no failure.
        """
        grid = make_grid(128, np.pi)
        k_band = grid.dealias_k / 2.0
        # draw 3 of purpose 3 (the smoothing scan): its field, then (s, sigma)
        rng = np.random.default_rng(np.random.SeedSequence(25, spawn_key=(3, 3)))
        u = sample_band_limited(grid, 1.0, k_band, rng)
        s = float(rng.uniform(-0.5, 1.5))
        sigma = float(rng.uniform(0.0, 2.0))
        assert abs(sigma - 1.9965892) < 1e-6
        t_max = 0.15**2
        assert sigma > 2.0 * t_max / math.expm1(t_max) > 1.9775
        vals = smoothing_limit_scan(u, s, sigma, tuple(0.15 / k_band * 0.5**j for j in range(7)))
        assert vals[1] > vals[0] * (1.0 + 1e-10)
        assert max(vals) <= scan_bound(u, s, sigma)

        out = tmp_path / "run"
        args = ["--K", "128", "--seed", "25", "--samples", "1", "--interp_samples", "100", "--cancel_samples", "1"]
        assert main(["ineq-scan", *args, "--outdir", str(out)]) == 0
        with open(out / "lemma_checks.json") as fh:
            assert json.load(fh)["smoothing_scan"]["failures"] == 0

    def test_draw_keys_are_distinct(self, tmp_path, monkeypatch):
        """No random draw of a run shares its key with another draw, nor with a run at another seed."""
        default_rng = np.random.default_rng
        keys = {}

        def record(seed=None):
            if isinstance(seed, np.random.SeedSequence):
                keys[run].append((seed.entropy, *seed.spawn_key))
            elif not isinstance(seed, np.random.Generator):  # a generator passed on is no new draw
                keys[run].append((seed,))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", record)
        for run in ("0", "2"):
            keys[run] = []
            args = ["--K", "32", "--seed", run, "--samples", "5", "--interp_samples", "10", "--cancel_samples", "3"]
            assert main(["ineq-scan", *args, "--outdir", str(tmp_path / run)]) == 0
        for run_keys in keys.values():
            assert run_keys and len(set(run_keys)) == len(run_keys)
        assert not set(keys["0"]) & set(keys["2"])

    def test_rising_scan_is_caught(self, tmp_path, monkeypatch):
        """A scan that rises as eps shrinks fails the run while sigma is below the limit."""
        import sqglab.experiments as experiments

        monkeypatch.setattr(experiments, "smoothing_limit_scan", lambda u, s, sigma, eps: [1e-3 / e for e in eps])
        monkeypatch.setattr(experiments, "scan_bound", lambda u, s, sigma: math.inf)
        out = tmp_path / "run"
        args = ["--K", "32", "--samples", "1", "--interp_samples", "10", "--cancel_samples", "1"]
        assert main(["ineq-scan", *args, "--outdir", str(out)]) == 1
        with open(out / "lemma_checks.json") as fh:
            assert json.load(fh)["smoothing_scan"]["failures"] == 1

    @pytest.mark.parametrize("broken, failures", [("interpolation", (10, 0)), ("scan_bound", (0, 1))])
    def test_failed_checks_are_counted(self, tmp_path, capsys, monkeypatch, broken, failures):
        """A draw that fails the interpolation bound, or a smoothing scan above its uniform bound, is counted in
        lemma_checks.json, and either count alone fails the run with exit 1 after its artifacts are written."""
        import types

        import sqglab.experiments as experiments

        if broken == "interpolation":
            monkeypatch.setattr(experiments, "interpolation_check", lambda u, s, sigma, eps: types.SimpleNamespace(
                holds=False))
        else:
            monkeypatch.setattr(experiments, "smoothing_limit_scan", lambda u, s, sigma, eps: [1.0] * len(eps))
            monkeypatch.setattr(experiments, "scan_bound", lambda u, s, sigma: 0.5)
        out = tmp_path / "run"
        args = ["--K", "32", "--samples", "1", "--interp_samples", "10", "--cancel_samples", "1"]
        assert main(["ineq-scan", *args, "--outdir", str(out)]) == 1
        assert "unconditional inequality checks FAILED" in capsys.readouterr().out
        with open(out / "lemma_checks.json") as fh:
            checks = json.load(fh)
        assert (checks["interpolation"]["failures"], checks["smoothing_scan"]["failures"]) == failures
        assert checks["smoothing_scan"]["samples"] == 1

    def test_exponents_from_config_only(self, tmp_path, capsys):
        """The probes run at alpha's operating points, which no key sets: an exponent list in a JSON config is
        an unknown field and has no flag form, and each exits 1 before any output."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "ineq-scan",
                    "K": 32,
                    "samples": 3,
                    "interp_samples": 2,
                    "cancel_samples": 1,
                    "product_exponents": [0.5, 0.5, 0.5, 0.5],
                    "outdir": str(tmp_path / "run"),
                }
            )
        )
        rc = main(["ineq-scan", "--config", str(cfg)])
        assert rc == 1
        assert "unknown config field 'product_exponents' for experiment 'ineq-scan'" in capsys.readouterr().err
        rc = main(["ineq-scan", "--product_exponents", "0.5,0.5,0.5,0.5", "--outdir", str(tmp_path / "run")])
        assert rc == 1
        assert "product_exponents" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("alpha, kind", [("0", "commutator"), ("0.75", "commutator"), ("1.5", "product"),
                                             ("-0.2", "commutator")])
    def test_alpha_outside_the_probes_refused(self, tmp_path, capsys, monkeypatch, alpha, kind):
        """ineq-scan runs for 0 < alpha < 3/4, where both operating points meet their lemma's hypotheses; any
        other alpha exits 1 before any draw with one line naming alpha, the probe and the range, and makes no
        output directory."""
        from sqglab import inequalities

        def no_draws(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(inequalities, "_draws", no_draws)
        assert main(["ineq-scan", "--K", "32", "--alpha", alpha, "--outdir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"alpha={float(alpha):g} puts the {kind} probe outside its lemma" in err, err
        assert "ineq-scan runs for 0 < alpha < 3/4" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


class TestNorms:
    """Norm printout for stored fields."""

    def test_prints_norms(self, tmp_path, capsys):
        """Each requested index prints the matching norm."""
        grid = make_grid(32, math.pi)
        u = field_from_modes(grid, {(1, 0): 0.5})
        path = tmp_path / "u.sqgf"
        write_field(path, u, representation="spectral")
        rc = main(["norms", str(path), "--s", "0,1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == f"s=0: {hs_norm(u, 0.0)!r}"
        assert lines[1] == f"s=1: {hs_norm(u, 1.0)!r}"

    @pytest.mark.parametrize("coef,named", [(1e160, "overflows"), (1e-170, "underflows to 0")])
    def test_norm_past_the_float_range(self, tmp_path, capsys, coef, named):
        """A valid file whose norm overflows, or underflows to 0 for a nonzero field, exits 1 with one
        line naming the file and s, before any norm is printed."""
        path = tmp_path / "u.sqgf"
        write_field(path, field_from_modes(make_grid(16, math.pi), {(1, 0): coef}), representation="spectral")
        assert main(["norms", str(path), "--s", "1,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and str(path) in err and "s=1" in err and named in err, err

    def test_missing_file(self, tmp_path, capsys):
        """A missing field file is an ordinary error, not a traceback."""
        rc = main(["norms", str(tmp_path / "absent.sqgf")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestConfigResolution:
    """JSON config handling and flag overrides."""

    def test_flag_overrides_config(self, tmp_path):
        """A flag beats the value in the config file."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 64, "amplitude": 0.01, "outdir": str(tmp_path / "a")}))
        rc = main(["solve", "--config", str(cfg), "--amplitude", "0.02", "--outdir", str(tmp_path / "b")])
        assert rc == 0
        manifest = read_manifest(tmp_path / "b")
        assert manifest["config"]["amplitude"] == 0.02
        assert manifest["config"]["K"] == 64

    def test_unknown_key_named(self, tmp_path, capsys):
        """Unknown config fields are reported by name."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "--max_inner", "5"],
        ["continuity", "--smallness_threshold", "0.2"],
        ["rlcheck", "--alpha", "0.3"],
    ])
    def test_retired_settings_rejected(self, tmp_path, capsys, argv):
        """The GMRES budget and the smallness threshold are fixed constants, and rlcheck's table does not depend
        on alpha, so none of these is a key: as a flag or as a JSON config field each exits 1 before any output."""
        from dataclasses import fields

        from sqglab import SolverConfig
        from sqglab.cli import _EXPERIMENTS

        assert [f.name for f in fields(SolverConfig)] == ["alpha", "inner_tol", "outer_tol", "max_outer"]
        assert sorted(_EXPERIMENTS["rlcheck"][1]) == ["h_xi", "n_max", "n_min", "outdir"]
        name, flag, value = argv
        out = tmp_path / "o"
        assert main([*argv, "--outdir", str(out)]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: float(value)}))
        assert main([name, "--config", str(cfg), "--outdir", str(out)]) == 1
        assert f"unknown config field {flag[2:]!r} for experiment {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_drivers_ignore_keys_the_solver_lacks(self, tmp_path):
        """A driver config built outside the CLI may still carry the retired solver keys; the drivers read the
        SolverConfig fields and ignore the rest, so such a run gives the CLI's artifacts."""
        import sqglab.experiments as experiments

        config = {"K": 32, "L": math.pi, "alpha": 0.4, "force": "two_mode", "amplitude": 1e-2,
                  "perturbation": "single_mode", "perturbation_amplitude": 1e-2, "j_min": 1, "j_max": 2,
                  "inner_tol": 1e-10, "outer_tol": 1e-7, "max_outer": 60}
        assert experiments.run_continuity({**config, "outdir": str(tmp_path / "a")}) == 0
        assert experiments.run_continuity({**config, "max_inner": 400, "smallness_threshold": 0.1,
                                           "outdir": str(tmp_path / "b")}) == 0
        assert (tmp_path / "a" / "continuity.csv").read_bytes() == (tmp_path / "b" / "continuity.csv").read_bytes()

    def test_experiment_name_checked(self, tmp_path, capsys):
        """A config written for one experiment cannot drive another."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "continuity"}))
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 1
        assert "continuity" in capsys.readouterr().err

    def test_missing_and_malformed_config(self, tmp_path, capsys):
        """Unreadable or non-JSON configs fail cleanly."""
        rc = main(["solve", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--config", str(bad)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_pi_lengths(self, tmp_path):
        """Lengths written as pi multiples parse in flags and configs."""
        out = tmp_path / "a"
        rc = main(["nonuniform", "--L", "16pi", "--n_min", "3", "--n_max", "3", "--outdir", str(out)])
        assert rc == 0
        assert read_manifest(out)["config"]["L"] == 16.0 * math.pi
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"L": "2pi", "n_min": 3, "n_max": 3, "outdir": str(tmp_path / "b")}))
        rc = main(["nonuniform", "--config", str(cfg)])
        assert rc == 0
        assert read_manifest(tmp_path / "b")["config"]["L"] == 2.0 * math.pi

    def test_string_bool_rejected(self, tmp_path, capsys):
        """A JSON string is not a boolean, whatever it spells."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"torus": "false", "n_min": 3, "n_max": 3, "outdir": str(tmp_path / "o")}))
        assert main(["nonuniform", "--config", str(cfg)]) == 1
        assert "'torus' must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fractional_integer_rejected(self, tmp_path, capsys):
        """An integer key refuses a fractional value instead of truncating it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 128.9, "outdir": str(tmp_path / "o")}))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "'K' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_solver_defaults_from_config_class(self, tmp_path):
        """The resolved solver keys are the SolverConfig defaults, h_xi the CounterexampleSpec one."""
        from dataclasses import fields

        from sqglab import CounterexampleSpec, SolverConfig

        rc = main(["solve", "--K", "32", "--outdir", str(tmp_path / "o")])
        assert rc == 0
        config = read_manifest(tmp_path / "o")["config"]
        defaults = {f.name: f.default for f in fields(SolverConfig) if f.name != "alpha"}
        assert {k: config[k] for k in defaults} == defaults
        assert main(["rlcheck", "--n_max", "2", "--outdir", str(tmp_path / "r")]) == 0
        assert read_manifest(tmp_path / "r")["config"]["h_xi"] == CounterexampleSpec.h_xi

    @pytest.mark.parametrize("argv, named", [
        (["solve", "--K", "32", "--amplitude", "nan"], "'nan'"),
        (["continuity", "--K", "32", "--amplitude", "inf", "--j_max", "1"], "'inf'"),
        (["nonuniform", "--delta", "inf"], "'inf'"),
        (["solve", "--K", "32", "--L", "inf"], "'inf'"),
        (["norms", "u.sqgf", "--s", "0,nan"], "'nan'"),
    ])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, argv, named):
        """NaN and infinite float or length flags exit 1 naming the value, before any work."""
        assert main(argv + (["--outdir", str(tmp_path / "o")] if argv[0] != "norms" else [])) == 1
        assert f"expected a finite number, got {named}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"amplitude": NaN}', "'NaN'"),
        ('{"amplitude": -Infinity}', "'-Infinity'"),
        ('{"amplitude": 1e400}', "'1e400'"),
        ('{"L": "infpi"}', "'inf'"),
    ])
    def test_non_finite_json_rejected(self, tmp_path, capsys, text, named):
        """json.load accepts NaN, Infinity and overflowing literals; the config reader does not."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["solve", "--K", "32", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
        assert f"expected a finite number, got {named}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_huge_json_integer_rejected(self, tmp_path, capsys):
        """A JSON integer past the float range exits 1 naming its key, not with an OverflowError traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"amplitude": 1' + "0" * 400 + "}")
        assert main(["solve", "--K", "32", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
        assert "config field 'amplitude'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("product_exponents", 5),
        ("product_exponents", [0.4, True, True, 0.4]),
        ("product_exponents", "abcd"),
        ("product_exponents", {"a": 1}),
        ("product_exponents", []),
        ("commutator_exponents", [0.1, 0.2, 0.3, 0.4]),
    ])
    def test_malformed_exponent_list_rejected(self, tmp_path, capsys, key, value):
        """The exponent lists are no keys: whatever value a JSON config gives one, it exits 1 naming the unknown
        field."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "K": 32, "outdir": str(tmp_path / "o")}))
        assert main(["ineq-scan", "--config", str(cfg)]) == 1
        assert f"unknown config field {key!r} for experiment 'ineq-scan'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config, named", [
        (["continuity", "--force", "nope"], {}, "'nope'"),
        (["solve", "--force", "nope"], {}, "'nope'"),
        (["ineq-scan"], {"alpha": 1.5}, "alpha=1.5"),
        (["continuity", "--L", "8pi"], {"K": 16}, "no room for P_1"),
        (["nonuniform", "--n_min", "58", "--n_max", "58"], {}, "integer in [3, 57], got 58"),
        (["ineq-scan", "--interp_samples", "-5"], {}, "interp_samples=-5"),
        (["ineq-scan", "--cancel_samples", "-3"], {}, "cancel_samples=-3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e100"], {}, "delta=1e+100, n=3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e300"], {}, "delta=1e+300, n=3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e-160"], {}, "delta=1e-160, n=3"),
        (["solve", "--K", "16", "--L", "1e-300"], {}, "K=16, L=1e-300"),
        (["solve", "--K", "64", "--amplitude", "1e-170"], {}, "norm underflows to 0"),
        (["ineq-scan", "--K", "16", "--L", "1e-60", "--samples", "3"], {}, "commutator probe draw 0: ratio inf"),
        (["ineq-scan", "--K", "16", "--L", "1e-100", "--samples", "3"], {}, "product probe draw 0: ratio nan"),
        (["solve", "--K", "16", "--amplitude", "1e300"], {}, "norm overflows"),
        (["solve", "--K", "16", "--amplitude", "1e160"], {}, "norm overflows"),
        (["solve", "--K", "16", "--amplitude", "1e154"], {}, "outer step at N=1 leaves the float range"),
        (["solve", "--K", "16", "--amplitude", "1e150"], {}, "outer step at N=1 leaves the float range"),
        (["continuity", "--K", "16", "--amplitude", "1e160", "--perturbation_amplitude", "1e153", "--j_max", "1"],
         {}, "norm overflows"),
        (["continuity", "--K", "16", "--amplitude", "1e300"], {}, "j=1: the realized distance ||f_j - f_inf||"),
        (["continuity", "--K", "16", "--amplitude", "1e160", "--perturbation_amplitude", "1e160"], {},
         "j=1: the realized distance ||f_j - f_inf||_H^0.4 = inf"),
        (["nonuniform", "--n_min", "2", "--n_max", "3"], {}, "integer in [3, 57], got 2"),
    ])
    def test_refusal_leaves_no_outdir(self, tmp_path, capsys, argv, config, named):
        """An unknown force, an alpha outside the probes' lemmas, a band with no level, a carrier level below the
        closed forms' boxes or past the patch lattice, a negative sample count, gap norms, probe ratios or a grid
        past the float range, a force whose norm underflows, a force whose norms or solve steps overflow, or a
        continuity perturbation that the force rounds away or whose distance overflows exit 1 with one line on
        stderr and make no output directory."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 32, **config}))
        assert main(argv + ["--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert named in err and len(err.splitlines()) == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("L, k_max", [("10", "0.785398"), ("7.6969", "1.02041")])
    def test_empty_probe_band_refused(self, tmp_path, capsys, monkeypatch, L, k_max):
        """An ineq-scan whose probe band (1, dealias_k/2] holds no lattice wavenumber, because dealias_k/2 <= 1
        (L=10) or because no |k| falls between 1 and it (L=7.6969), exits 1 before any draw with one line
        naming K, L and the band, and makes no output directory."""
        from sqglab import inequalities

        def no_draws(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(inequalities, "_draws", no_draws)
        assert main(["ineq-scan", "--K", "16", "--L", L, "--outdir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"K=16, L={L}: the probe band (1, dealias_k/2] = (1, {k_max}]" in err, err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_refusal_names_a_draw_inside_a_later_stack(self, tmp_path, capsys, monkeypatch):
        """A product draw past the first stack whose norms overflow, draw 5 (both fields scaled by 1e200), is
        refused by number in one line on stderr, and no output directory is made."""
        from sqglab import inequalities

        draws = inequalities._draws

        def scaled(grid, k_min, k_max, n, rng, per):
            first = 0
            for stack in draws(grid, k_min, k_max, n, rng, per):
                if per == 2 and first <= 5 < first + len(stack):  # a probe's stack (f and g per draw)
                    stack[5 - first] *= 1e200
                first += len(stack)
                yield stack

        monkeypatch.setattr(inequalities, "_draws", scaled)
        assert main(["ineq-scan", "--K", "32", "--samples", "8", "--outdir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "product probe draw 5: ratio" in err and len(err.splitlines()) == 1, err
        assert not (tmp_path / "o").exists()

    def test_subcommand_required(self, capsys):
        """Bare invocation is a usage error."""
        rc = main([])
        assert rc == 1
        assert "subcommand" in capsys.readouterr().err


class TestSerialSweep:
    """The continuity levels are solved in order in the calling thread."""

    @pytest.mark.parametrize("value", ["2", "many"])
    def test_continuity_starts_no_thread(self, tmp_path, monkeypatch, value):
        """continuity starts no thread and reads no SQG_THREADS, so neither a worker count nor a value a
        worker-count parser would refuse changes the run."""
        import threading

        def refuse(self):
            raise RuntimeError("a thread was started")

        monkeypatch.setenv("SQG_THREADS", value)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        rc = main(["continuity", "--K", "32", "--j_min", "1", "--j_max", "2", "--outdir", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "continuity.csv").is_file()


class TestEntryPoint:
    """The installed package: its process entry point and its import surface."""

    def test_module_invocation(self, tmp_path):
        """python -m sqglab.cli behaves like main()."""
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", "rlcheck", "--n_max", "3", "--outdir", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "rlcheck.csv").exists()

    def test_readme_commands_run(self, tmp_path, monkeypatch):
        """Every sqg-lab line of README's command-line examples exits 0, run in a scratch directory, and
        each experiment leaves in its output directory exactly manifest.json and the manifest's artifacts.

        The examples read force.sqgf (on the default K=128, L=pi grid) and run.json; both are written here.
        """
        import re
        import shlex

        from sqglab.cli import _resolve_config, build_parser

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        lines = [ln for block in re.findall(r"```sh\n(.*?)```", section, re.S) for ln in block.splitlines()]
        commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("sqg-lab ")]
        assert len(commands) >= 9

        monkeypatch.chdir(tmp_path)
        write_field("force.sqgf", field_from_modes(make_grid(128, math.pi), {(1, 0): -0.005j, (0, 2): 0.005}))
        Path("run.json").write_text(json.dumps({"experiment": "nonuniform", "delta": 0.02, "outdir": "out_config"}))
        for argv in commands:
            assert (argv, main(argv)) == (argv, 0)
            args = build_parser().parse_args(argv)
            if args.command == "norms":
                continue
            outdir = Path(_resolve_config(args.command, args)["outdir"])
            listed = read_manifest(outdir)["artifacts"]
            assert sorted(p.name for p in outdir.iterdir()) == sorted(["manifest.json", *listed]), argv

    def test_one_writer(self):
        """Only experiments._publish and io.write_field make a directory or write a file in the package.

        Every function of src/sqglab is scanned for calls of .mkdir, .write_bytes, .write_text, and open
        with a w, a or x mode; a run that fails then makes no directory, since it never reaches _publish.
        """
        import ast

        def opens_for_writing(call):
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            mode = modes[0] if modes else None
            return isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax")

        def writes(call):
            fn = call.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            return name in ("mkdir", "write_bytes", "write_text") or (name == "open" and opens_for_writing(call))

        writers = set()
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "sqglab").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                # a write in a nested function names the enclosing ones too
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Call) and writes(c) for c in ast.walk(node)
                ):
                    writers.add(f"{path.stem}.{node.name}")
        assert writers == {"experiments._publish", "io.write_field"}

    def test_import_loads_no_scipy(self):
        """Importing the package and its experiments loads no scipy module (scipy is only the tests' oracle)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sqglab, sqglab.experiments, sys; print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_need_no_scipy(self, tmp_path):
        """Every command, norms on the field the solve wrote included, runs to exit 0 in a process where
        importing scipy fails."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = [str(tmp_path / str(i)) for i in range(5)]
        runs = [
            ["solve", "--K", "64", "--outdir", out[0]],
            ["continuity", "--K", "32", "--j_min", "1", "--j_max", "2", "--outdir", out[1]],
            ["nonuniform", "--n_min", "3", "--n_max", "3", "--outdir", out[2]],
            ["rlcheck", "--n_max", "3", "--outdir", out[3]],
            ["ineq-scan", "--K", "32", "--samples", "3", "--interp_samples", "3", "--cancel_samples", "2",
             "--outdir", out[4]],
            ["norms", str(tmp_path / "0" / "theta.sqgf"), "--s=-0.4,0,1.2"],
        ]
        for argv in runs:
            code = f"import sys; sys.modules['scipy'] = None; from sqglab.cli import main; sys.exit(main({argv!r}))"
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
            assert proc.returncode == 0, (argv, proc.stderr)
        assert all((Path(o) / "manifest.json").is_file() for o in out)
        assert proc.stdout.count("s=") == 3

    def test_benchmark_hooks(self, monkeypatch):
        """The names the benchmark's tracer wraps at run time still see the work: every transform is looked
        up on numpy.fft at call time (one band product makes 6 calls, one patch convolution 3), and
        solver.gmres is a module-level function outside __all__, which the tracer wraps by name."""
        import inspect

        import sqglab.solver as solver
        from sqglab import pointwise_product
        from sqglab.patches import Patch, PatchField, convolve

        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn",
                     "irfftn"):
            def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        g = make_grid(32, np.pi)
        pointwise_product(field_from_modes(g, {(1, 0): 0.5j, (2, 3): 0.25}), field_from_modes(g, {(0, 2): 0.5}))
        assert len(calls) == 6, calls
        calls.clear()
        rng = np.random.default_rng(0)
        a, b = (PatchField(0.5, (Patch((0, 0), rng.standard_normal((5, 4))),)) for _ in range(2))
        convolve(a, b)
        assert calls == ["fftn", "fftn", "ifftn"]
        assert inspect.isfunction(solver.gmres) and solver.gmres.__module__ == "sqglab.solver"
        assert "gmres" not in solver.__all__

    def test_public_names_resolve(self):
        """Every module __all__ entry resolves, and every name sqglab exports is in a module's __all__.

        The perfbench tracer wraps functions by __all__, so a stale entry would silently drop a span.
        """
        import importlib
        import pkgutil
        import types

        import sqglab

        listed = set()
        for info in pkgutil.iter_modules(sqglab.__path__):
            mod = importlib.import_module(f"sqglab.{info.name}")
            assert [n for n in mod.__all__ if not hasattr(mod, n)] == [], mod.__name__
            listed.update(mod.__all__)
        exported = {n for n, v in vars(sqglab).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
        assert exported - listed == set()

    def test_readme_lists_the_names_no_run_reaches(self, tmp_path):
        """The public functions and methods that no sqg-lab command enters are exactly README's list.

        Each command runs once at a small size under sys.setprofile and starts no thread, so every Python
        frame it enters is seen; the physical force file is written before the profile starts.
        """
        import importlib
        import pkgutil
        import re
        import types

        import sqglab

        phys = tmp_path / "force.sqgf"
        write_field(phys, field_from_modes(make_grid(32, math.pi), {(2, 1): 0.002j, (1, 0): 0.001}),
                    representation="physical")
        runs = [
            ["solve", "--K", "32", "--outdir", str(tmp_path / "solve")],
            ["solve", "--K", "32", "--force_file", str(phys), "--outdir", str(tmp_path / "phys")],
            ["continuity", "--K", "32", "--j_min", "1", "--j_max", "1", "--outdir", str(tmp_path / "cont")],
            ["nonuniform", "--n_min", "3", "--n_max", "3", "--outdir", str(tmp_path / "patch")],
            ["nonuniform", "--torus", "true", "--K", "256", "--L", "8pi", "--n_min", "3", "--n_max", "3",
             "--outdir", str(tmp_path / "torus")],
            ["rlcheck", "--n_max", "3", "--outdir", str(tmp_path / "rl")],
            ["ineq-scan", "--K", "32", "--samples", "2", "--interp_samples", "10", "--cancel_samples", "1",
             "--outdir", str(tmp_path / "ineq")],
            ["norms", str(tmp_path / "solve" / "theta.sqgf")],
        ]
        entered = set()

        def hook(frame, event, _arg):
            if event == "call":
                entered.add(frame.f_code)

        sys.setprofile(hook)
        try:
            codes = [main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
        assert codes == [0] * len(runs)

        def public_code(mod):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType):
                    yield name, obj.__code__
                elif isinstance(obj, type):
                    for attr, member in vars(obj).items():
                        # the function of a property, cached_property, classmethod or staticmethod
                        fn = getattr(member, "fget", None) or getattr(member, "func", None) or getattr(
                            member, "__func__", member)
                        if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                            yield f"{name}.{attr}", fn.__code__

        missed = set()
        for info in pkgutil.iter_modules(sqglab.__path__):
            mod = importlib.import_module(f"sqglab.{info.name}")
            missed.update(name for name, code in public_code(mod) if code not in entered)

        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = set()
        for line in text.split("stay for the reasons given:\n", 1)[1].splitlines():
            if line and not line.startswith(("- ", "  ")):
                break
            listed.update(re.findall(r"^- `([\w.]+)`", line))
        assert missed == listed
