"""End-to-end tests of the command-line driver and its artifacts."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
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

    def test_zero_perturbation(self, tmp_path):
        """A vanishing perturbation gives an all-zero gap table."""
        out = tmp_path / "run"
        rc = main(
            [
                "continuity",
                "--K",
                "32",
                "--perturbation_amplitude",
                "0.0",
                "--j_min",
                "1",
                "--j_max",
                "2",
                "--outdir",
                str(out),
            ]
        )
        assert rc == 0
        _, rows = read_csv_rows(out / "continuity.csv")
        for row in rows:
            assert all(float(cell) == 0.0 for cell in row[1:])

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

    def test_exponents_from_config_only(self, tmp_path, capsys):
        """Exponent lists load from JSON but have no flag form."""
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
        assert rc == 0
        with open(tmp_path / "run" / "product_probe.json") as fh:
            assert json.load(fh)["exponents"] == [0.5, 0.5, 0.5, 0.5]
        rc = main(["ineq-scan", "--product_exponents", "0.5,0.5,0.5,0.5"])
        assert rc == 1
        assert "product_exponents" in capsys.readouterr().err


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
        """An exponent list holds exactly 4 (product) or 6 (commutator) numbers; else exit 1 naming the key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "K": 32, "outdir": str(tmp_path / "o")}))
        assert main(["ineq-scan", "--config", str(cfg)]) == 1
        assert f"config field {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config, named", [
        (["continuity", "--force", "nope"], {}, "'nope'"),
        (["solve", "--force", "nope"], {}, "'nope'"),
        (["ineq-scan"], {"product_exponents": [1.5, 0, 0, 1.5]}, "s1 < 1"),
        (["continuity", "--L", "8pi"], {"K": 16}, "no room for P_1"),
        (["nonuniform", "--n_min", "58", "--n_max", "58"], {}, "n=58 is past the largest level 57"),
        (["ineq-scan", "--interp_samples", "-5"], {}, "interp_samples=-5"),
        (["ineq-scan", "--cancel_samples", "-3"], {}, "cancel_samples=-3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e100"], {}, "delta=1e+100, n=3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e300"], {}, "delta=1e+300, n=3"),
        (["nonuniform", "--n_min", "3", "--n_max", "3", "--delta", "1e-160"], {}, "delta=1e-160, n=3"),
        (["solve", "--K", "16", "--L", "1e-300"], {}, "K=16, L=1e-300"),
        (["solve", "--K", "64", "--amplitude", "1e-170"], {}, "norm underflows to 0"),
        # numpy reports the norms' overflow as a RuntimeWarning before the probe refuses the ratio
        pytest.param(["ineq-scan", "--K", "16", "--L", "1e-60", "--samples", "3"], {},
                     "commutator probe draw 0: ratio inf", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
        pytest.param(["ineq-scan", "--K", "16", "--L", "1e-100", "--samples", "3"], {},
                     "product probe draw 0: ratio nan", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ])
    def test_refusal_leaves_no_outdir(self, tmp_path, capsys, argv, config, named):
        """An unknown force, invalid probe exponents, a band with no level, a carrier level past the patch
        lattice, a negative sample count, gap norms, probe ratios or a grid past the float range, or a force
        whose norm underflows exit 1 and make no output directory."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 32, **config}))
        assert main(argv + ["--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_subcommand_required(self, capsys):
        """Bare invocation is a usage error."""
        rc = main([])
        assert rc == 1
        assert "subcommand" in capsys.readouterr().err


class TestThreads:
    """Worker-count override."""

    def test_serial_override(self, tmp_path, monkeypatch):
        """SQG_THREADS=1 forces the serial path and changes nothing.

        With 2 threads the pool's workers share one grid and its level
        tables; the table must come out byte for byte the same.
        """
        tables = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("SQG_THREADS", threads)
            out = tmp_path / f"run{threads}"
            rc = main(["continuity", "--K", "32", "--j_min", "1", "--j_max", "2", "--outdir", str(out)])
            assert rc == 0
            tables[threads] = (out / "continuity.csv").read_bytes()
        assert tables["1"] == tables["2"]

    def test_invalid_value(self, tmp_path, monkeypatch, capsys):
        """A SQG_THREADS that is not a positive integer is a configuration error, never coerced."""
        for value in ("many", "0", "-3", "1_0", " 2 ", "+2", "\u0662"):  # the last is Arabic-Indic two
            monkeypatch.setenv("SQG_THREADS", value)
            rc = main(["continuity", "--K", "32", "--j_min", "1", "--j_max", "2", "--outdir", str(tmp_path / "o")])
            assert rc == 1
            assert "SQG_THREADS" in capsys.readouterr().err


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

    def test_import_skips_scipy_signal(self):
        """Importing the package and its experiments leaves scipy.signal (about 0.3 s of import) unloaded."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sqglab, sqglab.experiments, sys; print('scipy.signal' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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

    def test_readme_lists_the_names_no_run_reaches(self, tmp_path, monkeypatch):
        """The public functions and methods that no sqg-lab command enters are exactly README's list.

        Each command runs once at a small size under sys.setprofile, serially, so every Python frame
        it enters is seen; the physical force file is written before the profile starts.
        """
        import importlib
        import pkgutil
        import re
        import types

        import sqglab

        monkeypatch.setenv("SQG_THREADS", "1")
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
