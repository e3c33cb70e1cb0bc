"""Named experiments with reproducible artifacts.

Every experiment resolves a flat configuration dict, computes, writes
CSV/JSON artifacts plus a manifest with sha256 checksums of everything it
produced, and returns a process exit code. Identical config and seed give
byte-identical artifacts: reductions run in fixed order and floats are
serialized via repr.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .counterexample import (
    CounterexampleSpec,
    build_phi,
    nonuniform_experiment,
    riemann_lebesgue_check,
)
from .field import SpectralField, field_from_modes, velocity_from_theta
from .grid import DEFAULT_DEALIAS_FRACTION, GridSpec, make_grid
from .inequalities import (
    cancellation_probe,
    commutator_operating_point,
    product_operating_point,
    run_commutator_probe,
    run_product_probe,
    sample_band_limited,
)
from .io import _write_csv, read_field, write_field
from .norms import (
    hs_norm,
    interpolation_check,
    scan_bound,
    smoothing_limit_scan,
    velocity_hs_norm,
)
from .solver import ConfigError, SolverConfig, outer_iterate

__all__ = [
    "thread_count",
    "parallel_map",
    "builtin_force",
    "run_solve",
    "run_continuity",
    "run_nonuniform",
    "run_rlcheck",
    "run_inequality_scan",
    "run_norms",
]


# -- plumbing ---------------------------------------------------------------

def thread_count() -> int:
    """Worker cap for parameter sweeps; SQG_THREADS overrides the CPU count."""
    env = os.environ.get("SQG_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ConfigError(f"SQG_THREADS must be a positive integer, got {env!r}")
        return n
    return max(1, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Order-preserving map over independent tasks, threaded when allowed."""
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(outdir: Path, experiment: str, config: dict, artifacts: list[Path], warnings: list[str] | None = None) -> None:
    manifest = {
        "experiment": experiment,
        "config": config,
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
        "warnings": list(warnings or []),
    }
    _write_json(outdir / "manifest.json", manifest)


def _prepare_outdir(config: dict) -> Path:
    outdir = Path(config["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _grid_from(config: dict) -> GridSpec:
    return make_grid(int(config["K"]), float(config["L"]), float(config.get("dealias_fraction", DEFAULT_DEALIAS_FRACTION)))


def _solver_from(config: dict) -> SolverConfig:
    return SolverConfig(**{f.name: config[f.name] for f in fields(SolverConfig) if f.name in config})


# -- built-in forces ----------------------------------------------------------

def builtin_force(name: str, grid: GridSpec, amplitude: float) -> SpectralField:
    """Small named force families used by the experiments and tests."""
    if name == "single_mode":
        return field_from_modes(grid, {(1, 0): -0.5j * amplitude})
    if name == "two_mode":
        return field_from_modes(grid, {(1, 0): -0.5j * amplitude, (0, 2): 0.5 * amplitude})
    raise ConfigError(f"unknown built-in force family {name!r}; choose single_mode or two_mode")


def _resolve_force(config: dict, grid: GridSpec) -> SpectralField:
    path = config.get("force_file")
    if path:
        f = read_field(path, dealias_fraction=grid.dealias_fraction)
        if f.grid != grid:
            raise ConfigError(
                f"force file grid (K={f.grid.K}, L={f.grid.L:g}) does not match configured grid "
                f"(K={grid.K}, L={grid.L:g})"
            )
        return f
    return builtin_force(str(config["force"]), grid, float(config["amplitude"]))


# -- experiments --------------------------------------------------------------

def run_solve(config: dict) -> int:
    """Solve one force to convergence; emit theta.sqgf, report.json, norms.json."""
    grid = _grid_from(config)
    cfg = _solver_from(config)
    outdir = _prepare_outdir(config)
    f = _resolve_force(config, grid)

    theta, report = outer_iterate(f, cfg)

    theta_path = outdir / "theta.sqgf"
    write_field(theta_path, theta, representation="spectral")
    report_path = outdir / "report.json"
    _write_json(report_path, report.to_json_dict())
    a = cfg.alpha
    norms_path = outdir / "norms.json"
    _write_json(
        norms_path,
        {
            "l2": hs_norm(theta, 0.0),
            "h_alpha": hs_norm(theta, a),
            "h_crit": hs_norm(theta, 2.0 - 2.0 * a),
            "force_h_low": hs_norm(f, -a),
            "force_h_crit": hs_norm(f, 2.0 - 4.0 * a),
            "velocity_h_crit": velocity_hs_norm(velocity_from_theta(theta), 2.0 - 2.0 * a),
        },
    )
    _write_manifest(outdir, "solve", config, [theta_path, report_path, norms_path])
    print(f"converged: residual {report.residual:.3e} after {len(report.steps)} outer steps")
    return 0


def run_continuity(config: dict) -> int:
    """Gap norms along f_j = f_inf + 2^{-j} g; emits continuity.csv."""
    grid = _grid_from(config)
    cfg = _solver_from(config)
    outdir = _prepare_outdir(config)
    f_inf = builtin_force(str(config["force"]), grid, float(config["amplitude"]))
    g = builtin_force(str(config["perturbation"]), grid, float(config["perturbation_amplitude"]))
    j_min, j_max = int(config["j_min"]), int(config["j_max"])
    if j_min < 0 or j_max < j_min:
        raise ConfigError(f"need 0 <= j_min <= j_max, got ({j_min}, {j_max})")

    theta_inf, _ = outer_iterate(f_inf, cfg)
    a = cfg.alpha

    def one(j: int):
        f_j = f_inf + (2.0**-j) * g
        theta_j, _ = outer_iterate(f_j, cfg)
        df = f_j - f_inf
        dt = theta_j - theta_inf
        return (
            j,
            hs_norm(df, -a),
            hs_norm(df, 2.0 - 4.0 * a),
            hs_norm(dt, a),
            hs_norm(dt, 2.0 - 2.0 * a),
        )

    rows = parallel_map(one, range(j_min, j_max + 1))
    csv_path = outdir / "continuity.csv"
    _write_csv(csv_path, ("j", "d_low", "d_crit", "gap_low", "gap_crit"), rows)
    _write_manifest(outdir, "continuity", config, [csv_path])
    return 0


def run_nonuniform(config: dict) -> int:
    """Carrier-level sweep of the gap decomposition; emits the norm table."""
    spec = CounterexampleSpec(
        delta=float(config["delta"]),
        alpha=float(config["alpha"]),
        n=int(config["n_min"]),
        h_xi=float(config["h_xi"]),
    )
    n_min, n_max = int(config["n_min"]), int(config["n_max"])
    if n_max < n_min:
        raise ConfigError(f"need n_min <= n_max, got ({n_min}, {n_max})")
    grid = None
    cfg = None
    if bool(config.get("torus", False)):
        grid = _grid_from(config)
        cfg = _solver_from(config)
    outdir = _prepare_outdir(config)

    table = nonuniform_experiment(spec, tuple(range(n_min, n_max + 1)), grid=grid, cfg=cfg)

    csv_path = outdir / "nonuniform.csv"
    table.write_csv(csv_path)
    plot_rows = [
        (row["n"], math.log2(row["d_crit"]), math.log2(row["g2_gap"]))
        for row in table.rows
    ]
    plot_path = outdir / "plot.csv"
    _write_csv(plot_path, ("n", "log2_d_crit", "log2_g2_gap"), plot_rows)
    _write_manifest(outdir, "nonuniform", config, [csv_path, plot_path], warnings=table.warnings)
    for w in table.warnings:
        print(f"warning: {w}")
    return 0


def run_rlcheck(config: dict) -> int:
    """Oscillation-average table over carrier levels; emits rlcheck.csv."""
    n_min, n_max = int(config["n_min"]), int(config["n_max"])
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
    spec = CounterexampleSpec(delta=1.0, alpha=float(config["alpha"]), n=max(n_min, 1), h_xi=float(config["h_xi"]))
    prof = build_phi(spec)
    outdir = _prepare_outdir(config)
    rows = []
    for n in range(n_min, n_max + 1):
        rec = riemann_lebesgue_check(prof, n)
        rows.append((n, rec.value, rec.limit, rec.rel_dev))
    csv_path = outdir / "rlcheck.csv"
    _write_csv(csv_path, ("n", "value", "limit", "rel_dev"), rows)
    _write_manifest(outdir, "rlcheck", config, [csv_path])
    return 0


def _probe_json(probe, witness_files: list[str]) -> dict:
    return {
        "exponents": list(probe.exponents),
        "samples": probe.samples,
        "worst_ratio": probe.worst_ratio,
        "witness_files": witness_files,
    }


def run_inequality_scan(config: dict) -> int:
    """Ratio probes at the operating exponents plus the unconditional checks.

    The product/commutator sweeps record worst ratios and witnesses; the
    mollifier interpolation bound and the nonlinear cancellation are hard
    pass/fail and drive the exit code.
    """
    grid = _grid_from(config)
    alpha = float(config["alpha"])
    seed = int(config["seed"])
    samples = int(config["samples"])
    outdir = _prepare_outdir(config)

    prod_exps = config.get("product_exponents") or list(product_operating_point(alpha))
    comm_exps = config.get("commutator_exponents") or list(commutator_operating_point(alpha))

    artifacts: list[Path] = []
    worst = {}
    for name, run_probe, exps, probe_seed in (
        ("product", run_product_probe, prod_exps, seed),
        ("commutator", run_commutator_probe, comm_exps, seed + 10_000),
    ):
        probe = run_probe(grid, tuple(exps), samples, probe_seed)
        worst[name] = probe.worst_ratio
        files = []
        for tag, fld in zip(("f", "g"), probe.witness):
            p = outdir / f"{name}_witness_{tag}.sqgf"
            write_field(p, fld, representation="spectral")
            artifacts.append(p)
            files.append(p.name)
        probe_path = outdir / f"{name}_probe.json"
        _write_json(probe_path, _probe_json(probe, files))
        artifacts.append(probe_path)

    # unconditional checks: mollifier interpolation and nonlinear cancellation
    rng = np.random.default_rng(seed + 20_000)
    k_band = grid.dealias_k / 2.0
    interp_fail = 0
    scan_fail = 0
    n_interp = int(config["interp_samples"])
    for i in range(n_interp):
        u = sample_band_limited(grid, 1.0, k_band, seed + 30_000 + i)
        s = float(rng.uniform(-0.5, 1.5))
        sigma = float(rng.uniform(0.0, 2.0))
        eps = float(rng.uniform(0.01, 1.0))
        if not interpolation_check(u, s, sigma, eps).holds:
            interp_fail += 1
    eps0 = 0.15 / k_band
    eps_seq = tuple(eps0 * 0.5**j for j in range(7))
    # Per mode the scan value scales like t^{-sigma/2}(1 - e^{-t}) with
    # t = eps^2 |k|^2, which falls as eps shrinks only while
    # sigma <= 2t/(e^t - 1). That limit decreases in t, so the whole scan is
    # monotone when sigma is at most its value at t_max = (eps0 k_band)^2;
    # above it (sigma near 2) a rising scan is correct and only the uniform
    # bound is checked.
    t_max = (eps0 * k_band) ** 2
    sigma_monotone = 2.0 * t_max / math.expm1(t_max)
    for i in range(max(1, n_interp // 10)):
        u = sample_band_limited(grid, 1.0, k_band, seed + 40_000 + i)
        s = float(rng.uniform(-0.5, 1.5))
        sigma = float(rng.uniform(0.0, 2.0))
        vals = smoothing_limit_scan(u, s, sigma, eps_seq)
        bound = scan_bound(u, s, sigma)
        if any(v > bound * (1.0 + 1e-10) for v in vals):
            scan_fail += 1
        if sigma <= sigma_monotone and any(b > a * (1.0 + 1e-10) for a, b in zip(vals, vals[1:])):
            scan_fail += 1

    n_cancel = int(config["cancel_samples"])
    cancel_max = 0.0
    quarter = (grid.K // 4) * grid.dk
    for i in range(n_cancel):
        theta = sample_band_limited(grid, 1.0, quarter, seed + 50_000 + i)
        v = velocity_from_theta(theta)
        scale = hs_norm(theta, 0.0) ** 2 * velocity_hs_norm(v, 0.0) / (2.0 * grid.L)
        cancel_max = max(cancel_max, cancellation_probe(theta) / scale)

    checks = {
        "interpolation": {"samples": n_interp, "failures": interp_fail},
        "smoothing_scan": {"samples": max(1, n_interp // 10), "failures": scan_fail},
        "cancellation": {"samples": n_cancel, "max_relative_pairing": cancel_max, "threshold": 1e-10},
    }
    checks_path = outdir / "lemma_checks.json"
    _write_json(checks_path, checks)
    artifacts.append(checks_path)

    _write_manifest(outdir, "ineq-scan", config, artifacts)
    failed = interp_fail > 0 or scan_fail > 0 or cancel_max > 1e-10
    if failed:
        print("unconditional inequality checks FAILED")
        return 1
    print(
        f"worst ratios: product {worst['product']:.4g}, commutator {worst['commutator']:.4g}; "
        f"max cancellation pairing {cancel_max:.3e}"
    )
    return 0


def run_norms(path: str, s_values: tuple[float, ...], dealias_fraction: float = DEFAULT_DEALIAS_FRACTION) -> int:
    """Print homogeneous Sobolev norms of a stored field."""
    u = read_field(path, dealias_fraction=dealias_fraction)
    for s in s_values:
        print(f"s={s:g}: {hs_norm(u, float(s))!r}")
    return 0
