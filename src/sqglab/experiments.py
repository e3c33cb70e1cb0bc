"""Named experiments with reproducible artifacts.

Every experiment resolves a flat configuration dict, computes and encodes
all of its CSV/JSON artifacts, hands them to the one writer ``_publish``,
which makes the output directory and adds a manifest with sha256 checksums
of everything it wrote, and returns a process exit code. A run that fails
makes no directory. Identical config and seed give byte-identical
artifacts: reductions run in fixed order and floats are serialized via repr.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, astuple, fields
from io import StringIO
from pathlib import Path

import numpy as np

from .counterexample import (
    NORM_TABLE_COLUMNS,
    CounterexampleSpec,
    build_phi,
    nonuniform_experiment,
    riemann_lebesgue_check,
)
from .field import SpectralField, field_from_modes, velocity_from_theta
from .grid import GridSpec, make_grid
from .inequalities import (
    _check_commutator_exponents,
    _check_product_exponents,
    _stream,
    cancellation_probe,
    commutator_operating_point,
    product_operating_point,
    run_commutator_probe,
    run_product_probe,
    sample_band_limited,
)
from .io import read_field, write_field
from .norms import (
    hs_norm,
    interpolation_check,
    scan_bound,
    smoothing_limit_scan,
    velocity_hs_norm,
)
from .solver import ConfigError, GapRecord, SolverConfig, outer_iterate

__all__ = [
    "builtin_force",
    "run_solve",
    "run_continuity",
    "run_nonuniform",
    "run_rlcheck",
    "run_inequality_scan",
    "run_norms",
]


# -- plumbing ---------------------------------------------------------------

def _json(obj) -> bytes:
    """JSON artifact bytes: sorted keys, two-space indent, floats by repr; NaN and infinities are refused."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def _csv(header: tuple[str, ...], rows) -> bytes:
    """CSV artifact bytes of rows under header; floats by repr (exact round trip), None as an empty cell."""
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (repr(float(v)) if isinstance(v, float) else str(v)) for v in row])
    return buf.getvalue().encode()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _publish(config: dict, experiment: str, artifacts: dict, warnings=()) -> None:
    """The one artifact writer: make config["outdir"], write each artifact (name -> encoded bytes, or a
    SpectralField as a spectral SQGF file), then manifest.json with their sha256. A run calls it once,
    after everything is computed and encoded, so a run that fails makes no directory."""
    outdir = Path(config["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts.items():
        if isinstance(data, SpectralField):
            write_field(outdir / name, data, representation="spectral")
        else:
            (outdir / name).write_bytes(data)
    manifest = {
        "experiment": experiment,
        "config": config,
        "artifacts": {name: _sha256(outdir / name) for name in sorted(artifacts)},
        "warnings": list(warnings),
    }
    (outdir / "manifest.json").write_bytes(_json(manifest))


def _grid_from(config: dict) -> GridSpec:
    return make_grid(int(config["K"]), float(config["L"]))


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
        f = read_field(path)
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
    f = _resolve_force(config, grid)

    theta, report = outer_iterate(f, cfg)
    a = cfg.alpha
    norms = {
        "l2": hs_norm(theta, 0.0),
        "h_alpha": hs_norm(theta, a),
        "h_crit": hs_norm(theta, 2.0 - 2.0 * a),
        "force_h_low": hs_norm(f, -a),
        "force_h_crit": hs_norm(f, 2.0 - 4.0 * a),
        "velocity_h_crit": velocity_hs_norm(velocity_from_theta(theta), 2.0 - 2.0 * a),
    }
    _publish(config, "solve", {"theta.sqgf": theta, "report.json": _json(asdict(report)), "norms.json": _json(norms)})
    print(f"converged: residual {report.residual:.3e} after {len(report.steps)} outer steps")
    return 0


def run_continuity(config: dict) -> int:
    """Gap norms along f_j = f_inf + 2^{-j} g; emits continuity.csv. A level whose realized distance
    ||f_j - f_inf|| is not 2^{-j} ||g||, since rounding swallowed the perturbation, is refused before any solve."""
    grid = _grid_from(config)
    cfg = _solver_from(config)
    f_inf = builtin_force(str(config["force"]), grid, float(config["amplitude"]))
    g = builtin_force(str(config["perturbation"]), grid, float(config["perturbation_amplitude"]))
    j_min, j_max = int(config["j_min"]), int(config["j_max"])
    if j_min < 0 or j_max < j_min:
        raise ConfigError(f"need 0 <= j_min <= j_max, got ({j_min}, {j_max})")

    # f_inf + 2^{-j} g rounds each coefficient to within eps/2 of f_inf's, so the realized distance is off 2^{-j} ||g||
    # by a relative error growing like eps ||f_inf|| / (2^{-j} ||g||). Past sqrt(eps), more than half its digits are
    # rounding, not the map; a distance of 0 or past the float range is refused too.
    s_crit, rtol = 2.0 - 4.0 * cfg.alpha, math.sqrt(np.finfo(np.float64).eps)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(j_min, j_max + 1):
            d, want = hs_norm(f_inf + (2.0**-j) * g - f_inf, s_crit), (2.0**-j) * hs_norm(g, s_crit)
            if not (d > 0 and abs(d - want) <= rtol * want):
                raise ConfigError(f"j={j}: the realized distance ||f_j - f_inf||_H^{s_crit:g} = {d!r} is 0 or off "
                                  f"the intended 2^-j ||g|| = {want!r} by more than a relative {rtol:.1e}")

    theta_inf, _ = outer_iterate(f_inf, cfg)
    forces = ((j, f_inf + (2.0**-j) * g) for j in range(j_min, j_max + 1))
    rows = [(j, *astuple(GapRecord.between(f_j, f_inf, outer_iterate(f_j, cfg)[0], theta_inf, cfg.alpha)))
            for j, f_j in forces]
    _publish(config, "continuity", {"continuity.csv": _csv(("j", *(f.name for f in fields(GapRecord))), rows)})
    return 0


def run_nonuniform(config: dict) -> int:
    """Carrier-level sweep of the gap decomposition; emits the norm table."""
    spec = CounterexampleSpec(delta=float(config["delta"]), alpha=float(config["alpha"]), h_xi=float(config["h_xi"]))
    n_min, n_max = int(config["n_min"]), int(config["n_max"])
    if n_max < n_min:
        raise ConfigError(f"need n_min <= n_max, got ({n_min}, {n_max})")
    torus = (_grid_from(config), _solver_from(config)) if bool(config.get("torus", False)) else None
    table = nonuniform_experiment(spec, tuple(range(n_min, n_max + 1)), torus)
    plot_rows = [(row["n"], math.log2(row["d_crit"]), math.log2(row["g2_gap"])) for row in table.rows]
    _publish(config, "nonuniform", {
        "nonuniform.csv": _csv(NORM_TABLE_COLUMNS, ([row[col] for col in NORM_TABLE_COLUMNS] for row in table.rows)),
        "plot.csv": _csv(("n", "log2_d_crit", "log2_g2_gap"), plot_rows),
    }, table.warnings)
    for w in table.warnings:
        print(f"warning: {w}")
    return 0


def run_rlcheck(config: dict) -> int:
    """Oscillation-average table over carrier levels; emits rlcheck.csv."""
    n_min, n_max = int(config["n_min"]), int(config["n_max"])
    if n_min < 1 or n_max < n_min:
        raise ConfigError(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
    prof = build_phi(float(config["h_xi"]))
    rows = [(n, *astuple(riemann_lebesgue_check(prof, n))) for n in range(n_min, n_max + 1)]
    _publish(config, "rlcheck", {"rlcheck.csv": _csv(("n", "value", "limit", "rel_dev"), rows)})
    return 0


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
    n_interp, n_cancel = int(config["interp_samples"]), int(config["cancel_samples"])
    if min(n_interp, n_cancel) < 0:
        raise ConfigError(f"sample counts must be >= 0, got interp_samples={n_interp}, cancel_samples={n_cancel}")

    points = {"product": product_operating_point(alpha), "commutator": commutator_operating_point(alpha)}
    for kind, check in (("product", _check_product_exponents), ("commutator", _check_commutator_exponents)):
        try:  # alpha alone fixes both operating points: it is held to both lemmas before any draw
            check(points[kind])
        except ValueError as exc:
            raise ConfigError(f"alpha={alpha:g} puts the {kind} probe outside its lemma: {exc}; "
                              "ineq-scan runs for 0 < alpha < 3/4") from None
    probes = {
        "product": run_product_probe(grid, points["product"], samples, seed),
        "commutator": run_commutator_probe(grid, points["commutator"], samples, seed),
    }
    artifacts = {}
    for name, probe in probes.items():
        files = [f"{name}_witness_{tag}.sqgf" for tag in ("f", "g")]
        artifacts.update(zip(files, probe.witness))
        artifacts[f"{name}_probe.json"] = _json({
            "exponents": list(probe.exponents),
            "samples": probe.samples,
            "worst_ratio": probe.worst_ratio,
            "witness_files": files,
        })

    # unconditional checks: mollifier interpolation and nonlinear cancellation
    k_band = grid.dealias_k / 2.0
    interp_fail = 0
    scan_fail = 0
    for i in range(n_interp):
        rng = _stream(seed, "interpolation", i)
        u = sample_band_limited(grid, 1.0, k_band, rng)
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
        rng = _stream(seed, "smoothing_scan", i)
        u = sample_band_limited(grid, 1.0, k_band, rng)
        s = float(rng.uniform(-0.5, 1.5))
        sigma = float(rng.uniform(0.0, 2.0))
        vals = smoothing_limit_scan(u, s, sigma, eps_seq)
        bound = scan_bound(u, s, sigma)
        if any(v > bound * (1.0 + 1e-10) for v in vals):
            scan_fail += 1
        if sigma <= sigma_monotone and any(b > a * (1.0 + 1e-10) for a, b in zip(vals, vals[1:])):
            scan_fail += 1

    cancel_max = 0.0
    quarter = (grid.K // 4) * grid.dk
    for i in range(n_cancel):
        theta = sample_band_limited(grid, 1.0, quarter, _stream(seed, "cancellation", i))
        v = velocity_from_theta(theta)
        scale = hs_norm(theta, 0.0) ** 2 * velocity_hs_norm(v, 0.0) / (2.0 * grid.L)
        cancel_max = max(cancel_max, cancellation_probe(theta) / scale)

    checks = {
        "interpolation": {"samples": n_interp, "failures": interp_fail},
        "smoothing_scan": {"samples": max(1, n_interp // 10), "failures": scan_fail},
        "cancellation": {"samples": n_cancel, "max_relative_pairing": cancel_max, "threshold": 1e-10},
    }
    artifacts["lemma_checks.json"] = _json(checks)
    _publish(config, "ineq-scan", artifacts)
    failed = interp_fail > 0 or scan_fail > 0 or cancel_max > 1e-10
    if failed:
        print("unconditional inequality checks FAILED")
        return 1
    print(
        f"worst ratios: product {probes['product'].worst_ratio:.4g}, commutator {probes['commutator'].worst_ratio:.4g}; "
        f"max cancellation pairing {cancel_max:.3e}"
    )
    return 0


def run_norms(path: str, s_values: tuple[float, ...]) -> int:
    """Print homogeneous Sobolev norms of a stored field.

    Every norm is computed before any is printed; one that overflows, or that
    underflows to 0 for a field with a nonzero mode past the mean, is a ConfigError.
    """
    u = read_field(path)
    norms = []
    for s in s_values:
        try:
            with np.errstate(over="raise", invalid="raise"):
                norms.append(hs_norm(u, float(s)))
        except FloatingPointError:
            raise ConfigError(f"{path}: the s={s:g} norm overflows") from None
        if norms[-1] == 0 and u.max_mode_index() > 0:
            raise ConfigError(f"{path}: the s={s:g} norm underflows to 0 for a nonzero field")
    for s, norm in zip(s_values, norms):
        print(f"s={s:g}: {norm!r}")
    return 0
