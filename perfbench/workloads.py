"""The four workloads: inputs drawn from the seed, and the output checks.

Every workload calls one ``sqglab.experiments.run_*`` driver, the code path
``sqg-lab`` runs, with a flat config like the CLI builds. Free amplitudes
are drawn from the seed inside ranges that keep the force under the
solver's smallness gate and leave every iteration count unchanged, so the
cost of a call does not depend on the seed.

This module imports nothing heavy at top level: the worker times
``import sqglab`` separately.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

NAMES = ("carrier_torus", "patch_sweep", "continuity_threads", "ineq_scan")
DEFAULT_SEED = 0

# the CLI's solver defaults
_SOLVER = {"inner_tol": 1e-10, "outer_tol": 1e-7, "max_inner": 400, "max_outer": 60, "smallness_threshold": 0.1}

# SQG_THREADS for every workload: the 2 CPUs of the reference box, so no
# workload runs more threads than there are CPUs
SQG_THREADS = 2

_REFERENCE = Path(__file__).with_name("reference.json")


def _draw(name: str, seed: int, lo: float, hi: float) -> float:
    return random.Random(f"{name}:{seed}").uniform(lo, hi)


def make_config(name: str, seed: int, smoke: bool = False) -> tuple[str, dict]:
    """(driver function name, config) of one workload at one seed."""
    if name == "carrier_torus":
        delta = _draw(name, seed, 0.019, 0.021)
        size = {"K": 256, "L": 8.0 * math.pi} if smoke else {"K": 1024, "L": 16.0 * math.pi}
        return "run_nonuniform", {**_SOLVER, **size, "alpha": 0.4, "delta": delta, "n_min": 3, "n_max": 3,
                                  "h_xi": 1.0 / 32.0, "torus": True}
    if name == "patch_sweep":
        delta = _draw(name, seed, 0.015, 0.025)
        return "run_nonuniform", {**_SOLVER, "K": 1024, "L": 16.0 * math.pi, "alpha": 0.4, "delta": delta,
                                  "n_min": 3, "n_max": 4 if smoke else 10, "h_xi": 1.0 / 32.0, "torus": False}
    if name == "continuity_threads":
        amplitude = _draw(name, seed, 0.009, 0.011)
        return "run_continuity", {**_SOLVER, "K": 32 if smoke else 256, "L": math.pi, "alpha": 0.4,
                                  "force": "two_mode", "amplitude": amplitude, "perturbation": "single_mode",
                                  "perturbation_amplitude": 1e-2, "j_min": 1, "j_max": 2 if smoke else 6}
    if name == "ineq_scan":
        sizes = {"K": 32, "samples": 10, "interp_samples": 10, "cancel_samples": 5} if smoke else \
                {"K": 128, "samples": 200, "interp_samples": 100, "cancel_samples": 50}
        return "run_inequality_scan", {**sizes, "L": math.pi, "alpha": 0.4, "seed": int(seed)}
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


# -- output checks ----------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(outdir: Path, fails: list[str]) -> dict:
    path = outdir / "manifest.json"
    if not path.is_file():
        fails.append("manifest.json missing")
        return {}
    manifest = json.loads(path.read_text())
    for name, digest in manifest.get("artifacts", {}).items():
        art = outdir / name
        if not art.is_file():
            fails.append(f"artifact {name} listed in the manifest is missing")
        elif _sha256(art) != digest:
            fails.append(f"sha256 of {name} does not match the manifest")
    if not manifest.get("artifacts"):
        fails.append("manifest lists no artifacts")
    return manifest


def _close(value: float, expected: float, rtol: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected) + atol


def _check_carrier_torus(config, outdir, rec, state, smoke, fails):
    manifest = _check_manifest(outdir, fails)
    # a triangle-inequality warning, or skipped torus columns
    if manifest.get("warnings"):
        fails.append(f"manifest warnings: {manifest['warnings']}")
    if len(rec.reports) != 2 or not all(r.converged for r in rec.reports):
        fails.append(f"expected 2 converged torus solves, got {[r.converged for r in rec.reports]}")
    rows = _csv_rows(outdir / "nonuniform.csv")
    if len(rows) != 1 or rows[0]["full_gap"] == "":
        fails.append("nonuniform.csv lacks the torus row")
        return
    ref = json.loads(_REFERENCE.read_text())["carrier_torus_smoke" if smoke else "carrier_torus"]
    # g2_gap is bilinear in the force amplitude delta, the solved gap is
    # linear to O(delta^2), the Picard remainders are cubic: rescale the
    # reference from its delta to this one
    scale = config["delta"] / ref["delta"]
    row = {k: float(v) for k, v in rows[0].items()}
    atol = 1e-15 * row["full_gap"]
    for col, power in ref["delta_power"].items():
        expected = ref["values"][col] * scale**power
        if not _close(row[col], expected, ref["rtol"][col], atol):
            fails.append(f"{col} = {row[col]!r}, reference {expected!r} (rtol {ref['rtol'][col]})")


def _check_patch_sweep(config, outdir, rec, state, smoke, fails):
    _check_manifest(outdir, fails)
    want = list(range(config["n_min"], config["n_max"] + 1))
    if [p.n for p in rec.parts] != want:
        fails.append(f"decomposed carrier levels {[p.n for p in rec.parts]}, expected {want}")
    bad = [(p.n, p.recon_rel) for p in rec.parts if not p.recon_rel <= 1e-12]
    if bad:
        fails.append(f"recon_rel above 1e-12: {bad}")
    if len(_csv_rows(outdir / "nonuniform.csv")) != len(want):
        fails.append("nonuniform.csv row count differs from the carrier levels")


def _check_continuity(config, outdir, rec, state, smoke, fails):
    _check_manifest(outdir, fails)
    path = outdir / "continuity.csv"
    rows = _csv_rows(path)
    want = list(range(config["j_min"], config["j_max"] + 1))
    if [int(r["j"]) for r in rows] != want:
        fails.append(f"continuity.csv rows {[r['j'] for r in rows]}, expected j = {want}")
    lo, hi = json.loads(_REFERENCE.read_text())["continuity_threads"]["gap_crit_over_d_crit"]
    for r in rows:
        ratio = float(r["gap_crit"]) / float(r["d_crit"])
        if not lo <= ratio <= hi:
            fails.append(f"j={r['j']}: gap_crit/d_crit = {ratio!r} outside [{lo}, {hi}]")
    if not all(rep.converged for rep in rec.reports) or len(rec.reports) != len(want) + 1:
        fails.append("not every continuity solve converged")
    digest = _sha256(path)
    first = state.setdefault("continuity.csv", digest)
    if digest != first:
        fails.append("continuity.csv differs from the first call with the same seed")


def _check_ineq_scan(config, outdir, rec, state, smoke, fails):
    from sqglab.io import read_field, write_field

    _check_manifest(outdir, fails)
    for probe in ("product_probe.json", "commutator_probe.json"):
        data = json.loads((outdir / probe).read_text())
        if not math.isfinite(data["worst_ratio"]):
            fails.append(f"{probe}: worst_ratio {data['worst_ratio']!r} is not finite")
        for name in data["witness_files"]:
            src = outdir / name
            copy = outdir / f"roundtrip_{name}"
            write_field(copy, read_field(src), representation="spectral")
            if copy.read_bytes() != src.read_bytes():
                fails.append(f"{name}: read_field -> write_field is not byte-identical")
            copy.unlink()
    checks = json.loads((outdir / "lemma_checks.json").read_text())
    if checks["interpolation"]["failures"] or checks["smoothing_scan"]["failures"]:
        fails.append(f"lemma checks failed: {checks}")


_CHECKS = {
    "carrier_torus": _check_carrier_torus,
    "patch_sweep": _check_patch_sweep,
    "continuity_threads": _check_continuity,
    "ineq_scan": _check_ineq_scan,
}


def check_outputs(name: str, config: dict, rc, outdir: Path, rec, state: dict, smoke: bool) -> list[str]:
    """Failure reasons of one experiment call (empty when every check passes).

    ``state`` persists across the calls of one run, for checks that compare
    a call with the first one.
    """
    if rc != 0:
        return [f"driver returned exit code {rc}"]
    fails: list[str] = []
    try:
        _CHECKS[name](config, outdir, rec, state, smoke, fails)
    except (OSError, KeyError, ValueError) as exc:
        fails.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return fails
