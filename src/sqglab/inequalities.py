"""Randomized probes of the product and commutator estimates.

Each probe draws band-limited Gaussian fields, evaluates the ratio of the
inequality's left side to its right side, and keeps the worst pair as a
witness. Bounded worst ratios under growing sample counts are the
empirical shadow of the finite constants the energy estimates need.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    SpectralField,
    _close,
    _new,
    advect,
    fractional_laplacian,
    l2_inner,
    pointwise_product,
    velocity_from_theta,
)
from .grid import GridSpec
from .norms import hs_norm

__all__ = [
    "EstimateProbe",
    "sample_band_limited",
    "product_estimate_ratio",
    "commutator_field",
    "commutator_estimate_ratio",
    "cancellation_probe",
    "run_product_probe",
    "run_commutator_probe",
    "product_operating_point",
    "commutator_operating_point",
]


def _check_product_exponents(exponents) -> tuple[float, float, float, float, float]:
    s1, s2, s3, s4 = (float(s) for s in exponents)
    s = s1 + s2
    if abs(s3 + s4 - s) > 1e-12:
        raise ValueError(f"exponent sums differ: s1+s2 = {s:g}, s3+s4 = {s3 + s4:g}")
    if not s > 0:
        raise ValueError(f"common sum s = {s:g} must be positive")
    if not (s1 < 1 and s4 < 1):
        raise ValueError(f"need s1 < 1 and s4 < 1, got s1 = {s1:g}, s4 = {s4:g}")
    return s1, s2, s3, s4, s


def _check_commutator_exponents(exponents) -> tuple[float, ...]:
    s1, s2, s3, s4, s5, s6 = (float(s) for s in exponents)
    s = s1 + s2
    if abs(s3 + s4 - s) > 1e-12 or abs(s5 + s6 - s) > 1e-12:
        raise ValueError("exponent pair sums must all agree")
    if not s > 0:
        raise ValueError(f"common sum s = {s:g} must be positive")
    if not (s2 > 0 and s3 < 2 and s6 < 1):
        raise ValueError(f"need s2 > 0, s3 < 2, s6 < 1, got ({s2:g}, {s3:g}, {s6:g})")
    return s1, s2, s3, s4, s5, s6


def product_operating_point(alpha: float) -> tuple[float, float, float, float]:
    """Exponents used by the contraction estimate at dissipation order alpha."""
    return (alpha, 2.0 - 3.0 * alpha, 2.0 - 3.0 * alpha, alpha)


def commutator_operating_point(alpha: float) -> tuple[float, ...]:
    """Exponents of the critical-norm energy estimate's commutator bound."""
    return (2.0 - 3.0 * alpha, 1.0 - alpha, 2.0 - 2.0 * alpha, 1.0 - 2.0 * alpha, 2.0 - 2.0 * alpha, 1.0 - 2.0 * alpha)


def sample_band_limited(grid: GridSpec, k_min: float, k_max: float, seed: int | np.random.Generator) -> SpectralField:
    """Random real field with unit L^2 norm supported on k_min < |k| <= k_max: independent standard
    complex Gaussians on the annulus's half square, closed by _close (seed: an integer or a generator)."""
    if not 0.0 < k_min < k_max:
        raise ValueError(f"need 0 < k_min < k_max, got ({k_min}, {k_max})")
    if k_max > grid.dealias_k * (1.0 + 1e-12):
        raise ValueError(f"k_max = {k_max:g} exceeds the dealias cutoff {grid.dealias_k:g}")
    M = min(int(k_max / grid.dk) + 1, grid.dealias_index)  # the annulus lies in |m_i| <= M
    kmag = grid.square(M).kmag
    band = (kmag > k_min) & (kmag <= k_max * (1.0 + 1e-12))
    if not band.any():
        raise ValueError(f"annulus ({k_min:g}, {k_max:g}] contains no lattice points")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
    u = _new(grid, _close(grid, np.where(band, z, 0.0)))
    return u * (1.0 / hs_norm(u, 0.0))


def _stream(seed: int, purpose: str, i: int) -> np.random.Generator:
    """Generator of draw i for ``purpose`` in a scan at ``seed``, keyed (seed, purpose, i) by a numpy spawn
    key: no two draws of one run, nor of runs at two seeds, share a stream, and no draw depends on later ones."""
    key = ("product", "commutator", "interpolation", "smoothing_scan", "cancellation").index(purpose)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))


def product_estimate_ratio(f: SpectralField, g: SpectralField, exponents) -> float:
    """||fg||_{H^{s-1}} over the two-term product bound, s = s1+s2 = s3+s4."""
    s1, s2, s3, s4, s = _check_product_exponents(exponents)
    lhs = hs_norm(pointwise_product(f, g), s - 1.0)
    rhs = hs_norm(f, s1) * hs_norm(g, s2) + hs_norm(f, s3) * hs_norm(g, s4)
    if rhs == 0.0:
        raise ValueError("right-hand side vanishes; inputs must be nonzero")
    return lhs / rhs


def commutator_field(f: SpectralField, g: SpectralField, s1: float) -> SpectralField:
    """[(-Delta)^{s1/2}, f] g = (-Delta)^{s1/2}(fg) - f (-Delta)^{s1/2} g."""
    return fractional_laplacian(pointwise_product(f, g), s1 / 2.0) - pointwise_product(
        f, fractional_laplacian(g, s1 / 2.0)
    )


def commutator_estimate_ratio(f: SpectralField, g: SpectralField, exponents) -> float:
    """||[(-Delta)^{s1/2}, f]g||_{H^{s2-1}} over the two-term commutator bound."""
    s1, s2, s3, s4, s5, s6 = _check_commutator_exponents(exponents)
    lhs = hs_norm(commutator_field(f, g, s1), s2 - 1.0)
    rhs = hs_norm(f, s3) * hs_norm(g, s4) + hs_norm(f, s5) * hs_norm(g, s6)
    if rhs == 0.0:
        raise ValueError("right-hand side vanishes; inputs must be nonzero")
    return lhs / rhs


def cancellation_probe(theta: SpectralField) -> float:
    """|<v . grad(theta), theta>_{L^2}| with v the induced velocity.

    Band-limiting theta to a quarter of the lattice makes the dealiased
    quadratic product exact on the pairing band, so the value measures the
    cancellation itself, not aliasing.
    """
    if theta.max_mode_index() > theta.grid.K // 4:
        raise ValueError("theta must be band-limited to K/4 for an alias-free pairing")
    v = velocity_from_theta(theta)
    return abs(l2_inner(advect(v, theta), theta))


@dataclass(frozen=True)
class EstimateProbe:
    """Result of a randomized ratio sweep."""

    kind: str
    exponents: tuple[float, ...]
    samples: int
    seed: int
    k_min: float
    k_max: float
    worst_ratio: float
    witness: tuple[SpectralField, SpectralField]
    ratios: tuple[float, ...]


def _run_probe(kind, ratio_fn, grid, exponents, samples, seed) -> EstimateProbe:
    """Worst ratio over sample pairs drawn on the band (1, dealias_k/2]."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    k_min, k_max = 1.0, grid.dealias_k / 2.0
    worst = -np.inf
    witness = None
    ratios = []
    for i in range(samples):
        rng = _stream(seed, kind, i)
        f = sample_band_limited(grid, k_min, k_max, rng)
        g = sample_band_limited(grid, k_min, k_max, rng)
        r = ratio_fn(f, g, exponents)
        if not np.isfinite(r):
            raise ValueError(f"{kind} probe draw {i}: ratio {r!r} is not finite; the norms leave the float range")
        ratios.append(r)
        if r > worst:
            worst, witness = r, (f, g)
    return EstimateProbe(
        kind=kind,
        exponents=tuple(float(s) for s in exponents),
        samples=samples,
        seed=seed,
        k_min=k_min,
        k_max=k_max,
        worst_ratio=float(worst),
        witness=witness,
        ratios=tuple(ratios),
    )


def run_product_probe(grid, exponents, samples, seed) -> EstimateProbe:
    _check_product_exponents(exponents)
    return _run_probe("product", product_estimate_ratio, grid, exponents, samples, seed)


def run_commutator_probe(grid, exponents, samples, seed) -> EstimateProbe:
    _check_commutator_exponents(exponents)
    return _run_probe("commutator", commutator_estimate_ratio, grid, exponents, samples, seed)
