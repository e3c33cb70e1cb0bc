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
    _check_product_inputs,
    _close,
    _new,
    _quadratic,
    _support_radius,
    advect,
    l2_inner,
    velocity_from_theta,
)
from .grid import GridSpec
from .norms import _hs_norms

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

_STACK = 4  # probe draws per stack: on a 2-CPU Xeon, stacks of 8 raised ineq-scan's peak RSS 3.4 MiB, 4 only 0.5 MiB


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


def _band(grid: GridSpec, k_min: float, k_max: float) -> np.ndarray:
    """The annulus k_min < |k| <= k_max (0 < k_max) as a mask on the half square |m_i| <= M that holds it."""
    kmag = grid.square(min(int(k_max / grid.dk) + 1, grid.dealias_index)).kmag
    return (kmag > k_min) & (kmag <= k_max * (1.0 + 1e-12))


def _draws(grid: GridSpec, k_min: float, k_max: float, n: int, rng, per: int):
    """Draws 0..n-1, a stack (<= _STACK, per, 2M+1, M+1) at a time: per fields from generator rng(i) for draw i,
    standard complex Gaussians on the band k_min < |k| <= k_max (mask built once), closed, of unit L^2 norm."""
    if not 0.0 < k_min < k_max:
        raise ValueError(f"need 0 < k_min < k_max, got ({k_min}, {k_max})")
    if k_max > grid.dealias_k * (1.0 + 1e-12):
        raise ValueError(f"k_max = {k_max:g} exceeds the dealias cutoff {grid.dealias_k:g}")
    band = _band(grid, k_min, k_max)
    if not band.any():
        raise ValueError(f"annulus ({k_min:g}, {k_max:g}] contains no lattice points")
    for first in range(0, n, _STACK):
        sq = np.array([[r.standard_normal(band.shape) + 1j * r.standard_normal(band.shape) for _ in range(per)]
                       for r in map(rng, range(first, min(first + _STACK, n)))])
        sq = _close(grid, np.where(band, sq, 0.0))
        sq *= (1.0 / _hs_norms(grid, sq, 0.0))[..., None, None]  # in place: the generator holds only what it yields
        yield sq


def sample_band_limited(grid: GridSpec, k_min: float, k_max: float, seed: int | np.random.Generator) -> SpectralField:
    """Random real field with unit L^2 norm supported on k_min < |k| <= k_max: independent standard
    complex Gaussians on the annulus's half square, closed by _close (seed: an integer or a generator)."""
    return _new(grid, next(_draws(grid, k_min, k_max, 1, lambda _: np.random.default_rng(seed), 1))[0, 0])


def _stream(seed: int, purpose: str, i: int) -> np.random.Generator:
    """Generator of draw i for ``purpose`` in a scan at ``seed``, keyed (seed, purpose, i) by a numpy spawn
    key: no two draws of one run, nor of runs at two seeds, share a stream, and no draw depends on later ones."""
    key = ("product", "commutator", "interpolation", "smoothing_scan", "cancellation").index(purpose)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, i)))


def _products(grid: GridSpec, f: np.ndarray, g: np.ndarray, s1: float | None = None) -> np.ndarray:
    """Dealiased f g, or given s1 [(-Delta)^{s1/2}, f] g (whose two products share f's samples), pair by pair."""
    b = g if s1 is None else np.stack((g, g * grid.square(g.shape[-1] - 1).radial_power(s1)))
    fb = _close(grid, _quadratic(grid, f, b, (_support_radius(f), _support_radius(b)), grid.dealias_index))
    return fb if s1 is None else fb[0] * grid.square(fb.shape[-1] - 1).radial_power(s1) - fb[1]


def _estimate(kind: str, grid: GridSpec, f: np.ndarray, g: np.ndarray, exponents) -> tuple[np.ndarray, np.ndarray]:
    """Left and right sides of the product or commutator estimate for each pair of two stacks of half squares."""
    if kind == "product":
        s1, s2, s3, s4, s = _check_product_exponents(exponents)
        lhs = _hs_norms(grid, _products(grid, f, g), s - 1.0)
    else:
        c, s, s1, s2, s3, s4 = _check_commutator_exponents(exponents)
        lhs = _hs_norms(grid, _products(grid, f, g, c), s - 1.0)
    f2, g2 = np.abs(f) ** 2, np.abs(g) ** 2  # each stack squared once for its four norms
    rhs = _hs_norms(grid, f2, s1, True) * _hs_norms(grid, g2, s2, True)
    return lhs, rhs + _hs_norms(grid, f2, s3, True) * _hs_norms(grid, g2, s4, True)


def _ratio(kind: str, f: SpectralField, g: SpectralField, exponents) -> float:
    """The one-draw case of _estimate: the ratio of its sides, refused where the right side vanishes."""
    _check_product_inputs(f, g)
    lhs, rhs = _estimate(kind, f.grid, f.half[None], g.half[None], exponents)
    if rhs[0] == 0.0:
        raise ValueError("right-hand side vanishes; inputs must be nonzero")
    return float(lhs[0] / rhs[0])


def product_estimate_ratio(f: SpectralField, g: SpectralField, exponents) -> float:
    """||fg||_{H^{s-1}} over the two-term product bound, s = s1+s2 = s3+s4."""
    return _ratio("product", f, g, exponents)


def commutator_field(f: SpectralField, g: SpectralField, s1: float) -> SpectralField:
    """[(-Delta)^{s1/2}, f] g = (-Delta)^{s1/2}(fg) - f (-Delta)^{s1/2} g."""
    _check_product_inputs(f, g)
    return _new(f.grid, _products(f.grid, f.half[None], g.half[None], s1)[0])


def commutator_estimate_ratio(f: SpectralField, g: SpectralField, exponents) -> float:
    """||[(-Delta)^{s1/2}, f]g||_{H^{s2-1}} over the two-term commutator bound."""
    return _ratio("commutator", f, g, exponents)


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


def _run_probe(kind, grid, exponents, samples, seed) -> EstimateProbe:
    """Worst ratio over sample pairs drawn on the band (1, dealias_k/2], evaluated a stack of draws at a time."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    k_min, k_max = 1.0, grid.dealias_k / 2.0
    if not _band(grid, k_min, k_max).any():
        raise ValueError(f"K={grid.K}, L={grid.L:g}: the probe band (1, dealias_k/2] = (1, {k_max:g}] "
                         "holds no lattice wavenumber")
    worst, witness, ratios = -np.inf, None, []
    stacks = _draws(grid, k_min, k_max, samples, lambda i: _stream(seed, kind, i), 2)  # f, then g, of each draw
    for first, pairs in zip(range(0, samples, _STACK), stacks):
        with np.errstate(all="ignore"):
            lhs, rhs = _estimate(kind, grid, pairs[:, 0], pairs[:, 1], exponents)
            r = lhs / rhs
        # No step from a draw to its sides (transforms, products, powers, _close's select, sums of nonnegative
        # terms) turns an inf or NaN finite, and lhs / rhs is the only division: a draw whose arithmetic
        # overflows or goes invalid anywhere leaves a side or its ratio not finite.
        refused = ~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(r))
        if refused.any():
            j = int(refused.argmax())
            raise ValueError(f"{kind} probe draw {first + j}: ratio {float(r[j])!r} of sides {float(lhs[j])!r} "
                             f"and {float(rhs[j])!r}; the norms leave the float range")
        for x, pair in zip(r, pairs):
            ratios.append(float(x))
            if x > worst:
                worst, witness = x, pair
    return EstimateProbe(kind=kind, exponents=tuple(float(s) for s in exponents), samples=samples, seed=seed,
                         k_min=k_min, k_max=k_max, worst_ratio=float(worst),
                         witness=(_new(grid, witness[0]), _new(grid, witness[1])), ratios=tuple(ratios))


def run_product_probe(grid, exponents, samples, seed) -> EstimateProbe:
    return _run_probe("product", grid, exponents, samples, seed)


def run_commutator_probe(grid, exponents, samples, seed) -> EstimateProbe:
    return _run_probe("commutator", grid, exponents, samples, seed)
