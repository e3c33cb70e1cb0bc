"""Homogeneous Sobolev norms and the smoothing/interpolation checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SpectralField, VelocityField, heat_smooth

__all__ = [
    "hs_norm",
    "velocity_hs_norm",
    "InterpolationRecord",
    "interpolation_check",
    "smoothing_limit_scan",
    "scan_bound",
]


def hs_norm(u: SpectralField, s: float) -> float:
    """sqrt((2L)^2 sum_{k != 0} |k|^{2s} |u(k)|^2); s=0 gives the L^2 norm.

    The sum runs over the stored half square, each mode with m2 > 0 standing
    for itself and its conjugate partner.
    """
    return float(_hs_norms(u.grid, u.half, s))


def _hs_norms(grid, sq: np.ndarray, s: float, squared: bool = False) -> np.ndarray:
    """hs_norm of the field with half square sq (its moduli squared if squared), or of each of a stack of them."""
    t = grid.square(sq.shape[-1] - 1)
    a2 = sq if squared else np.abs(sq) ** 2
    return np.sqrt(np.sum(t.weight * t.radial_power(2.0 * s) * a2, axis=(-2, -1))) * 2.0 * grid.L


def velocity_hs_norm(v: VelocityField, s: float) -> float:
    """Euclidean combination of the component norms."""
    return float(np.hypot(hs_norm(v.v1, s), hs_norm(v.v2, s)))


@dataclass(frozen=True)
class InterpolationRecord:
    lhs: float
    rhs: float
    holds: bool


def interpolation_check(u: SpectralField, s: float, sigma: float, eps: float) -> InterpolationRecord:
    """eps^{-sigma} ||e^{eps^2 Delta}u - u||_{H^{s-sigma}} vs sqrt(2) ||u||^{sigma/2} ||diff||^{1-sigma/2}."""
    if not 0.0 <= sigma < 2.0:
        raise ValueError(f"sigma must lie in [0, 2), got {sigma}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if hs_norm(u, 0.0) == 0.0:
        raise ValueError("interpolation check is undefined for the zero field")
    diff = heat_smooth(u, eps) - u
    lhs = eps ** (-sigma) * hs_norm(diff, s - sigma)
    rhs = np.sqrt(2.0) * hs_norm(u, s) ** (sigma / 2.0) * hs_norm(diff, s) ** (1.0 - sigma / 2.0)
    return InterpolationRecord(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs * (1.0 + 1e-10)))


def scan_bound(u: SpectralField, s: float, sigma: float) -> float:
    """Uniform-in-eps bound 2^{(3-sigma)/2} ||u||_{H^s} on the scan values."""
    return float(2.0 ** ((3.0 - sigma) / 2.0) * hs_norm(u, s))


def smoothing_limit_scan(u: SpectralField, s: float, sigma: float, eps_sequence) -> list[float]:
    """Values eps^{-sigma} ||e^{eps^2 Delta}u - u||_{H^{s-sigma}} along a decreasing eps sequence."""
    if not sigma < 2.0:
        raise ValueError(f"sigma must be < 2, got {sigma}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    eps = [float(e) for e in eps_sequence]
    if not eps or any(e <= 0 for e in eps):
        raise ValueError("eps sequence must be nonempty and positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    out = []
    for e in eps:
        diff = heat_smooth(u, e) - u
        out.append(float(e ** (-sigma) * hs_norm(diff, s - sigma)))
    return out
