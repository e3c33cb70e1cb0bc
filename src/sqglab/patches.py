"""Sampled continuum Fourier transforms on compact frequency boxes.

A Patch stores samples of a transform on a uniform frequency lattice of
spacing h; the represented transform is |xi|^origin_power * values, the
power factored out so radial multipliers stay exact near xi = 0. The power
is the exact rational sum of the float exponents applied, so powers that
cancel give exactly 0. A PatchField is a finite sum of patches. Carrier
frequencies enter only through patch offsets, so cost is independent of
the carrier 2^n.

Convention: stored values are (2 pi)^{-1} times the integral transform
u_hat(xi) = int u(x) e^{-i xi.x} dx, so that
int |stored|^2 dxi = ||u||_{L^2(R^2)}^2 and physical products become
h^2/(2 pi) discrete convolutions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.signal import fftconvolve

from .field import SpectralField, _close, _new, _resize, _support_radius
from .grid import GridSpec

__all__ = [
    "Patch",
    "PatchField",
    "FrequencyOverflowError",
    "apply_radial",
    "mul_i_xi",
    "riesz_perp_velocity",
    "gradient",
    "convolve",
    "coalesce",
    "patch_hs_norm",
    "patch_intersection_norm",
    "to_torus",
    "hermitian_defect",
    "support_radius_bounds",
]

_MAX_SIDE = 8.0  # frequency-box side limit; all constructed objects fit in it


class FrequencyOverflowError(ValueError):
    """Patch content lies beyond the torus dealias cutoff."""


@dataclass(frozen=True)
class Patch:
    """Samples on the box [lo*h, (lo+shape-1)*h] of the frequency plane."""

    lo: tuple[int, int]
    values: np.ndarray
    origin_power: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)  # a copy: the caller may still write to its array
        if v.ndim != 2:
            raise ValueError("patch values must be a 2D array")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "lo", (int(self.lo[0]), int(self.lo[1])))
        object.__setattr__(self, "origin_power", Fraction(self.origin_power))

    def hi(self) -> tuple[int, int]:
        return (self.lo[0] + self.values.shape[0] - 1, self.lo[1] + self.values.shape[1] - 1)

    def contains_origin(self) -> bool:
        hi = self.hi()
        return self.lo[0] <= 0 <= hi[0] and self.lo[1] <= 0 <= hi[1]

    def axes(self, h: float) -> tuple[np.ndarray, np.ndarray]:
        return (
            h * (self.lo[0] + np.arange(self.values.shape[0])),
            h * (self.lo[1] + np.arange(self.values.shape[1])),
        )


def _new_patch(lo: tuple[int, int], values: np.ndarray, origin_power: Fraction = Fraction(0)) -> Patch:
    """Patch taking over the 2D complex array values (no copy; nothing else may write to it)."""
    values.setflags(write=False)
    patch = object.__new__(Patch)
    patch.__dict__.update(lo=lo, values=values, origin_power=origin_power)
    return patch


@dataclass(frozen=True)
class PatchField:
    """Finite sum of patches sharing one sample spacing."""

    h: float
    patches: tuple[Patch, ...]

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError(f"sample spacing must be positive, got {self.h}")
        object.__setattr__(self, "patches", tuple(self.patches))
        for p in self.patches:
            side = (max(p.values.shape) - 1) * self.h
            if side > _MAX_SIDE * (1.0 + 1e-9):
                raise ValueError(f"patch box side {side:g} exceeds the width-{_MAX_SIDE:g} support discipline")

    def __add__(self, other: "PatchField") -> "PatchField":
        if abs(self.h - other.h) > 1e-15 * self.h:
            raise ValueError("patch fields have different sample spacings")
        return PatchField(self.h, self.patches + other.patches)

    def __sub__(self, other: "PatchField") -> "PatchField":
        return self + (-1.0) * other

    def __mul__(self, a: float) -> "PatchField":
        return PatchField(self.h, tuple(_new_patch(p.lo, float(a) * p.values, p.origin_power) for p in self.patches))

    __rmul__ = __mul__


def _radial_weight(x: np.ndarray, y: np.ndarray, q: float) -> np.ndarray:
    """|xi|^q on the grid x (x) y; at xi = 0 it is 1 when q = 0 and 0 otherwise."""
    r2 = x[:, None] ** 2 + y[None, :] ** 2
    with np.errstate(divide="ignore"):
        w = r2 ** (q / 2.0)
    w[r2 == 0.0] = float(q == 0)
    return w


def materialize(patch: Patch, h: float) -> np.ndarray:
    """Values with |xi|^origin_power folded in (requires origin_power >= 0)."""
    p = patch.origin_power
    if p == 0:
        return np.asarray(patch.values)
    if p < 0 and patch.contains_origin():
        raise ValueError("cannot materialize a negative origin power on a patch containing the origin")
    return patch.values * _radial_weight(*patch.axes(h), float(p))


def apply_radial(u: PatchField, power: float) -> PatchField:
    """Multiplier |xi|^power; kept as metadata on origin boxes, folded elsewhere."""
    out = []
    for p in u.patches:
        if p.contains_origin():
            out.append(_new_patch(p.lo, p.values, p.origin_power + Fraction(power)))
        else:
            out.append(_new_patch(p.lo, p.values * _radial_weight(*p.axes(u.h), power), p.origin_power))
    return PatchField(u.h, tuple(out))


def mul_i_xi(u: PatchField, axis: int) -> PatchField:
    """Multiplier i*xi_axis (a physical-space derivative)."""
    out = []
    for p in u.patches:
        x, y = p.axes(u.h)
        w = x[:, None] if axis == 0 else y[None, :]
        out.append(_new_patch(p.lo, 1j * w * p.values, p.origin_power))
    return PatchField(u.h, tuple(out))


def riesz_perp_velocity(u: PatchField) -> tuple[PatchField, PatchField]:
    """(i xi_2, -i xi_1)/|xi| applied to u: the perpendicular Riesz velocity."""
    v1 = apply_radial(mul_i_xi(u, 1), -1.0)
    v2 = (-1.0) * apply_radial(mul_i_xi(u, 0), -1.0)
    return v1, v2


def gradient(u: PatchField) -> tuple[PatchField, PatchField]:
    return mul_i_xi(u, 0), mul_i_xi(u, 1)


def convolve(a: PatchField, b: PatchField) -> PatchField:
    """Transform of the physical product: h^2/(2 pi) times discrete convolution."""
    if abs(a.h - b.h) > 1e-15 * a.h:
        raise ValueError("patch fields have different sample spacings")
    h = a.h
    out = []
    for pa in a.patches:
        va = materialize(pa, h)
        for pb in b.patches:
            vb = materialize(pb, h)
            vals = fftconvolve(va, vb) * (h**2 / (2.0 * np.pi))
            # fft-based convolution leaves rounding junk where exact zeros
            # belong; scrub below the noise floor so supports stay sharp
            floor = 5e-16 * float(np.max(np.abs(vals)))
            vals[np.abs(vals) < floor] = 0.0
            out.append(_new_patch((pa.lo[0] + pb.lo[0], pa.lo[1] + pb.lo[1]), vals))
    return PatchField(h, tuple(out))


def _boxes_overlap(p: Patch, q: Patch) -> bool:
    ph, qh = p.hi(), q.hi()
    return p.lo[0] <= qh[0] and q.lo[0] <= ph[0] and p.lo[1] <= qh[1] and q.lo[1] <= ph[1]


def _trim(p: Patch) -> Patch | None:
    """Drop all-zero border rows/columns (None if the patch is entirely zero).

    Profiles vanish exactly at their support edges, so convolution results
    carry zero margins; trimming keeps adjacent boxes from being treated as
    overlapping at a line where both are zero.
    """
    nz = np.abs(p.values) > 0.0
    if not nz.any():
        return None
    rows = np.flatnonzero(nz.any(axis=1))
    cols = np.flatnonzero(nz.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    if (r0, c0) == (0, 0) and (r1, c1) == (nz.shape[0] - 1, nz.shape[1] - 1):
        return p
    return _new_patch((p.lo[0] + r0, p.lo[1] + c0), p.values[r0 : r1 + 1, c0 : c1 + 1], p.origin_power)


def coalesce(u: PatchField) -> PatchField:
    """Merge overlapping patches so quadrature never double-counts a region."""
    groups: list[list[Patch]] = []
    for raw in u.patches:
        p = _trim(raw)
        if p is None:
            continue
        hits = [g for g in groups if any(_boxes_overlap(p, q) for q in g)]
        merged = [p]
        for g in hits:
            merged.extend(g)
            groups.remove(g)
        groups.append(merged)
    out = []
    for g in groups:
        if len(g) == 1:
            out.append(g[0])
            continue
        # factor onto the lowest power present so folded exponents stay >= 0
        p_star = min(q.origin_power for q in g)
        lo0 = min(q.lo[0] for q in g)
        lo1 = min(q.lo[1] for q in g)
        hi0 = max(q.hi()[0] for q in g)
        hi1 = max(q.hi()[1] for q in g)
        vals = np.zeros((hi0 - lo0 + 1, hi1 - lo1 + 1), dtype=np.complex128)
        for q in g:
            sl = (slice(q.lo[0] - lo0, q.lo[0] - lo0 + q.values.shape[0]),
                  slice(q.lo[1] - lo1, q.lo[1] - lo1 + q.values.shape[1]))
            if q.origin_power == p_star:
                vals[sl] += q.values
            else:
                vals[sl] += q.values * _radial_weight(*q.axes(u.h), float(q.origin_power - p_star))
        out.append(_new_patch((lo0, lo1), vals, p_star))
    return PatchField(u.h, tuple(out))


# -- norm quadrature ------------------------------------------------------

_GL_NODES = 24


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=None)
def _origin_cell_radial_integral(q: float, h: float) -> float:
    """int over [-h/2, h/2]^2 of |xi|^q, by polar reduction (exact up to 1D GL)."""
    x, w = _leggauss(64)
    phi = (np.pi / 8.0) * (x + 1.0)
    wphi = (np.pi / 8.0) * w
    a = h / 2.0
    vals = (a / np.cos(phi)) ** (q + 2.0)
    return float(8.0 / (q + 2.0) * np.sum(wphi * vals))


_BLOCK_RADIUS = 8  # half-width, in cells, of the origin correction block


def _origin_block_correction(patch: Patch, h: float, q: float) -> float:
    """Replace the midpoint sum near the origin by panel Gauss quadrature.

    Returns (accurate block integral) - (midpoint block sum) for the
    integrand |xi|^q |w(xi)|^2; the cell containing the origin gets its
    radial weight integrated in polar form.
    """
    w2 = np.abs(patch.values) ** 2
    n0, n1 = w2.shape
    i0 = -patch.lo[0]  # index of the xi_1 = 0 sample
    i1 = -patch.lo[1]
    B = _BLOCK_RADIUS
    a0, b0 = max(0, i0 - B), min(n0 - 1, i0 + B)
    a1, b1 = max(0, i1 - B), min(n1 - 1, i1 + B)
    margin = 6
    s0 = slice(max(0, a0 - margin), min(n0, b0 + margin + 1))
    s1 = slice(max(0, a1 - margin), min(n1, b1 + margin + 1))
    x_ax, y_ax = patch.axes(h)
    kx = min(5, len(x_ax[s0]) - 1)
    ky = min(5, len(y_ax[s1]) - 1)
    spline = RectBivariateSpline(x_ax[s0], y_ax[s1], w2[s0, s1], kx=kx, ky=ky)

    # one tensor Gauss grid over the block, _GL_NODES nodes per cell and axis
    gx, gw = _leggauss(_GL_NODES)
    half = h / 2.0
    px = (x_ax[a0 : b0 + 1, None] + half * gx).ravel()
    py = (y_ax[a1 : b1 + 1, None] + half * gx).ravel()
    wx = np.tile(half * gw, b0 - a0 + 1)
    wy = np.tile(half * gw, b1 - a1 + 1)
    rq = _radial_weight(px, py, q)
    block_exact = float(wx @ (rq * spline(px, py)) @ wy)
    # on the origin cell the radial weight times w2(0) is integrated in
    # polar form instead; the panel rule keeps only the smooth remainder
    c0 = slice((i0 - a0) * _GL_NODES, (i0 - a0 + 1) * _GL_NODES)
    c1 = slice((i1 - a1) * _GL_NODES, (i1 - a1 + 1) * _GL_NODES)
    w0 = float(w2[i0, i1])
    block_exact += w0 * (_origin_cell_radial_integral(q, h) - float(wx[c0] @ rq[c0, c1] @ wy[c1]))

    rqm = _radial_weight(x_ax[a0 : b0 + 1], y_ax[a1 : b1 + 1], q)
    block_mid = float(h * h * np.sum(rqm * w2[a0 : b0 + 1, a1 : b1 + 1]))
    return block_exact - block_mid


def _patch_norm_sq(patch: Patch, h: float, s: float) -> float:
    q = 2.0 * s + 2.0 * float(patch.origin_power)
    w2 = np.abs(patch.values) ** 2
    touches = patch.contains_origin()
    if touches and q <= -2.0:
        at0 = w2[-patch.lo[0], -patch.lo[1]]
        if at0 > 1e-26 * float(w2.max(initial=0.0)):
            raise ValueError(f"|xi|^{q:g} is not integrable at the origin for this patch")
    total = float(h * h * np.sum(_radial_weight(*patch.axes(h), q) * w2))
    if touches and q != 0.0 and float(w2.max(initial=0.0)) > 0.0:
        total += _origin_block_correction(patch, h, q)
    return total


def patch_hs_norm(u: PatchField, s: float) -> float:
    """sqrt(int |xi|^{2s} |u_hat|^2 dxi) by panel quadrature over the patches."""
    total = 0.0
    for p in coalesce(u).patches:
        total += _patch_norm_sq(p, u.h, s)
    return float(np.sqrt(max(total, 0.0)))


def patch_intersection_norm(u: PatchField, s: float, s2: float) -> float:
    return patch_hs_norm(u, s) + patch_hs_norm(u, s2)


# -- torus bridge ---------------------------------------------------------

def to_torus(u: PatchField, grid: GridSpec) -> SpectralField:
    """Sample the continuum transform on the torus lattice.

    Torus coefficients are u_hat(k) * 2 pi / (2L)^2, so the lattice Sobolev
    sum is the rectangle-rule approximation of the continuum norm. Requires
    the lattice spacing pi/L to be an integer multiple of the patch spacing
    and all patch content to sit inside the dealias band.

    u must be a real field: its samples with xi_2 < 0, the conjugates of
    their partners, are not read (hermitian_defect measures the symmetry).
    """
    dk = grid.dk
    ratio = dk / u.h
    r = round(ratio)
    if abs(ratio - r) > 1e-9 or r < 1:
        raise ValueError(f"grid mode spacing pi/L = {dk:g} is not an integer multiple of the patch spacing {u.h:g}")
    cutoff = grid.dealias_k
    Md = grid.dealias_index
    sq = np.zeros((2 * Md + 1, Md + 1), dtype=np.complex128)  # the band's half square
    scale = 2.0 * np.pi / (2.0 * grid.L) ** 2
    for p in u.patches:
        vals = materialize(p, u.h)
        nz = np.abs(vals) > 0.0
        if nz.any():
            x_ax, y_ax = p.axes(u.h)
            reach = max(np.abs(x_ax[nz.any(axis=1)]).max(), np.abs(y_ax[nz.any(axis=0)]).max())
            if reach > cutoff * (1.0 + 1e-12):
                raise FrequencyOverflowError(f"patch content reaches |xi| = {reach:g}, "
                                             f"beyond the dealias cutoff {cutoff:g}")
        hi = p.hi()
        # lattice indices j*r inside [lo, hi] and the band's half square (content off the band is zero)
        m0 = np.arange(max(int(np.ceil(p.lo[0] / r)), -Md), min(int(np.floor(hi[0] / r)), Md) + 1)
        m1 = np.arange(max(int(np.ceil(p.lo[1] / r)), 0), min(int(np.floor(hi[1] / r)), Md) + 1)
        if m0.size == 0 or m1.size == 0:
            continue
        rows = (m0 * r - p.lo[0])[:, None]
        cols = (m1 * r - p.lo[1])[None, :]
        sq[np.ix_(m0 + Md, m1)] += scale * vals[rows, cols]
    sq = _close(grid, sq)
    return _new(grid, _resize(sq, _support_radius(sq)).copy())


# -- diagnostics ----------------------------------------------------------

def hermitian_defect(u: PatchField) -> float:
    """max |u_hat(-xi) - conj(u_hat(xi))| over all sampled lattice points."""
    acc: dict[tuple[int, int], complex] = {}
    for p in u.patches:
        vals = materialize(p, u.h)
        for (i, j), v in np.ndenumerate(vals):
            if v != 0:
                key = (p.lo[0] + i, p.lo[1] + j)
                acc[key] = acc.get(key, 0.0 + 0.0j) + v
    worst = 0.0
    for key, v in acc.items():
        mirror = acc.get((-key[0], -key[1]), 0.0 + 0.0j)
        worst = max(worst, abs(np.conj(v) - mirror))
    return worst


def support_radius_bounds(u: PatchField) -> tuple[float, float]:
    """(min, max) of |xi| over sampled points carrying nonzero values."""
    rmin, rmax = np.inf, 0.0
    for p in u.patches:
        vals = materialize(p, u.h)
        nz = np.abs(vals) > 0.0
        if not nz.any():
            continue
        x_ax, y_ax = p.axes(u.h)
        r = np.sqrt(x_ax[:, None] ** 2 + y_ax[None, :] ** 2)
        rmin = min(rmin, float(r[nz].min()))
        rmax = max(rmax, float(r[nz].max()))
    return rmin, rmax
