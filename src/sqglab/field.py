"""Real-valued fields on the periodic square, stored spectrally.

Coefficients live on the FFT-ordered lattice of GridSpec; coeff[m] is the
coefficient of exp(i k(m).x). All operators here are Fourier multipliers
except the quadratic products (advection and the pointwise product), which
go through physical space on a grid sized to their bands and are truncated
back to the dealias band.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.fft

from .grid import GridSpec, LevelTable

__all__ = [
    "SpectralField",
    "VelocityField",
    "field_from_modes",
    "field_from_physical",
    "to_physical",
    "dealias",
    "fractional_laplacian",
    "velocity_from_theta",
    "project_low",
    "low_pass_mask",
    "advect",
    "heat_smooth",
    "rescale",
    "l2_inner",
    "pointwise_product",
    "translate",
]

_HERM_TOL = 1e-12


def _conjugate_flip(coeffs: np.ndarray) -> np.ndarray:
    """conj(c(-m)) in FFT index order."""
    K = coeffs.shape[0]
    idx = (-np.arange(K)) % K
    return np.conj(coeffs[np.ix_(idx, idx)])


@dataclass(frozen=True)
class SpectralField:
    """Zero-mean real field given by Hermitian-symmetric coefficients."""

    grid: GridSpec
    coeffs: np.ndarray = field(repr=False, compare=False)
    is_dealiased: bool = False

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        K = self.grid.K
        if c.shape != (K, K):
            raise ValueError(f"coefficient array shape {c.shape} does not match grid K={K}")
        scale = float(np.max(np.abs(c))) if c.size else 0.0
        if scale > 0:
            asym = float(np.max(np.abs(c - _conjugate_flip(c))))
            if asym > _HERM_TOL * scale:
                raise ValueError(
                    f"coefficients are not Hermitian-symmetric (asymmetry {asym:.3e} vs scale {scale:.3e})"
                )
            if abs(c[0, 0]) > _HERM_TOL * scale:
                raise ValueError(f"zero mode must vanish (got {c[0, 0]:.3e}); fields are mean-free")
        c = c.copy()
        c[0, 0] = 0.0
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.is_dealiased and scale > 0:
            off = float(np.max(np.abs(c[~self.grid.dealias_mask])))
            if off > _HERM_TOL * scale:
                raise ValueError("is_dealiased set but coefficients extend past the dealias band")

    # -- arithmetic -------------------------------------------------------

    def _require_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return _wrap(self.grid, self.coeffs + other.coeffs, self.is_dealiased and other.is_dealiased)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._require_same_grid(other)
        return _wrap(self.grid, self.coeffs - other.coeffs, self.is_dealiased and other.is_dealiased)

    def __mul__(self, a: float) -> "SpectralField":
        # real scalars only; complex scaling would break realness
        return _wrap(self.grid, float(a) * self.coeffs, self.is_dealiased)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return _wrap(self.grid, -self.coeffs, self.is_dealiased)

    def mode(self, m1: int, m2: int) -> complex:
        """Coefficient at integer mode (m1, m2)."""
        K = self.grid.K
        return complex(self.coeffs[m1 % K, m2 % K])

    def max_mode_index(self) -> int:
        """Largest |m_i| carrying a nonzero coefficient (0 for the zero field)."""
        return self._radius

    @cached_property
    def _radius(self) -> int:
        # coefficients are read-only, so the support radius is computed once
        nz = self.coeffs != 0
        if not nz.any():
            return 0
        m = np.abs(self.grid.modes)
        return int(max(m[nz.any(axis=1)].max(), m[nz.any(axis=0)].max()))


def _wrap(grid: GridSpec, coeffs: np.ndarray, dealiased: bool) -> SpectralField:
    """Internal constructor for fresh arrays already Hermitian by construction.

    The field takes ownership of ``coeffs`` (no copy); callers pass an array
    nothing else refers to.
    """
    f = object.__new__(SpectralField)
    c = np.asarray(coeffs, dtype=np.complex128)
    c[0, 0] = 0.0
    c.setflags(write=False)
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "coeffs", c)
    object.__setattr__(f, "is_dealiased", dealiased)
    return f


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free pair (v1, v2) on a shared grid."""

    v1: SpectralField
    v2: SpectralField

    def __post_init__(self) -> None:
        if self.v1.grid != self.v2.grid:
            raise ValueError("velocity components live on different grids")
        g = self.grid
        div = g.kx * self.v1.coeffs + g.ky * self.v2.coeffs
        scale = float(np.max(g.kmag * (np.abs(self.v1.coeffs) + np.abs(self.v2.coeffs))))
        if scale > 0 and float(np.max(np.abs(div))) > 1e-13 * scale:
            raise ValueError("velocity field is not divergence-free")

    @property
    def grid(self) -> GridSpec:
        return self.v1.grid

    @property
    def is_dealiased(self) -> bool:
        return self.v1.is_dealiased and self.v2.is_dealiased


# -- constructors ---------------------------------------------------------

def field_from_modes(grid: GridSpec, modes: dict[tuple[int, int], complex], dealiased: bool | None = None) -> SpectralField:
    """Build a field from {(m1, m2): coefficient}; conjugate modes are filled in."""
    c = grid.zeros()
    K = grid.K
    for (m1, m2), val in modes.items():
        if max(abs(m1), abs(m2)) > K // 2:
            raise ValueError(f"mode {(m1, m2)} outside the lattice for K={K}")
        c[m1 % K, m2 % K] = val
        c[(-m1) % K, (-m2) % K] = np.conj(val)
    f = SpectralField(grid, c)
    if dealiased is None:
        dealiased = bool(f.max_mode_index() <= grid.dealias_index)
    return replace(f, is_dealiased=dealiased) if dealiased != f.is_dealiased else f


def field_from_physical(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Transform physical samples on the [-L, L)^2 grid to a spectral field."""
    s = np.asarray(samples, dtype=np.float64)
    if s.shape != (grid.K, grid.K):
        raise ValueError(f"sample array shape {s.shape} does not match grid")
    shifted = np.roll(s, -(grid.K // 2), axis=(0, 1))  # to the [0, 2L) grid fft expects
    c = np.fft.fft2(shifted) / grid.K**2
    mean = abs(c[0, 0])
    if mean > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError(f"samples have nonzero mean {c[0,0]:.3e}; subtract it first")
    return _wrap(grid, c, False)


def to_physical(u: SpectralField) -> np.ndarray:
    """Evaluate on the physical grid x_j = -L + 2L*j/K (real array)."""
    phys = np.fft.ifft2(u.coeffs) * u.grid.K**2
    return np.roll(phys, u.grid.K // 2, axis=(0, 1)).real


# -- multiplier operators -------------------------------------------------

def dealias(u: SpectralField) -> SpectralField:
    """Zero all modes outside the square dealias band."""
    return _wrap(u.grid, np.where(u.grid.dealias_mask, u.coeffs, 0.0), True)


def _radial_power(grid: GridSpec, p: float) -> np.ndarray:
    """|k|^p with the zero mode mapped to 0."""
    if p == 0.0:
        out = np.ones_like(grid.kmag)
        out[0, 0] = 0.0
        return out
    with np.errstate(divide="ignore"):
        out = grid.kmag**p
    out[0, 0] = 0.0
    return out


def fractional_laplacian(u: SpectralField, s: float) -> SpectralField:
    """(-Delta)^s as the multiplier |k|^{2s}; inverse powers stay mean-free."""
    return _wrap(u.grid, u.coeffs * _radial_power(u.grid, 2.0 * s), u.is_dealiased)


def velocity_from_theta(theta: SpectralField) -> VelocityField:
    """Perpendicular Riesz velocity v = (d2, -d1)(-Delta)^{-1/2} theta."""
    g = theta.grid
    inv = _radial_power(g, -1.0)
    v1 = _wrap(g, 1j * g.ky * inv * theta.coeffs, theta.is_dealiased)
    v2 = _wrap(g, -1j * g.kx * inv * theta.coeffs, theta.is_dealiased)
    return VelocityField(v1, v2)


def low_pass_mask(grid: GridSpec, N: int) -> np.ndarray:
    """Sharp radial cutoff |k| <= 2^N (boundary modes included)."""
    mask = np.zeros((grid.K, grid.K), dtype=bool)
    mask.ravel()[grid.level(N).idx] = True
    mask[0, 0] = True
    return mask


def _from_level(grid: GridSpec, level: LevelTable, values: np.ndarray, dealiased: bool = True) -> SpectralField:
    """The field holding ``values`` on the disk of a level and zero elsewhere."""
    out = np.zeros(grid.K * grid.K, dtype=np.complex128)
    out[level.idx] = values
    return _wrap(grid, out.reshape(grid.K, grid.K), dealiased)


def project_low(u: SpectralField, N: int) -> SpectralField:
    """Truncation P_N to wavenumbers |k| <= 2^N."""
    level = u.grid.level(N)
    dealiased = u.is_dealiased or 2.0**N <= u.grid.dealias_k * (1.0 + 1e-12)
    return _from_level(u.grid, level, u.coeffs.ravel()[level.idx], dealiased)


def heat_smooth(u: SpectralField, eps: float) -> SpectralField:
    """Gaussian mollifier exp(eps^2 * Delta)."""
    if eps < 0:
        raise ValueError(f"mollification width must be nonnegative, got {eps}")
    return _wrap(u.grid, u.coeffs * np.exp(-(eps**2) * u.grid.k2), u.is_dealiased)


# -- the nonlinearity -----------------------------------------------------
#
# A quadratic product of factors with mode radii Ma and Mb, kept on the
# modes |m_i| <= Mo, is an exact truncated convolution on any P x P grid
# with P >= Ma + Mb + Mo + 1: an aliased copy m + P j of a kept mode would
# need |m_i + P j_i| <= Ma + Mb. Each factor enters as the m2 >= 0 half of
# its spectrum, a P x (P/2+1) array, and reaches the grid through one
# irfft2; the product returns through one rfft2. The m2 < 0 half of the
# result is filled by conjugate symmetry, so it is Hermitian by
# construction. Radii beyond what can reach a kept mode are cut first, and
# Mo never exceeds the dealias index, so the result is the dealiased
# product whatever the factors' bands.


def _product_size(ma: int, mb: int, mo: int) -> tuple[int, int, int, int]:
    """Radii cut to the modes that interact, and the transform size P (0: the product vanishes)."""
    ma, mb, mo = min(ma, mb + mo), min(mb, ma + mo), min(mo, ma + mb)
    if min(ma, mb, mo) == 0:
        return ma, mb, mo, 0
    return ma, mb, mo, scipy.fft.next_fast_len(ma + mb + mo + 1, real=True)


def _samples(c: np.ndarray, r: int, P: int, dk: float = 0.0, axis: int | None = None) -> np.ndarray:
    """Values on the P x P grid of the modes |m_i| <= r of c, or of d_axis of them."""
    K = c.shape[0]
    h = np.zeros((P, P // 2 + 1), dtype=np.complex128)
    h[: r + 1, : r + 1] = c[: r + 1, : r + 1]
    h[P - r :, : r + 1] = c[K - r :, : r + 1]
    if axis == 0:
        h[: r + 1, : r + 1] *= 1j * dk * np.arange(r + 1)[:, None]
        h[P - r :, : r + 1] *= 1j * dk * np.arange(-r, 0)[:, None]
    elif axis == 1:
        h[:, : r + 1] *= 1j * dk * np.arange(r + 1)
    return scipy.fft.irfft2(h, s=(P, P), norm="forward")


def _half_square(x: np.ndarray, mo: int) -> np.ndarray:
    """Modes |m1| <= mo, 0 <= m2 <= mo of real samples x; row m1 + mo, column m2."""
    P = x.shape[0]
    spec = scipy.fft.rfft2(x, norm="forward")
    return np.concatenate((spec[P - mo :, : mo + 1], spec[: mo + 1, : mo + 1]))


def _quadratic(grid: GridSpec, form: str, factors: tuple, radii: tuple[int, int], mo: int) -> np.ndarray:
    """Half square of radius mo (see LevelTable) of a dealiased quadratic term.

    form "product": factors (u, w), the product u w.
    form "advective": factors (v1, v2, theta), v . grad(theta).
    form "divergence": factors (v1, v2, theta), div(v theta).
    Factors are K x K coefficient arrays; radii are the mode radii of the
    first factor(s) and of the last one.
    """
    out = np.zeros((2 * mo + 1, mo + 1), dtype=np.complex128)
    ma, mb, m, P = _product_size(radii[0], radii[1], min(mo, grid.dealias_index))
    if P == 0:
        return out
    dk = grid.dk
    if form == "product":
        u, w = factors
        sq = _half_square(_samples(u, ma, P) * _samples(w, mb, P), m)
    elif form == "advective":
        v1, v2, theta = factors
        x = _samples(v1, ma, P) * _samples(theta, mb, P, dk, axis=0)
        x += _samples(v2, ma, P) * _samples(theta, mb, P, dk, axis=1)
        sq = _half_square(x, m)
    else:
        v1, v2, theta = factors
        t = _samples(theta, mb, P)
        sq = _half_square(_samples(v1, ma, P) * t, m) * (1j * dk * np.arange(-m, m + 1)[:, None])
        sq += _half_square(_samples(v2, ma, P) * t, m) * (1j * dk * np.arange(m + 1))
    # the m2 = 0 column of a real field is Hermitian on its own
    sq[:m, 0] = np.conj(sq[:m:-1, 0])
    out[mo - m : mo + m + 1, : m + 1] = sq
    return out


def _square_coeffs(grid: GridSpec, sq: np.ndarray) -> np.ndarray:
    """K x K coefficients of a half square, m2 < 0 filled by conjugate symmetry."""
    K = grid.K
    mo = sq.shape[1] - 1
    out = np.zeros((K, K), dtype=np.complex128)
    out[: mo + 1, : mo + 1] = sq[mo:]
    out[K - mo :, : mo + 1] = sq[:mo]
    if mo:
        flip = np.conj(sq[::-1, :0:-1])  # row m1 + mo, column m2 + mo for m2 = -mo..-1
        out[: mo + 1, K - mo :] = flip[mo:]
        out[K - mo :, K - mo :] = flip[:mo]
    return out


def _level_values(level: LevelTable, sq: np.ndarray) -> np.ndarray:
    """Disk values of a half square of radius level.M."""
    vals = sq.ravel()[level.src]
    np.conjugate(vals, out=vals, where=level.conj)
    return vals


def _check_advect_inputs(v: VelocityField, theta: SpectralField) -> None:
    if v.grid != theta.grid:
        raise ValueError("velocity and scalar live on different grids")
    if not (v.is_dealiased and theta.is_dealiased):
        raise ValueError("advect requires dealiased inputs; apply dealias() first")


def _velocity_radius(v: VelocityField) -> int:
    return max(v.v1.max_mode_index(), v.v2.max_mode_index())


def _advect_level(v: VelocityField, theta: SpectralField, level: LevelTable, theta_radius: int | None = None) -> np.ndarray:
    """P_N (v . grad(theta)) as values on the disk of ``level``.

    theta_radius, when given, replaces the measured support radius of theta
    (the caller has checked theta lies in that band).
    """
    _check_advect_inputs(v, theta)
    rb = theta.max_mode_index() if theta_radius is None else theta_radius
    factors = (v.v1.coeffs, v.v2.coeffs, theta.coeffs)
    return _level_values(level, _quadratic(theta.grid, "advective", factors, (_velocity_radius(v), rb), level.M))


def advect(v: VelocityField, theta: SpectralField, form: str = "advective") -> SpectralField:
    """Dealiased spectral representation of v . grad(theta).

    Both inputs must be dealiased so the quadratic product is an exact
    convolution after truncation (2/3 rule). form="divergence" computes
    div(v theta) instead; the two agree since div v = 0.
    """
    _check_advect_inputs(v, theta)
    if form not in ("advective", "divergence"):
        raise ValueError(f"unknown form {form!r}")
    g = theta.grid
    factors = (v.v1.coeffs, v.v2.coeffs, theta.coeffs)
    sq = _quadratic(g, form, factors, (_velocity_radius(v), theta.max_mode_index()), g.dealias_index)
    return _wrap(g, _square_coeffs(g, sq), True)


def rescale(u: SpectralField, a: float) -> SpectralField:
    """Dyadic rescale to 2^a * u(2x) on the half-period grid (K, L/2).

    Mode indices carry over unchanged; physical wavenumbers double because
    the torus shrinks. Requires u band-limited to half-Nyquist.
    """
    if u.max_mode_index() > u.grid.K // 4:
        raise ValueError("field is not band-limited to half-Nyquist; dyadic rescale would alias")
    half = GridSpec(u.grid.K, u.grid.L / 2.0, u.grid.dealias_fraction)
    return _wrap(half, (2.0**a) * u.coeffs, u.is_dealiased)


def l2_inner(u: SpectralField, w: SpectralField) -> float:
    """L^2 pairing (2L)^2 * sum_k u(k) conj(w(k)), real for real fields."""
    u._require_same_grid(w)
    return float(np.real(np.sum(u.coeffs * np.conj(w.coeffs))) * (2.0 * u.grid.L) ** 2)


def pointwise_product(u: SpectralField, w: SpectralField) -> SpectralField:
    """Dealiased spectral representation of the pointwise product u*w.

    The product mean is discarded: homogeneous norms ignore it, and fields
    here are mean-free by construction.
    """
    u._require_same_grid(w)
    if not (u.is_dealiased and w.is_dealiased):
        raise ValueError("pointwise_product requires dealiased inputs; apply dealias() first")
    g = u.grid
    radii = (u.max_mode_index(), w.max_mode_index())
    sq = _quadratic(g, "product", (u.coeffs, w.coeffs), radii, g.dealias_index)
    return _wrap(g, _square_coeffs(g, sq), True)


def translate(u: SpectralField, shift: tuple[float, float]) -> SpectralField:
    """u(x - shift); spectrally a modulation by exp(-i k . shift)."""
    g = u.grid
    phase = np.exp(-1j * (g.kx * float(shift[0]) + g.ky * float(shift[1])))
    return _wrap(g, u.coeffs * phase, u.is_dealiased)
