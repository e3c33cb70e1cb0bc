"""Real-valued fields on the periodic square, stored spectrally.

The coefficient c(m) of exp(i k(m).x) of a real field satisfies
c(-m) = conj(c(m)), so its modes with m2 >= 0 determine it. A SpectralField
of mode radius M stores just those: the half square |m1| <= M, 0 <= m2 <= M
as a (2M+1) x (M+1) array with row m1 + M and column m2 (see
GridSpec.square). Its m2 = 0 column holds both signs of m1, the m1 < 0
entries being the conjugates of the m1 > 0 ones, and every operator keeps
it so: a field is Hermitian by construction. ``coeffs``, the K x K array in
FFT order, is built on first use for the SQGF writer and tests; K x K data
enter only through the validating constructor.

All operators are Fourier multipliers on the half square except the
quadratic products (advection and the pointwise product), which go through
physical space on a grid sized to their bands and are truncated back to the
dealias band.
"""
from __future__ import annotations

from dataclasses import dataclass
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


class SpectralField:
    """Zero-mean real field, stored as the half square of its modes.

    SpectralField(grid, coeffs) takes a K x K coefficient array in FFT
    order, checks that it is Hermitian-symmetric with zero mean, and keeps
    in ``half`` (read-only) the half square of its support radius.
    """

    def __init__(self, grid: GridSpec, coeffs: np.ndarray) -> None:
        c = np.asarray(coeffs, dtype=np.complex128)
        K = grid.K
        if c.shape != (K, K):
            raise ValueError(f"coefficient array shape {c.shape} does not match grid K={K}")
        _check_coefficients(c, c, np.roll(c[::-1, ::-1], 1, axis=(0, 1)), c[0, 0])  # c(-m) in FFT order
        sq = _close(grid, np.pad(np.fft.fftshift(c[:, : K // 2 + 1], axes=0), ((0, 1), (0, 0))))
        _init(self, grid, _resize(sq, _support_radius(sq)).copy())

    def __setattr__(self, name, value):
        raise AttributeError(f"SpectralField is immutable; cannot set {name!r}")

    @property
    def M(self) -> int:
        """Mode radius of the stored half square."""
        return self.half.shape[1] - 1

    @property
    def is_dealiased(self) -> bool:
        """Whether every nonzero mode lies in the dealias band (no support scan if M is inside it)."""
        return self.M <= self.grid.dealias_index or self.max_mode_index() <= self.grid.dealias_index

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Full K x K coefficients in FFT order (read-only, built on first use)."""
        K = self.grid.K
        h = _rfft_half(self)
        out = np.empty((K, K), dtype=np.complex128)
        out[:, : K // 2 + 1] = h
        out[:, K // 2 + 1 :] = np.conj(h[(-np.arange(K)) % K, K // 2 - 1 : 0 : -1])  # c(-m) = conj(c(m))
        out[0, 0] = 0.0  # +0, whatever sign of zero arithmetic left there
        out.setflags(write=False)
        return out

    # -- arithmetic -------------------------------------------------------

    def _require_same_grid(self, other: "SpectralField") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def _combine(self, other: "SpectralField", op) -> "SpectralField":
        self._require_same_grid(other)
        M = max(self.M, other.M)
        sq = op(_resize(self.half, M), _resize(other.half, M))
        return _new(self.grid, sq)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.add)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self._combine(other, np.subtract)

    def __mul__(self, a: float) -> "SpectralField":
        # real scalars only; complex scaling would break realness
        return _new(self.grid, float(a) * self.half)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return _new(self.grid, -self.half)

    def mode(self, m1: int, m2: int) -> complex:
        """Coefficient at integer mode (m1, m2), read off the half square."""
        row, col = _slot(m1, m2, self.grid.K)
        if col < 0:
            return complex(np.conj(self.mode(-m1, -m2)))
        return complex(self.half[row + self.M, col]) if max(abs(row), col) <= self.M and (row or col) else 0j

    def max_mode_index(self) -> int:
        """Largest |m_i| carrying a nonzero coefficient (0 for the zero field)."""
        return self._radius

    @cached_property
    def _radius(self) -> int:
        return _support_radius(self.half)


def _support_radius(sq: np.ndarray) -> int:
    """Largest |m_i| of a nonzero entry of the half square sq (0 if there is none)."""
    nz = sq != 0
    if not nz.any():
        return 0
    rows = np.flatnonzero(nz.any(axis=1)) - (sq.shape[1] - 1)
    return int(max(np.abs(rows).max(), np.flatnonzero(nz.any(axis=0)).max()))


def _init(f: SpectralField, grid: GridSpec, sq: np.ndarray) -> SpectralField:
    sq.setflags(write=False)
    f.__dict__.update(grid=grid, half=sq)
    return f


def _new(grid: GridSpec, sq: np.ndarray) -> SpectralField:
    """Field taking over the half square sq (no copy; nothing else may write to it).

    sq has a zero mean and a Hermitian m2 = 0 column.
    """
    return _init(object.__new__(SpectralField), grid, sq)


def _check_coefficients(c: np.ndarray, own: np.ndarray, mirror: np.ndarray, zero: complex) -> None:
    """Refuse coefficients c unless finite, with own = conj(mirror) (entries of c and the values at their
    partners -m) and a zero mode zero = 0, both to _HERM_TOL of the largest modulus."""
    scale = float(np.max(np.abs(c)))
    if not np.isfinite(scale):
        raise ValueError(f"coefficients must be finite (largest modulus {scale})")
    asym = float(np.max(np.abs(own - np.conj(mirror)))) if scale > 0 else 0.0
    if asym > _HERM_TOL * scale:
        raise ValueError(f"coefficients are not Hermitian-symmetric (asymmetry {asym:.3e} vs scale {scale:.3e})")
    if abs(zero) > _HERM_TOL * scale:
        raise ValueError(f"zero mode must vanish (got {zero:.3e}); fields are mean-free")


def _slot(m1: int, m2: int, K: int) -> tuple[int, int]:
    """Lattice mode m as -K/2 <= m1 < K/2, -K/2 < m2 <= K/2: row K/2 is row -K/2, column -K/2 column K/2."""
    n = K // 2
    return (m1 + n) % K - n, n - (n - m2) % K


def _close(grid: GridSpec, sq: np.ndarray) -> np.ndarray:
    """Make the half square sq (row m1 + M, column m2) a real field, in place.

    On the self-conjugate columns (m2 = 0, and m2 = K/2 at M = K/2) the
    m1 < 0 entries become the conjugates of the m1 > 0 ones and the
    self-conjugate modes (m1 = 0, and row -K/2 at M = K/2) their real parts;
    the zero mode is dropped. Entries that already hold those values keep
    their bits, so exactly Hermitian data round-trip byte for byte.
    """
    M = sq.shape[1] - 1
    nyquist = M == grid.K // 2
    top = M - nyquist  # largest m1 > 0 whose partner row is stored
    for j in (0, M) if nyquist else (0,):
        want, neg = np.conj(sq[M + top : M : -1, j]), sq[M - top : M, j]
        sq[M - top : M, j] = np.where(neg == want, neg, want)
        rows = [0, M] if nyquist else [M]
        own = sq[rows, j]
        sq[rows, j] = np.where(own.imag == 0, own, own.real)
    sq[M, 0] = 0.0
    return sq


def _rfft_half(u: SpectralField) -> np.ndarray:
    """The m2 >= 0 half of u's spectrum, K x (K/2+1) in FFT row order (row +K/2 aliases -K/2)."""
    return np.fft.ifftshift(_resize(u.half, u.grid.K // 2)[:-1], axes=0)


def _resize(sq: np.ndarray, M: int) -> np.ndarray:
    """The half square sq cut (as a view) or zero-padded to mode radius M."""
    m = sq.shape[1] - 1
    if M <= m:
        return sq[m - M : m + M + 1, : M + 1]
    out = np.zeros((2 * M + 1, M + 1), dtype=np.complex128)
    out[M - m : M + m + 1, : m + 1] = sq
    return out


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free pair (v1, v2) on a shared grid."""

    v1: SpectralField
    v2: SpectralField

    def __post_init__(self) -> None:
        if self.v1.grid != self.v2.grid:
            raise ValueError("velocity components live on different grids")
        M = max(self.v1.M, self.v2.M)
        t = self.grid.square(M)
        a1, a2 = _resize(self.v1.half, M), _resize(self.v2.half, M)
        div = np.abs(t.kx[:, None] * a1 + t.ky * a2)
        if div.max() > 1e-13 * float(np.max(t.kmag * (np.abs(a1) + np.abs(a2)))):
            raise ValueError("velocity field is not divergence-free")

    @property
    def grid(self) -> GridSpec:
        return self.v1.grid

    @property
    def is_dealiased(self) -> bool:
        return self.v1.is_dealiased and self.v2.is_dealiased


# -- constructors ---------------------------------------------------------

def field_from_modes(grid: GridSpec, modes: dict[tuple[int, int], complex]) -> SpectralField:
    """Build a field from {(m1, m2): coefficient}, each entry also setting its partner -m to the
    conjugate (a later entry wins); the values are checked as by the constructor."""
    K, n = grid.K, grid.K // 2
    M = min(max((max(abs(m1), abs(m2)) for m1, m2 in modes), default=0), n)
    sq = np.zeros((2 * M + 1, M + 1), dtype=np.complex128)
    for (m1, m2), val in modes.items():
        if max(abs(m1), abs(m2)) > n:
            raise ValueError(f"mode {(m1, m2)} outside the lattice for K={K}")
        for (row, col), v in ((_slot(m1, m2, K), val), (_slot(-m1, -m2, K), np.conj(val))):
            if col >= 0:
                sq[row + M, col] = v
    own = sq[[M, 0, 0, M], [0, 0, M, M]] if M == n else sq[M, :1]  # the modes m = -m; all others are paired
    _check_coefficients(sq, own, own, sq[M, 0])
    sq = _close(grid, sq)
    return _new(grid, _resize(sq, _support_radius(sq)).copy())


def field_from_physical(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Transform physical samples on the [-L, L)^2 grid to a spectral field."""
    s = np.asarray(samples, dtype=np.float64)
    if s.shape != (grid.K, grid.K):
        raise ValueError(f"sample array shape {s.shape} does not match grid")
    shifted = np.roll(s, -(grid.K // 2), axis=(0, 1))  # to the [0, 2L) grid fft expects
    h = scipy.fft.rfft2(shifted, norm="forward")
    scale = float(np.max(np.abs(h)))
    if not np.isfinite(scale):
        raise ValueError(f"samples must be finite (largest transform modulus {scale})")
    if abs(h[0, 0]) > 1e-12 * max(1.0, scale):
        raise ValueError(f"samples have nonzero mean {h[0, 0]:.3e}; subtract it first")
    return _new(grid, _close(grid, np.pad(np.fft.fftshift(h, axes=0), ((0, 1), (0, 0)))))


def to_physical(u: SpectralField) -> np.ndarray:
    """Evaluate on the physical grid x_j = -L + 2L*j/K (real array)."""
    K = u.grid.K
    phys = scipy.fft.irfft2(_rfft_half(u), s=(K, K), norm="forward")
    return np.roll(phys, K // 2, axis=(0, 1))


# -- multiplier operators -------------------------------------------------

def dealias(u: SpectralField) -> SpectralField:
    """Zero all modes outside the square dealias band."""
    return _new(u.grid, _resize(u.half, min(u.M, u.grid.dealias_index)))


def fractional_laplacian(u: SpectralField, s: float) -> SpectralField:
    """(-Delta)^s as the multiplier |k|^{2s}; inverse powers stay mean-free."""
    return _new(u.grid, u.half * u.grid.square(u.M).radial_power(2.0 * s))


def velocity_from_theta(theta: SpectralField) -> VelocityField:
    """Perpendicular Riesz velocity v = (d2, -d1)(-Delta)^{-1/2} theta.

    Divergence-free by construction, so the VelocityField check is skipped.
    """
    g = theta.grid
    t = g.square(theta.M)
    w = theta.half * t.radial_power(-1.0)
    v = object.__new__(VelocityField)
    object.__setattr__(v, "v1", _new(g, 1j * t.ky * w))
    object.__setattr__(v, "v2", _new(g, -1j * t.kx[:, None] * w))
    return v


def low_pass_mask(grid: GridSpec, N: int) -> np.ndarray:
    """Sharp radial cutoff |k| <= 2^N (boundary modes included), K x K in FFT order."""
    k = grid.dk * np.fft.fftfreq(grid.K, 1.0 / grid.K)
    return k[:, None] ** 2 + k**2 <= grid.level(N).bound  # the level refuses cutoffs past the Nyquist wavenumber


def _level_field(grid: GridSpec, level: LevelTable, values: np.ndarray) -> SpectralField:
    """The real field with ``values`` on the half disk of a level (level.pos) and zero off the disk."""
    M = level.M
    sq = np.zeros((2 * M + 1, M + 1), dtype=np.complex128)
    sq.ravel()[level.pos] = values
    sq[:M, 0] = np.conj(sq[:M:-1, 0])  # m2 = 0: the m1 < 0 partners
    return _new(grid, sq)


def project_low(u: SpectralField, N: int) -> SpectralField:
    """Truncation P_N to wavenumbers |k| <= 2^N."""
    level = u.grid.level(N)
    sq = np.zeros((2 * level.M + 1, level.M + 1), dtype=np.complex128)
    sq.ravel()[level.disk] = _resize(u.half, level.M).ravel()[level.disk]
    return _new(u.grid, sq)


def heat_smooth(u: SpectralField, eps: float) -> SpectralField:
    """Gaussian mollifier exp(eps^2 * Delta)."""
    if eps < 0:
        raise ValueError(f"mollification width must be nonnegative, got {eps}")
    return _new(u.grid, u.half * np.exp(-(eps**2) * u.grid.square(u.M).k2))


# -- the nonlinearity -----------------------------------------------------
#
# A quadratic product of factors with mode radii Ma and Mb, kept on the
# modes |m_i| <= Mo, is an exact truncated convolution on any P x P grid
# with P >= Ma + Mb + Mo + 1: an aliased copy m + P j of a kept mode would
# need |m_i + P j_i| <= Ma + Mb. Each factor enters as its half square, a
# P x (P/2+1) array, and reaches the grid through one irfft2; the product
# returns through one rfft2 as a half square. Its m2 = 0 column is made
# Hermitian on its own, so the result is a real field by construction.
# Radii beyond what can reach a kept mode are cut first, and Mo never
# exceeds the dealias index, so the result is the dealiased product
# whatever the factors' bands.


def _product_size(ma: int, mb: int, mo: int) -> tuple[int, int, int, int]:
    """Radii cut to the modes that interact, and the transform size P (0: the product vanishes)."""
    ma, mb, mo = min(ma, mb + mo), min(mb, ma + mo), min(mo, ma + mb)
    if min(ma, mb, mo) == 0:
        return ma, mb, mo, 0
    return ma, mb, mo, scipy.fft.next_fast_len(ma + mb + mo + 1, real=True)


def _samples(sq: np.ndarray, r: int, P: int, dk: float = 0.0, axis: int | None = None) -> np.ndarray:
    """Values on the P x P grid of the modes |m_i| <= r of the half square sq, or of d_axis of them."""
    M = sq.shape[1] - 1
    h = np.zeros((P, P // 2 + 1), dtype=np.complex128)
    h[: r + 1, : r + 1] = sq[M : M + r + 1, : r + 1]
    h[P - r :, : r + 1] = sq[M - r : M, : r + 1]
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
    """Half square, of radius at most mo, of a dealiased mean-free quadratic term.

    form "product": factors (u, w), the product u w.
    form "advective": factors (v1, v2, theta), v . grad(theta).
    form "divergence": factors (v1, v2, theta), div(v theta).
    Factors are half squares; radii are the mode radii of the first
    factor(s) and of the last one.
    """
    ma, mb, m, P = _product_size(radii[0], radii[1], min(mo, grid.dealias_index))
    if P == 0:
        return np.zeros((1, 1), dtype=np.complex128)
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
    sq[m, 0] = 0.0
    return sq


def _check_advect_inputs(v: VelocityField, theta: SpectralField) -> None:
    if v.grid != theta.grid:
        raise ValueError("velocity and scalar live on different grids")
    if not (v.is_dealiased and theta.is_dealiased):
        raise ValueError("advect requires dealiased inputs; apply dealias() first")


def _velocity_radius(v: VelocityField) -> int:
    return max(v.v1.max_mode_index(), v.v2.max_mode_index())


def _advect_level(v: VelocityField, theta: SpectralField, level: LevelTable, theta_radius: int | None = None) -> np.ndarray:
    """P_N (v . grad(theta)) as values on the half disk of ``level``.

    theta_radius, when given, replaces the measured support radius of theta
    (the caller has checked theta lies in that band).
    """
    _check_advect_inputs(v, theta)
    rb = theta.max_mode_index() if theta_radius is None else theta_radius
    factors = (v.v1.half, v.v2.half, theta.half)
    sq = _quadratic(theta.grid, "advective", factors, (_velocity_radius(v), rb), level.M)
    return _resize(sq, level.M).ravel()[level.pos]


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
    factors = (v.v1.half, v.v2.half, theta.half)
    radii = (_velocity_radius(v), theta.max_mode_index())
    return _new(g, _quadratic(g, form, factors, radii, g.dealias_index))


def rescale(u: SpectralField, a: float) -> SpectralField:
    """Dyadic rescale to 2^a * u(2x) on the half-period grid (K, L/2).

    Mode indices carry over unchanged; physical wavenumbers double because
    the torus shrinks. Requires u band-limited to half-Nyquist.
    """
    if u.max_mode_index() > u.grid.K // 4:
        raise ValueError("field is not band-limited to half-Nyquist; dyadic rescale would alias")
    half = GridSpec(u.grid.K, u.grid.L / 2.0, u.grid.dealias_fraction)
    return _new(half, (2.0**a) * u.half)


def l2_inner(u: SpectralField, w: SpectralField) -> float:
    """L^2 pairing (2L)^2 * sum_k u(k) conj(w(k)), real for real fields."""
    u._require_same_grid(w)
    M = min(u.M, w.M)
    pair = (_resize(u.half, M) * np.conj(_resize(w.half, M))).real
    return float(np.sum(u.grid.square(M).weight * pair) * (2.0 * u.grid.L) ** 2)


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
    return _new(g, _quadratic(g, "product", (u.half, w.half), radii, g.dealias_index))


def translate(u: SpectralField, shift: tuple[float, float]) -> SpectralField:
    """u(x - shift); spectrally a modulation by exp(-i k . shift).

    On a Nyquist line only the cosine of the phase survives, since the sine
    of a Nyquist mode vanishes on the grid.
    """
    g, M = u.grid, u.M
    m = np.arange(-M, M + 1)
    p1 = np.exp(-1j * (g.dk * m) * float(shift[0]))
    p2 = np.exp(-1j * (g.dk * m[M:]) * float(shift[1]))
    if M == g.K // 2:
        p1[0], p2[M] = p1[0].real, p2[M].real
    return _new(g, u.half * p1[:, None] * p2)
