"""Real-valued fields on the periodic square, stored spectrally.

The coefficient c(m) of exp(i k(m).x) of a real field satisfies
c(-m) = conj(c(m)), so its modes with m2 >= 0 determine it. A SpectralField
of mode radius M stores just those: the half square |m1| <= M, 0 <= m2 <= M
as a (2M+1) x (M+1) array with row m1 + M and column m2 (see
GridSpec.square). Its m2 = 0 column holds both signs of m1, the m1 < 0
entries being the conjugates of the m1 > 0 ones. ``_close`` is the one
writer of those partners, and every operator keeps them: a field is
Hermitian by construction. ``coeffs``, the K x K array in FFT order, is
built on first use for the SQGF writer and tests; K x K data enter only
through the validating constructor.

All operators are Fourier multipliers on the half square except the
quadratic products (advection and the pointwise product), which go through
physical space on a grid sized to their bands and are truncated back to the
dealias band.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    "advect",
    "heat_smooth",
    "rescale",
    "l2_inner",
    "pointwise_product",
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
    """Largest |m_i| of a nonzero entry of the half square sq, or of a stack of them (0 if there is none)."""
    nz = (sq != 0).reshape(-1, *sq.shape[-2:]).any(axis=0)
    if not nz.any():
        return 0
    rows = np.flatnonzero(nz.any(axis=1)) - (sq.shape[-1] - 1)
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
    """Make the half square sq (row m1 + M, column m2), or each of a stack of them, a real field, in place.

    On the self-conjugate columns (m2 = 0, and m2 = K/2 at M = K/2) the m1 < 0 entries become the conjugates
    of the m1 > 0 ones and the self-conjugate modes (m1 = 0, and row -K/2 at M = K/2) their real parts; the
    zero mode is dropped. Entries that already hold those values keep their bits, so exactly Hermitian data
    round-trip byte for byte.
    """
    M = sq.shape[-1] - 1
    nyquist = M == grid.K // 2
    top = M - nyquist  # largest m1 > 0 whose partner row is stored
    for j in (0, M) if nyquist else (0,):
        neg, want = sq[..., M - top : M, j], np.conj(sq[..., M + top : M : -1, j])
        np.copyto(neg, want, where=neg != want)
        if nyquist:  # below it the only self-conjugate mode is the zero mode, dropped next
            own = sq[..., [0, M], j]
            sq[..., [0, M], j] = np.where(own.imag == 0, own, own.real)
    sq[..., M, 0] = 0.0
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
    """Divergence-free pair (v1, v2) on a shared grid.

    The product kernel samples (v1, v2) on its P x P grid; the samples of
    the last (radius, P) asked for are kept, so the matvecs of a linear
    solve, which all use one velocity, transform it once.
    """

    v1: SpectralField
    v2: SpectralField
    _grid_samples: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _sampled(self, r: int, P: int) -> tuple[np.ndarray, np.ndarray]:
        """(v1, v2) on the P x P grid from their modes |m_i| <= r (read-only, kept for the last (r, P))."""
        kept = self._grid_samples
        if kept is None or kept[0] != (r, P):
            s1, s2 = _samples(self.v1.half, r, P), _samples(self.v2.half, r, P)
            s1.setflags(write=False)
            s2.setflags(write=False)
            kept = ((r, P), s1, s2)
            object.__setattr__(self, "_grid_samples", kept)
        return kept[1], kept[2]


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
    h = np.fft.rfft2(shifted, norm="forward")
    scale = float(np.max(np.abs(h)))
    if not np.isfinite(scale):
        raise ValueError(f"samples must be finite (largest transform modulus {scale})")
    if abs(h[0, 0]) > 1e-12 * max(1.0, scale):
        raise ValueError(f"samples have nonzero mean {h[0, 0]:.3e}; subtract it first")
    return _new(grid, _close(grid, np.pad(np.fft.fftshift(h, axes=0), ((0, 1), (0, 0)))))


def to_physical(u: SpectralField) -> np.ndarray:
    """Evaluate on the physical grid x_j = -L + 2L*j/K (real array)."""
    K = u.grid.K
    phys = np.fft.irfft2(_rfft_half(u), s=(K, K), norm="forward")
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


def _level_field(grid: GridSpec, level: LevelTable, values: np.ndarray) -> SpectralField:
    """The real field with ``values`` on the half disk of a level (level.pos) and zero off the disk."""
    sq = np.zeros((2 * level.M + 1, level.M + 1), dtype=np.complex128)
    sq.ravel()[level.pos] = values
    return _new(grid, _close(grid, sq))


def _disk_values(u: SpectralField, level: LevelTable) -> np.ndarray:
    """Values of u on the half disk of a level, the inverse of _level_field on fields inside the disk."""
    return _resize(u.half, level.M).ravel()[level.pos]


def project_low(u: SpectralField, N: int) -> SpectralField:
    """Truncation P_N to wavenumbers |k| <= 2^N."""
    level = u.grid.level(N)
    return _level_field(u.grid, level, _disk_values(u, level))


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
# need |m_i + P j_i| <= Ma + Mb. Each factor enters as its half square and
# reaches the grid through one inverse real transform, pruned to the
# columns that hold modes (a velocity keeps its samples for the next
# product of the same size); each product returns through one forward real
# transform, pruned to the kept columns, as an open half square: advect,
# pointwise_product and the probes' products close it with _close, and
# _advect_level reads only the half disk, which _close leaves. P is 5-smooth,
# as scipy.fft.next_fast_len(..., real=True) picks it. Half squares may carry
# leading axes, a stack of fields (the probes' draws), each transformed alone.
# Radii beyond what can reach a kept mode are cut first, and Mo never
# exceeds the dealias index, so the result is the dealiased product
# whatever the factors' bands.


def _product_size(ma: int, mb: int, mo: int) -> tuple[int, int, int, int]:
    """Radii cut to the modes that interact, and the transform size P (0: the product vanishes)."""
    ma, mb, mo = min(ma, mb + mo), min(mb, ma + mo), min(mo, ma + mb)
    if min(ma, mb, mo) == 0:
        return ma, mb, mo, 0
    return ma, mb, mo, _next_fast_len(ma + mb + mo + 1, real=True)


def _next_fast_len(n: int, real: bool) -> int:
    """Smallest m >= n with no prime factor above 5 (real) or 11 (complex): the sizes scipy.fft.next_fast_len
    picks for pocketfft, and so the transform sizes of every earlier run."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    m = n
    while True:
        rest = m
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _samples(sq: np.ndarray, r: int, P: int) -> np.ndarray:
    """Values on the P x P grid of the modes |m_i| <= r of the half square sq (leading axes kept).

    The inverse transform is pruned: the column pass runs only on the r+1
    columns that hold modes, and the row pass zero-pads them to P/2+1.
    """
    M = sq.shape[-1] - 1
    cols = np.zeros((*sq.shape[:-2], P, r + 1), dtype=np.complex128)
    cols[..., : r + 1, :] = sq[..., M : M + r + 1, : r + 1]
    cols[..., P - r :, :] = sq[..., M - r : M, : r + 1]
    return np.fft.irfft(np.fft.ifft(cols, axis=-2, norm="forward"), n=P, axis=-1, norm="forward")


def _half_square(x: np.ndarray, mo: int) -> np.ndarray:
    """Modes |m1| <= mo, 0 <= m2 <= mo of real samples x; row m1 + mo, column m2 (leading axes kept).

    The forward transform is pruned: the row pass keeps columns 0..mo, and
    only those take the column pass.
    """
    P = x.shape[-1]
    spec = np.fft.fft(np.fft.rfft(x, norm="forward")[..., : mo + 1], axis=-2, norm="forward")
    return np.concatenate((spec[..., P - mo :, :], spec[..., : mo + 1, :]), axis=-2)


def _quadratic(
    grid: GridSpec, a: np.ndarray | VelocityField, b: np.ndarray, radii: tuple[int, int], mo: int
) -> np.ndarray:
    """Half square, of radius at most mo, of a dealiased quadratic term, not closed (see above).

    a a half square: the product a b. a a VelocityField: div(a b), which is a . grad(b) since div a = 0; this
    divergence form takes one inverse transform (of b) and two forward ones, as a's samples are kept on a. b is
    a half square; radii are the mode radii of a and b. Leading axes of a half square a broadcast against b's,
    which the result keeps.
    """
    mo = min(mo, grid.dealias_index)
    ma, mb, m, P = _product_size(radii[0], radii[1], mo)
    if P == 0:
        return np.zeros((*b.shape[:-2], 1, 1), dtype=np.complex128)
    t = _samples(b, mb, P)
    if isinstance(a, VelocityField):
        v1, v2 = a._sampled(ma, P)
        k = grid.square(mo).kx[mo - m : mo + m + 1]  # the kept radius's table: a level holds it, none is made per m
        sq = _half_square(v1 * t, m) * (1j * k[:, None])
        return np.add(sq, _half_square(v2 * t, m) * (1j * k[m:]), out=sq)
    return _half_square(np.multiply(t, _samples(a, ma, P), out=t), m)


def _check_product_inputs(u: SpectralField, w: SpectralField) -> None:
    u._require_same_grid(w)
    if not (u.is_dealiased and w.is_dealiased):
        raise ValueError("pointwise_product requires dealiased inputs; apply dealias() first")


def _check_advect_inputs(v: VelocityField, theta: SpectralField) -> None:
    if v.grid != theta.grid:
        raise ValueError("velocity and scalar live on different grids")
    if not (v.is_dealiased and theta.is_dealiased):
        raise ValueError("advect requires dealiased inputs; apply dealias() first")


def _velocity_radius(v: VelocityField) -> int:
    return max(v.v1.max_mode_index(), v.v2.max_mode_index())


def _advect_level(v: VelocityField, theta: SpectralField, level: LevelTable, theta_radius: int | None = None) -> np.ndarray:
    """P_N (v . grad(theta)) as values on the half disk of ``level``; theta_radius, when given, replaces the
    measured support radius of theta (the caller has checked theta lies in that band)."""
    _check_advect_inputs(v, theta)
    rb = theta.max_mode_index() if theta_radius is None else theta_radius
    sq = _quadratic(theta.grid, v, theta.half, (_velocity_radius(v), rb), level.M)
    return _resize(sq, level.M).ravel()[level.pos]


def advect(v: VelocityField, theta: SpectralField) -> SpectralField:
    """Dealiased spectral representation of v . grad(theta), computed as div(v theta).

    Both inputs must be dealiased so the quadratic product is an exact
    convolution after truncation (2/3 rule).
    """
    _check_advect_inputs(v, theta)
    g = theta.grid
    radii = (_velocity_radius(v), theta.max_mode_index())
    return _new(g, _close(g, _quadratic(g, v, theta.half, radii, g.dealias_index)))


def rescale(u: SpectralField, a: float) -> SpectralField:
    """Dyadic rescale to 2^a * u(2x) on the half-period grid (K, L/2).

    Mode indices carry over unchanged; physical wavenumbers double because
    the torus shrinks. Requires u band-limited to half-Nyquist.
    """
    if u.max_mode_index() > u.grid.K // 4:
        raise ValueError("field is not band-limited to half-Nyquist; dyadic rescale would alias")
    half = GridSpec(u.grid.K, u.grid.L / 2.0)
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
    _check_product_inputs(u, w)
    g = u.grid
    radii = (u.max_mode_index(), w.max_mode_index())
    return _new(g, _close(g, _quadratic(g, u.half, w.half, radii, g.dealias_index)))
