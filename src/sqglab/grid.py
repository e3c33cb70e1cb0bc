"""Spectral grid for the periodic square [-L, L)^2.

The wavenumber lattice is k = (pi/L) * m with integer mode indices
|m_i| <= K/2, stored in FFT order. Physical sample points are
x_j = -L + 2L*j/K along each axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec", "LevelTable", "make_grid"]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Resolution, half-period and dealiasing cutoff of a periodic grid.

    Parameters
    ----------
    K : int
        Points per dimension; power of two, at least 16.
    L : float
        Half-period; the domain is [-L, L)^2.
    dealias_fraction : float
        Fraction of the Nyquist index kept by the dealias mask.

    Derived arrays (filled in __post_init__):
    modes : integer mode indices in FFT order.
    kx, ky : wavenumber components on the 2D lattice.
    k2 : |k|^2; kmag : |k|.
    dealias_mask : True where max(|m1|,|m2|) <= M_d.

    The operator table of each truncation level N (see ``level``) is built
    on first use and kept by the instance, so it lives exactly as long as
    the grid.
    """

    K: int
    L: float
    dealias_fraction: float = 2.0 / 3.0

    modes: np.ndarray = field(init=False, repr=False, compare=False)
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    kmag: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _levels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int, np.integer)) or not _is_power_of_two(int(self.K)) or self.K < 16:
            raise ValueError(f"K must be a power of two >= 16, got {self.K}")
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}")

        K = int(self.K)
        m = np.fft.fftfreq(K, d=1.0 / K).astype(np.int64)  # 0, 1, ..., K/2-1, -K/2, ..., -1
        dk = np.pi / self.L
        kx1d = dk * m
        object.__setattr__(self, "modes", m)
        object.__setattr__(self, "kx", kx1d[:, None] * np.ones((1, K)))
        object.__setattr__(self, "ky", np.ones((K, 1)) * kx1d[None, :])
        k2 = self.kx**2 + self.ky**2
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        md = self.dealias_index
        mask = (np.abs(m)[:, None] <= md) & (np.abs(m)[None, :] <= md)
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "_levels", {})

    @property
    def dealias_index(self) -> int:
        """M_d = floor(dealias_fraction * K/2)."""
        return int(np.floor(self.dealias_fraction * self.K / 2))

    @property
    def dk(self) -> float:
        """Lattice spacing pi/L."""
        return np.pi / self.L

    @property
    def nyquist_k(self) -> float:
        """Largest representable wavenumber magnitude per axis, pi*K/(2L)."""
        return np.pi * self.K / (2.0 * self.L)

    @property
    def dealias_k(self) -> float:
        """Wavenumber magnitude of the dealias cutoff index."""
        return self.dealias_index * self.dk

    def x_axis(self) -> np.ndarray:
        """Physical sample coordinates -L + 2L*j/K, j = 0..K-1."""
        return -self.L + 2.0 * self.L * np.arange(self.K) / self.K

    def zeros(self) -> np.ndarray:
        return np.zeros((self.K, self.K), dtype=np.complex128)

    def level(self, N: int) -> "LevelTable":
        """Operator table of the truncation level |k| <= 2^N, built once per grid."""
        N = int(N)
        table = self._levels.get(N)
        if table is None:
            # setdefault is atomic: threads racing on a new level all get the stored table
            table = self._levels.setdefault(N, LevelTable(self, N))
        return table


class LevelTable:
    """Derived arrays of the lattice disk 0 < |k| <= 2^N on one grid.

    Attributes
    ----------
    M : mode radius, the largest |m_i| in the disk.
    idx : int32 flat indices of the disk modes in the K x K array, in
        row-major order; the zero mode is excluded.
    partner : int32 position of the mode -m within the disk vector.
    src, conj : where each disk mode sits in a half square of the modes
        |m1| <= M, 0 <= m2 <= M stored as a (2M+1) x (M+1) array with row
        m1 + M and column m2. Modes with m2 < 0 read the conjugate of their
        partner there (``conj`` is True).
    """

    def __init__(self, grid: GridSpec, N: int) -> None:
        if 2.0**N > grid.nyquist_k * (1.0 + 1e-12):
            raise ValueError(f"2^{N} exceeds the Nyquist wavenumber {grid.nyquist_k:g}; truncation is meaningless")
        K = grid.K
        disk = grid.k2 <= 4.0**N * (1.0 + 1e-12)
        disk[0, 0] = False
        idx = np.flatnonzero(disk)
        m1 = grid.modes[idx // K]
        m2 = grid.modes[idx % K]
        M = int(max(np.abs(m1).max(), np.abs(m2).max())) if idx.size else 0
        conj = m2 < 0
        s1 = np.where(conj, -m1, m1)
        s2 = np.where(conj, -m2, m2)
        self.M = M
        self.idx = idx.astype(np.int32)
        self.partner = np.searchsorted(idx, ((-m1) % K) * K + (-m2) % K).astype(np.int32)
        self.src = ((s1 + M) * (M + 1) + s2).astype(np.int32)
        self.conj = conj
        self._kmag = grid.kmag.ravel()[idx]
        self._powers: dict[float, np.ndarray] = {}

    def radial_power(self, p: float) -> np.ndarray:
        """|k|^p on the disk (read-only, cached per exponent)."""
        p = float(p)
        w = self._powers.get(p)
        if w is None:
            w = self._kmag**p
            w.setflags(write=False)
            w = self._powers.setdefault(p, w)
        return w


def make_grid(K: int, L: float, dealias_fraction: float = 2.0 / 3.0) -> GridSpec:
    """Validate and build a GridSpec."""
    return GridSpec(K=K, L=L, dealias_fraction=dealias_fraction)
