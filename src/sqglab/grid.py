"""Spectral grid for the periodic square [-L, L)^2.

The wavenumber lattice is k = (pi/L) * m with integer mode indices
|m_i| <= K/2. Physical sample points are x_j = -L + 2L*j/K along each
axis. The tables of each half square (see
SquareTable) and of each truncation level are built on first use and kept
by the grid, so they live as long as it does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec", "LevelTable", "SquareTable", "make_grid"]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Resolution and half-period of a periodic grid.

    Parameters
    ----------
    K : int
        Points per dimension; power of two, at least 16.
    L : float
        Half-period; the domain is [-L, L)^2.
    """

    K: int
    L: float

    _levels: dict = field(init=False, repr=False, compare=False)
    _squares: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int, np.integer)) or not _is_power_of_two(int(self.K)) or self.K < 16:
            raise ValueError(f"K must be a power of two >= 16, got {self.K}")
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        k = float(self.nyquist_k)
        if not math.isfinite(2.0 * k * k):
            raise ValueError(f"K={self.K}, L={self.L:g}: the largest lattice |k|^2 is past the float range")
        object.__setattr__(self, "_levels", {})
        object.__setattr__(self, "_squares", {})

    @property
    def dealias_index(self) -> int:
        """M_d = K // 3 = floor((2/3) K/2), the 2/3 rule for quadratic products."""
        return self.K // 3

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

    @property
    def dealias_level(self) -> int:
        """Largest N whose truncation P_N lies in the dealias band, 2^N <= dealias_k."""
        return math.floor(math.log2(self.dealias_k * (1.0 + 1e-12)))

    def level(self, N: int) -> "LevelTable":
        """Table of the truncation level |k| <= 2^N, built once per grid."""
        N = int(N)
        table = self._levels.get(N)
        if table is None:
            table = self._levels.setdefault(N, LevelTable(self, N))
        return table

    def square(self, M: int) -> "SquareTable":
        """Table of the half square of mode radius M, built once per grid."""
        M = int(M)
        table = self._squares.get(M)
        if table is None:
            table = self._squares.setdefault(M, SquareTable(self, M))
        return table


class SquareTable:
    """Wavenumbers of the half square |m1| <= M, 0 <= m2 <= M of one grid.

    A real field of mode radius M is stored as its modes with m2 >= 0, a
    (2M+1) x (M+1) array with row m1 + M and column m2; a mode with m2 < 0
    is the conjugate of its partner -m. At M = K/2 row -K/2 holds the
    lattice row K/2, and row +K/2, which aliases it, stays zero.

    kx, ky : row and column wavenumbers for odd multipliers (derivatives);
        0 on a Nyquist line, where the sine part of a real field vanishes.
    k2, kmag : |k|^2 and |k|.
    weight : lattice modes a stored mode stands for: 2 where its partner is
        not stored, 1 on the self-conjugate columns m2 = 0 and m2 = K/2.
    """

    def __init__(self, grid: GridSpec, M: int) -> None:
        n = grid.K // 2
        if not 0 <= M <= n:
            raise ValueError(f"mode radius {M} outside the lattice for K={grid.K}")
        m = np.arange(-M, M + 1)
        k = grid.dk * m
        self.M = M
        self.kx = np.where(np.abs(m) == n, 0.0, k)
        self.ky = self.kx[M:]
        self.k2 = k[:, None] ** 2 + k[None, M:] ** 2
        self.kmag = np.sqrt(self.k2)
        self.weight = np.full(self.k2.shape, 2.0)
        self.weight[:, [0, M] if M == n else 0] = 1.0
        self._powers: dict[float, np.ndarray] = {}

    def radial_power(self, p: float) -> np.ndarray:
        """|k|^p with the zero mode mapped to 0 (read-only, kept for up to 32 exponents)."""
        p = float(p)
        w = self._powers.get(p)
        if w is None:
            with np.errstate(divide="ignore"):
                w = self.kmag**p
            w[self.M, 0] = 0.0
            w.setflags(write=False)
            if len(self._powers) < 32:
                w = self._powers.setdefault(p, w)
        return w


class LevelTable:
    """The lattice disk 0 < |k| <= 2^N of one grid, on its half square.

    bound : the disk's cutoff on |k|^2, 4^N with a relative slack of 1e-12.
    M : mode radius, the largest |m_i| in the disk.
    off : flat positions of the entries of the half square off the disk.
    pos : flat positions of the half disk, m2 > 0 or m2 = 0 < m1: one mode
        of each conjugate pair, whose values give a real field on the disk
        (below the Nyquist wavenumber, where no mode is its own partner).
    """

    def __init__(self, grid: GridSpec, N: int) -> None:
        if 2.0**N > grid.nyquist_k * (1.0 + 1e-12):
            raise ValueError(f"2^{N} exceeds the Nyquist wavenumber {grid.nyquist_k:g}; truncation is meaningless")
        self.bound = bound = 4.0**N * (1.0 + 1e-12)
        m = np.arange(grid.K // 2 + 1)
        M = int(m[(grid.dk * m) ** 2 <= bound].max())
        self.M = M
        self.square = grid.square(M)
        inside = self.square.k2 <= bound
        inside[M, 0] = False
        inside[2 * M] &= M < grid.K // 2  # row +K/2 aliases row -K/2
        self.off = np.flatnonzero(~inside)
        inside[:M, 0] = False
        self.pos = np.flatnonzero(inside)

    def radial_power(self, p: float) -> np.ndarray:
        """|k|^p on the half disk."""
        return self.square.radial_power(p).ravel()[self.pos]


def make_grid(K: int, L: float) -> GridSpec:
    """Validate and build a GridSpec."""
    return GridSpec(K=K, L=L)
