"""K x K lattice tables of a grid, in FFT order, for the full-lattice oracles.

The library keeps only half-square and level tables (GridSpec.square and
GridSpec.level). Tests that check it against references on the whole K x K
lattice read the wavenumber arrays from here.
"""
import numpy as np


class Lattice:
    """modes: integer mode indices in FFT order; kx, ky, k2 = |k|^2 and kmag = |k|
    on the K x K lattice; dealias_mask: max(|m1|, |m2|) <= the dealias index."""

    def __init__(self, grid):
        K = grid.K
        self.K = K
        self.modes = np.fft.fftfreq(K, d=1.0 / K).astype(np.int64)  # 0, 1, ..., K/2-1, -K/2, ..., -1
        k = grid.dk * self.modes
        self.kx = k[:, None] * np.ones((1, K))
        self.ky = np.ones((K, 1)) * k[None, :]
        self.k2 = self.kx**2 + self.ky**2
        self.kmag = np.sqrt(self.k2)
        self.dealias_mask = np.maximum.outer(np.abs(self.modes), np.abs(self.modes)) <= grid.dealias_index

    def zeros(self):
        """A fresh K x K complex coefficient array."""
        return np.zeros((self.K, self.K), dtype=np.complex128)
