"""K x K lattice tables of a grid, in FFT order, and the other oracles the tests share.

The library keeps only half-square and level tables (GridSpec.square and
GridSpec.level). Tests that check it against references on the whole K x K
lattice read the wavenumber arrays from here; the physical sample axis, the
radial low-pass mask, translations, the Cauchy tail constant of a solve
report and the untruncated Picard iterates live here too, since no run needs
them.
"""
import numpy as np

from sqglab import advect, fractional_laplacian, picard_theta1, velocity_from_theta
from sqglab.field import _new


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


def x_axis(grid):
    """Physical sample coordinates -L + 2L*j/K, j = 0..K-1."""
    return -grid.L + 2.0 * grid.L * np.arange(grid.K) / grid.K


def low_pass_mask(grid, N):
    """Sharp radial cutoff |k| <= 2^N (boundary modes included), K x K in FFT order."""
    k = grid.dk * np.fft.fftfreq(grid.K, 1.0 / grid.K)
    return k[:, None] ** 2 + k**2 <= grid.level(N).bound  # the level refuses cutoffs past the Nyquist wavenumber


def translate(u, shift):
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


def cauchy_constant(report, factor=0.75):
    """Smallest C with diff_{j+1} <= factor*diff_j + C*2^{-alpha*n_j/2} along the report."""
    c = 0.0
    a = report.alpha
    for prev, cur in zip(report.steps, report.steps[1:]):
        tail = 2.0 ** (-a * prev.n / 2.0)
        c = max(c, (cur.diff_h_alpha - factor * prev.diff_h_alpha) / tail)
    return c


def bilinear_B(a, b, alpha):
    """The torus B[a,b] = (-Delta)^{-alpha}[ v(theta_1[a]) . grad(theta_1[b]) ], untruncated: the oracle of the
    patch B (counterexample.patch_bilinear_B)."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    v = velocity_from_theta(picard_theta1(a, alpha))
    return fractional_laplacian(advect(v, picard_theta1(b, alpha)), -alpha)


def theta2_full(a, alpha):
    """The untruncated second Picard iterate theta_1[a] - B[a,a]."""
    return picard_theta1(a, alpha) - bilinear_B(a, a, alpha)
