"""Band-sized quadratic products against a full-lattice complex reference.

The reference below is the direct pseudospectral product: full K x K
complex inverse transforms of the factors, the product on the K x K grid,
a full forward transform and the square dealias mask. With every factor
inside the dealias band it is an exact truncated convolution, so the band
kernel must reproduce it to rounding while using smaller real transforms.
"""
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sqglab import (
    SpectralField,
    advect,
    apply_lax_milgram_operator,
    fractional_laplacian,
    low_pass_mask,
    make_grid,
    picard_theta1,
    pointwise_product,
    project_low,
    residual,
    theta2,
    velocity_from_theta,
)
from lattice_tables import Lattice

ALPHA = 0.4

# (K, L, level of the scalar, level of the velocity's source). L = 1.25 pi
# puts (3, 4), (4, 3) and (5, 0) on the circle |k| = 2^2; the other grids
# have axis modes on their circles. In the last case the velocity reaches
# far past the scalar's band, so its radius must be cut before the solver's
# level products are sized.
CASES = [
    (16, np.pi, 2, 2),
    (32, np.pi, 3, 2),
    (32, 1.25 * np.pi, 2, 2),
    (128, 2.0 * np.pi, 3, 4),
    (128, 4.0 * np.pi, 3, 1),
    (128, np.pi, 5, 5),
    (128, np.pi, 2, 5),
]


def flip(c):
    """conj(c(-m)) in FFT index order."""
    idx = (-np.arange(c.shape[0])) % c.shape[0]
    return np.conj(c[np.ix_(idx, idx)])


def ref_dealiased(grid, c):
    return np.where(Lattice(grid).dealias_mask, c, 0.0)


def ref_physical(c):
    return np.fft.ifft2(c).real * c.shape[0] ** 2


def ref_spectral(x):
    return np.fft.fft2(x) / x.shape[0] ** 2


def ref_advect(v, theta, form="advective"):
    g = theta.grid
    lat = Lattice(g)
    v1, v2 = ref_physical(v.v1.coeffs), ref_physical(v.v2.coeffs)
    if form == "advective":
        t1 = ref_physical(1j * lat.kx * theta.coeffs)
        t2 = ref_physical(1j * lat.ky * theta.coeffs)
        out = ref_spectral(v1 * t1 + v2 * t2)
    else:
        t = ref_physical(theta.coeffs)
        out = 1j * lat.kx * ref_spectral(v1 * t) + 1j * lat.ky * ref_spectral(v2 * t)
    out = ref_dealiased(g, out)
    out[0, 0] = 0.0
    return out


def ref_product(u, w):
    out = ref_dealiased(u.grid, ref_spectral(ref_physical(u.coeffs) * ref_physical(w.coeffs)))
    out[0, 0] = 0.0
    return out


def ball_field(grid, rng, N):
    """Random real field on the lattice ball 0 < |k| <= 2^N, boundary circle included."""
    mask = low_pass_mask(grid, N).copy()
    mask[0, 0] = False
    c = np.where(mask, rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape), 0.0)
    return SpectralField(grid, 0.5 * (c + flip(c)))


def circle_modes(grid, N):
    """Mode index pairs on the circle |k| = 2^N."""
    on = np.isclose(Lattice(grid).k2, 4.0**N, rtol=1e-12)
    return np.argwhere(on)


def assert_hermitian(c):
    assert np.array_equal(c, flip(c))
    assert c[0, 0] == 0.0


def assert_matches(out, ref):
    scale = np.max(np.abs(ref))
    assert scale > 0
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("K, L, n_theta, n_v", CASES)
class TestAgainstFullLattice:
    def fields(self, K, L, n_theta, n_v):
        g = make_grid(K, L)
        assert 2.0 ** max(n_theta, n_v) <= g.dealias_k
        rng = np.random.default_rng(K + n_theta + 10 * n_v)
        theta = ball_field(g, rng, n_theta)
        v = velocity_from_theta(ball_field(g, rng, n_v))
        rows = circle_modes(g, n_theta)
        assert rows.size and np.all(np.abs(theta.coeffs[rows[:, 0], rows[:, 1]]) > 0)
        return g, theta, v

    @pytest.mark.parametrize("form", ["advective", "divergence"])
    def test_advect(self, K, L, n_theta, n_v, form):
        """Both forms match the reference and are exactly Hermitian."""
        _, theta, v = self.fields(K, L, n_theta, n_v)
        out = advect(v, theta, form=form).coeffs
        assert_matches(out, ref_advect(v, theta, form))
        assert_hermitian(out)

    def test_pointwise_product(self, K, L, n_theta, n_v):
        """u w matches the reference, including factors of different bands."""
        g, theta, v = self.fields(K, L, n_theta, n_v)
        for u, w in ((theta, theta), (theta, v.v1), (v.v2, theta)):
            out = pointwise_product(u, w).coeffs
            assert_matches(out, ref_product(u, w))
            assert_hermitian(out)

    def test_level_products(self, K, L, n_theta, n_v):
        """The truncated products of the solver match P_N of the reference."""
        g, theta, v = self.fields(K, L, n_theta, n_v)
        mask = low_pass_mask(g, n_theta)
        proj = np.where(mask, ref_advect(v, theta), 0.0)

        op = apply_lax_milgram_operator(v, theta, n_theta, ALPHA).coeffs
        ref_op = theta.coeffs + fractional_laplacian(SpectralField(g, proj), -ALPHA).coeffs
        assert_matches(op, ref_op)
        assert_hermitian(op)

        tv = velocity_from_theta(theta)
        top = max(n_theta, 2)
        f = project_low(theta, 1)
        r = residual(theta, f, ALPHA, project_N=top).r_field.coeffs
        ref_r = (
            fractional_laplacian(theta, ALPHA).coeffs
            + np.where(low_pass_mask(g, top), ref_advect(tv, theta), 0.0)
            - f.coeffs
        )
        assert_matches(r, ref_r)
        assert_hermitian(r)

        t2 = theta2(theta, ALPHA, project_N=n_theta).coeffs
        t1 = picard_theta1(theta, ALPHA)
        adv = np.where(mask, ref_advect(velocity_from_theta(t1), t1), 0.0)
        ref_t2 = t1.coeffs - fractional_laplacian(SpectralField(g, adv), -ALPHA).coeffs
        assert_matches(t2, ref_t2)
        assert_hermitian(t2)


def test_zero_factor():
    """A vanishing factor gives the zero field without a transform."""
    g = make_grid(32, np.pi)
    theta = ball_field(g, np.random.default_rng(3), 2)
    zero = SpectralField(g, Lattice(g).zeros())
    assert not np.any(pointwise_product(theta, zero).coeffs)
    assert not np.any(advect(velocity_from_theta(zero), theta).coeffs)


def test_level_tables_shared_between_threads():
    """Threads racing on a new level, half square or |k|^p all receive the one table the grid keeps."""
    g = make_grid(256, np.pi)
    barrier = threading.Barrier(8, timeout=10)

    def build(_):
        barrier.wait()
        levels = [g.level(n) for n in (4, 5, 6)]
        squares = [g.square(m) for m in (21, 42, 85)]
        return levels + squares + [squares[1].radial_power(-0.8)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(build, range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    for tables in results:
        assert [t is s for t, s in zip(tables, results[0])] == [True] * 7
    assert results[0][0] is g.level(4)
    assert results[0][3] is g.square(21)
