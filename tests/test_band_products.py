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
import scipy.fft

from sqglab import (
    SpectralField,
    VelocityField,
    advect,
    apply_lax_milgram_operator,
    default_schedule,
    fractional_laplacian,
    make_grid,
    picard_theta1,
    pointwise_product,
    project_low,
    residual,
    theta2,
    velocity_from_theta,
)
from sqglab.field import (
    _advect_level,
    _close,
    _half_square,
    _next_fast_len,
    _quadratic,
    _resize,
    _samples,
    _velocity_radius,
)
from lattice_tables import Lattice, low_pass_mask

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


def ref_advect(v, theta, form):
    """v . grad(theta) in the advective form, or div(v theta) in the divergence form."""
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
        """advect matches the reference in either form and is exactly Hermitian."""
        _, theta, v = self.fields(K, L, n_theta, n_v)
        out = advect(v, theta).coeffs
        assert_matches(out, ref_advect(v, theta, form))
        assert_hermitian(out)

    def test_level_values_need_no_closing(self, K, L, n_theta, n_v):
        """On the half disk of every level, _advect_level's open half square holds the bits of the closed one;
        closing changes it only off the disk."""
        g, theta, v = self.fields(K, L, n_theta, n_v)
        radii = (_velocity_radius(v), theta.max_mode_index())
        changed = False
        for N in range(default_schedule(g)[0], g.dealias_level + 1):
            level = g.level(N)
            sq = _quadratic(g, v, theta.half, radii, level.M)
            closed = _close(g, sq.copy())
            assert _advect_level(v, theta, level).tobytes() == _resize(closed, level.M).ravel()[level.pos].tobytes()
            changed |= sq.tobytes() != closed.tobytes()
        assert changed

    def test_pointwise_product(self, K, L, n_theta, n_v):
        """u w matches the reference, including factors of different bands."""
        g, theta, v = self.fields(K, L, n_theta, n_v)
        for u, w in ((theta, theta), (theta, v.v1), (v.v2, theta)):
            out = pointwise_product(u, w).coeffs
            assert_matches(out, ref_product(u, w))
            assert_hermitian(out)

    def test_level_products(self, K, L, n_theta, n_v):
        """The truncated products of the solver match P_N of the reference in either form."""
        g, theta, v = self.fields(K, L, n_theta, n_v)
        mask = low_pass_mask(g, n_theta)
        tv = velocity_from_theta(theta)
        top = max(n_theta, 2)
        f = project_low(theta, 1)
        t1 = picard_theta1(theta, ALPHA)
        op = apply_lax_milgram_operator(v, theta, n_theta, ALPHA).coeffs
        r = residual(theta, f, ALPHA, project_N=top).r_field.coeffs
        t2 = theta2(theta, ALPHA, project_N=n_theta).coeffs
        for out in (op, r, t2):
            assert_hermitian(out)

        for form in ("advective", "divergence"):
            proj = np.where(mask, ref_advect(v, theta, form), 0.0)
            ref_op = theta.coeffs + fractional_laplacian(SpectralField(g, proj), -ALPHA).coeffs
            assert_matches(op, ref_op)

            ref_r = (
                fractional_laplacian(theta, ALPHA).coeffs
                + np.where(low_pass_mask(g, top), ref_advect(tv, theta, form), 0.0)
                - f.coeffs
            )
            assert_matches(r, ref_r)

            adv = np.where(mask, ref_advect(velocity_from_theta(t1), t1, form), 0.0)
            ref_t2 = t1.coeffs - fractional_laplacian(SpectralField(g, adv), -ALPHA).coeffs
            assert_matches(t2, ref_t2)


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


def test_velocity_samples_kept_per_size():
    """Repeated and interleaved sample sizes on one velocity give the bits of a fresh velocity."""
    g = make_grid(128, np.pi)
    rng = np.random.default_rng(5)
    w = ball_field(g, rng, 4)
    theta = ball_field(g, rng, 3)
    for v in (velocity_from_theta(w), VelocityField(velocity_from_theta(w).v1, velocity_from_theta(w).v2)):
        for r, P in ((16, 54), (16, 54), (10, 32), (16, 54), (16, 64), (10, 32)):
            kept = v._sampled(r, P)
            fresh = velocity_from_theta(w)._sampled(r, P)
            assert [a.tobytes() for a in kept] == [b.tobytes() for b in fresh]
            assert not any(a.flags.writeable for a in kept)
            assert v._sampled(r, P)[0] is kept[0]  # the last size asked for is the one kept
        same = VelocityField(v.v1, v.v2)
        assert same == v and hash(same) == hash(v)  # the kept samples are not part of the value
        for N in (3, 2, 3):
            low = project_low(theta, N)
            a = apply_lax_milgram_operator(v, low, N, ALPHA)
            b = apply_lax_milgram_operator(velocity_from_theta(w), low, N, ALPHA)
            assert a.half.tobytes() == b.half.tobytes()
            assert advect(v, theta).half.tobytes() == advect(velocity_from_theta(w), theta).half.tobytes()


def test_velocity_samples_shared_between_threads():
    """Threads racing on one velocity's samples, at interleaved sizes, all read the bits of a fresh velocity."""
    g = make_grid(256, np.pi)
    w = ball_field(g, np.random.default_rng(11), 5)
    v = velocity_from_theta(w)
    sizes = ((32, 100), (21, 64), (32, 100))
    want = {rp: [a.tobytes() for a in velocity_from_theta(w)._sampled(*rp)] for rp in sizes}
    barrier = threading.Barrier(8, timeout=10)

    def read(i):
        barrier.wait()
        order = sizes if i % 2 else sizes[::-1]
        return [(rp, [a.tobytes() for a in v._sampled(*rp)]) for rp in order * 3]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            results = list(ex.map(read, range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    for reads in results:
        for rp, got in reads:
            assert got == want[rp]


# -- the numpy transforms against the scipy calls they replace --------------------


def test_next_fast_len_is_scipys():
    """Transform sizes are scipy.fft.next_fast_len's: 5-smooth for real transforms, 11-smooth for complex."""
    for real in (True, False):
        assert [_next_fast_len(n, real) for n in range(1, 5001)] == [
            scipy.fft.next_fast_len(n, real=real) for n in range(1, 5001)
        ]


@pytest.mark.parametrize("P", [160, 324, 540, 648, 800])
def test_pruned_transforms_match_full_scipy(P):
    """The pruned inverse (_samples) and forward (_half_square) transforms give scipy's full irfft2 and
    rfft2 to 1e-14 of their largest value, at the product sizes of the carrier_torus solves and 540."""
    rng = np.random.default_rng(P)
    r = (P - 1) // 3  # a product's radii: P >= 3 r + 1
    M = r + 4  # the half square reaches past r; _samples cuts it
    sq = rng.standard_normal((2 * M + 1, M + 1)) + 1j * rng.standard_normal((2 * M + 1, M + 1))
    full = np.zeros((P, P // 2 + 1), dtype=np.complex128)
    full[: r + 1, : r + 1] = sq[M : M + r + 1, : r + 1]
    full[P - r :, : r + 1] = sq[M - r : M, : r + 1]
    ref = scipy.fft.irfft2(full, s=(P, P), norm="forward")
    assert np.max(np.abs(_samples(sq, r, P) - ref)) <= 1e-14 * np.max(np.abs(ref))

    x = rng.standard_normal((P, P))
    spec = scipy.fft.rfft2(x, norm="forward")
    ref = np.concatenate((spec[P - r :, : r + 1], spec[: r + 1, : r + 1]))
    assert np.max(np.abs(_half_square(x, r) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_stacked_passes_match_each_slice():
    """On a stack of four fields at the ineq-scan size P = 90, every numpy.fft pass of the product kernel, the
    kernel's two transforms and the norm's sum over the last two axes give each slice's 2-D result bit for bit,
    so a probe's stacked ratios are its one-draw ratios; a numpy change that breaks this fails here."""
    from sqglab.norms import _hs_norms

    rng = np.random.default_rng(24)
    P, r, mo = 90, 21, 42
    cols = rng.standard_normal((4, P, r + 1)) + 1j * rng.standard_normal((4, P, r + 1))
    x = rng.standard_normal((4, P, P))
    sq = rng.standard_normal((4, 2 * r + 3, r + 2)) + 1j * rng.standard_normal((4, 2 * r + 3, r + 2))
    weights = rng.standard_normal((4, 2 * mo + 1, mo + 1)) ** 2
    passes = [
        (lambda a: np.fft.ifft(a, axis=-2, norm="forward"), cols),
        (lambda a: np.fft.irfft(a, n=P, axis=-1, norm="forward"), cols),
        (lambda a: np.fft.rfft(a, norm="forward"), x),
        (lambda a: np.fft.fft(a[..., : mo + 1], axis=-2, norm="forward"), np.fft.rfft(x, norm="forward")),
        (lambda a: _samples(a, r, P), sq),
        (lambda a: _half_square(a, mo), x),
        (lambda a: _hs_norms(make_grid(128, np.pi), a, 0.6), sq),
    ]
    for fn, stack in passes:
        got = fn(stack)
        for j in range(4):
            assert got[j].tobytes() == fn(stack[j]).tobytes()
    sums = np.sum(weights, axis=(-2, -1))
    assert [sums[j].tobytes() for j in range(4)] == [np.sum(w).tobytes() for w in weights]
