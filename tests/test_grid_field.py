"""Tests for the grid and spectral field layer."""
import numpy as np
import pytest

from sqglab import (
    SpectralField,
    advect,
    dealias,
    field_from_modes,
    field_from_physical,
    fractional_laplacian,
    heat_smooth,
    hs_norm,
    l2_inner,
    make_grid,
    pointwise_product,
    project_low,
    rescale,
    to_physical,
    velocity_from_theta,
)
from sqglab.field import _close
from lattice_tables import Lattice, low_pass_mask, translate, x_axis

ALPHA = 0.4


def sine_x1(grid, amp=1.0):
    """amp * sin(x1) as a spectral field."""
    return field_from_modes(grid, {(1, 0): -0.5j * amp})


def meshgrid(grid):
    x = x_axis(grid)
    return np.meshgrid(x, x, indexing="ij")


class TestGridSpec:
    """Grid construction, derived indices, and rejection of bad input."""

    def test_dealias_index_small(self):
        """K=16 with the 2/3 rule keeps modes up to 5."""
        g = make_grid(16, np.pi)
        assert g.dealias_index == 5

    def test_dealias_index_large(self):
        """K=256 with the 2/3 rule keeps modes up to 85."""
        g = make_grid(256, np.pi)
        assert g.dealias_index == 85

    def test_dealias_level(self):
        """dealias_level is the largest N with 2^N <= dealias_k, boundary included, below the Nyquist line."""
        for K, L in ((16, np.pi), (64, np.pi), (256, np.pi / 3.0), (64, 16 * np.pi), (1024, 16 * np.pi)):
            g = make_grid(K, L)
            N = g.dealias_level
            assert 2.0**N <= g.dealias_k * (1 + 1e-12) < 2.0 ** (N + 1), (K, L)
        assert make_grid(64, 21.0 * np.pi / 16.0).dealias_level == 4  # dealias_k = 16 exactly
        # one ulp longer: dealias_k = 16 - 4e-15, inside the rounding slack
        assert make_grid(64, np.nextafter(21.0 * np.pi / 16.0, np.inf)).dealias_level == 4

    def test_odd_resolution_rejected(self):
        """Resolutions that are not powers of two are refused."""
        with pytest.raises(ValueError):
            make_grid(15, np.pi)

    def test_tiny_resolution_rejected(self):
        """K below 16 is refused."""
        with pytest.raises(ValueError):
            make_grid(8, np.pi)

    def test_nonpositive_period_rejected(self):
        """L must be positive."""
        with pytest.raises(ValueError):
            make_grid(16, 0.0)

    def test_overflowing_lattice_rejected(self):
        """A half-period so small that the largest |k|^2 overflows is refused with K and L named."""
        with pytest.raises(ValueError, match=r"K=16, L=1e-300"):
            make_grid(16, 1e-300)
        assert make_grid(16, 1e-12).dealias_index == 5

    def test_x_axis_layout(self):
        """Sample points are x_j = -L + 2L*j/K."""
        g = make_grid(16, 2.0)
        x = x_axis(g)
        assert x[0] == -2.0
        np.testing.assert_allclose(np.diff(x), 4.0 / 16)
        assert x[-1] < 2.0

    def test_wavenumber_spacing(self):
        """Lattice spacing is pi/L and dealias_k = M_d * pi/L."""
        g = make_grid(64, 16 * np.pi)
        np.testing.assert_allclose(g.dk, 1.0 / 16.0)
        np.testing.assert_allclose(g.dealias_k, g.dealias_index / 16.0)


class TestFieldConstruction:
    """Hermitian symmetry, zero mean, and the physical round trip."""

    def test_modes_fill_conjugates(self):
        """field_from_modes mirrors each entry to its conjugate mode."""
        g = make_grid(16, np.pi)
        u = field_from_modes(g, {(2, 1): 0.3 + 0.1j})
        assert u.mode(-2, -1) == pytest.approx(0.3 - 0.1j)

    def test_nonhermitian_rejected(self):
        """Raw coefficient arrays must be Hermitian-symmetric."""
        g = make_grid(16, np.pi)
        c = Lattice(g).zeros()
        c[1, 0] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            SpectralField(g, c)

    def test_nonzero_mean_rejected(self):
        """A nonzero zero mode is refused."""
        g = make_grid(16, np.pi)
        c = Lattice(g).zeros()
        c[0, 0] = 1.0
        with pytest.raises(ValueError):
            SpectralField(g, c)

    def test_near_hermitian_input_made_exact(self):
        """Data Hermitian to rounding are stored as an exactly Hermitian field.

        The m1 < 0 half of each self-conjugate column follows from the m1 > 0
        half, and a self-conjugate mode keeps its real part.
        """
        g = make_grid(16, np.pi)
        c = Lattice(g).zeros()
        c[1, 0], c[-1, 0] = 0.3 + 0.2j, 0.3 - 0.2j + 1e-15
        c[3, 8], c[-3, 8] = 0.1j, -0.1j * (1 + 1e-14)
        c[8, 0] = 0.5 + 1e-15j
        u = SpectralField(g, c)
        idx = (-np.arange(16)) % 16
        assert np.array_equal(u.coeffs, np.conj(u.coeffs[np.ix_(idx, idx)]))
        np.testing.assert_allclose(u.coeffs, c, rtol=0, atol=1e-14)
        assert u.mode(-1, 0) == 0.3 - 0.2j
        assert u.mode(8, 0) == 0.5

    @pytest.mark.parametrize("K", [16, 32])
    def test_mode_reads_coeffs(self, K):
        """mode() equals coeffs bit for bit on every mode, Nyquist lines included, without building coeffs."""
        g = make_grid(K, np.pi)
        samples = np.random.default_rng(K).standard_normal((K, K))
        u = field_from_physical(g, samples - samples.mean())
        fields = (u, -dealias(u), velocity_from_theta(dealias(u)).v1, field_from_modes(g, {(2, -1): 0.5j}))
        for f in fields:
            got = np.array([[f.mode(m1, m2) for m2 in range(K)] for m1 in range(K)])
            assert "coeffs" not in f.__dict__
            assert got.tobytes() == f.coeffs.tobytes()

    def test_physical_round_trip(self):
        """field_from_physical inverts to_physical to near machine precision."""
        g = make_grid(64, np.pi)
        X, Y = meshgrid(g)
        samples = np.sin(X) + 0.3 * np.cos(2 * Y) + 0.1 * np.sin(X + 3 * Y)
        u = field_from_physical(g, samples)
        np.testing.assert_allclose(to_physical(u), samples, atol=1e-13)

    def test_physical_mean_rejected(self):
        """Samples with a mean must be centered by the caller."""
        g = make_grid(16, np.pi)
        with pytest.raises(ValueError, match="mean"):
            field_from_physical(g, np.ones((16, 16)))

    def test_physical_mean_rejected_at_every_amplitude(self):
        """The mean check is relative, as the constructor's is: samples a(1 + cos x) are refused at a = 1, 1e-6
        and 1e-13, and zero-mean samples are taken at amplitudes down to 1e-200."""
        g = make_grid(32, np.pi)
        X, Y = meshgrid(g)
        for a in (1.0, 1e-6, 1e-13):
            with pytest.raises(ValueError, match="nonzero mean"):
                field_from_physical(g, a * (1.0 + np.cos(X)))
        for a in (1e-2, 1e-13, 1e-200):
            u = field_from_physical(g, a * (np.cos(X) + 0.3 * np.sin(2 * Y)))
            assert u.mode(1, 0) == pytest.approx(0.5 * a, rel=1e-12, abs=0)

    def test_parseval(self):
        """(2L)^2 sum |u_k|^2 equals the physical L^2 integral."""
        g = make_grid(64, np.pi)
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((64, 64))
        samples -= samples.mean()
        u = field_from_physical(g, samples)
        spectral = hs_norm(u, 0.0) ** 2
        cell = (2 * g.L / g.K) ** 2
        physical = float(np.sum(to_physical(u) ** 2)) * cell
        np.testing.assert_allclose(spectral, physical, rtol=1e-12)

    def test_scalar_algebra(self):
        """Addition and real scaling act coefficient-wise."""
        g = make_grid(16, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j})
        w = field_from_modes(g, {(0, 2): 0.25})
        both = u + 2.0 * w
        assert both.mode(1, 0) == pytest.approx(-0.5j)
        assert both.mode(0, 2) == pytest.approx(0.5)
        assert (u - u).max_mode_index() == 0

    def test_grid_mismatch_rejected(self):
        """Arithmetic across different grids is refused."""
        u = sine_x1(make_grid(16, np.pi))
        w = sine_x1(make_grid(32, np.pi))
        with pytest.raises(ValueError):
            _ = u + w


def close_oracle(grid, sq):
    """_close as it was written before its lean form: the m2 = 0 partners through np.where and the real part
    of every self-conjugate mode, the zero mode included, taken on every layout."""
    M = sq.shape[-1] - 1
    nyquist = M == grid.K // 2
    top = M - nyquist
    for j in (0, M) if nyquist else (0,):
        want, neg = np.conj(sq[..., M + top : M : -1, j]), sq[..., M - top : M, j]
        sq[..., M - top : M, j] = np.where(neg == want, neg, want)
        rows = [0, M] if nyquist else [M]
        own = sq[..., rows, j]
        sq[..., rows, j] = np.where(own.imag == 0, own, own.real)
    sq[..., M, 0] = 0.0
    return sq


class TestClose:
    """_close against the formula it replaced, bit for bit."""

    GRID = make_grid(16, np.pi)

    @staticmethod
    def stack(rng, shape, M):
        return rng.standard_normal((*shape, 2 * M + 1, M + 1)) + 1j * rng.standard_normal((*shape, 2 * M + 1, M + 1))

    def assert_same_bits(self, sq):
        want = close_oracle(self.GRID, sq.copy())
        got = sq.copy()
        assert _close(self.GRID, got) is got
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [0, 1, 3, 5, 7, 8])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_random_stacks(self, M, shape):
        """Random half squares, alone and in stacks, below and at the Nyquist radius M = K/2 = 8."""
        self.assert_same_bits(self.stack(np.random.default_rng(10 * M + len(shape)), shape, M))

    @pytest.mark.parametrize("M", [5, 8])
    def test_signed_zeros_and_nans(self, M):
        """Signed zeros and NaNs on column 0 (and on column K/2 at the Nyquist radius), on either side of
        each pair and on the self-conjugate modes, close as the oracle closes them."""
        rng = np.random.default_rng(M)
        specials = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), np.nan, complex(1.0, np.nan),
                             complex(np.nan, -0.0), 2.0, complex(2.0, -0.0), 0.5j])
        sq = self.stack(rng, (4,), M)
        for j in (0, M) if M == 8 else (0,):
            sq[..., j] = rng.choice(specials, size=sq[..., j].shape)
        self.assert_same_bits(sq)

    @pytest.mark.parametrize("M", [4, 8])
    def test_hermitian_input_keeps_its_bytes(self, M):
        """A closed half square, and one whose partners differ from the conjugates only in the sign of a
        zero, are left byte for byte as they are."""
        closed = close_oracle(self.GRID, self.stack(np.random.default_rng(M), (2,), M))
        signed = closed.copy()
        signed[..., M + 1, 0] = signed[..., M + 1, 0].real  # an imaginary +0, whose conjugate is -0
        signed[..., M - 1, 0] = signed[..., M + 1, 0]  # its partner, stored with +0
        for hermitian in (closed, signed):
            got = hermitian.copy()
            _close(self.GRID, got)
            assert got.tobytes() == hermitian.tobytes()
            self.assert_same_bits(hermitian)


class TestFractionalLaplacian:
    """Spectral multiplier |k|^{2s}."""

    def test_unit_mode_any_power(self):
        """|k|=1 modes are fixed points for every exponent."""
        g = make_grid(32, np.pi)
        u = sine_x1(g)
        for s in (ALPHA, -0.3, 1.0):
            out = fractional_laplacian(u, s)
            np.testing.assert_allclose(out.coeffs, u.coeffs, atol=1e-15)

    def test_half_power_doubles(self):
        """(-Delta)^{1/2} sin(2 x1) = 2 sin(2 x1)."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(2, 0): -0.5j})
        out = fractional_laplacian(u, 0.5)
        np.testing.assert_allclose(out.coeffs, 2.0 * u.coeffs, atol=1e-15)

    def test_inverse_half_power(self):
        """(-Delta)^{-1/2}(cos x1 + cos 2x2) = cos x1 + cos(2x2)/2."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): 0.5, (0, 2): 0.5})
        out = fractional_laplacian(u, -0.5)
        expected = field_from_modes(g, {(1, 0): 0.5, (0, 2): 0.25})
        np.testing.assert_allclose(out.coeffs, expected.coeffs, atol=1e-15)

    def test_composition_is_exact(self):
        """Applying s then t equals applying s+t with no drift."""
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((32, 32))
        samples -= samples.mean()
        u = field_from_physical(g, samples)
        ab = fractional_laplacian(fractional_laplacian(u, 0.7), -0.2)
        direct = fractional_laplacian(u, 0.5)
        np.testing.assert_allclose(ab.coeffs, direct.coeffs, rtol=1e-13)

    def test_norm_shift_identity(self):
        """hs_norm(( -Delta)^t u, s) = hs_norm(u, s + 2t)."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (3, 2): 0.2j, (0, 1): 0.1})
        for s, t in ((0.0, ALPHA), (-ALPHA, 0.5), (1.2, -0.3)):
            left = hs_norm(fractional_laplacian(u, t), s)
            right = hs_norm(u, s + 2 * t)
            np.testing.assert_allclose(left, right, rtol=1e-13)


class TestVelocity:
    """Riesz-transform velocity v = perp-grad (-Delta)^{-1/2} theta."""

    def test_sine_stream(self):
        """theta = sin(x1) gives v = (0, -cos(x1))."""
        g = make_grid(32, np.pi)
        v = velocity_from_theta(sine_x1(g))
        X, _ = meshgrid(g)
        np.testing.assert_allclose(to_physical(v.v1), 0.0, atol=1e-14)
        np.testing.assert_allclose(to_physical(v.v2), -np.cos(X), atol=1e-13)

    def test_cosine_stream(self):
        """theta = cos(x2) gives v = (-sin(x2), 0)."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(0, 1): 0.5})
        v = velocity_from_theta(theta)
        _, Y = meshgrid(g)
        np.testing.assert_allclose(to_physical(v.v1), -np.sin(Y), atol=1e-13)
        np.testing.assert_allclose(to_physical(v.v2), 0.0, atol=1e-14)

    def test_divergence_free(self):
        """ikx*v1 + iky*v2 vanishes identically."""
        g = make_grid(64, np.pi)
        rng = np.random.default_rng(11)
        samples = rng.standard_normal((64, 64))
        samples -= samples.mean()
        v = velocity_from_theta(dealias(field_from_physical(g, samples)))
        lat = Lattice(g)
        div = 1j * lat.kx * v.v1.coeffs + 1j * lat.ky * v.v2.coeffs
        scale = max(np.max(np.abs(v.v1.coeffs)), np.max(np.abs(v.v2.coeffs)))
        assert np.max(np.abs(div)) <= 1e-13 * scale

    def test_component_isometry(self):
        """|v1|^2 + |v2|^2 carries the same Sobolev weight as theta."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j, (2, 3): 0.1j, (0, 2): 0.3})
        v = velocity_from_theta(theta)
        for s in (0.0, ALPHA, 2 - 2 * ALPHA):
            combined = np.hypot(hs_norm(v.v1, s), hs_norm(v.v2, s))
            np.testing.assert_allclose(combined, hs_norm(theta, s), rtol=1e-12)


class TestProjection:
    """Dyadic low-pass projector P_N."""

    def test_drops_high_mode(self):
        """P_1 keeps |k| <= 2 and removes sin(3 x1)."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (3, 0): -0.5j})
        out = project_low(u, 1)
        np.testing.assert_allclose(out.coeffs, sine_x1(g).coeffs, atol=1e-15)

    def test_wide_cutoff_is_identity(self):
        """A cutoff at the dealias band leaves dealiased fields unchanged."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (3, 0): -0.5j})
        big_n = int(np.ceil(np.log2(g.dealias_k)))
        out = project_low(u, big_n)
        np.testing.assert_allclose(out.coeffs, u.coeffs, atol=1e-15)

    def test_idempotent(self):
        """P_N P_N = P_N."""
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((32, 32))
        samples -= samples.mean()
        u = field_from_physical(g, samples)
        once = project_low(u, 2)
        twice = project_low(once, 2)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, atol=1e-16)

    def test_self_adjoint_and_contractive(self):
        """<P u, w> = <u, P w> and the L^2 norm never grows."""
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        u = field_from_physical(g, a - a.mean())
        w = field_from_physical(g, b - b.mean())
        left = l2_inner(project_low(u, 2), w)
        right = l2_inner(u, project_low(w, 2))
        np.testing.assert_allclose(left, right, rtol=1e-12)
        assert hs_norm(project_low(u, 2), 0.0) <= hs_norm(u, 0.0) * (1 + 1e-14)

    def test_mask_counts_ball_modes(self):
        """low_pass_mask keeps exactly the lattice ball |k| <= 2^N."""
        g = make_grid(32, np.pi)
        mask = low_pass_mask(g, 2)
        expected = Lattice(g).k2 <= 16.0 * (1 + 1e-12)
        assert np.array_equal(mask, expected)


class TestAdvection:
    """Dealiased pseudospectral transport term."""

    def test_single_mode_self_transport_vanishes(self):
        """v(theta) . grad theta = 0 for a single plane-wave pair."""
        g = make_grid(32, np.pi)
        theta = sine_x1(g)
        out = advect(velocity_from_theta(theta), theta)
        assert np.max(np.abs(out.coeffs)) <= 1e-15

    def test_cross_mode_product(self):
        """v from cos(x1) transports cos(x2) to -sin(x1) sin(x2)."""
        g = make_grid(32, np.pi)
        v = velocity_from_theta(field_from_modes(g, {(1, 0): 0.5}))
        theta2 = field_from_modes(g, {(0, 1): 0.5})
        out = advect(v, theta2)
        X, Y = meshgrid(g)
        np.testing.assert_allclose(to_physical(out), -np.sin(X) * np.sin(Y), atol=1e-13)

    def test_energy_pairing_vanishes(self):
        """<v . grad theta, theta> = 0 for band-limited fields."""
        g = make_grid(64, np.pi)
        rng = np.random.default_rng(17)
        modes = Lattice(g).modes
        band = (np.abs(modes)[:, None] <= g.K // 4) & (np.abs(modes)[None, :] <= g.K // 4)
        c = np.where(band, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)), 0.0)
        c = 0.5 * (c + np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1))))
        c[0, 0] = 0.0
        theta = dealias(SpectralField(g, c))
        v = velocity_from_theta(theta)
        pairing = abs(l2_inner(advect(v, theta), theta))
        scale = hs_norm(theta, 0.0) ** 2 * hs_norm(theta, 0.0) / (2 * g.L)
        assert pairing <= 1e-10 * scale

    def test_requires_dealiased_inputs(self):
        """Aliased inputs are refused with a pointer to dealias()."""
        g = make_grid(32, np.pi)
        c = Lattice(g).zeros()
        m = g.K // 2 - 1
        c[m, 0] = 1.0
        c[-m % g.K, 0] = 1.0
        hot = SpectralField(g, c)
        v = velocity_from_theta(sine_x1(g))
        with pytest.raises(ValueError, match="dealias"):
            advect(v, hot)

    def test_in_band_field_accepted(self):
        """Coefficients inside the dealias band make a dealiased field without dealias()."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(2, 1): 0.5 - 0.25j, (1, -2): 0.3})
        raw = SpectralField(g, u.coeffs)
        assert raw.max_mode_index() == 2
        cut = dealias(raw)
        np.testing.assert_array_equal(
            advect(velocity_from_theta(raw), raw).coeffs, advect(velocity_from_theta(cut), cut).coeffs
        )
        np.testing.assert_array_equal(pointwise_product(raw, raw).coeffs, pointwise_product(cut, cut).coeffs)


class TestHeatSmooth:
    """Gaussian mollifier exp(eps^2 Delta)."""

    def test_unit_width_single_mode(self):
        """eps=1 damps sin(x1) by exactly e^{-1}."""
        g = make_grid(32, np.pi)
        u = sine_x1(g)
        out = heat_smooth(u, 1.0)
        np.testing.assert_allclose(out.coeffs, np.exp(-1.0) * u.coeffs, rtol=1e-15)

    def test_zero_width_is_identity(self):
        """eps=0 changes nothing."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (4, 2): 0.3})
        out = heat_smooth(u, 0.0)
        np.testing.assert_allclose(out.coeffs, u.coeffs, atol=0.0)

    def test_monotone_in_width(self):
        """Wider mollification never increases any Sobolev norm."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (3, 1): 0.2j, (0, 2): 0.4})
        widths = (0.0, 0.1, 0.3, 1.0, 2.0)
        for s in (0.0, ALPHA, 2 - 2 * ALPHA):
            norms = [hs_norm(heat_smooth(u, e), s) for e in widths]
            assert all(b <= a * (1 + 1e-14) for a, b in zip(norms, norms[1:]))

    def test_negative_width_rejected(self):
        """Negative widths are refused."""
        g = make_grid(32, np.pi)
        with pytest.raises(ValueError):
            heat_smooth(sine_x1(g), -0.5)


class TestRescale:
    """Dyadic zoom u -> 2^a u(2x) onto the half-period grid."""

    def test_plain_zoom(self):
        """a=0 maps sin(x1) to sin(2 x1) on the half torus."""
        g = make_grid(32, np.pi)
        out = rescale(sine_x1(g), 0.0)
        assert out.grid.L == pytest.approx(np.pi / 2)
        x = x_axis(out.grid)
        X = np.meshgrid(x, x, indexing="ij")[0]
        np.testing.assert_allclose(to_physical(out), np.sin(2 * X), atol=1e-13)

    def test_l2_norm_halves_at_critical_weight(self):
        """With a = 2*alpha - 1 = 0 at alpha = 1/2 the L^2 norm halves."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 2): 0.3})
        out = rescale(u, 2 * 0.5 - 1.0)
        np.testing.assert_allclose(hs_norm(out, 0.0), 0.5 * hs_norm(u, 0.0), rtol=1e-13)

    def test_critical_norm_invariant(self):
        """The H^{2-2alpha} norm is invariant under the a = 2*alpha-1 zoom."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (3, 1): 0.2j})
        for alpha in (0.3, 0.4, 0.5):
            out = rescale(u, 2 * alpha - 1.0)
            np.testing.assert_allclose(
                hs_norm(out, 2 - 2 * alpha), hs_norm(u, 2 - 2 * alpha), rtol=1e-13
            )

    def test_wide_band_rejected(self):
        """Fields beyond half-Nyquist cannot be zoomed without aliasing."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(g.K // 4 + 1, 0): -0.5j})
        with pytest.raises(ValueError):
            rescale(u, 0.0)


class TestProducts:
    """Pointwise products and translations."""

    def test_product_of_cosines(self):
        """cos(x1) * cos(x2) lands on the four mixed modes."""
        g = make_grid(32, np.pi)
        a = dealias(field_from_modes(g, {(1, 0): 0.5}))
        b = dealias(field_from_modes(g, {(0, 1): 0.5}))
        out = pointwise_product(a, b)
        X, Y = meshgrid(g)
        np.testing.assert_allclose(to_physical(out), np.cos(X) * np.cos(Y), atol=1e-14)

    def test_product_mean_is_dropped(self):
        """sin(x1)^2 keeps only its oscillatory part."""
        g = make_grid(32, np.pi)
        u = dealias(sine_x1(g))
        out = pointwise_product(u, u)
        X, _ = meshgrid(g)
        np.testing.assert_allclose(to_physical(out), np.sin(X) ** 2 - 0.5, atol=1e-14)

    def test_translate_phase(self):
        """Shifting sin(x1) by pi/2 gives -cos(x1)."""
        g = make_grid(32, np.pi)
        out = translate(sine_x1(g), (np.pi / 2, 0.0))
        X, _ = meshgrid(g)
        np.testing.assert_allclose(to_physical(out), -np.cos(X), atol=1e-13)

    def test_translate_preserves_norms(self):
        """Translations are isometries of every Sobolev norm."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 3): 0.1j})
        out = translate(u, (0.37, -1.21))
        for s in (0.0, ALPHA, 1.0):
            np.testing.assert_allclose(hs_norm(out, s), hs_norm(u, s), rtol=1e-13)
