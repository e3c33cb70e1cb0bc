"""Tests for the continuum Fourier patch backend."""
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from scipy.interpolate import RectBivariateSpline
from scipy.special import gamma

from sqglab import SpectralField, hs_norm, make_grid
from sqglab.counterexample import CounterexampleSpec, build_forces, patch_bilinear_B
from sqglab.patches import (
    _BLOCK_RADIUS,
    _GL_NODES,
    _fft_convolve,
    Patch,
    PatchField,
    _leggauss,
    _origin_block_correction,
    _origin_cell_radial_integral,
    _patch_norm_sq,
    _spline_matrix,
    apply_radial,
    coalesce,
    convolve,
    gradient,
    materialize,
    mul_i_xi,
    patch_hs_norm,
    riesz_perp_velocity,
    to_torus,
)
from lattice_tables import Lattice, bilinear_B

H = 1.0 / 32.0


def spike(h, lattice_point, value, power=0.0):
    """Single nonzero sample at the given lattice point."""
    return PatchField(h, (Patch(lattice_point, np.array([[value]]), power),))


def gauss_field(h, power=0.0, half_width=4.0):
    """exp(-|xi|^2) sampled on a centered box."""
    n = round(half_width / h)
    x = h * np.arange(-n, n + 1)
    vals = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    return PatchField(h, (Patch((-n, -n), vals, power),))


def gauss_norm(s, power=0.0):
    """Closed form sqrt(int |xi|^{2s+2p} e^{-2|xi|^2})."""
    q = 2.0 * s + 2.0 * power
    return float(np.sqrt(np.pi * 2.0 ** (-(q + 2) / 2) * gamma((q + 2) / 2)))


def bump_pair(h, carrier, amp=1.0):
    """Real field of smooth bumps at +-carrier lattice offset: the +carrier patch, standing with its mirror."""
    n = round(1.0 / h)
    x = h * np.arange(-n, n + 1)
    prof = np.exp(-1.0 / np.maximum(1e-12, 1.0 - np.minimum(1.0, x**2)))
    prof[np.abs(x) >= 1.0] = 0.0
    return PatchField(h, (Patch((carrier - n, -n), amp * np.outer(prof, prof)),))


def explicit(u):
    """The terms of u as (lo, values with the origin power folded in): each patch and, after each one off the
    origin, its mirror conj(u(-xi)), the partner it stands for."""
    out = []
    for p in u.patches:
        v = materialize(p, u.h)
        out.append((p.lo, v))
        if not p.contains_origin():
            out.append(((-p.hi()[0], -p.hi()[1]), np.conj(v[::-1, ::-1])))
    return out


def origin_patch(rng, r):
    """A random self-conjugate patch on the box [-r, r]^2."""
    v = rng.standard_normal((2 * r + 1, 2 * r + 1)) + 1j * rng.standard_normal((2 * r + 1, 2 * r + 1))
    return Patch((-r, -r), v + np.conj(v[::-1, ::-1]))


def meeting_field(rng):
    """A real field whose stored patches meet: an origin box, a patch meeting it (and so does its mirror), a
    patch meeting the mirror of another, and a lone one."""

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return PatchField(H, (
        origin_patch(rng, 16), Patch((4, -3), draw((15, 6))), Patch((40, 0), draw((8, 8))),
        Patch((-45, -5), draw((8, 8))), Patch((20, 30), draw((5, 7))),
    ))


class TestPatchGeometry:
    """Boxes, origin membership, and the support-width discipline."""

    def test_box_corners(self):
        """lo and hi frame the sampled box in lattice units."""
        p = Patch((3, -2), np.zeros((4, 5)))
        assert p.hi() == (6, 2)
        assert not p.contains_origin()
        assert Patch((-1, -2), np.zeros((4, 5))).contains_origin()

    def test_axes_scaled_by_spacing(self):
        """Axes carry physical frequencies lo*h ... hi*h."""
        p = Patch((4, 0), np.zeros((3, 2)))
        x, y = p.axes(0.25)
        np.testing.assert_allclose(x, [1.0, 1.25, 1.5])
        np.testing.assert_allclose(y, [0.0, 0.25])

    def test_side_discipline(self):
        """Boxes wider than 8 frequency units are refused."""
        big = Patch((0, 0), np.zeros((300, 4)))
        with pytest.raises(ValueError, match="side"):
            PatchField(H, (big,))

    def test_spacing_mismatch_rejected(self):
        """Fields with different sample spacings do not combine."""
        a = spike(1 / 32, (1, 0), 1.0)
        b = spike(1 / 64, (1, 0), 1.0)
        with pytest.raises(ValueError, match="spacing"):
            _ = a + b

    def test_values_owned_and_read_only(self):
        """Patch copies the caller's array; every patch, given or derived, is read-only."""
        vals = np.ones((3, 3))
        given = Patch((1, 1), vals)
        vals[0, 0] = 5.0
        assert given.values[0, 0] == 1.0
        u = bump_pair(H, 400, 0.5j)
        uu = convolve(u, u)
        derived = (
            3.0 * u, apply_radial(u, -0.8), apply_radial(gauss_field(H), -0.8), mul_i_xi(u, 0),
            uu, coalesce(uu + uu), *build_forces(CounterexampleSpec(0.02, 0.4), 3),
        )
        for field in (PatchField(H, (given,)), *derived):
            assert all(not p.values.flags.writeable for p in field.patches)

    def test_linear_algebra(self):
        """Addition concatenates patches; scalars rescale values."""
        u = spike(H, (3, 0), 2.0) + spike(H, (0, 5), 1.0j)
        assert len(u.patches) == 2
        w = 3.0 * u
        assert w.patches[0].values[0, 0] == 6.0


class TestRadialOperators:
    """|xi|^p multipliers, derivatives, and the Riesz velocity."""

    def test_apply_radial_away_from_origin_folds(self):
        """Off-origin patches absorb the multiplier into their values."""
        u = spike(H, (64, 0), 1.0)  # xi = (2, 0)
        w = apply_radial(u, -0.8)
        assert w.patches[0].origin_power == 0.0
        np.testing.assert_allclose(w.patches[0].values[0, 0], 2.0**-0.8)

    def test_apply_radial_at_origin_keeps_metadata(self):
        """Origin boxes carry the power symbolically."""
        u = gauss_field(H)
        w = apply_radial(u, -0.8)
        assert w.patches[0].origin_power == -0.8
        np.testing.assert_array_equal(w.patches[0].values, u.patches[0].values)

    def test_materialize_rejects_singular_origin(self):
        """Negative powers on origin boxes cannot be folded into samples."""
        w = apply_radial(gauss_field(H), -0.8)
        with pytest.raises(ValueError, match="origin"):
            materialize(w.patches[0], H)

    def test_cancelling_origin_powers_are_exact(self):
        """Powers that cancel in exact arithmetic leave an origin power of exactly 0.

        In floats, (2a + 1) - 2a - 1 is -1.1e-16 at a = 0.2 and 0.45, which
        materialize refuses as a negative power on an origin box.
        """
        for a in (0.2, 0.45):
            w = apply_radial(apply_radial(apply_radial(gauss_field(H), 2.0 * a), 1.0), -2.0 * a)
            w = apply_radial(w, -1.0)
            assert w.patches[0].origin_power == 0
            np.testing.assert_array_equal(materialize(w.patches[0], H), gauss_field(H).patches[0].values)

    def test_positive_metadata_materializes(self):
        """Positive powers fold in, vanishing at the origin sample."""
        w = apply_radial(gauss_field(H), 1.0)
        vals = materialize(w.patches[0], H)
        n = (w.patches[0].values.shape[0] - 1) // 2
        assert vals[n, n] == 0.0
        np.testing.assert_allclose(vals[n, n + 32], np.exp(-1.0) * 1.0)

    def test_derivative_multiplier(self):
        """mul_i_xi multiplies by i*xi along the chosen axis."""
        u = spike(H, (64, -32), 2.0)
        d0 = mul_i_xi(u, 0).patches[0].values[0, 0]
        d1 = mul_i_xi(u, 1).patches[0].values[0, 0]
        np.testing.assert_allclose(d0, 2.0j * 2.0)
        np.testing.assert_allclose(d1, 2.0j * -1.0)

    def test_riesz_velocity_on_axis_spike(self):
        """At xi = (a, 0) the velocity is (0, -i*sign(a)*u)."""
        u = spike(H, (64, 0), 1.5)
        v1, v2 = riesz_perp_velocity(u)
        np.testing.assert_allclose(materialize(v1.patches[0], H)[0, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(materialize(v2.patches[0], H)[0, 0], -1.5j)

    def test_gradient_matches_components(self):
        """gradient returns (i xi_1 u, i xi_2 u)."""
        u = spike(H, (32, 32), 1.0)
        g1, g2 = gradient(u)
        np.testing.assert_allclose(g1.patches[0].values[0, 0], 1.0j)
        np.testing.assert_allclose(g2.patches[0].values[0, 0], 1.0j)


class TestConvolve:
    """Frequency-domain convolution with the 1/(2 pi) product convention."""

    def test_delta_pair(self):
        """Two spike pairs convolve to two stored spikes, at a + b and a - b, each standing with its mirror."""
        a = spike(H, (32, 0), 2.0)
        b = spike(H, (0, 64), 3.0j)
        c = convolve(a, b)
        plus, minus = coalesce(c).patches
        assert (plus.lo, minus.lo) == ((32, 64), (32, -64))
        assert plus.values.shape == minus.values.shape == (1, 1)
        np.testing.assert_allclose(plus.values[0, 0], 2.0 * 3.0j * H * H / (2 * np.pi))
        np.testing.assert_allclose(minus.values[0, 0], 2.0 * -3.0j * H * H / (2 * np.pi))

    def test_commutative(self):
        """a * b = b * a."""
        a = bump_pair(H, 64)
        b = gauss_field(H, half_width=2.0)
        ab = to_dense(convolve(a, b))
        ba = to_dense(convolve(b, a))
        np.testing.assert_allclose(ab[1], ba[1], atol=1e-15 * np.max(np.abs(ab[1])))

    def test_bilinear(self):
        """Convolution is additive in each argument."""
        a = spike(H, (32, 0), 1.0)
        b = spike(H, (0, 32), 2.0)
        c = spike(H, (-32, 0), 0.5j)
        left = to_dense(convolve(a, b + c))
        right = to_dense(convolve(a, b) + convolve(a, c))
        assert left[0] == right[0]
        np.testing.assert_allclose(left[1], right[1], atol=1e-16)

    def test_support_adds(self):
        """supp(a*b) sits inside supp(a) + supp(b)."""
        a = bump_pair(H, 96)
        b = gauss_field(H, half_width=1.0)
        c = coalesce(convolve(a, b))
        for p in c.patches:
            assert p.lo[0] >= -96 - 64 - 1
            assert p.hi()[0] <= 96 + 64 + 1

    def test_noise_scrubbed(self):
        """Exact zeros outside the true support survive the FFT round trip."""
        a = bump_pair(H, 64)
        c = coalesce(convolve(a, a))
        # the (+carrier)*(-carrier) cross term lands on an origin box that
        # must not fuse with the 2*carrier box through rounding junk
        origin, double = sorted(c.patches, key=lambda p: p.lo[0])
        assert origin.contains_origin() and origin.lo[0] < 0
        assert double.lo[0] > origin.hi()[0]

    def test_matches_scipy_fftconvolve(self):
        """The convolution kernel matches scipy.signal.fftconvolve on the force patches and on length-1 axes.

        The kernel transforms with numpy.fft and scipy.signal with scipy.fft,
        two FFT codes whose round-off differs, so the bound is FFT round-off:
        max|diff| <= 1e-14 max|ref| (measured: at most 8e-16 of max|ref|).
        """
        f, _, _ = build_forces(CounterexampleSpec(delta=0.02, alpha=0.4), 3)
        forces = [materialize(p, f.h) for p in f.patches]
        assert {v.shape for v in forces} == {(129, 129)}
        rng = np.random.default_rng(0)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        shapes = (((1, 1), (1, 1)), ((1, 5), (3, 1)), ((1, 5), (4, 5)), ((7, 1), (7, 3)))
        for a, b in [(a, b) for a in forces for b in forces] + [(draw(sa), draw(sb)) for sa, sb in shapes]:
            ref = scipy.signal.fftconvolve(a, b)
            assert np.max(np.abs(_fft_convolve(a, b) - ref)) <= 1e-14 * np.max(np.abs(ref)), (a.shape, b.shape)


def to_dense(u, half_extent=260):
    """Accumulate a patch field on one dense lattice window for comparison."""
    n = half_extent
    grid = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.complex128)
    for lo, vals in explicit(u):
        grid[lo[0] + n : lo[0] + n + vals.shape[0], lo[1] + n : lo[1] + n + vals.shape[1]] += vals
    return (u.h, grid)


class TestCoalesce:
    """Merging overlapping patches onto shared boxes."""

    def test_disjoint_patches_survive(self):
        """Non-overlapping boxes, whose mirrors do not meet them either, stay separate."""
        u = spike(H, (64, 0), 1.0) + spike(H, (0, 64), 1.0)
        assert len(coalesce(u).patches) == 2

    def test_overlapping_patches_sum(self):
        """Overlapping boxes merge by adding sampled values."""
        a = Patch((0, 0), np.ones((5, 5)))
        b = Patch((2, 2), np.ones((5, 5)))
        merged = coalesce(PatchField(H, (a, b)))
        assert len(merged.patches) == 1
        dense = to_dense(merged, half_extent=10)[1]
        assert dense[10 + 3, 10 + 3] == 2.0
        assert dense[10 + 0, 10 + 0] == 1.0

    def test_zero_borders_trimmed(self):
        """All-zero border rows and columns are dropped before merging."""
        vals = np.zeros((7, 7))
        vals[2:5, 2:5] = 1.0
        u = PatchField(H, (Patch((-3, -3), vals),))
        (p,) = coalesce(u).patches
        assert p.lo == (-1, -1)
        assert p.values.shape == (3, 3)

    def test_mixed_origin_powers_factor_onto_min(self):
        """Merging powers p and 0 folds |xi|^p while preserving norms."""
        base = gauss_field(H, half_width=2.0)
        meta = apply_radial(gauss_field(H, half_width=2.0), 1.0)
        both = base + meta
        merged = coalesce(both)
        assert len(merged.patches) == 1
        assert merged.patches[0].origin_power == 0.0
        # compare against the two-term quadrature done separately
        separate = np.sqrt(patch_hs_norm(base, 0.4) ** 2 + patch_hs_norm(meta, 0.4) ** 2 + 2 * cross(base, meta, 0.4))
        np.testing.assert_allclose(patch_hs_norm(merged, 0.4), separate, rtol=5e-5)

    def test_zero_field_coalesces_empty(self):
        """A field of zero samples coalesces to no patches."""
        u = PatchField(H, (Patch((0, 0), np.zeros((4, 4))),))
        assert coalesce(u).patches == ()


def cross(a, b, s):
    """int |xi|^{2s} conj(a) b by direct midpoint quadrature (origin dropped)."""
    h, da = to_dense(a, half_extent=80)
    _, db = to_dense(b, half_extent=80)
    x = h * np.arange(-80, 81)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    w = np.where(r2 > 0, r2**s, 0.0)
    return float(np.real(np.sum(w * np.conj(da) * db)) * h * h)


class TestNormQuadrature:
    """Panel quadrature with the origin-block correction."""

    def test_unit_box_area(self):
        """A unit-amplitude half-open box and its mirror have L^2 norm sqrt(area) exactly."""
        vals = np.ones((32, 32))
        u = PatchField(H, (Patch((32, 0), vals),))
        np.testing.assert_allclose(patch_hs_norm(u, 0.0), np.sqrt(2.0), rtol=1e-14)

    def test_gaussian_l2_exact(self):
        """Away from weighted exponents the lattice sum is superalgebraic."""
        np.testing.assert_allclose(patch_hs_norm(gauss_field(H), 0.0), gauss_norm(0.0), rtol=1e-13)

    @pytest.mark.parametrize(
        "s,power,rtol",
        [(0.5, 0.0, 1e-4), (-0.4, 0.0, 2e-4), (0.2, 0.0, 1e-5), (-0.7, 1.0, 1e-4), (0.9, -0.3, 1e-4)],
    )
    def test_gaussian_weighted_oracle(self, s, power, rtol):
        """Weighted norms match the closed-form radial integral."""
        got = patch_hs_norm(gauss_field(H, power), s)
        np.testing.assert_allclose(got, gauss_norm(s, power), rtol=rtol)

    def test_refinement_improves(self):
        """Halving the sample spacing shrinks the quadrature error."""
        for s in (0.5, -0.4):
            exact = gauss_norm(s)
            e32 = abs(patch_hs_norm(gauss_field(1 / 32), s) - exact)
            e64 = abs(patch_hs_norm(gauss_field(1 / 64), s) - exact)
            assert e64 < e32

    def test_nonintegrable_exponent_rejected(self):
        """|xi|^{2s} with 2s <= -2 on an origin box is refused."""
        with pytest.raises(ValueError, match="integrable"):
            patch_hs_norm(gauss_field(H), -1.0)

    def test_vanishing_origin_value_at_the_integrability_edge(self):
        """With a zero origin sample, the norm at q = 2s = -2 is finite and continuous in s."""
        u = gradient(gauss_field(0.1, half_width=0.8))[0]
        at = patch_hs_norm(u, -1.0)
        assert np.isfinite(at)
        for s in (-1.0 - 1e-3, -1.0 + 1e-3):
            np.testing.assert_allclose(at, patch_hs_norm(u, s), rtol=1e-3)

    def test_off_origin_box_needs_no_correction(self):
        """A carrier patch reduces to the plain weighted lattice sum over it and its mirror."""
        u = bump_pair(H, 64)
        direct = 0.0
        for lo, vals in explicit(u):
            x, y = (H * (lo[i] + np.arange(vals.shape[i])) for i in range(2))
            r2 = x[:, None] ** 2 + y[None, :] ** 2
            direct += float(np.sum(r2**0.6 * np.abs(vals) ** 2) * H * H)
        np.testing.assert_allclose(patch_hs_norm(u, 0.6), np.sqrt(direct), rtol=1e-12)


def ref_origin_block_correction(patch, h, q):
    """The origin-block correction integrated cell by cell.

    A copy of the per-cell loop that the single tensor Gauss grid replaced:
    one 24 x 24 Gauss panel per block cell, the origin cell split into its
    polar radial integral and a panel rule for the smooth remainder.
    """
    w2 = np.abs(patch.values) ** 2
    n0, n1 = w2.shape
    i0 = -patch.lo[0]  # index of the xi_1 = 0 sample
    i1 = -patch.lo[1]
    B = _BLOCK_RADIUS
    a0, b0 = max(0, i0 - B), min(n0 - 1, i0 + B)
    a1, b1 = max(0, i1 - B), min(n1 - 1, i1 + B)
    margin = 6
    s0 = slice(max(0, a0 - margin), min(n0, b0 + margin + 1))
    s1 = slice(max(0, a1 - margin), min(n1, b1 + margin + 1))
    x_ax, y_ax = patch.axes(h)
    kx = min(5, len(x_ax[s0]) - 1)
    ky = min(5, len(y_ax[s1]) - 1)
    spline = RectBivariateSpline(x_ax[s0], y_ax[s1], w2[s0, s1], kx=kx, ky=ky)

    gx, gw = _leggauss(_GL_NODES)
    # tensor Gauss panel on each block cell
    cells_i = np.arange(a0, b0 + 1)
    cells_j = np.arange(a1, b1 + 1)
    block_exact = 0.0
    half = h / 2.0
    for ci in cells_i:
        cx = x_ax[ci]
        px = cx + half * gx
        for cj in cells_j:
            cy = y_ax[cj]
            py = cy + half * gx
            if ci == i0 and cj == i1:
                # singular cell: radial part in polar form, smooth remainder by panel GL
                w0 = float(w2[i0, i1])
                block_exact += w0 * _origin_cell_radial_integral(q, h)
                vals = spline(px, py) - w0
                r2 = px[:, None] ** 2 + py[None, :] ** 2
                with np.errstate(divide="ignore"):
                    rq = r2 ** (q / 2.0)
                rq[r2 == 0.0] = 0.0
                block_exact += half * half * float(np.einsum("i,j,ij->", gw, gw, rq * vals))
            else:
                vals = spline(px, py)
                r2 = px[:, None] ** 2 + py[None, :] ** 2
                rq = r2 ** (q / 2.0)
                block_exact += half * half * float(np.einsum("i,j,ij->", gw, gw, rq * vals))

    sub = w2[a0 : b0 + 1, a1 : b1 + 1]
    r2m = x_ax[a0 : b0 + 1][:, None] ** 2 + y_ax[a1 : b1 + 1][None, :] ** 2
    with np.errstate(divide="ignore"):
        rqm = r2m ** (q / 2.0)
    rqm[np.isinf(rqm)] = 0.0
    rqm[r2m == 0.0] = 0.0 if q != 0.0 else 1.0
    block_mid = float(h * h * np.sum(rqm * sub))
    return block_exact - block_mid


def assert_matches_reference(patch, h, s):
    """Tensor-grid and per-cell block corrections agree to 1e-15 of the patch norm^2."""
    assert patch.contains_origin()
    q = 2.0 * s + 2.0 * float(patch.origin_power)
    got = _origin_block_correction(patch, h, q)
    ref = ref_origin_block_correction(patch, h, q)
    assert abs(got - ref) <= 1e-15 * _patch_norm_sq(patch, h, s)


class TestOriginBlockReference:
    """The tensor-grid origin quadrature against the per-cell reference."""

    @pytest.mark.parametrize("s,power", [(-0.9, 0.0), (-0.4, 0.0), (0.3, 0.0), (1.1, 0.0), (-0.7, 1.0), (0.9, -0.3)])
    def test_gaussian(self, s, power):
        """Centered Gaussian boxes, radial weights singular and smooth."""
        assert_matches_reference(gauss_field(H, power).patches[0], H, s)

    @pytest.mark.parametrize("s", [-0.6, 0.4])
    @pytest.mark.parametrize(
        "lo,shape",
        [((0, 0), (65, 65)), ((-64, -64), (65, 65)), ((0, -64), (65, 129)), ((-64, 0), (129, 65))],
        ids=["lo-corner", "hi-corner", "lo-edge", "hi-edge"],
    )
    def test_clipped_block(self, lo, shape, s):
        """With the origin on a box corner or edge the block is cut by the box."""
        x = H * (lo[0] + np.arange(shape[0]))
        y = H * (lo[1] + np.arange(shape[1]))
        vals = np.exp(-(x[:, None] ** 2 + 2.0 * y[None, :] ** 2) + 0.3 * x[:, None])
        assert_matches_reference(Patch(lo, vals), H, s)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.4, 0.45])
    def test_bilinear_B(self, alpha):
        """Coalesced B[h,h] in the critical norm; B[g,h] sits on the carrier boxes."""
        _, g, h = build_forces(CounterexampleSpec(0.02, alpha), 3)
        s_crit = 2.0 - 2.0 * alpha
        hh = coalesce(patch_bilinear_B(h, h, alpha)).patches
        assert any(p.contains_origin() for p in hh)
        for p in hh:
            if p.contains_origin():
                assert_matches_reference(p, h.h, s_crit)
        gh = coalesce(patch_bilinear_B(g, h, alpha)).patches
        assert gh and not any(p.contains_origin() for p in gh)


class TestSplineMatrices:
    """The origin block's 1-D spline matrices against the RectBivariateSpline they replace."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_carrier_patches(self, n):
        """Ex @ w2 @ Ey.T is RectBivariateSpline's s=0 interpolant to 1e-12 of its largest value.

        The data are |values|^2 of the origin patches of B[h,h] at carrier level n, cut to 2..29 samples per
        axis around the origin, so the degree min(5, len - 1) takes every value 1..5; the points are the
        origin block's Gauss grid over those cells, half a cell past each end included (FITPACK clamps there).
        """
        _, _, h = build_forces(CounterexampleSpec(0.02, 0.4), n)
        patches = [p for p in coalesce(patch_bilinear_B(h, h, 0.4)).patches if p.contains_origin()]
        assert patches
        gx, _ = _leggauss(_GL_NODES)
        for p in patches:
            w2 = np.abs(p.values) ** 2
            x_ax, y_ax = p.axes(h.h)
            for mx, my in ((2, 29), (3, 6), (4, 5), (5, 4), (6, 3), (29, 2), (29, 29)):
                s0 = slice(-p.lo[0] - mx // 2, -p.lo[0] - mx // 2 + mx)
                s1 = slice(-p.lo[1] - my // 2, -p.lo[1] - my // 2 + my)
                x, y, w = x_ax[s0], y_ax[s1], w2[s0, s1]
                px = (x[:, None] + 0.5 * h.h * gx).ravel()
                py = (y[:, None] + 0.5 * h.h * gx).ravel()
                ref = RectBivariateSpline(x, y, w, kx=min(5, mx - 1), ky=min(5, my - 1))(px, py)
                got = _spline_matrix(x, px) @ w @ _spline_matrix(y, py).T
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (mx, my)


class TestToTorus:
    """Sampling continuum transforms onto torus lattices."""

    def test_on_lattice_spike_transfers_exactly(self):
        """A spike on a lattice frequency becomes one torus coefficient."""
        g = make_grid(256, 16 * np.pi)  # dk = 1/16 = 2*H
        u = spike(H, (64, 0), 1.0)
        f = to_torus(u, g)
        scale = 2 * np.pi / (2 * g.L) ** 2
        np.testing.assert_allclose(f.mode(32, 0), scale)
        assert f.mode(0, 0) == 0.0

    def test_off_lattice_content_is_skipped(self):
        """Samples between lattice frequencies do not transfer."""
        g = make_grid(256, 16 * np.pi)
        u = spike(H, (63, 0), 1.0)
        f = to_torus(u, g)
        assert hs_norm(f, 0.0) == 0.0

    def test_norm_agreement_for_smooth_bumps(self):
        """Torus and patch norms agree to the periodization error."""
        g = make_grid(512, 16 * np.pi)
        u = bump_pair(H, 128)
        f = to_torus(u, g)
        for s in (0.0, 0.4, 1.2):
            a = hs_norm(f, s)
            b = patch_hs_norm(u, s)
            assert abs(a - b) <= 1e-5 * b

    def test_spacing_divisibility_enforced(self):
        """pi/L must be an integer multiple of the patch spacing."""
        g = make_grid(64, 3.0)
        with pytest.raises(ValueError, match="spacing"):
            to_torus(spike(H, (64, 0), 1.0), g)

    def test_frequency_overflow_detected(self):
        """Content beyond the dealias cutoff is a ValueError naming its reach and the cutoff."""
        g = make_grid(64, 16 * np.pi)  # dealias_k = 21/16
        u = spike(H, (1024, 0), 1.0)  # xi = +-32
        with pytest.raises(ValueError, match=r"reaches \|xi\| = 32, beyond the dealias cutoff 1.3125"):
            to_torus(u, g)

    def test_zero_mode_dropped(self):
        """Origin-box content at xi=0 never lands on the torus zero mode."""
        g = make_grid(64, 16 * np.pi)
        f = to_torus(gauss_field(H, half_width=1.0), g)
        assert f.mode(0, 0) == 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.4])
    @pytest.mark.parametrize("n, K", [(3, 512), (4, 1024)])
    def test_forces_match_full_lattice_scatter(self, alpha, n, K):
        """The carrier forces land on the band's half square bit for bit as through the K x K scatter."""
        g = make_grid(K, 16 * np.pi)  # the n = 4 force reaches |xi| = 18, past K = 512's cutoff 10.6
        for u in build_forces(CounterexampleSpec(0.02, alpha), n):
            assert_same_field(to_torus(u, g), ref_to_torus(u, g))

    @pytest.mark.parametrize("amp", [1.0, 0.3 - 0.7j])
    def test_bumps_match_full_lattice_scatter(self, amp):
        """So do the smooth bump pairs."""
        g = make_grid(512, 16 * np.pi)
        for carrier in (64, 128, 288):
            u = bump_pair(H, carrier, amp)
            assert_same_field(to_torus(u, g), ref_to_torus(u, g))

    def test_memory_stays_at_band_size(self):
        """One K = 2048 sampling of the n = 7 force stays within the dealias band's 15 MiB half square and change."""
        g = make_grid(2048, 2 * np.pi)
        f, _, _ = build_forces(CounterexampleSpec(0.02, 0.4), 7)
        tracemalloc.start()
        try:
            to_torus(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_patch_bilinear_B_matches_torus(self):
        """Sampled onto a K = 1024, L = 16 pi torus, the patch B[g, h] and B[h, g] of the n = 3 forces
        agree with the torus bilinear_B of the sampled forces.

        Measured relative H^{2-2a} differences 5.7e-7 (g, h) and 4.3e-7 (h, g): the bound 1e-6 sits 1.75x
        and 2.3x above them. B[h, h] cannot be sampled: its origin patch carries a negative power.
        """
        alpha = 0.4
        _, g, h = build_forces(CounterexampleSpec(0.02, alpha), 3)
        grid = make_grid(1024, 16 * np.pi)
        s_crit = 2.0 - 2.0 * alpha
        for a, b in ((g, h), (h, g)):
            torus = bilinear_B(to_torus(a, grid), to_torus(b, grid), alpha)
            diff = hs_norm(to_torus(patch_bilinear_B(a, b, alpha), grid) - torus, s_crit)
            assert diff <= 1e-6 * hs_norm(torus, s_crit)
        with pytest.raises(ValueError, match="negative origin power"):
            to_torus(patch_bilinear_B(h, h, alpha), grid)


def ref_to_torus(u, grid):
    """The former path: every sample of every term scattered into K x K, then the validating constructor."""
    r = round(grid.dk / u.h)
    K = grid.K
    coeffs = Lattice(grid).zeros()
    scale = 2.0 * np.pi / (2.0 * grid.L) ** 2
    for lo, vals in explicit(u):
        hi = (lo[0] + vals.shape[0] - 1, lo[1] + vals.shape[1] - 1)
        m0 = np.arange(int(np.ceil(lo[0] / r)), int(np.floor(hi[0] / r)) + 1)
        m1 = np.arange(int(np.ceil(lo[1] / r)), int(np.floor(hi[1] / r)) + 1)
        if m0.size == 0 or m1.size == 0:
            continue
        rows = (m0 * r - lo[0])[:, None]
        cols = (m1 * r - lo[1])[None, :]
        coeffs[np.ix_(m0 % K, m1 % K)] += scale * vals[rows, cols]
    coeffs[0, 0] = 0.0
    return SpectralField(grid, coeffs)


def assert_same_field(a, b):
    assert a.half.shape == b.half.shape
    assert a.half.tobytes() == b.half.tobytes()
    assert np.any(a.half != 0)


class TestMirrorExpansion:
    """Each operation on stored patches against the same operation on the field written out term by term."""

    def test_convolve(self):
        """The stored product is the dense convolution of the written-out factors, an origin box meeting a
        patch, a patch meeting another's mirror and a product about the origin included."""
        rng = np.random.default_rng(5)
        a, b = meeting_field(rng), meeting_field(rng) + bump_pair(H, 40, 0.3 - 0.2j)
        da, db = to_dense(a, 60)[1], to_dense(b, 80)[1]
        ref = scipy.signal.fftconvolve(da, db) * (H * H / (2 * np.pi))
        got = to_dense(convolve(a, b), 140)[1]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_coalesce(self):
        """Coalescing keeps the written-out field; no stored box meets another or another's mirror, and each
        origin box is self-conjugate."""
        u = meeting_field(np.random.default_rng(6))
        merged = coalesce(u).patches
        assert np.max(np.abs(to_dense(PatchField(H, merged), 60)[1] - to_dense(u, 60)[1])) <= 1e-15 * 8
        mirrors = [Patch((-p.hi()[0], -p.hi()[1]), np.zeros(p.values.shape)) for p in merged]
        for i, p in enumerate(merged):
            for j, q in enumerate(merged):
                meets = [_boxes_meet(p, q), _boxes_meet(p, mirrors[j])]
                assert meets == ([True, p.contains_origin()] if i == j else [False, False]), (p.lo, q.lo)
            if p.contains_origin():
                np.testing.assert_allclose(p.values, np.conj(p.values[::-1, ::-1]), rtol=0, atol=1e-15 * 8)
        assert [p.contains_origin() for p in merged] == [True, False, False]

    @pytest.mark.parametrize("s", [-0.4, 0.0, 0.6])
    def test_patch_hs_norm(self, s):
        """The norm of the stored field is that of the written-out field held in one origin box."""
        u = meeting_field(np.random.default_rng(7))
        dense = to_dense(u, 60)[1]
        np.testing.assert_allclose(patch_hs_norm(u, s), patch_hs_norm(PatchField(H, (Patch((-60, -60), dense),)), s),
                                   rtol=1e-13)

    def test_to_torus(self):
        """Sampling onto the torus matches scattering every written-out term into K x K."""
        u = meeting_field(np.random.default_rng(8))
        g = make_grid(256, 16 * np.pi)
        got, ref = to_torus(u, g), ref_to_torus(u, g)
        assert got.half.shape == ref.half.shape
        np.testing.assert_allclose(got.half, ref.half, rtol=0, atol=1e-15 * np.max(np.abs(ref.half)))

    def test_product_about_the_origin(self):
        """A product standing with its mirror whose box holds the origin is stored as itself and its mirror, two
        origin patches, so it needs no box wider than the two (10 here, past the width-8 discipline)."""
        x, y = convolve(bump_pair(H, 64), gauss_field(H, half_width=2.0)).patches
        assert x.contains_origin() and y.contains_origin()
        assert y.lo == (-x.hi()[0], -x.hi()[1]) and np.array_equal(y.values, np.conj(x.values[::-1, ::-1]))


def _boxes_meet(p, q):
    return all(p.lo[i] <= q.hi()[i] and q.lo[i] <= p.hi()[i] for i in range(2))
