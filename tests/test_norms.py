"""Tests for homogeneous Sobolev norms and the smoothing lemma checks."""
import numpy as np
import pytest

from sqglab import (
    field_from_modes,
    field_from_physical,
    fractional_laplacian,
    hs_norm,
    interpolation_check,
    make_grid,
    scan_bound,
    smoothing_limit_scan,
    velocity_from_theta,
    velocity_hs_norm,
)
from lattice_tables import x_axis

PI_SQRT2 = np.pi * np.sqrt(2.0)


def single_mode(grid):
    """Unit-amplitude sin(x1)."""
    return field_from_modes(grid, {(1, 0): -0.5j})


class TestHsNorm:
    """The weighted-lattice norm against closed forms."""

    def test_unit_mode_all_exponents(self):
        """sin(x1) has norm pi*sqrt(2) for every smoothness s."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        for s in (-0.4, 0.0, 0.4, 1.0, 1.2):
            np.testing.assert_allclose(hs_norm(u, s), PI_SQRT2, rtol=1e-14)

    def test_second_mode_weight(self):
        """sin(2 x1) at s=1 picks up a factor |k| = 2."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(2, 0): -0.5j})
        np.testing.assert_allclose(hs_norm(u, 1.0), 2.0 * PI_SQRT2, rtol=1e-14)

    def test_zero_field(self):
        """The zero field has zero norm at any s, including negative."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {})
        assert hs_norm(u, -0.7) == 0.0
        assert hs_norm(u, 1.3) == 0.0

    def test_gaussian_matches_continuum(self):
        """A well-resolved Gaussian reproduces the radial H^1 integral."""
        g = make_grid(128, 8 * np.pi)
        x = x_axis(g)
        X, Y = np.meshgrid(x, x, indexing="ij")
        samples = np.exp(-(X**2 + Y**2) / 2.0)
        samples -= samples.mean()
        u = field_from_physical(g, samples)
        # ||grad u||_{L^2}^2 = 2 pi * int r^3 e^{-r^2} dr = pi
        np.testing.assert_allclose(hs_norm(u, 1.0), np.sqrt(np.pi), rtol=1e-8)

    def test_multiplier_shift(self):
        """hs_norm((-Delta)^t u, s) = hs_norm(u, s + 2t) with no drift."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 3): 0.2, (5, 0): 0.1j})
        for s, t in ((0.3, 0.45), (-0.4, 1.0), (1.2, -0.8)):
            np.testing.assert_allclose(
                hs_norm(fractional_laplacian(u, t), s), hs_norm(u, s + 2 * t), rtol=1e-13
            )

    def test_velocity_norm_matches_scalar(self):
        """The Riesz velocity has the same aggregate norm as its scalar."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 3): 0.1j, (0, 4): 0.2})
        v = velocity_from_theta(u)
        for s in (0.0, 0.4, 1.2):
            np.testing.assert_allclose(velocity_hs_norm(v, s), hs_norm(u, s), rtol=1e-12)


class TestInterpolation:
    """The mollifier interpolation inequality."""

    def test_single_mode_closed_form(self):
        """For sin(x1) the check reduces to 1 - e^{-eps^2} <= 2 eps^2."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        eps = 0.5
        rec = interpolation_check(u, 0.7, 1.0, eps)
        damp = 1.0 - np.exp(-(eps**2))
        np.testing.assert_allclose(rec.lhs, damp / eps * PI_SQRT2, rtol=1e-13)
        np.testing.assert_allclose(
            rec.rhs, np.sqrt(2.0) * PI_SQRT2 ** 0.5 * (damp * PI_SQRT2) ** 0.5, rtol=1e-13
        )
        assert rec.holds

    def test_sigma_zero_ratio(self):
        """At sigma=0 the two sides sit at the fixed ratio 1/sqrt(2)."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (4, 1): 0.2})
        rec = interpolation_check(u, 0.3, 0.0, 0.7)
        np.testing.assert_allclose(rec.lhs / rec.rhs, 1 / np.sqrt(2.0), rtol=1e-13)
        assert rec.holds

    def test_random_fields_always_hold(self):
        """The inequality holds across random fields and parameters."""
        g = make_grid(64, np.pi)
        rng = np.random.default_rng(23)
        for _ in range(25):
            samples = rng.standard_normal((64, 64))
            samples -= samples.mean()
            u = field_from_physical(g, samples)
            s = float(rng.uniform(-0.5, 1.5))
            sigma = float(rng.uniform(0.0, 1.95))
            eps = float(rng.uniform(0.01, 1.0))
            assert interpolation_check(u, s, sigma, eps).holds

    def test_bad_parameters_rejected(self):
        """sigma outside [0, 2), eps <= 0, and the zero field are refused."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        with pytest.raises(ValueError):
            interpolation_check(u, 0.5, 2.0, 0.5)
        with pytest.raises(ValueError):
            interpolation_check(u, 0.5, -0.1, 0.5)
        with pytest.raises(ValueError):
            interpolation_check(u, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            interpolation_check(field_from_modes(g, {}), 0.5, 1.0, 0.5)


class TestSmoothingScan:
    """Vanishing of eps^{-sigma} || (heat - id) u ||_{H^{s-sigma}}."""

    def test_single_mode_values(self):
        """For sin(x1) the scan values are (1-e^{-eps^2})/eps * pi*sqrt(2)."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        eps = (1.0, 0.5, 0.25, 0.125)
        got = smoothing_limit_scan(u, 0.3, 1.0, eps)
        expect = [(1 - np.exp(-(e**2))) / e * PI_SQRT2 for e in eps]
        np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_values_obey_uniform_bound(self):
        """Scan values stay under the eps-independent bound everywhere."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.3, (0, 3): 0.1j})
        eps = tuple(0.8 * 2.0**-j for j in range(12))
        for s, sigma in ((0.4, 1.0), (0.0, 0.5), (1.1, 1.7)):
            vals = smoothing_limit_scan(u, s, sigma, eps)
            assert max(vals) <= scan_bound(u, s, sigma) * (1 + 1e-12)

    def test_values_decrease_below_the_knee(self):
        """Once eps is below ~1/k_max the scan decreases monotonically."""
        g = make_grid(32, np.pi)
        u = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.3, (0, 3): 0.1j})
        eps = tuple(0.15 / 3.0 * 2.0**-j for j in range(7))
        for s, sigma in ((0.4, 1.0), (0.0, 0.5), (1.1, 1.7)):
            vals = smoothing_limit_scan(u, s, sigma, eps)
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_small_eps_rate(self):
        """For a single mode the values vanish like eps^{2-sigma}."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        sigma = 1.0
        eps = 1e-3
        (val,) = smoothing_limit_scan(u, 0.5, sigma, (eps,))
        np.testing.assert_allclose(val / eps ** (2 - sigma), PI_SQRT2, rtol=1e-5)

    def test_bound_closed_form(self):
        """scan_bound is 2^{(3-sigma)/2} times the H^s norm."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        np.testing.assert_allclose(scan_bound(u, 0.3, 1.0), 2.0 * PI_SQRT2, rtol=1e-14)

    def test_bad_sequences_rejected(self):
        """Non-decreasing, empty, or nonpositive eps sequences are refused."""
        g = make_grid(32, np.pi)
        u = single_mode(g)
        with pytest.raises(ValueError):
            smoothing_limit_scan(u, 0.3, 1.0, (0.5, 0.5))
        with pytest.raises(ValueError):
            smoothing_limit_scan(u, 0.3, 1.0, ())
        with pytest.raises(ValueError):
            smoothing_limit_scan(u, 0.3, 1.0, (0.5, -0.1))
        with pytest.raises(ValueError):
            smoothing_limit_scan(u, 0.3, 2.0, (0.5, 0.25))
