"""Desk-scale acceptance gate.

Each test pins one quantitative target with fixed tolerances, seeds, and a
wall-clock budget. Together they cover the cancellation identity, the
a priori and oracle checks on the linear solves, geometric convergence of
the outer iteration, the mollifier interpolation suite, the oscillation
average, the carrier-level rate table, the torus gap signature, the
Picard remainder order, and saturation of the estimate probes.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from sqglab import (
    CounterexampleSpec,
    GapRecord,
    SolverConfig,
    SpectralField,
    build_forces,
    build_phi,
    cancellation_probe,
    commutator_operating_point,
    decompose_second_iterate,
    default_schedule,
    fractional_laplacian,
    hs_norm,
    interpolation_check,
    linear_solve,
    make_grid,
    outer_iterate,
    product_operating_point,
    project_low,
    riemann_lebesgue_check,
    run_commutator_probe,
    run_product_probe,
    sample_band_limited,
    scan_bound,
    smoothing_limit_scan,
    to_torus,
    velocity_from_theta,
    velocity_hs_norm,
)
from sqglab.experiments import builtin_force
from lattice_tables import Lattice, cauchy_constant, low_pass_mask, theta2_full

ALPHA = 0.4
DELTA = 0.02
H_XI = 1.0 / 32.0


def random_ball_field(grid, rng, N):
    """Random Hermitian field supported on the lattice ball |k| <= 2^N."""
    mask = low_pass_mask(grid, N).copy()
    mask[0, 0] = False
    z = rng.standard_normal((grid.K, grid.K)) + 1j * rng.standard_normal((grid.K, grid.K))
    c = np.where(mask, z, 0.0)
    idx = (-np.arange(grid.K)) % grid.K
    return SpectralField(grid, 0.5 * (c + np.conj(c[np.ix_(idx, idx)])))


def admissible_velocity(grid, rng, alpha, size):
    """Velocity with critical norm pinned below the smallness threshold."""
    w = random_ball_field(grid, rng, 2)
    cur = velocity_hs_norm(velocity_from_theta(w), 2.0 - 2.0 * alpha)
    return velocity_from_theta(w * (size / cur))


class TestAcceptance:
    """Eleven pinned desk-scale checks."""

    def test_cancellation_identity(self):
        """50 band-limited fields pair to 1e-10 relative; under 5 s."""
        t0 = time.perf_counter()
        grid = make_grid(128, np.pi)
        k_band = (grid.K // 4) * grid.dk
        worst = 0.0
        for i in range(50):
            theta = sample_band_limited(grid, 1.0, k_band, seed=1000 + i)
            v = velocity_from_theta(theta)
            scale = hs_norm(theta, 0.0) ** 2 * velocity_hs_norm(v, 0.0) / (2.0 * grid.L)
            worst = max(worst, cancellation_probe(theta) / scale)
        assert worst <= 1e-10, f"relative pairing {worst:.3e} exceeds 1e-10"
        assert time.perf_counter() - t0 < 5.0

    def test_a_priori_bound(self):
        """100 random admissible solves obey the energy bound; under 60 s."""
        t0 = time.perf_counter()
        grid = make_grid(128, np.pi)
        rng = np.random.default_rng(7)
        for i in range(100):
            alpha = float(rng.uniform(0.05, 0.5))
            N = int(rng.integers(1, 6))
            v = admissible_velocity(grid, rng, alpha, float(rng.uniform(0.2, 0.9)) * 0.1)
            f = random_ball_field(grid, rng, N)
            theta = linear_solve(v, f, N, SolverConfig(alpha=alpha))
            lhs = hs_norm(theta, alpha)
            rhs = hs_norm(f, -alpha) * (1.0 + 1e-8)
            assert lhs <= rhs, f"case {i}: ||theta||_{alpha:.3f} = {lhs:.6e} > {rhs:.6e}"
        assert time.perf_counter() - t0 < 60.0

    def test_dense_oracle_equivalence(self):
        """Krylov solves match a dense direct solve to 1e-9; under 10 s."""
        t0 = time.perf_counter()
        grid = make_grid(16, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        rng = np.random.default_rng(37)
        mask = low_pass_mask(grid, 2).copy()
        mask[0, 0] = False
        rows = np.argwhere(mask)
        dim = len(rows)
        lat = Lattice(grid)
        kvec = np.stack([lat.kx[mask], lat.ky[mask]], axis=1)
        kmag2 = lat.k2[mask]
        for _ in range(10):
            v = admissible_velocity(grid, rng, ALPHA, float(rng.uniform(0.02, 0.08)))
            f = random_ball_field(grid, rng, 2)
            theta = linear_solve(v, f, 2, cfg)
            A = np.zeros((dim, dim), dtype=np.complex128)
            for i in range(dim):
                for j in range(dim):
                    di = (rows[i] - rows[j]) % grid.K
                    vdot = (
                        v.v1.coeffs[di[0], di[1]] * kvec[j, 0]
                        + v.v2.coeffs[di[0], di[1]] * kvec[j, 1]
                    )
                    A[i, j] = (1.0 if i == j else 0.0) + kmag2[i] ** (-ALPHA) * 1j * vdot
            b = fractional_laplacian(project_low(f, 2), -ALPHA).coeffs[mask]
            x = np.linalg.solve(A, b)
            np.testing.assert_allclose(theta.coeffs[mask], x, rtol=1e-9, atol=1e-13)
        assert time.perf_counter() - t0 < 10.0

    def test_geometric_convergence(self):
        """Outer differences contract at factor 0.75 up to a finite tail; under 2 min."""
        t0 = time.perf_counter()
        grid = make_grid(256, np.pi)
        for alpha in (0.3, 0.4, 0.5):
            for name in ("single_mode", "two_mode"):
                f = builtin_force(name, grid, 1e-2)
                theta, report = outer_iterate(f, SolverConfig(alpha=alpha))
                C = cauchy_constant(report, factor=0.75)
                assert np.isfinite(C), f"{name} at alpha={alpha}: unbounded tail constant"
                tol = 1e-7 * hs_norm(f, -alpha)
                assert report.residual <= tol, (
                    f"{name} at alpha={alpha}: residual {report.residual:.3e} > {tol:.3e}"
                )
        assert time.perf_counter() - t0 < 120.0

    def test_mollifier_interpolation_suite(self):
        """100 random interpolation checks hold; scans stay bounded and monotone; under 30 s."""
        t0 = time.perf_counter()
        grid = make_grid(128, np.pi)
        k_band = grid.dealias_k / 2.0
        rng = np.random.default_rng(99)
        for i in range(100):
            u = sample_band_limited(grid, 1.0, k_band, seed=5000 + i)
            s = float(rng.uniform(-0.5, 1.5))
            sigma = float(rng.uniform(0.0, 2.0))
            eps = float(rng.uniform(0.01, 1.0))
            rec = interpolation_check(u, s, sigma, eps)
            assert rec.holds, (
                f"case {i} (s={s:.3f}, sigma={sigma:.3f}, eps={eps:.3e}): "
                f"lhs {rec.lhs:.6e} > rhs {rec.rhs:.6e}"
            )
        eps_seq = tuple(0.15 / k_band * 0.5**j for j in range(7))
        for i in range(10):
            u = sample_band_limited(grid, 1.0, k_band, seed=6000 + i)
            s = float(rng.uniform(-0.5, 1.5))
            sigma = float(rng.uniform(0.0, 2.0))
            vals = smoothing_limit_scan(u, s, sigma, eps_seq)
            bound = scan_bound(u, s, sigma)
            assert all(v <= bound * (1.0 + 1e-10) for v in vals)
            assert all(b <= a * (1.0 + 1e-10) for a, b in zip(vals, vals[1:]))
        assert time.perf_counter() - t0 < 30.0

    def test_oscillation_average_exactness(self):
        """rel_dev <= 1e-8 for n in 3..12 and > 1e-3 at n=1; under 5 s."""
        t0 = time.perf_counter()
        prof = build_phi(H_XI)
        for n in range(3, 13):
            rec = riemann_lebesgue_check(prof, n)
            assert rec.rel_dev <= 1e-8, f"n={n}: rel_dev {rec.rel_dev:.3e}"
        assert riemann_lebesgue_check(prof, 1).rel_dev > 1e-3
        assert time.perf_counter() - t0 < 5.0

    def test_carrier_rate_table(self):
        """Fitted rates over n in 4..10: d_crit -0.2 +/- 0.03, b12 -1.0 +/- 0.15,
        bgh -1.0 +/- 0.03 and at most -(1 - 2 alpha), b11 plateau max/min over
        6..10 at most 1.1; under 30 s.

        The rate of B[g, h]: its velocity comes from theta_1[g], a carrier at
        2^n of amplitude delta 2^{-(2-2a)n}, on which the Riesz transform gives
        no gain. The gradient falls on theta_1[h], low-frequency with amplitude
        delta 2^{-(1-2a)n}. The product is a carrier of amplitude
        delta^2 2^{-(3-4a)n}; (-Delta)^{-a} measured in H^{2-2a} multiplies it
        by 2^{(2-4a)n}, so ||B[g, h]|| scales like 2^{-n}, as b12 does. The
        generic bound ||B[g, h]|| <~ ||g|| ||h|| only gives the data rate
        -(1 - 2a), an upper bound that the fitted slope must not exceed.
        """
        t0 = time.perf_counter()
        ns = range(4, 11)
        parts = {
            n: decompose_second_iterate(CounterexampleSpec(delta=DELTA, alpha=ALPHA, h_xi=H_XI), n)
            for n in ns
        }

        def slope(key):
            return float(
                np.polyfit(list(ns), [np.log2(getattr(parts[n], key)) for n in ns], 1)[0]
            )

        s_crit = slope("d_crit")
        assert abs(s_crit + 0.2) <= 0.03, f"d_crit slope {s_crit:+.4f} not -0.2 +/- 0.03"
        s_b12 = slope("b12")
        assert abs(s_b12 + 1.0) <= 0.15, f"b12 slope {s_b12:+.4f} not -1.0 +/- 0.15"
        s_bgh = slope("bgh")
        assert abs(s_bgh + 1.0) <= 0.03, f"bgh slope {s_bgh:+.4f} not -1.0 +/- 0.03"
        data_rate = -(1.0 - 2.0 * ALPHA)
        assert s_bgh <= data_rate, f"bgh slope {s_bgh:+.4f} decays slower than the data rate {data_rate:+.4f}"
        plateau = [parts[n].b11 for n in range(6, 11)]
        ratio = max(plateau) / min(plateau)
        assert ratio <= 1.1, f"b11 plateau max/min {ratio:.4f} exceeds 1.1"
        assert time.perf_counter() - t0 < 30.0

    def test_carrier_rates_across_alpha(self):
        """The derived rates of test_carrier_rate_table, with its tolerances,
        at alpha = 0.05, 0.2, 0.45 and 0.49 over n in 4..10: d_crit slope
        -(1 - 2 alpha) +/- 0.03, b12 -1.0 +/- 0.15, bgh -1.0 +/- 0.03 and at
        most -(1 - 2 alpha), b11 plateau max/min over 6..10 at most 1.1.

        0.2 and 0.45 are the values at which an origin power that cancels in
        exact arithmetic once reached materialize as -1.1e-16 and stopped the
        patch backend; 0.05 and 0.49 sit near the ends of (0, 1/2).
        """
        t0 = time.perf_counter()
        ns = range(4, 11)
        for alpha in (0.05, 0.2, 0.45, 0.49):
            parts = {
                n: decompose_second_iterate(CounterexampleSpec(delta=DELTA, alpha=alpha, h_xi=H_XI), n)
                for n in ns
            }

            def slope(key):
                return float(np.polyfit(list(ns), [np.log2(getattr(parts[n], key)) for n in ns], 1)[0])

            data_rate = -(1.0 - 2.0 * alpha)
            s_crit, s_b12, s_bgh = slope("d_crit"), slope("b12"), slope("bgh")
            assert abs(s_crit - data_rate) <= 0.03, f"alpha={alpha}: d_crit slope {s_crit:+.4f} not {data_rate:+.2f}"
            assert abs(s_b12 + 1.0) <= 0.15, f"alpha={alpha}: b12 slope {s_b12:+.4f} not -1.0 +/- 0.15"
            assert abs(s_bgh + 1.0) <= 0.03, f"alpha={alpha}: bgh slope {s_bgh:+.4f} not -1.0 +/- 0.03"
            assert s_bgh <= data_rate, f"alpha={alpha}: bgh slope {s_bgh:+.4f} above the data rate {data_rate:+.4f}"
            plateau = [parts[n].b11 for n in range(6, 11)]
            ratio = max(plateau) / min(plateau)
            assert ratio <= 1.1, f"alpha={alpha}: b11 plateau max/min {ratio:.4f} exceeds 1.1"
        assert time.perf_counter() - t0 < 30.0

    @pytest.mark.parametrize("alpha", [0.4, 0.2])
    def test_torus_gap_signature(self, alpha):
        """The nonlinear part of the solution gap persists while the data
        distance decays, on a torus that holds n = 3..6; under 15 min.

        On K=1024, L=2pi the dealias cutoff is 170.5 and the top truncation
        2^7 = 128 holds every force up to n = 6 (|xi| about 66), which is
        asserted before each solve. The full gap theta[f] - theta[g] contains
        the linear response (-Delta)^{-a}(f - g), whose critical norm is d_crit
        itself, so gap_crit / d_crit is 1 + O(delta) at every feasible n. The
        signature lives in the nonlinear part
        G_n = ||theta[f] - theta[g] - (-Delta)^{-a}(f - g)||_{2-2a}, which the
        patch second-iterate gap g2_gap approximates; the two backends must
        agree to 2%. At L=2pi their difference is the torus lattice
        (periodization) error, not an O(delta^3) remainder: at a = 0.4, n = 3
        it is 5.161e-3, 5.160e-3 and 5.159e-3 of g2_gap at delta = 0.02, 0.01
        and 0.005, flat in delta, and 1.08e-4 at L=4pi. d_crit decays exactly
        like 2^{-(1-2a)n}, so G_6 / d_crit_6 >= 2^{3(1-2a)} G_3 / d_crit_3
        says that G_n does not decay from n=3 to n=6. The low ratio
        gap_low / d_low stays within 2x.
        Both alphas are checked with the same bounds: at a = 0.2 the backends
        agree to 0.29-0.48% and the growth is 3.97 against the floor 3.48.
        """
        t0 = time.perf_counter()
        grid = make_grid(1024, 2.0 * np.pi)
        cfg = SolverConfig(alpha=alpha)
        n_top = default_schedule(grid)[-1]
        s_crit = 2.0 - 2.0 * alpha
        ns = (3, 4, 5, 6)
        d_crit, nonlin, low = {}, {}, {}
        spec = CounterexampleSpec(delta=DELTA, alpha=alpha, h_xi=H_XI)
        for n in ns:
            f_patch, g_patch, _ = build_forces(spec, n)
            f_t = to_torus(f_patch, grid)
            g_t = to_torus(g_patch, grid)
            for name, u in (("f", f_t), ("g", g_t)):
                assert np.array_equal(project_low(u, n_top).coeffs, u.coeffs), (
                    f"n={n}: {name} has content beyond the top truncation 2^{n_top}"
                )
            theta_f, _ = outer_iterate(f_t, cfg)
            theta_g, _ = outer_iterate(g_t, cfg)
            rec = GapRecord.between(f_t, g_t, theta_f, theta_g, alpha)
            d_crit[n] = rec.d_crit
            nonlin[n] = hs_norm(theta_f - theta_g - fractional_laplacian(f_t - g_t, -alpha), s_crit)
            low[n] = rec.gap_low / rec.d_low
            g2_gap = decompose_second_iterate(spec, n).g2_gap
            rel = abs(nonlin[n] - g2_gap) / g2_gap
            assert rel <= 0.02, (
                f"n={n}: torus nonlinear gap {nonlin[n]:.6e} and patch g2_gap {g2_gap:.6e} "
                f"differ by {rel:.3%}"
            )
        assert all(d_crit[a] > d_crit[b] for a, b in zip(ns, ns[1:])), f"d_crit does not decay: {d_crit}"
        floor = 2.0 ** (3.0 * (1.0 - 2.0 * alpha))
        growth = (nonlin[6] / d_crit[6]) / (nonlin[3] / d_crit[3])
        assert growth >= floor, (
            f"nonlinear gap-to-data ratio grew only {growth:.4f}x from n=3 to n=6, below {floor:.4f}x"
        )
        assert max(low.values()) < 2.0 * min(low.values()), (
            f"low ratios vary {max(low.values()) / min(low.values()):.4f}x"
        )
        assert time.perf_counter() - t0 < 900.0

    def test_remainder_order(self):
        """Picard remainder decays with log-slope >= 2.7 in the amplitude; under 3 min."""
        t0 = time.perf_counter()
        grid = make_grid(256, np.pi)
        a = builtin_force("two_mode", grid, 1.0)
        deltas = (1e-2, 5e-3, 2.5e-3)
        rems = []
        for delta in deltas:
            theta, _ = outer_iterate(delta * a, SolverConfig(alpha=ALPHA, outer_tol=1e-9))
            rems.append(hs_norm(theta - theta2_full(delta * a, ALPHA), 2.0 - 2.0 * ALPHA))
        slope = float(np.polyfit(np.log2(deltas), np.log2(rems), 1)[0])
        assert slope >= 2.7, f"remainder slope {slope:.4f} below 2.7"
        assert time.perf_counter() - t0 < 180.0

    def test_ratio_saturation(self):
        """Worst probe ratios move < 10% when samples double 200 -> 400; under 2 min."""
        t0 = time.perf_counter()
        grid = make_grid(128, np.pi)
        prod_200 = run_product_probe(grid, product_operating_point(ALPHA), 200, 42)
        prod_400 = run_product_probe(grid, product_operating_point(ALPHA), 400, 42)
        assert prod_400.worst_ratio <= 1.1 * prod_200.worst_ratio, (
            f"product maximum grew {prod_400.worst_ratio / prod_200.worst_ratio:.4f}x"
        )
        comm_200 = run_commutator_probe(grid, commutator_operating_point(ALPHA), 200, 10042)
        comm_400 = run_commutator_probe(grid, commutator_operating_point(ALPHA), 400, 10042)
        assert comm_400.worst_ratio <= 1.1 * comm_200.worst_ratio, (
            f"commutator maximum grew {comm_400.worst_ratio / comm_200.worst_ratio:.4f}x"
        )
        assert time.perf_counter() - t0 < 120.0
