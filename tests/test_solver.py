"""Tests for the Lax-Milgram linear solves and the outer iteration."""
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.fft import next_fast_len

from sqglab import (
    ConfigError,
    ConvergenceError,
    GapRecord,
    SmallnessError,
    SolverConfig,
    SolveStep,
    SpectralField,
    advect,
    apply_lax_milgram_operator,
    bilinear_B,
    default_schedule,
    field_from_modes,
    fractional_laplacian,
    hs_norm,
    l2_inner,
    linear_solve,
    make_grid,
    outer_iterate,
    picard_theta1,
    project_low,
    residual,
    theta2,
    to_physical,
    velocity_from_theta,
    velocity_hs_norm,
)
from sqglab.field import _level_field
from lattice_tables import Lattice, cauchy_constant, low_pass_mask, x_axis

ALPHA = 0.4


def zero_velocity(grid):
    zero = field_from_modes(grid, {})
    return velocity_from_theta(zero)


def ball_field(grid, rng, N):
    """Random Hermitian field supported on the lattice ball |k| <= 2^N."""
    mask = low_pass_mask(grid, N).copy()
    mask[0, 0] = False
    c = np.where(mask, rng.standard_normal((grid.K, grid.K)) + 1j * rng.standard_normal((grid.K, grid.K)), 0.0)
    K = grid.K
    idx = (-np.arange(K)) % K
    c = 0.5 * (c + np.conj(c[np.ix_(idx, idx)]))
    return SpectralField(grid, c)


def small_velocity(grid, rng, alpha, size=0.05):
    """Velocity from a random scalar, scaled to the given critical norm."""
    w = ball_field(grid, rng, 2)
    v = velocity_from_theta(w)
    cur = velocity_hs_norm(v, 2 - 2 * alpha)
    return velocity_from_theta(w * (size / cur))


def disk_filling_force(grid):
    """A random force on the ball |k| <= 16 whose top-level iterates fill the top disk at K=64, L=pi."""
    f = ball_field(grid, np.random.default_rng(7), 4)
    return f * (3e-2 / hs_norm(f, 0.0))


def unseeded_outer_loop(f, cfg):
    """outer_iterate without the hand-off: every solve samples its own velocity and GMRES applies A to
    its x0. Returns theta, the steps and, per step, the x0 that outer_iterate seeds from the previous
    residual's product (None where it does not)."""
    import sqglab.solver as solver

    grid = f.grid
    a = cfg.alpha
    n_top = default_schedule(grid)[-1]
    target = cfg.outer_tol * hs_norm(f, -a)
    first = grid.level(1)
    theta = _level_field(grid, first, solver._low_data(f, first, a))
    res = residual(theta, f, a, project_N=n_top).r_norm
    h = hs_norm(theta, a)
    steps = [SolveStep(n=1, h_alpha=h, h_crit=hs_norm(theta, 2.0 - 2.0 * a), diff_h_alpha=h, inner_iters=0,
                       residual=res)]
    seeds = [None]
    N = 1
    while not (N == n_top and res <= target):
        N = min(N + 1, n_top)
        x0 = theta if N == n_top else None
        new, info = solver._linear_solve_info(velocity_from_theta(theta), f, N, cfg, x0=x0)
        seeds.append(x0 if x0 is not None and x0.max_mode_index() == grid.level(n_top).M else None)
        diff = hs_norm(new - theta, a)
        theta = new
        res = residual(theta, f, a, project_N=n_top).r_norm
        steps.append(SolveStep(
            n=N, h_alpha=hs_norm(theta, a), h_crit=hs_norm(theta, 2.0 - 2.0 * a), diff_h_alpha=diff,
            residual=res, **info,
        ))
    return theta, steps, seeds


class TestConfig:
    """Solver configuration validation."""

    def test_alpha_range(self):
        """alpha must lie in (0, 1/2]."""
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(alpha=0.6)
        assert SolverConfig(alpha=0.5).alpha == 0.5

    def test_positive_tolerances(self):
        """Tolerances and caps must be positive."""
        with pytest.raises(ConfigError):
            SolverConfig(alpha=ALPHA, inner_tol=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(alpha=ALPHA, max_outer=0)

    def test_default_schedule_tracks_dealias_band(self):
        """The default schedule tops out below the dealias wavenumber."""
        g = make_grid(64, np.pi)
        sched = default_schedule(g)
        assert sched == (1, 2, 3, 4)
        assert 2.0 ** sched[-1] <= g.dealias_k


class TestLaxMilgramOperator:
    """The operator theta + (-Delta)^{-alpha} P_N (v . grad theta)."""

    def test_zero_velocity_is_identity(self):
        """With v=0 the operator is the identity on its domain."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.2})
        out = apply_lax_milgram_operator(zero_velocity(g), theta, 2, ALPHA)
        np.testing.assert_allclose(out.coeffs, theta.coeffs, atol=1e-15)

    def test_self_advection_drops_out(self):
        """A single-mode theta rides its own velocity unchanged."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        v = velocity_from_theta(theta)
        out = apply_lax_milgram_operator(v, theta, 1, ALPHA)
        np.testing.assert_allclose(out.coeffs, theta.coeffs, atol=1e-15)

    def test_coercivity_monte_carlo(self):
        """<A theta, theta> >= 0.5 ||theta||_{L^2}^2 for admissible velocities."""
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(29)
        for _ in range(20):
            v = small_velocity(g, rng, ALPHA, size=0.09)
            theta = ball_field(g, rng, 2)
            out = apply_lax_milgram_operator(v, theta, 2, ALPHA)
            quad = l2_inner(out, theta)
            assert quad >= 0.5 * hs_norm(theta, 0.0) ** 2

    def test_in_range_theta_gives_the_bits_of_its_projection(self, monkeypatch):
        """A theta in the range of P_N gives the bits of the call on project_low(theta, N).

        A level field, as GMRES builds, is its own projection and is not projected again; a field of
        smaller radius, or one with 1e-13-relative content off the disk, is projected first.
        """
        import sqglab.solver as solver

        projected = []
        project = solver.project_low
        monkeypatch.setattr(solver, "project_low", lambda u, N: projected.append(N) or project(u, N))
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(31)
        v = small_velocity(g, rng, ALPHA, size=0.09)
        level = g.level(2)
        krylov = _level_field(g, level, rng.standard_normal(level.pos.size) + 1j * rng.standard_normal(level.pos.size))
        corner = field_from_modes(g, {(4, 4): 1e-13 * np.max(np.abs(krylov.half))})  # |k| = 4 sqrt(2) > 2^2
        for theta, projections in ((krylov, 0), (field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.2}), 1),
                                   (krylov + corner, 1)):
            want = apply_lax_milgram_operator(v, project_low(theta, 2), 2, ALPHA)
            projected.clear()
            out = apply_lax_milgram_operator(v, theta, 2, ALPHA)
            assert len(projected) == projections
            assert out.half.tobytes() == want.half.tobytes()
        assert out.half.tobytes() == apply_lax_milgram_operator(v, krylov, 2, ALPHA).half.tobytes()

    def test_out_of_range_theta_rejected(self):
        """theta must already live in the range of P_N."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(5, 0): -0.5j})
        with pytest.raises(ValueError, match="P_2"):
            apply_lax_milgram_operator(zero_velocity(g), theta, 2, ALPHA)


class TestLinearSolve:
    """Truncated linear problem via matrix-free GMRES."""

    def test_zero_velocity_inverts_exactly(self):
        """With v=0 the solution is (-Delta)^{-alpha} P_N f."""
        g = make_grid(32, np.pi)
        f = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.2, (6, 0): 0.3})
        cfg = SolverConfig(alpha=ALPHA)
        theta = linear_solve(zero_velocity(g), f, 2, cfg)
        expected = fractional_laplacian(project_low(f, 2), -ALPHA)
        np.testing.assert_allclose(theta.coeffs, expected.coeffs, atol=1e-14)

    def test_zero_force_short_circuits(self):
        """A zero right-hand side returns the zero field without iterating."""
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(31)
        v = small_velocity(g, rng, ALPHA)
        cfg = SolverConfig(alpha=ALPHA)
        theta = linear_solve(v, field_from_modes(g, {}), 2, cfg)
        assert hs_norm(theta, 0.0) == 0.0

    def test_matches_dense_oracle(self):
        """GMRES agrees with a dense direct solve on the truncated ball.

        At K=16 and N=2 every product mode stays inside the dealias band,
        so the convolution matrix is the exact operator.
        """
        g = make_grid(16, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        eta = 0.02
        f = field_from_modes(g, {(1, 0): 0.5})
        v = velocity_from_theta(field_from_modes(g, {(1, 0): -0.5j * eta}))
        theta = linear_solve(v, f, 2, cfg)

        mask = low_pass_mask(g, 2).copy()
        mask[0, 0] = False
        rows = np.argwhere(mask)
        dim = len(rows)
        A = np.zeros((dim, dim), dtype=np.complex128)
        lat = Lattice(g)
        kvec = np.stack([lat.kx[mask], lat.ky[mask]], axis=1)
        kmag2 = lat.k2[mask]
        v1c, v2c = v.v1.coeffs, v.v2.coeffs
        K = g.K
        for i in range(dim):
            for j in range(dim):
                di = (rows[i] - rows[j]) % K
                vdot = v1c[di[0], di[1]] * kvec[j, 0] + v2c[di[0], di[1]] * kvec[j, 1]
                A[i, j] = (1.0 if i == j else 0.0) + kmag2[i] ** (-ALPHA) * 1j * vdot
        b = fractional_laplacian(project_low(f, 2), -ALPHA).coeffs[mask]
        x = np.linalg.solve(A, b)
        np.testing.assert_allclose(theta.coeffs[mask], x, rtol=1e-9, atol=1e-14)

    def test_random_cases_match_dense_oracle(self):
        """The dense comparison holds for random admissible data too."""
        g = make_grid(16, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        rng = np.random.default_rng(37)
        mask = low_pass_mask(g, 2).copy()
        mask[0, 0] = False
        rows = np.argwhere(mask)
        dim = len(rows)
        lat = Lattice(g)
        kvec = np.stack([lat.kx[mask], lat.ky[mask]], axis=1)
        kmag2 = lat.k2[mask]
        for _ in range(3):
            v = small_velocity(g, rng, ALPHA, size=0.08)
            f = ball_field(g, rng, 2)
            theta = linear_solve(v, f, 2, cfg)
            A = np.zeros((dim, dim), dtype=np.complex128)
            for i in range(dim):
                for j in range(dim):
                    di = (rows[i] - rows[j]) % g.K
                    vdot = (
                        v.v1.coeffs[di[0], di[1]] * kvec[j, 0]
                        + v.v2.coeffs[di[0], di[1]] * kvec[j, 1]
                    )
                    A[i, j] = (1.0 if i == j else 0.0) + kmag2[i] ** (-ALPHA) * 1j * vdot
            b = fractional_laplacian(project_low(f, 2), -ALPHA).coeffs[mask]
            x = np.linalg.solve(A, b)
            np.testing.assert_allclose(theta.coeffs[mask], x, rtol=1e-9, atol=1e-13)

    def test_output_exactly_hermitian(self):
        """The solution is a real field bit for bit, with no symmetrising step.

        GMRES runs on the real and imaginary parts of the half-disk modes, so
        each partner is the exact conjugate and the mean is exactly zero.
        """
        g = make_grid(32, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        rng = np.random.default_rng(47)
        flip = (-np.arange(g.K)) % g.K
        for N in (1, 2, 3):
            v = small_velocity(g, rng, ALPHA, size=0.09)
            theta = linear_solve(v, ball_field(g, rng, N), N, cfg)
            c = theta.coeffs
            assert np.any(c != 0)
            assert np.array_equal(c, np.conj(c[np.ix_(flip, flip)]))
            assert c[0, 0] == 0.0
            assert not np.any(c[~low_pass_mask(g, N)])

    def test_inner_residual_is_fresh_residual(self, monkeypatch):
        """inner_residual is the relative residual of a fresh operator application at the returned iterate,
        and the product GMRES's stopping test already made is not repeated."""
        import sqglab.solver as solver

        calls = []
        apply = solver.apply_lax_milgram_operator

        def counted(v, theta, N, alpha):
            calls.append(N)
            return apply(v, theta, N, alpha)

        monkeypatch.setattr(solver, "apply_lax_milgram_operator", counted)
        g = make_grid(32, np.pi)
        rng = np.random.default_rng(37)
        v = small_velocity(g, rng, ALPHA)
        f = ball_field(g, rng, 3)
        level = g.level(3)
        b = fractional_laplacian(project_low(f, 3), -ALPHA)
        for x0 in (None, 0.5 * b):  # the default start b, and a warm start
            calls.clear()
            theta, info = solver._linear_solve_info(v, f, 3, SolverConfig(alpha=ALPHA), x0=x0)
            # one restart cycle: b - A x0, one product per iteration, b - A x at the end
            assert info["inner_iters"] < 50
            assert info["matvecs"] == len(calls) == info["inner_iters"] + 2
            b_vec = solver._disk_values(b, level).view(np.float64)
            ax = solver._disk_values(apply(v, theta, 3, ALPHA), level).view(np.float64)
            assert info["inner_residual"] == float(np.linalg.norm(b_vec - ax) / np.linalg.norm(b_vec))
            assert 0 < info["inner_residual"] <= 1e-10

    def test_a_priori_bound(self):
        """||theta_N||_{H^alpha} <= ||f||_{H^{-alpha}} up to rounding."""
        g = make_grid(32, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        rng = np.random.default_rng(41)
        for _ in range(10):
            v = small_velocity(g, rng, ALPHA, size=0.09)
            f = ball_field(g, rng, 2)
            theta = linear_solve(v, f, 2, cfg)
            assert hs_norm(theta, ALPHA) <= hs_norm(f, -ALPHA) * (1 + 1e-8)

    def test_large_velocity_rejected(self):
        """Velocities past the coercivity threshold raise SmallnessError."""
        g = make_grid(32, np.pi)
        v = velocity_from_theta(field_from_modes(g, {(1, 0): -0.5j}))
        f = field_from_modes(g, {(1, 0): 0.5})
        with pytest.raises(SmallnessError, match="threshold"):
            linear_solve(v, f, 2, SolverConfig(alpha=ALPHA))

    def test_nan_velocity_rejected(self):
        """A NaN velocity norm fails the gate instead of passing every comparison."""
        g = make_grid(32, np.pi)
        v = velocity_from_theta(field_from_modes(g, {(1, 0): -0.5j}) * np.nan)
        f = field_from_modes(g, {(1, 0): 0.5})
        with pytest.raises(SmallnessError, match="nan"):
            linear_solve(v, f, 2, SolverConfig(alpha=ALPHA))

    def test_cutoff_beyond_band_rejected(self):
        """2^N beyond the dealias wavenumber is refused."""
        g = make_grid(32, np.pi)
        f = field_from_modes(g, {(1, 0): 0.5})
        with pytest.raises(ValueError, match="dealias"):
            linear_solve(zero_velocity(g), f, 6, SolverConfig(alpha=ALPHA))

    def test_warm_start_agrees(self):
        """Warm and cold starts land on the same solution."""
        import sqglab.solver as solver

        g = make_grid(32, np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        rng = np.random.default_rng(43)
        v = small_velocity(g, rng, ALPHA)
        f = ball_field(g, rng, 2)
        cold = linear_solve(v, f, 2, cfg)
        warm, _ = solver._linear_solve_info(v, f, 2, cfg, x0=cold)  # the outer iteration's warm start
        scale = np.max(np.abs(cold.coeffs))
        np.testing.assert_allclose(warm.coeffs, cold.coeffs, atol=1e-8 * scale)


class TestResidual:
    """The nonlinear defect (-Delta)^alpha theta + v.grad theta - f."""

    def test_exact_single_mode_solution(self):
        """theta = sin(x1) solves the problem with f = sin(x1) exactly."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        rec = residual(theta, theta, ALPHA)
        assert rec.r_norm <= 1e-14

    def test_zero_fields(self):
        """Zero data has zero residual."""
        g = make_grid(32, np.pi)
        zero = field_from_modes(g, {})
        assert residual(zero, zero, ALPHA).r_norm == 0.0

    def test_projection_restricts_force(self):
        """With project_N the force outside the ball does not count."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        f_extra = field_from_modes(g, {(1, 0): -0.5j, (7, 0): 0.3})
        rec = residual(theta, f_extra, ALPHA, project_N=2)
        assert rec.r_norm <= 1e-14
        assert residual(theta, f_extra, ALPHA).r_norm > 0.1

    def test_detects_wrong_amplitude(self):
        """A miscaled candidate leaves a first-order residual."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        f = field_from_modes(g, {(1, 0): -0.55j})
        np.testing.assert_allclose(residual(theta, f, ALPHA).r_norm, 0.1 * np.pi * np.sqrt(2), rtol=1e-12)


class TestOuterIterate:
    """Dyadic truncation sweep with top-level refinement."""

    def test_zero_force(self):
        """f = 0 converges to the zero solution along the whole schedule."""
        g = make_grid(64, np.pi)
        theta, report = outer_iterate(field_from_modes(g, {}), SolverConfig(alpha=ALPHA))
        assert report.converged
        assert hs_norm(theta, ALPHA) == 0.0
        assert len(report.steps) == len(default_schedule(g))

    def test_single_mode_fixed_point(self):
        """f = delta*(-Delta)^alpha sin(x1) has theta = delta*sin(x1) exactly."""
        g = make_grid(64, np.pi)
        delta = 1e-2
        f = fractional_laplacian(field_from_modes(g, {(1, 0): -0.5j * delta}), ALPHA)
        theta, report = outer_iterate(f, SolverConfig(alpha=ALPHA))
        assert report.converged
        gap = theta - field_from_modes(g, {(1, 0): -0.5j * delta})
        assert hs_norm(gap, ALPHA) <= 1e-10 * delta
        assert report.c_star == pytest.approx(1.0, rel=1e-10)

    def test_two_mode_force_converges(self):
        """A genuinely nonlinear small force converges under the tolerance."""
        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        cfg = SolverConfig(alpha=ALPHA)
        theta, report = outer_iterate(f, cfg)
        assert report.converged
        assert report.residual <= cfg.outer_tol * hs_norm(f, -ALPHA)
        rec = residual(theta, f, ALPHA, project_N=default_schedule(g)[-1])
        np.testing.assert_allclose(rec.r_norm, report.residual, rtol=1e-10)
        assert report.c_star is not None and report.c_star <= 1.01

    def test_per_step_contraction(self):
        """Step differences obey diff_{j+1} <= 0.75 diff_j + C 2^{-alpha n/2}."""
        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp, (2, 1): 0.3j * amp})
        _, report = outer_iterate(f, SolverConfig(alpha=ALPHA))
        c = cauchy_constant(report)
        assert np.isfinite(c)
        for prev, cur in zip(report.steps, report.steps[1:]):
            bound = 0.75 * prev.diff_h_alpha + c * 2.0 ** (-ALPHA * prev.n / 2)
            assert cur.diff_h_alpha <= bound * (1 + 1e-12)

    def test_large_force_trips_smallness_gate(self):
        """A force of order one induces an inadmissible velocity."""
        g = make_grid(64, np.pi)
        f = fractional_laplacian(field_from_modes(g, {(1, 0): -0.5j * 10.0}), ALPHA)
        with pytest.raises(SmallnessError):
            outer_iterate(f, SolverConfig(alpha=ALPHA))

    def test_outer_cap_carries_best_iterate(self):
        """Hitting the outer cap raises but keeps the best iterate."""
        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        with pytest.raises(ConvergenceError) as err:
            outer_iterate(f, SolverConfig(alpha=ALPHA, max_outer=1))
        assert err.value.best is not None
        assert err.value.residual_rel is not None and err.value.residual_rel > 0

    def test_nyquist_force_converges(self):
        """The schedule stops inside the dealias band, below the Nyquist line, so a force on that line converges."""
        g = make_grid(32, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (16, 0): 0.1 * amp})
        _, report = outer_iterate(f, SolverConfig(alpha=ALPHA))
        assert report.converged
        assert [s.n for s in report.steps[:3]] == [1, 2, 3] and report.steps[-1].n == 3

    def test_step_counters(self, monkeypatch):
        """Each step counts its operator applications and the size of their transforms.

        A solve makes one application at its start, one per GMRES iteration and one for GMRES's final
        residual; a seeded step, which starts from the previous residual's product, makes one fewer.
        The two-mode iterates never fill the top disk, so none of its steps is seeded.
        """
        import sqglab.solver as solver

        calls = []
        apply = solver.apply_lax_milgram_operator

        def counted(v, theta, N, alpha):
            calls.append(N)
            return apply(v, theta, N, alpha)

        monkeypatch.setattr(solver, "apply_lax_milgram_operator", counted)
        g = make_grid(64, np.pi)
        amp = 1e-2
        two_mode = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        for f, seeded in ((two_mode, 0), (disk_filling_force(g), 2)):
            calls.clear()
            _, report = outer_iterate(f, SolverConfig(alpha=ALPHA))
            first, rest = report.steps[0], report.steps[1:]
            assert (first.matvecs, first.transform_size) == (0, 0)
            assert sum(s.matvecs for s in rest) == len(calls)
            assert [s.matvecs - s.inner_iters for s in rest] == [2] * (len(rest) - seeded) + [1] * seeded
            for s in rest:
                M = g.level(s.n).M
                assert 2 * M + 1 < s.transform_size <= next_fast_len(3 * M + 1, real=True) < g.K

    def test_handoff_matches_the_unseeded_loop(self, monkeypatch):
        """Handing each residual's velocity and product to the next solve changes no bit of theta or of
        any step but matvecs, and a seeded step never applies the operator to its x0."""
        import sqglab.solver as solver

        inputs = []
        apply = solver.apply_lax_milgram_operator

        def recorded(v, theta, N, alpha):
            inputs.append((theta.M, theta.half.tobytes()))
            return apply(v, theta, N, alpha)

        monkeypatch.setattr(solver, "apply_lax_milgram_operator", recorded)
        g = make_grid(64, np.pi)
        f = disk_filling_force(g)
        cfg = SolverConfig(alpha=ALPHA)
        theta, report = outer_iterate(f, cfg)
        applied = inputs[:]
        inputs.clear()
        want, steps, seeds = unseeded_outer_loop(f, cfg)
        assert (theta.M, theta.half.tobytes()) == (want.M, want.half.tobytes())
        assert len(report.steps) == len(steps)
        new_start = old_start = 0
        for s, o, x0 in zip(report.steps, steps, seeds):
            assert repr(replace(s, matvecs=0)) == repr(replace(o, matvecs=0))
            new_inputs = applied[new_start : new_start + s.matvecs]
            old_inputs = inputs[old_start : old_start + o.matvecs]
            new_start, old_start = new_start + s.matvecs, old_start + o.matvecs
            if x0 is None:
                assert s.matvecs == o.matvecs
            else:
                assert (s.matvecs, o.matvecs) == (s.inner_iters + 1, s.inner_iters + 2)
                assert old_inputs[0] == (x0.M, x0.half.tobytes())  # the oracle's step starts with A x0
                assert (x0.M, x0.half.tobytes()) not in new_inputs
        assert (new_start, old_start) == (len(applied), len(inputs))
        assert sum(x0 is not None for x0 in seeds) == 2

    @pytest.mark.parametrize("L, levels", [("1e-12", [42, 43]), ("1e-20", [69, 70])])
    def test_tiny_period_walks_no_empty_level(self, tmp_path, L, levels):
        """`sqg-lab solve --K 16 --L 1e-12` and `--L 1e-20` start at the first level that holds a lattice
        mode (levels below it are empty, since pi/L > 2^N), so the single-mode force, an exact solution,
        converges in two outer steps instead of walking the empty levels."""
        from sqglab.cli import main

        out = tmp_path / "o"
        assert main(["solve", "--K", "16", "--L", L, "--outdir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert [s["n"] for s in report["steps"]] == levels

    def test_report_serializes(self):
        """The report renders to plain JSON-ready types, as report.json writes it."""
        g = make_grid(64, np.pi)
        f = fractional_laplacian(field_from_modes(g, {(1, 0): -0.5j * 1e-2}), ALPHA)
        _, report = outer_iterate(f, SolverConfig(alpha=ALPHA))
        d = json.loads(json.dumps(asdict(report)))
        assert d["converged"] is True
        assert isinstance(d["steps"], list) and isinstance(d["steps"][0]["n"], int)


class TestPicardIterates:
    """Closed-form first and second Picard iterates."""

    def test_theta1_unit_mode(self):
        """theta_1 of sin(x1) is sin(x1) at any alpha."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(1, 0): -0.5j})
        np.testing.assert_allclose(picard_theta1(a, ALPHA).coeffs, a.coeffs, atol=1e-15)

    def test_theta1_second_mode_half_power(self):
        """theta_1 of sin(2x1) at alpha=1/2 is sin(2x1)/2."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(2, 0): -0.5j})
        out = picard_theta1(a, 0.5)
        np.testing.assert_allclose(out.coeffs, 0.5 * a.coeffs, atol=1e-15)

    def test_plane_wave_self_interaction_vanishes(self):
        """B[a, a] = 0 for a single plane wave."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(3, 1): 0.2j})
        assert np.max(np.abs(bilinear_B(a, a, ALPHA).coeffs)) <= 1e-15

    def test_cross_term_closed_form(self):
        """B[cos x1, cos x2] = -2^{-alpha} sin(x1) sin(x2)."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(1, 0): 0.5})
        b = field_from_modes(g, {(0, 1): 0.5})
        out = bilinear_B(a, b, ALPHA)
        x = x_axis(g)
        X, Y = np.meshgrid(x, x, indexing="ij")
        np.testing.assert_allclose(
            to_physical(out), -(2.0**-ALPHA) * np.sin(X) * np.sin(Y), atol=1e-13
        )

    def test_bilinearity(self):
        """B is additive and homogeneous in each slot."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(1, 0): 0.5})
        b = field_from_modes(g, {(0, 1): 0.5})
        c = field_from_modes(g, {(1, 1): -0.3j})
        left = bilinear_B(a, b + c, ALPHA)
        right = bilinear_B(a, b, ALPHA) + bilinear_B(a, c, ALPHA)
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)
        np.testing.assert_allclose(
            bilinear_B(2.0 * a, b, ALPHA).coeffs, 2.0 * bilinear_B(a, b, ALPHA).coeffs, atol=1e-12
        )

    def test_theta2_combines_iterates(self):
        """theta2 = theta_1 - B[a, a]."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(1, 0): 0.5, (0, 1): 0.5})
        out = theta2(a, ALPHA)
        expected = picard_theta1(a, ALPHA) - bilinear_B(a, a, ALPHA)
        np.testing.assert_allclose(out.coeffs, expected.coeffs, atol=1e-15)


class TestPairGap:
    """Data-to-solution distances for solved force pairs."""

    def solved_pair(self, delta):
        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        h = f + field_from_modes(g, {(2, 1): delta * amp})
        cfg = SolverConfig(alpha=ALPHA)
        return f, h, outer_iterate(f, cfg)[0], outer_iterate(h, cfg)[0]

    def test_identical_forces(self):
        """f = g gives zero force distance and zero solution gap."""
        rec = GapRecord.between(*self.solved_pair(0.0), ALPHA)
        assert rec.d_low == 0.0 and rec.d_crit == 0.0
        assert rec.gap_low <= 1e-12 and rec.gap_crit <= 1e-12

    def test_small_perturbation_is_lipschitz(self):
        """Nearby small forces give solution gaps of the same size."""
        rec = GapRecord.between(*self.solved_pair(1e-3), ALPHA)
        assert rec.gap_crit <= 1.1 * rec.d_crit
        assert rec.gap_low <= 1.1 * rec.d_low

    def test_swapped_pair_is_identical(self):
        """Swapping the pair gives a bit-identical record, so a caller's subtraction order is free."""
        f, h, theta_f, theta_h = self.solved_pair(1e-3)
        rec = GapRecord.between(f, h, theta_f, theta_h, ALPHA)
        assert rec.gap_crit > 0.0
        assert GapRecord.between(h, f, theta_h, theta_f, ALPHA) == rec


class TestScalingCovariance:
    """Dyadic rescaling maps solutions to solutions."""

    def test_rescaled_pair_still_solves(self):
        """theta -> 2^{2a-1}, f -> 2^{4a-1} rescale preserves the equation."""
        from sqglab import rescale

        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        cfg = SolverConfig(alpha=ALPHA, outer_tol=1e-11)
        theta, _ = outer_iterate(f, cfg)
        base = residual(theta, f, ALPHA, project_N=4).r_norm

        theta_z = rescale(theta, 2 * ALPHA - 1.0)
        # residual terms scale by 2^{4 alpha - 1} and the -alpha norm by
        # 2^{-(1 + alpha)}; compare against the matching exact force
        adv = advect(velocity_from_theta(theta), theta)
        f_exact = fractional_laplacian(theta, ALPHA) + project_low(adv, 4)
        f_z = rescale(f_exact, 4 * ALPHA - 1.0)
        scaled = residual(theta_z, f_z, ALPHA, project_N=4).r_norm
        factor = 2.0 ** (4 * ALPHA - 1.0) * 2.0 ** (-(1 + ALPHA))
        assert scaled <= (base * factor + 1e-13) * 1.001
