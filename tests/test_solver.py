"""Tests for the Lax-Milgram linear solves and the outer iteration."""
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse.linalg
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
from sqglab.field import _advect_level, _level_field, _new, _resize
from lattice_tables import Lattice, bilinear_B, cauchy_constant, low_pass_mask, theta2_full, x_axis

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
    """outer_iterate without the hand-off: every solve samples its own velocity, GMRES applies A to its
    x0 and every step evaluates its residual. Each solve starts from theta on the previous level's disk
    and from b = (-Delta)^{-alpha} P_N f on the band beyond it, and the residual closing the level below
    the top takes its product at the top radius, so at the top solve's transform size. Returns theta, the
    steps and, per step, the field of the x0 that outer_iterate seeds from the previous residual's product
    (None where it does not)."""
    import sqglab.solver as solver

    grid = f.grid
    a = cfg.alpha
    n_top = default_schedule(grid)[-1]
    top = grid.level(n_top)
    target = cfg.outer_tol * hs_norm(f, -a)

    def residual_norm(theta, N):
        if N < n_top - 1:
            return residual(theta, f, a, project_N=n_top).r_norm
        theta = project_low(theta, n_top)
        adv = _advect_level(velocity_from_theta(theta), theta, top, theta_radius=top.M)
        return hs_norm(fractional_laplacian(theta, a) + _level_field(grid, top, adv) - project_low(f, n_top), -a)

    first = grid.level(1)
    theta = _level_field(grid, first, solver._low_data(f, first, a))
    res = residual_norm(theta, 1)
    h = hs_norm(theta, a)
    steps = [SolveStep(n=1, h_alpha=h, h_crit=hs_norm(theta, 2.0 - 2.0 * a), diff_h_alpha=h, inner_iters=0,
                       residual=res)]
    seeds = [None]
    N = 1
    while not (N == n_top and res <= target):
        prev, N = N, min(N + 1, n_top)
        level = grid.level(N)
        b = solver._low_data(f, level, a)
        band = level.square.k2.ravel()[level.pos] > grid.level(prev).bound
        x0 = np.where(band, b, solver._disk_values(theta, level))
        new, info = solver._linear_solve_info(velocity_from_theta(theta), f, N, cfg, x0=x0)
        seeds.append(_level_field(grid, level, x0) if N == n_top and not b[band].any() else None)
        diff = hs_norm(new - theta, a)
        theta = new
        res = residual_norm(theta, N)
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


class TestRangeOfP:
    """Every door into the truncated problem takes the same domain: 2^N inside the dealias band."""

    @pytest.mark.parametrize("door", ["apply_lax_milgram_operator", "residual", "theta2", "linear_solve"])
    def test_level_past_the_dealias_band_refused(self, door):
        """At K=32, L=pi the products stop at the dealias index 10, short of the disk of P_4 (index 16), so N=4
        is refused at every door with linear_solve's message."""
        g = make_grid(32, np.pi)
        assert g.dealias_level == 3
        theta = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.2})
        calls = {
            "apply_lax_milgram_operator": lambda: apply_lax_milgram_operator(zero_velocity(g), theta, 4, ALPHA),
            "residual": lambda: residual(theta, theta, ALPHA, project_N=4),
            "theta2": lambda: theta2(theta, ALPHA, project_N=4),
            "linear_solve": lambda: linear_solve(zero_velocity(g), theta, 4, SolverConfig(alpha=ALPHA)),
        }
        with pytest.raises(ValueError, match=r"2\^4 exceeds the top dealias level 2\^3"):
            calls[door]()


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
        for x0 in (None, solver._disk_values(0.5 * b, level)):  # the default start b, and a warm start
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

    def test_unreached_tolerance_carries_the_iterate(self):
        """A solve that cannot reach inner_tol within the fixed GMRES budget raises ConvergenceError naming
        inner_tol and the budget; it carries GMRES's last iterate, and residual_rel is that iterate's relative
        residual ||b - A theta|| / ||b||."""
        import sqglab.solver as solver

        g = make_grid(32, np.pi)
        rng = np.random.default_rng(41)
        v = small_velocity(g, rng, ALPHA, size=0.09)
        f = ball_field(g, rng, 3)
        with pytest.raises(ConvergenceError, match="inner_tol=1e-30 within the GMRES budget of 400 Arnoldi") as err:
            linear_solve(v, f, 3, SolverConfig(alpha=ALPHA, inner_tol=1e-30))
        level = g.level(3)
        b = solver._low_data(f, level, ALPHA).view(np.float64)
        ab = solver._disk_values(apply_lax_milgram_operator(v, err.value.best, 3, ALPHA), level).view(np.float64)
        assert err.value.residual_rel == np.linalg.norm(b - ab) / np.linalg.norm(b)
        assert 0 < err.value.residual_rel < 1e-12

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
        warm, _ = solver._linear_solve_info(v, f, 2, cfg, x0=solver._disk_values(cold, g.level(2)))  # a warm start
        scale = np.max(np.abs(cold.coeffs))
        np.testing.assert_allclose(warm.coeffs, cold.coeffs, atol=1e-8 * scale)


def assert_gmres_is_scipys(matvec, b, x0, rtol, restart, maxiter):
    """solver.gmres and scipy's gmres on one system: the same matvec count, Arnoldi steps equal to scipy's
    callback count, converged exactly when scipy's flag is 0, a returned norm that is ||b - A x|| to the
    bit, and iterates within 1e-12 of the largest entry. Returns scipy's flag and counts."""
    import sqglab.solver as solver

    counts = {"matvec": 0, "callback": 0}

    def mv(x):
        counts["matvec"] += 1
        return matvec(x)

    def cb(_pr_norm):
        counts["callback"] += 1

    x_ref, flag = scipy.sparse.linalg.gmres(
        scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=mv, dtype=np.float64), b, x0=x0,
        rtol=rtol, atol=0.0, restart=restart, maxiter=maxiter, callback=cb, callback_type="pr_norm",
    )
    ref = dict(counts)
    counts["matvec"] = 0
    x, rnorm, steps, converged = solver.gmres(mv, b, x0, rtol=rtol, restart=restart, maxiter=maxiter)
    assert (counts["matvec"], steps, converged) == (ref["matvec"], ref["callback"], flag == 0)
    assert rnorm == np.linalg.norm(b - matvec(x))
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))
    return flag, ref


class TestGmres:
    """The solver's restarted GMRES against scipy.sparse.linalg.gmres, the call it replaces."""

    @pytest.mark.parametrize("n,restart,maxiter,rtol,warm,scale,flag", [
        (40, 50, 8, 1e-10, False, 1.0, 0),  # one cycle
        (150, 10, 20, 1e-10, True, 1.0, 0),  # restarted, from a warm start
        (150, 5, 2, 1e-12, True, 1.0, 2),  # the cycle cap is hit
        (6, 50, 4, 1e-14, False, 1.0, 0),  # restart capped at n = 6; the residual estimate stops it
        (40, 50, 8, 1e-10, False, 1e-160, 0),  # squares underflow: the rotations scale as LAPACK's do
    ])
    def test_random_nonsymmetric(self, n, restart, maxiter, rtol, warm, scale, flag):
        """Random real nonsymmetric systems."""
        rng = np.random.default_rng(n + restart)
        A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = scale * rng.standard_normal(n)
        x0 = scale * rng.standard_normal(n) if warm else np.zeros(n)
        assert assert_gmres_is_scipys(lambda x: A @ x, b, x0, rtol, restart, maxiter)[0] == flag

    @pytest.mark.parametrize("diag, b, flag", [
        ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (1.0, 0.0, 0.0, 1.0, 0.0, 0.0), 0),  # x exact after two steps
        ((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 0.0, 0.0), 3),  # b half in the kernel: no x solves it
    ])
    def test_exact_breakdown(self, monkeypatch, diag, b, flag):
        """A diagonal A with b on two eigenvalues: the Krylov space closes after two steps, so the second step's
        new direction vanishes (breakdown) and its rotation sees g == 0. On the invertible A the two steps give
        x; on the singular A the rotated pivot is 0 too, its component is dropped and the solve stops unconverged."""
        import sqglab.solver as solver

        seen = []
        givens = solver._givens
        monkeypatch.setattr(solver, "_givens", lambda f, g: seen.append((f, g)) or givens(f, g))
        A, b = np.diag(diag), np.array(b)
        assert assert_gmres_is_scipys(lambda x: A @ x, b, np.zeros(b.size), 1e-14, 50, 3)[0] == flag
        assert len(seen) == 2 and seen[1][1] == 0 and (seen[1][0] == 0) == (flag != 0)

    def test_ill_conditioned(self):
        """Singular values from 1 to 1e-7: a cycle's residual estimate passes while b - A x does not, twice,
        so scipy's inner tolerance control tightens the next cycle's target."""
        rng = np.random.default_rng(1)
        U, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        V, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        A = U @ np.diag(np.logspace(0, -7, 20)) @ V.T
        b = rng.standard_normal(20)
        assert assert_gmres_is_scipys(lambda x: A @ x, b, np.zeros(20), 1e-10, 50, 20)[0] == 0

    @pytest.mark.parametrize("restart,maxiter", [(50, 8), (10, 20), (5, 2)])
    def test_given_ax0(self, restart, maxiter):
        """Handing GMRES A x0 gives the bits of x and of the residual norm it gets by computing A x0, with one
        product fewer: in one cycle, restarted, and when the cycle cap is hit."""
        import sqglab.solver as solver

        rng = np.random.default_rng(3)
        A = np.eye(150) + 0.5 * rng.standard_normal((150, 150)) / np.sqrt(150)
        b, x0 = rng.standard_normal(150), rng.standard_normal(150)
        runs = []
        for ax0 in (None, A @ x0):
            products = []

            def matvec(x):
                products.append(None)
                return A @ x

            x, rnorm, steps, converged = solver.gmres(matvec, b, x0, ax0, rtol=1e-12, restart=restart, maxiter=maxiter)
            runs.append((x.tobytes(), rnorm, steps, converged, len(products)))
        (x, rnorm, steps, converged, products), given = runs
        assert given == (x, rnorm, steps, converged, products - 1)

    @pytest.mark.parametrize("restart", [50, 2])
    def test_lax_milgram_system(self, restart):
        """The K=64 Lax-Milgram system of one linear solve, in one cycle and restarted every 2 iterations."""
        import sqglab.solver as solver

        g = make_grid(64, np.pi)
        rng = np.random.default_rng(47)
        v = small_velocity(g, rng, ALPHA, size=0.09)
        f = ball_field(g, rng, 4)
        level = g.level(4)

        def matvec(x):
            theta = _level_field(g, level, np.ascontiguousarray(x).view(np.complex128))
            return solver._disk_values(apply_lax_milgram_operator(v, theta, 4, ALPHA), level).view(np.float64)

        b = solver._low_data(f, level, ALPHA).view(np.float64)
        flag, counts = assert_gmres_is_scipys(matvec, b, b, 1e-10, restart, 100)
        assert flag == 0
        assert (counts["callback"] > restart) == (restart == 2)


class TestResidual:
    """The nonlinear defect (-Delta)^alpha theta + P_N(v.grad theta) - P_N f. On K=32, L=pi the level 3 holds
    every mode the untruncated cases touch, so there it is the untruncated defect."""

    def test_exact_single_mode_solution(self):
        """theta = sin(x1) solves the problem with f = sin(x1) exactly."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        rec = residual(theta, theta, ALPHA, project_N=3)
        assert rec.r_norm <= 1e-14

    def test_zero_fields(self):
        """Zero data has zero residual."""
        g = make_grid(32, np.pi)
        zero = field_from_modes(g, {})
        assert residual(zero, zero, ALPHA, project_N=3).r_norm == 0.0

    def test_projection_restricts_force(self):
        """The force outside the ball of P_N does not count, and inside it does."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        f_extra = field_from_modes(g, {(1, 0): -0.5j, (7, 0): 0.3})
        rec = residual(theta, f_extra, ALPHA, project_N=2)
        assert rec.r_norm <= 1e-14
        assert residual(theta, f_extra, ALPHA, project_N=3).r_norm > 0.1

    def test_detects_wrong_amplitude(self):
        """A miscaled candidate leaves a first-order residual."""
        g = make_grid(32, np.pi)
        theta = field_from_modes(g, {(1, 0): -0.5j})
        f = field_from_modes(g, {(1, 0): -0.55j})
        np.testing.assert_allclose(residual(theta, f, ALPHA, project_N=3).r_norm, 0.1 * np.pi * np.sqrt(2), rtol=1e-12)

    @staticmethod
    def field_formula(theta, f, alpha, N):
        """r and its norm as residual built them on the whole half square before the half-disk form."""
        v = velocity_from_theta(_new(theta.grid, _resize(theta.half, theta.max_mode_index())))
        level = theta.grid.level(N)
        values = _advect_level(v, theta, level, level.M if theta.M == level.M else None)
        r = fractional_laplacian(theta, alpha) + _level_field(theta.grid, level, values) - project_low(f, N)
        return r, hs_norm(r, -alpha)

    def test_half_disk_form_matches_the_field_formula(self):
        """On outer_iterate's iterates, which are their own projections, r and its norm keep the field formula's
        bits; a theta with modes past the level lies outside the range of P_N and is refused."""
        g = make_grid(64, np.pi)
        f = disk_filling_force(g)
        theta, _ = outer_iterate(f, SolverConfig(alpha=ALPHA))
        top = default_schedule(g)[-1]
        below = project_low(project_low(theta, top - 1), top)  # the level below, taken to the top radius
        wide = ball_field(g, np.random.default_rng(3), top) * 1e-2
        for u in (theta, below):
            rec = residual(u, f, ALPHA, project_N=top)
            r, r_norm = self.field_formula(u, f, ALPHA, top)
            assert rec.r_field.half.tobytes() == r.half.tobytes()
            assert rec.r_norm == r_norm
        with pytest.raises(ValueError, match=f"outside the range of P_{top - 1}"):
            residual(wide, f, ALPHA, project_N=top - 1)

    @pytest.mark.parametrize("K", [64, 256])
    def test_every_outer_residual_matches_the_field_formula(self, K, monkeypatch):
        """Every residual outer_iterate evaluates, the lower levels' iterates stored below the top radius among
        them, keeps the field formula's r (up to the sign of zero) and norm."""
        import sqglab.solver as solver

        calls = []
        evaluate = solver.residual
        monkeypatch.setattr(solver, "residual", lambda *args: calls.append((args, evaluate(*args))) or calls[-1][1])
        g = make_grid(K, np.pi)
        outer_iterate(disk_filling_force(g), SolverConfig(alpha=ALPHA))
        assert any(theta.M < g.level(N).M for (theta, _, _, N), _ in calls)
        for (theta, f_, alpha, N), rec in calls:
            r, r_norm = self.field_formula(theta, f_, alpha, N)
            assert (rec.r_field.half + 0.0).tobytes() == (r.half + 0.0).tobytes()  # -0 + 0 = +0
            assert rec.r_norm == r_norm

    def test_force_on_another_grid_refused(self):
        """theta and f must share a grid, whether theta is stored at the level's radius or not."""
        g, other = make_grid(32, np.pi), make_grid(32, 2 * np.pi)
        f = field_from_modes(other, {(1, 0): -0.5j})
        small = field_from_modes(g, {(1, 0): -0.5j, (2, 1): 0.2})
        for theta in (project_low(small, 2), small):
            with pytest.raises(ValueError, match="different grids"):
                residual(theta, f, ALPHA, project_N=2)

    def test_half_disk_form_on_a_shear(self):
        """A force of m2 = 0 modes alone has real coefficients that advection never mixes: there the half-disk
        r, closed by _close, can carry -0 where the field formula's arithmetic left +0 in the imaginary part
        of an m2 = 0 partner, and keeps its bits in every other entry and in its norm."""
        g = make_grid(32, np.pi)
        f = field_from_modes(g, {(1, 0): 2e-3, (2, 0): 1e-3})
        theta, _ = outer_iterate(f, SolverConfig(alpha=ALPHA))
        top = default_schedule(g)[-1]
        rec = residual(theta, f, ALPHA, project_N=top)
        r, r_norm = self.field_formula(theta, f, ALPHA, top)
        assert (rec.r_field.half + 0.0).tobytes() == (r.half + 0.0).tobytes()  # -0 + 0 = +0
        assert rec.r_norm == r_norm


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

    def test_stalled_top_level_solve_stops_at_once(self, monkeypatch):
        """A top-level solve that returns its start above the target returns it again at every later step. At
        K=64 with inner_tol=1e-4, the two-mode force's first top-level solve passes GMRES's test at its start
        with the residual 6.6e-7 above the target 5.6e-9: the loop raises ConvergenceError there, naming
        inner_tol, the residual and the target, instead of running on to the outer cap."""
        import sqglab.solver as solver

        levels = []
        solve = solver._linear_solve_info
        monkeypatch.setattr(solver, "_linear_solve_info", lambda v, f, N, *a: levels.append(N) or solve(v, f, N, *a))
        g = make_grid(64, np.pi)
        amp = 1e-2
        f = field_from_modes(g, {(1, 0): -0.5j * amp, (0, 2): 0.5 * amp})
        stalled = r"outer iteration stalled at inner_tol=0.0001 .* with residual 6.609e-07 \(target 5.575e-09\)"
        with pytest.raises(ConvergenceError, match=stalled) as err:
            outer_iterate(f, SolverConfig(alpha=ALPHA, inner_tol=1e-4))
        assert levels == [1, 2, 3, 4]
        assert err.value.best.M == g.level(4).M
        assert err.value.residual_rel == pytest.approx(6.609e-07 / hs_norm(f, -ALPHA), rel=1e-3)

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
        The two-mode force lies in the first level's disk, so its top step starts from theta and is
        seeded; the disk-filling force carries force on every band, so its first top step starts from b
        there and only its two refinement steps are seeded.
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
        for f, seeded in ((two_mode, 1), (disk_filling_force(g), 2)):
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

    def test_each_solve_starts_from_the_last_iterate(self, monkeypatch):
        """Each GMRES start holds the previous iterate's bits on the previous level's disk and those of
        b = (-Delta)^{-alpha} P_N f on the band beyond it: at the first solved level it is b itself, the
        start of a solve from no x0, and at a refinement step it is theta."""
        import sqglab.solver as solver

        solves, starts = [], []
        solve_info, gmres = solver._linear_solve_info, solver.gmres

        def solve_spy(v, f, N, cfg, x0=None, adv0=None, b=None):
            theta, info = solve_info(v, f, N, cfg, x0, adv0, b)
            solves.append((N, theta))
            return theta, info

        def gmres_spy(matvec, b, x0, *args, **kwargs):
            starts.append((b.copy(), np.array(x0)))
            return gmres(matvec, b, x0, *args, **kwargs)

        monkeypatch.setattr(solver, "_linear_solve_info", solve_spy)
        monkeypatch.setattr(solver, "gmres", gmres_spy)
        g = make_grid(64, np.pi)
        f = disk_filling_force(g)
        outer_iterate(f, SolverConfig(alpha=ALPHA))
        assert [N for N, _ in solves] == [1, 2, 3, 4, 4, 4] and len(starts) == len(solves) - 1
        for (prev, theta), (N, _), (b, x0) in zip(solves, solves[1:], starts):
            level = g.level(N)
            inside = level.square.k2.ravel()[level.pos] <= g.level(prev).bound
            start, b = x0.view(np.complex128), b.view(np.complex128)
            assert start[inside].tobytes() == solver._disk_values(theta, level)[inside].tobytes()
            assert start[~inside].tobytes() == b[~inside].tobytes()
            assert inside.all() == (N == prev) and (~inside).any() == (N != prev)
        assert starts[0][1].tobytes() == solver._low_data(f, g.level(2), ALPHA).view(np.float64).tobytes()
        assert starts[-1][1].tobytes() == solver._disk_values(solves[-2][1], g.level(4)).view(np.float64).tobytes()

    def test_an_unchanged_iterate_keeps_its_residual(self, monkeypatch):
        """A solve that returns its start theta leaves theta's bits unchanged, and its residual is not
        evaluated again: on the single-mode force, whose every solve returns its start, only theta_1 and
        the iterate closing the level below the top, whose residual is made at the top solve's transform
        size, evaluate one. The report is that of the loop that evaluates every residual, bit for bit."""
        import sqglab.solver as solver

        evaluated = []
        residual_of = solver.residual
        monkeypatch.setattr(solver, "residual", lambda theta, *a: evaluated.append(theta) or residual_of(theta, *a))
        g = make_grid(64, np.pi)
        f = fractional_laplacian(field_from_modes(g, {(1, 0): -0.5j * 1e-2}), ALPHA)
        cfg = SolverConfig(alpha=ALPHA)
        theta, report = outer_iterate(f, cfg)
        assert [s.n for s in report.steps] == [1, 2, 3, 4]
        assert [s.inner_iters for s in report.steps] == [0, 0, 0, 0]
        assert [t.M for t in evaluated] == [g.level(1).M, g.level(4).M]  # theta_3 taken to the top radius
        want, steps, seeds = unseeded_outer_loop(f, cfg)
        assert (theta.M, theta.half.tobytes()) == (want.M, want.half.tobytes())
        assert [repr(replace(s, matvecs=0)) for s in report.steps] == [repr(replace(o, matvecs=0)) for o in steps]
        assert [s.matvecs for s in report.steps] == [o.matvecs - (x0 is not None) for o, x0 in zip(steps, seeds)]
        assert [x0 is not None for x0 in seeds] == [False, False, False, True]

    def test_continuity_solve_counts(self, tmp_path, monkeypatch):
        """The continuity sweep at K=256, L=pi, j=1..6 (seven solves) makes at most 126 operator
        applications and 70 GMRES iterations; started cold at every level it made 175 and 112."""
        import sqglab.experiments as experiments

        reports = []
        solve = experiments.outer_iterate

        def recorded(f, cfg):
            theta, report = solve(f, cfg)
            reports.append(report)
            return theta, report

        monkeypatch.setattr(experiments, "outer_iterate", recorded)
        config = {"K": 256, "L": np.pi, "alpha": ALPHA, "force": "two_mode", "amplitude": 1e-2,
                  "perturbation": "single_mode", "perturbation_amplitude": 1e-2, "j_min": 1, "j_max": 6,
                  "outdir": str(tmp_path / "c")}
        assert experiments.run_continuity(config) == 0
        assert len(reports) == 7 and all(r.converged for r in reports)
        assert sum(s.matvecs for r in reports for s in r.steps) <= 126
        assert sum(s.inner_iters for r in reports for s in r.steps) <= 70

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
        """theta2 = theta_1 - B[a, a], truncated at a level whose disk holds every mode of a and of the product."""
        g = make_grid(32, np.pi)
        a = field_from_modes(g, {(1, 0): 0.5, (0, 1): 0.5})
        out = theta2(a, ALPHA, project_N=2)
        expected = theta2_full(a, ALPHA)
        assert expected.max_mode_index() <= 2
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
        # the rescale maps P_4 to the disk of P_5 on the half-period grid, which holds theta_z
        scaled = residual(theta_z, f_z, ALPHA, project_N=5).r_norm
        factor = 2.0 ** (4 * ALPHA - 1.0) * 2.0 ** (-(1 + ALPHA))
        assert scaled <= (base * factor + 1e-13) * 1.001
