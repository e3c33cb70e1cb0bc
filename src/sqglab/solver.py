"""Constructive solver for (-Delta)^alpha theta + v.grad(theta) = f.

The truncated linear problem is solved matrix-free with GMRES on the
coercive operator A = I + (-Delta)^{-alpha} P_N (v . grad .), as a real
system in the real and imaginary parts of the half-disk modes; the outer
iteration walks a dyadic truncation schedule and then refines at the top
level until the projected nonlinear residual is below tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .field import (
    SpectralField,
    VelocityField,
    _advect_level,
    _disk_values,
    _level_field,
    _product_size,
    _velocity_radius,
    advect,
    field_from_modes,
    fractional_laplacian,
    project_low,
    velocity_from_theta,
)
from .grid import GridSpec, LevelTable
from .norms import hs_norm, velocity_hs_norm

__all__ = [
    "ConfigError",
    "SmallnessError",
    "ConvergenceError",
    "SolverConfig",
    "SolveStep",
    "SolveReport",
    "GapRecord",
    "ResidualRecord",
    "apply_lax_milgram_operator",
    "linear_solve",
    "outer_iterate",
    "residual",
    "picard_theta1",
    "bilinear_B",
    "theta2",
    "default_schedule",
]


class ConfigError(ValueError):
    """Invalid configuration or experiment parameters (CLI exit 1)."""


class SmallnessError(RuntimeError):
    """Advecting field too large for the coercivity gate (CLI exit 2)."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best iterate found so far (CLI exit 3)."""

    def __init__(self, message: str, best: SpectralField | None = None, residual_rel: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual_rel = residual_rel


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    inner_tol: float = 1e-10
    outer_tol: float = 1e-7
    max_inner: int = 400
    max_outer: int = 60
    smallness_threshold: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        for name in ("inner_tol", "outer_tol", "smallness_threshold"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ConfigError("iteration caps must be at least 1")


@dataclass(frozen=True)
class SolveStep:
    """One outer step. inner_iters counts GMRES iterations, matvecs
    Lax-Milgram operator applications, transform_size is the points per
    axis of their products and inner_residual is the relative residual of
    the final linear iterate (all 0 for the first step, which solves
    nothing)."""

    n: int
    h_alpha: float
    h_crit: float
    diff_h_alpha: float
    inner_iters: int
    residual: float
    matvecs: int = 0
    transform_size: int = 0
    inner_residual: float = 0.0


@dataclass
class SolveReport:
    alpha: float
    steps: list[SolveStep] = field(default_factory=list)
    converged: bool = False
    residual: float = math.inf
    c_star: float | None = None


@dataclass(frozen=True)
class ResidualRecord:
    """r = (-Delta)^alpha theta + v . grad(theta) - f, its H^{-alpha} norm, the velocity v = v(theta) and,
    for a truncated residual, P_N(v . grad(theta)) as values on the level's half disk (None otherwise)."""

    r_field: SpectralField
    r_norm: float
    v: VelocityField
    adv: np.ndarray | None


@dataclass(frozen=True)
class GapRecord:
    """Force distance and solution gap of a solved pair in the low and critical norms."""

    d_low: float
    d_crit: float
    gap_low: float
    gap_crit: float

    @classmethod
    def between(
        cls, f: SpectralField, g: SpectralField, theta_f: SpectralField, theta_g: SpectralField, alpha: float
    ) -> GapRecord:
        """The record of forces f, g with solutions theta_f, theta_g; swapping the pair leaves it unchanged."""
        diff_f = f - g
        diff_t = theta_f - theta_g
        return cls(
            d_low=hs_norm(diff_f, -alpha),
            d_crit=hs_norm(diff_f, 2.0 - 4.0 * alpha),
            gap_low=hs_norm(diff_t, alpha),
            gap_crit=hs_norm(diff_t, 2.0 - 2.0 * alpha),
        )


def default_schedule(grid: GridSpec) -> tuple[int, ...]:
    """N_0, ..., N_max: N_0 the lowest N >= 1 whose disk |k| <= 2^N holds a lattice mode, and 2^{N_max}
    below the dealias wavenumber (the top level always holds one, since 2^{N_max} > dealias_k / 2 > pi/L)."""
    if grid.dealias_level < 1:
        raise ConfigError(f"grid dealias cutoff {grid.dealias_k:g} leaves no room for P_1")
    n_0 = next(N for N in range(1, grid.dealias_level + 1) if grid.level(N).M >= 1)
    return tuple(range(n_0, grid.dealias_level + 1))


def _low_data(f: SpectralField, level: LevelTable, alpha: float) -> np.ndarray:
    """(-Delta)^{-alpha} P_N f as values on the half disk of the level."""
    return _disk_values(f, level) * level.radial_power(-2.0 * alpha)


def apply_lax_milgram_operator(v: VelocityField, theta: SpectralField, N: int, alpha: float) -> SpectralField:
    """A theta = theta + (-Delta)^{-alpha} P_N (v . grad(theta)) for theta in the range of P_N."""
    grid = theta.grid
    level = grid.level(N)
    inside = theta
    if theta.M != level.M or theta.half.ravel()[level.off].any():  # not already its own projection
        inside = project_low(theta, N)
        off = np.max(np.abs((theta - inside).half))
        if off > 1e-12 * max(off, np.max(np.abs(inside.half))):
            raise ValueError(f"field carries modes outside the range of P_{N}")
    adv = _advect_level(v, inside, level, theta_radius=level.M)
    return _level_field(grid, level, _disk_values(inside, level) + level.radial_power(-2.0 * alpha) * adv)


def _linear_solve_info(
    v: VelocityField | None, f: SpectralField, N: int, cfg: SolverConfig,
    x0: SpectralField | None = None, adv0: np.ndarray | None = None,
) -> tuple[SpectralField, dict]:
    """theta and the solve's counters under SolveStep's names; v None is the zero velocity, for which
    theta = (-Delta)^{-alpha} P_N f with nothing solved (the outer iteration's first step)."""
    grid = f.grid
    if v is not None and v.grid != grid:
        raise ValueError("velocity and force live on different grids")
    if N > grid.dealias_level:
        raise ValueError(f"2^{N} exceeds the top dealias level 2^{grid.dealias_level}")
    vnorm = 0.0 if v is None else velocity_hs_norm(v, 2.0 - 2.0 * cfg.alpha)
    if not vnorm <= cfg.smallness_threshold:  # a NaN norm is refused too
        raise SmallnessError(
            f"||v||_H^{2 - 2 * cfg.alpha:g} = {vnorm:.6g} at N={N} exceeds the smallness threshold "
            f"{cfg.smallness_threshold:g}; coercivity is not guaranteed"
        )

    # The unknowns are the real and imaginary parts of the half-disk modes
    # (a complex array viewed as float64); their partners follow by
    # conjugation, so every iterate is a real field and A is real-linear.
    level = grid.level(N)

    def field_of(x: np.ndarray) -> SpectralField:
        return _level_field(grid, level, np.ascontiguousarray(x).view(np.complex128))

    b_vec = _low_data(f, level, cfg.alpha).view(np.float64)
    info = {"inner_iters": 0, "inner_residual": 0.0, "matvecs": 0,
            "transform_size": 0 if v is None else _product_size(_velocity_radius(v), level.M, level.M)[3]}
    if v is None or not np.any(b_vec):
        return field_of(b_vec), info

    last: list[np.ndarray] = []  # the latest (input, output) pair, answering an equal input; GMRES cannot write to it

    def matvec(x: np.ndarray) -> np.ndarray:
        if last and np.array_equal(x, last[0]):
            return last[1].copy()
        info["matvecs"] += 1
        out = _disk_values(apply_lax_milgram_operator(v, field_of(x), N, cfg.alpha), level).view(np.float64)
        last[:] = (x.copy(), out.copy())
        return out

    def count(_pr_norm) -> None:
        info["inner_iters"] += 1

    x_start = b_vec if x0 is None else _disk_values(x0, level).view(np.float64)
    if adv0 is not None:  # x0's product P_N(v . grad(x0)) on the half disk, made at this solve's transform size
        ax0 = x_start.view(np.complex128) + level.radial_power(-2.0 * cfg.alpha) * adv0
        last[:] = (x_start, ax0.view(np.float64))
    dim = b_vec.size
    restart = min(50, dim)
    x, flag = gmres(
        LinearOperator((dim, dim), matvec=matvec, dtype=np.float64), b_vec, x0=x_start, rtol=cfg.inner_tol,
        atol=0.0, restart=restart, maxiter=max(1, math.ceil(cfg.max_inner / restart)), callback=count,
        callback_type="pr_norm",
    )
    # GMRES's own stopping test applied A to the iterate it returns, so this reuses that product
    ax = matvec(x)
    rel = info["inner_residual"] = float(np.linalg.norm(b_vec - ax) / np.linalg.norm(b_vec))

    theta = field_of(x)
    if flag != 0:
        raise ConvergenceError(
            f"linear solve did not reach inner_tol={cfg.inner_tol:g} within {cfg.max_inner} iterations "
            f"(relative residual {rel:.3e})",
            best=theta,
            residual_rel=rel,
        )
    return theta, info


def linear_solve(v: VelocityField, f: SpectralField, N: int, cfg: SolverConfig) -> SpectralField:
    """Solve the truncated linear problem (-Delta)^alpha theta + P_N(v.grad theta) = P_N f."""
    theta, _ = _linear_solve_info(v, f, N, cfg)
    return theta


def residual(theta: SpectralField, f: SpectralField, alpha: float, project_N: int | None = None) -> ResidualRecord:
    """r = (-Delta)^alpha theta + v.grad(theta) - f with v induced by theta.

    With project_N the nonlinearity and force are truncated to P_N, matching
    the equation the outer iteration actually solves.
    """
    v = velocity_from_theta(theta)
    if project_N is None:
        values, adv = None, advect(v, theta)
    else:
        level = theta.grid.level(project_N)
        values = _advect_level(v, theta, level)
        adv = _level_field(theta.grid, level, values)
        f = project_low(f, project_N)
    r = fractional_laplacian(theta, alpha) + adv - f
    return ResidualRecord(r, hs_norm(r, -alpha), v, values)


def outer_iterate(f: SpectralField, cfg: SolverConfig) -> tuple[SpectralField, SolveReport]:
    """Approximation sequence theta_1, theta_2, ... with top-level refinement.

    theta_1 = (-Delta)^{-alpha} P_N f at the first level N of the schedule
    default_schedule(grid); each later step solves the linear problem at the
    next level with the previously induced velocity; after the top level
    2^{N_top} is reached it is iterated to a fixed point. Convergence is declared when the projected nonlinear
    residual drops below outer_tol * ||f||_{H^{-alpha}}; a nonzero force
    whose norm underflows to 0 leaves no target and is a ConfigError.
    """
    grid = f.grid
    schedule = default_schedule(grid)
    n_top = schedule[-1]
    top = grid.level(n_top)
    f_low = hs_norm(f, -cfg.alpha)
    if f_low == 0 and f.max_mode_index() > 0:
        raise ConfigError(f"the force's H^-{cfg.alpha:g} norm underflows to 0, so no residual target can be set")
    target = cfg.outer_tol * f_low
    report = SolveReport(alpha=cfg.alpha)

    # theta_1 is the first level's solve from the zero field with no velocity
    N, theta, res, v, adv = schedule[0] - 1, field_from_modes(grid, {}), math.inf, None, None
    while not (N == n_top and res <= target):
        if len(report.steps) >= cfg.max_outer:
            raise ConvergenceError(
                f"outer iteration cap {cfg.max_outer} hit with residual {res:.3e} (target {target:.3e})",
                best=theta,
                residual_rel=res / f_low if f_low > 0 else res,
            )
        N = min(N + 1, n_top)
        # v is the residual's velocity; its product is this solve's only if theta fills the top disk (same P)
        seeded = N == n_top and theta.max_mode_index() == top.M
        new_theta, info = _linear_solve_info(v, f, N, cfg, theta if N == n_top else None, adv if seeded else None)
        diff = hs_norm(new_theta - theta, cfg.alpha)
        theta, v, adv = new_theta, None, None  # drop the old velocity before the next one is sampled
        # keep the residual's norm, velocity and product, not its field
        res, v, adv = attrgetter("r_norm", "v", "adv")(residual(theta, f, cfg.alpha, n_top))
        report.steps.append(SolveStep(
            n=N, h_alpha=hs_norm(theta, cfg.alpha), h_crit=hs_norm(theta, 2.0 - 2.0 * cfg.alpha),
            diff_h_alpha=diff, residual=res, **info,
        ))

    report.converged = True
    report.residual = res
    f_crit = hs_norm(f, 2.0 - 4.0 * cfg.alpha)
    report.c_star = report.steps[-1].h_crit / f_crit if f_crit > 0 else None
    return theta, report


# -- Picard iterates ------------------------------------------------------

def picard_theta1(a: SpectralField, alpha: float) -> SpectralField:
    """First iterate (-Delta)^{-alpha} a."""
    return fractional_laplacian(a, -alpha)


def bilinear_B(a: SpectralField, b: SpectralField, alpha: float) -> SpectralField:
    """B[a,b] = (-Delta)^{-alpha}[ v(theta_1[a]) . grad(theta_1[b]) ]."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    v = velocity_from_theta(picard_theta1(a, alpha))
    return fractional_laplacian(advect(v, picard_theta1(b, alpha)), -alpha)


def theta2(a: SpectralField, alpha: float, project_N: int | None = None) -> SpectralField:
    """Second iterate theta_1[a] - B[a,a].

    With project_N the iterates are those of the P_N-truncated problem, so
    the result is comparable to outer_iterate output at top level N.
    """
    if project_N is None:
        return picard_theta1(a, alpha) - bilinear_B(a, a, alpha)
    t1 = picard_theta1(project_low(a, project_N), alpha)
    level = a.grid.level(project_N)
    adv = _advect_level(velocity_from_theta(t1), t1, level) * level.radial_power(-2.0 * alpha)
    return t1 - _level_field(a.grid, level, adv)
