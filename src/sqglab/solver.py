"""Constructive solver for (-Delta)^alpha theta + v.grad(theta) = f.

The truncated linear problem is solved matrix-free with GMRES on the
coercive operator A = I + (-Delta)^{-alpha} P_N (v . grad .), as a real
system in the real and imaginary parts of the half-disk modes; the outer
iteration walks a dyadic truncation schedule and then refines at the top
level until the projected nonlinear residual is below tolerance.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .field import (
    SpectralField,
    VelocityField,
    _advect_level,
    _level_field,
    _product_size,
    _resize,
    _velocity_radius,
    advect,
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
    "solve_pair_gap",
    "default_schedule",
    "cauchy_constant",
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
    n_schedule: tuple[int, ...] | None = None
    smallness_threshold: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        for name in ("inner_tol", "outer_tol", "smallness_threshold"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ConfigError("iteration caps must be at least 1")
        if self.n_schedule is not None:
            sched = tuple(int(n) for n in self.n_schedule)
            if not sched or any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] < 0:
                raise ConfigError(f"n_schedule must be strictly increasing and nonnegative, got {self.n_schedule}")
            object.__setattr__(self, "n_schedule", sched)


@dataclass(frozen=True)
class SolveStep:
    """One outer step. matvecs counts Lax-Milgram operator applications,
    transform_size is the points per axis of their products and
    inner_residual is the relative residual of the final linear iterate
    (all 0 for the first step, which solves nothing)."""

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

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "converged": self.converged,
            "residual": self.residual,
            "c_star": self.c_star,
            "steps": [asdict(s) for s in self.steps],
        }


@dataclass(frozen=True)
class ResidualRecord:
    r_field: SpectralField
    r_norm: float


@dataclass(frozen=True)
class GapRecord:
    d_low: float
    d_crit: float
    gap_low: float
    gap_crit: float


def default_schedule(grid: GridSpec) -> tuple[int, ...]:
    """1, 2, ..., N_max with 2^{N_max} below the dealias wavenumber."""
    if grid.dealias_level < 1:
        raise ConfigError(f"grid dealias cutoff {grid.dealias_k:g} leaves no room for P_1")
    return tuple(range(1, grid.dealias_level + 1))


def _disk_values(u: SpectralField, level: LevelTable) -> np.ndarray:
    """Values of u on the half disk of the level."""
    return _resize(u.half, level.M).ravel()[level.pos]


def _low_data(f: SpectralField, level: LevelTable, alpha: float) -> np.ndarray:
    """(-Delta)^{-alpha} P_N f as values on the half disk of the level."""
    return _disk_values(f, level) * level.radial_power(-2.0 * alpha)


def apply_lax_milgram_operator(v: VelocityField, theta: SpectralField, N: int, alpha: float) -> SpectralField:
    """A theta = theta + (-Delta)^{-alpha} P_N (v . grad(theta)) for theta in the range of P_N."""
    grid = theta.grid
    level = grid.level(N)
    inside = project_low(theta, N)
    off = np.max(np.abs((theta - inside).half))
    if off > 1e-12 * max(off, np.max(np.abs(inside.half))):
        raise ValueError(f"field carries modes outside the range of P_{N}")
    adv = _advect_level(v, inside, level, theta_radius=level.M)
    return _level_field(grid, level, _disk_values(inside, level) + level.radial_power(-2.0 * alpha) * adv)


def _gmres_solve(matvec, b_vec: np.ndarray, x0: np.ndarray, cfg: SolverConfig) -> tuple[np.ndarray, int, bool]:
    dim = b_vec.size
    op = LinearOperator((dim, dim), matvec=matvec, dtype=np.float64)
    restart = min(50, dim)
    maxiter = max(1, math.ceil(cfg.max_inner / restart))
    iters = 0

    def count(_pr_norm) -> None:
        nonlocal iters
        iters += 1

    x, info = gmres(
        op, b_vec, x0=x0, rtol=cfg.inner_tol, atol=0.0,
        restart=restart, maxiter=maxiter, callback=count, callback_type="pr_norm",
    )
    return x, iters, info == 0


def _linear_solve_info(
    v: VelocityField, f: SpectralField, N: int, cfg: SolverConfig, x0: SpectralField | None = None
) -> tuple[SpectralField, dict]:
    grid = f.grid
    if v.grid != grid:
        raise ValueError("velocity and force live on different grids")
    if N > grid.dealias_level:
        raise ValueError(f"2^{N} exceeds the top dealias level 2^{grid.dealias_level}")
    vnorm = velocity_hs_norm(v, 2.0 - 2.0 * cfg.alpha)
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
    info = {"iterations": 0, "residual_rel": 0.0, "dim": b_vec.size, "matvecs": 0,
            "transform_size": _product_size(_velocity_radius(v), level.M, level.M)[3]}
    if not np.any(b_vec):
        return field_of(b_vec), info

    def matvec(x: np.ndarray) -> np.ndarray:
        info["matvecs"] += 1
        return _disk_values(apply_lax_milgram_operator(v, field_of(x), N, cfg.alpha), level).view(np.float64)

    x_start = b_vec if x0 is None else _disk_values(x0, level).view(np.float64)
    x, iters, converged = _gmres_solve(matvec, b_vec, x_start, cfg)
    rel = float(np.linalg.norm(b_vec - matvec(x)) / np.linalg.norm(b_vec))
    info["iterations"], info["residual_rel"] = iters, rel

    theta = field_of(x)
    if not converged:
        raise ConvergenceError(
            f"linear solve did not reach inner_tol={cfg.inner_tol:g} within {cfg.max_inner} iterations "
            f"(relative residual {rel:.3e})",
            best=theta,
            residual_rel=rel,
        )
    return theta, info


def linear_solve(
    v: VelocityField, f: SpectralField, N: int, cfg: SolverConfig, x0: SpectralField | None = None
) -> SpectralField:
    """Solve the truncated linear problem (-Delta)^alpha theta + P_N(v.grad theta) = P_N f."""
    theta, _ = _linear_solve_info(v, f, N, cfg, x0=x0)
    return theta


def residual(theta: SpectralField, f: SpectralField, alpha: float, project_N: int | None = None) -> ResidualRecord:
    """r = (-Delta)^alpha theta + v.grad(theta) - f with v induced by theta.

    With project_N the nonlinearity and force are truncated to P_N, matching
    the equation the outer iteration actually solves.
    """
    v = velocity_from_theta(theta)
    if project_N is None:
        adv = advect(v, theta)
    else:
        level = theta.grid.level(project_N)
        adv = _level_field(theta.grid, level, _advect_level(v, theta, level))
        f = project_low(f, project_N)
    r = fractional_laplacian(theta, alpha) + adv - f
    return ResidualRecord(r_field=r, r_norm=hs_norm(r, -alpha))


def outer_iterate(f: SpectralField, cfg: SolverConfig) -> tuple[SpectralField, SolveReport]:
    """Approximation sequence theta_1, theta_2, ... with top-level refinement.

    theta_1 = (-Delta)^{-alpha} P_{N_1} f; each later step solves the linear
    problem at the next truncation level with the previously induced
    velocity; after the schedule is exhausted the top level is iterated to a
    fixed point. Convergence is declared when the projected nonlinear
    residual drops below outer_tol * ||f||_{H^{-alpha}}.
    """
    grid = f.grid
    schedule = cfg.n_schedule if cfg.n_schedule is not None else default_schedule(grid)
    if schedule[-1] > grid.dealias_level:
        raise ConfigError(f"schedule top 2^{schedule[-1]} exceeds the top dealias level 2^{grid.dealias_level}")
    n_top = schedule[-1]
    f_low = hs_norm(f, -cfg.alpha)
    target = cfg.outer_tol * f_low
    report = SolveReport(alpha=cfg.alpha)

    first = grid.level(schedule[0])
    theta = _level_field(grid, first, _low_data(f, first, cfg.alpha))
    res = residual(theta, f, cfg.alpha, project_N=n_top).r_norm
    h_alpha = hs_norm(theta, cfg.alpha)
    report.steps.append(
        SolveStep(
            n=schedule[0],
            h_alpha=h_alpha,
            h_crit=hs_norm(theta, 2.0 - 2.0 * cfg.alpha),
            diff_h_alpha=h_alpha,
            inner_iters=0,
            residual=res,
        )
    )

    remaining = list(schedule[1:])
    step_count = 1
    while True:
        if not remaining and res <= target:
            report.converged = True
            break
        if step_count >= cfg.max_outer:
            raise ConvergenceError(
                f"outer iteration cap {cfg.max_outer} hit with residual {res:.3e} (target {target:.3e})",
                best=theta,
                residual_rel=res / f_low if f_low > 0 else res,
            )
        N = remaining.pop(0) if remaining else n_top
        v = velocity_from_theta(theta)
        new_theta, info = _linear_solve_info(v, f, N, cfg, x0=theta if N == n_top else None)
        diff = hs_norm(new_theta - theta, cfg.alpha)
        theta = new_theta
        res = residual(theta, f, cfg.alpha, project_N=n_top).r_norm
        report.steps.append(
            SolveStep(
                n=N,
                h_alpha=hs_norm(theta, cfg.alpha),
                h_crit=hs_norm(theta, 2.0 - 2.0 * cfg.alpha),
                diff_h_alpha=diff,
                inner_iters=info["iterations"],
                residual=res,
                matvecs=info["matvecs"],
                transform_size=info["transform_size"],
                inner_residual=info["residual_rel"],
            )
        )
        step_count += 1

    report.residual = res
    f_crit = hs_norm(f, 2.0 - 4.0 * cfg.alpha)
    report.c_star = (hs_norm(theta, 2.0 - 2.0 * cfg.alpha) / f_crit) if f_crit > 0 else None
    return theta, report


def cauchy_constant(report: SolveReport, factor: float = 0.75) -> float:
    """Smallest C with diff_{j+1} <= factor*diff_j + C*2^{-alpha*n_j/2} along the report."""
    c = 0.0
    a = report.alpha
    for prev, cur in zip(report.steps, report.steps[1:]):
        tail = 2.0 ** (-a * prev.n / 2.0)
        c = max(c, (cur.diff_h_alpha - factor * prev.diff_h_alpha) / tail)
    return c


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


def solve_pair_gap(f: SpectralField, g: SpectralField, cfg: SolverConfig) -> GapRecord:
    """Force distances and solution gaps in the low and critical norms."""
    theta_f, _ = outer_iterate(f, cfg)
    theta_g, _ = outer_iterate(g, cfg)
    diff_f = f - g
    diff_t = theta_f - theta_g
    return GapRecord(
        d_low=hs_norm(diff_f, -cfg.alpha),
        d_crit=hs_norm(diff_f, 2.0 - 4.0 * cfg.alpha),
        gap_low=hs_norm(diff_t, cfg.alpha),
        gap_crit=hs_norm(diff_t, 2.0 - 2.0 * cfg.alpha),
    )
