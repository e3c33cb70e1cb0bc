"""Constructive solver for (-Delta)^alpha theta + v.grad(theta) = f.

The truncated linear problem is solved matrix-free with GMRES on the
coercive operator A = I + (-Delta)^{-alpha} P_N (v . grad .), as a real
system in the real and imaginary parts of the half-disk modes; the outer
iteration walks a dyadic truncation schedule, refining at the top level, and
stops at the first iterate whose top-level nonlinear residual is below tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .field import (
    SpectralField,
    VelocityField,
    _advect_level,
    _disk_values,
    _level_field,
    _new,
    _product_size,
    _resize,
    _velocity_radius,
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
    "theta2",
    "default_schedule",
]


class ConfigError(ValueError):
    """Invalid configuration or experiment parameters (CLI exit 1)."""


class SmallnessError(RuntimeError):
    """Advecting field too large for the coercivity gate (CLI exit 2)."""


class ConvergenceError(RuntimeError):
    """Iteration cap hit or a stalled top-level solve; carries the best iterate found so far (CLI exit 3)."""

    def __init__(self, message: str, best: SpectralField | None = None, residual_rel: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual_rel = residual_rel


_SMALLNESS_THRESHOLD = 0.1  # the gate: a linear solve needs ||v||_{H^{2-2alpha}} at most this for coercivity
_GMRES_STEPS = 50  # a linear solve's GMRES budget: one cycle of at most this many Arnoldi steps


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    inner_tol: float = 1e-10
    outer_tol: float = 1e-7
    max_outer: int = 60

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        for name in ("inner_tol", "outer_tol", "max_outer"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")


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
    """r = (-Delta)^alpha theta + P_N(v . grad(theta)) - P_N f, its H^{-alpha} norm, the velocity v = v(theta) and
    P_N(v . grad(theta)) as values on the level's half disk."""

    r_field: SpectralField
    r_norm: float
    v: VelocityField
    adv: np.ndarray


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


def _range_of_P(N: int, theta: SpectralField | None, f: SpectralField | None = None) -> tuple[LevelTable, bool]:
    """The level of P_N, checking the truncated problem's domain: 2^N in the dealias band, theta and f on one grid,
    theta's content off the disk within 1e-12 of its largest modulus; and whether theta is its own projection."""
    grid = (f if theta is None else theta).grid
    if N > grid.dealias_level:
        raise ValueError(f"2^{N} exceeds the top dealias level 2^{grid.dealias_level}")
    level = grid.level(N)
    if theta is None:
        return level, False
    theta._require_same_grid(f or theta)
    own = theta.M == level.M  # stored at the level's radius, as a solve there returns it
    off = theta.half.ravel()[level.off] if own else theta.half[grid.square(theta.M).k2 > level.bound]
    stray = off.any()
    if stray and np.max(np.abs(off)) > 1e-12 * np.max(np.abs(theta.half)):
        raise ValueError(f"field carries modes outside the range of P_{N}")
    return level, own and not stray


def apply_lax_milgram_operator(v: VelocityField, theta: SpectralField, N: int, alpha: float) -> SpectralField:
    """A theta = theta + (-Delta)^{-alpha} P_N (v . grad(theta)) for theta in the range of P_N (see _range_of_P)."""
    level, own = _range_of_P(N, theta)
    inside = theta if own else project_low(theta, N)
    adv = _advect_level(v, inside, level, theta_radius=level.M)
    return _level_field(theta.grid, level, _disk_values(inside, level) + level.radial_power(-2.0 * alpha) * adv)


# LAPACK's dlartg range limits: |f|, |g| inside (2^-511, 2^510.5) need no scaling
_RTMIN, _RTMAX = 2.0**-511, math.sqrt(2.0**1021)
_SAFMIN, _SAFMAX = 2.0**-1022, 2.0**1022


def _givens(f: float, g: float) -> tuple[float, float, float]:
    """c, s, r with [c s; -s c] [f; g] = [r; 0] and c >= 0, by LAPACK's dlartg (its bits, as scipy's gmres gets them)."""
    if g == 0:
        return 1.0, 0.0, f
    if f == 0:
        return 0.0, math.copysign(1.0, g), abs(g)
    f1, g1 = abs(f), abs(g)
    u = 1.0 if _RTMIN < min(f1, g1) and max(f1, g1) < _RTMAX else min(_SAFMAX, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, fs)
    return abs(fs) / d, gs / r, r * u


def gmres(matvec, b: np.ndarray, x0: np.ndarray, ax0: np.ndarray | None = None, *, rtol: float,
          steps: int) -> tuple[np.ndarray, float, int, bool]:
    """One cycle of GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) for A x = b, A x = matvec(x).

    The arithmetic, stopping test and counts are those of the first cycle of scipy.sparse.linalg.gmres with
    restart=steps, atol=0 and no preconditioner: at most steps Arnoldi steps (modified Gram-Schmidt, Givens
    rotations), stopped early when the residual estimate reaches rtol ||b|| or the Krylov space closes. ax0 is
    A x0 when the caller already has it. matvec must return a new array. Returns (x, ||b - A x||, Arnoldi steps, converged): the norm is that of the
    true residual of the returned x, and converged means it is <= rtol ||b||.
    """
    x = np.array(x0, dtype=np.float64)
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b, bnrm2, 0, True
    atol = rtol * bnrm2
    eps = np.finfo(np.float64).eps
    steps = min(steps, b.size)
    ptol = bnrm2 * min(1.0, atol / bnrm2)
    v = np.empty((steps + 1, b.size))
    h = np.zeros((steps, steps + 1))  # column col of the Hessenberg matrix is row col of h
    givens = np.zeros((steps, 2))
    if ax0 is None:
        ax0 = matvec(x) if x.any() else 0.0
    r = b - ax0
    rnorm = np.linalg.norm(r)
    if rnorm < atol:
        return x, rnorm, 0, True
    v[0] = r * (1 / rnorm)
    S = np.zeros(steps + 1)  # the rotated right-hand side ||r|| e_1
    S[0] = rnorm
    breakdown = False
    for col in range(steps):
        w = matvec(v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            h[col, k] = hk = np.dot(v[k], w)
            w -= hk * v[k]
        h1 = h[col, col + 1] = np.linalg.norm(w)
        v[col + 1] = w
        if h1 <= eps * h0:  # the Krylov space is invariant: x is exact
            h[col, col + 1] = 0
            breakdown = True
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = _givens(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col + 1] = 0
        S[col], S[col + 1] = c * S[col], -s * S[col]
        if abs(S[col + 1]) <= ptol or breakdown:
            break
    if h[col, col] == 0:
        S[col] = 0
    y = S[: col + 1].copy()
    for k in range(col, 0, -1):  # back substitution on the rotated triangle
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x += y @ v[: col + 1]
    rnorm = np.linalg.norm(b - matvec(x))
    return x, rnorm, col + 1, bool(rnorm <= atol)


def _smallness_gate(v: VelocityField | None, N: int, alpha: float) -> None:
    """Refuse v (None is the zero velocity) unless ||v||_{H^{2-2alpha}} is at most the threshold; NaN is refused."""
    vnorm = 0.0 if v is None else velocity_hs_norm(v, 2.0 - 2.0 * alpha)
    if not vnorm <= _SMALLNESS_THRESHOLD:
        raise SmallnessError(f"||v||_H^{2 - 2 * alpha:g} = {vnorm:.6g} at N={N} exceeds the smallness threshold "
                             f"{_SMALLNESS_THRESHOLD:g}; coercivity is not guaranteed")


def _linear_solve_info(
    v: VelocityField | None, f: SpectralField, N: int, cfg: SolverConfig,
    x0: np.ndarray | None = None, adv0: np.ndarray | None = None, b: np.ndarray | None = None,
) -> tuple[SpectralField, dict]:
    """theta and the solve's counters under SolveStep's names; v None is the zero velocity, for which theta =
    (-Delta)^{-alpha} P_N f with nothing solved (the outer iteration's first step). GMRES starts from x0, values on
    the half disk (outer_iterate's nested start), or from b = (-Delta)^{-alpha} P_N f (given, or computed here), and
    returns a start that passes its test with inner_iters 0; adv0, x0's product at this solve's P, gives A x0."""
    if v is not None and v.grid != f.grid:
        raise ValueError("velocity and force live on different grids")
    level, _ = _range_of_P(N, None, f)
    _smallness_gate(v, N, cfg.alpha)

    # The unknowns are the real and imaginary parts of the half-disk modes
    # (a complex array viewed as float64); their partners follow by
    # conjugation, so every iterate is a real field and A is real-linear.
    def field_of(x: np.ndarray) -> SpectralField:
        return _level_field(f.grid, level, np.ascontiguousarray(x).view(np.complex128))

    b_vec = (_low_data(f, level, cfg.alpha) if b is None else b).view(np.float64)
    info = {"inner_iters": 0, "inner_residual": 0.0, "matvecs": 0,
            "transform_size": 0 if v is None else _product_size(_velocity_radius(v), level.M, level.M)[3]}
    if v is None or not np.any(b_vec):
        return field_of(b_vec), info

    def matvec(x: np.ndarray) -> np.ndarray:
        info["matvecs"] += 1
        return _disk_values(apply_lax_milgram_operator(v, field_of(x), N, cfg.alpha), level).view(np.float64)

    x_start = b_vec if x0 is None else x0.view(np.float64)
    # A x0 from adv0, x0's product P_N(v . grad(x0)) on the half disk, made at this solve's transform size
    ax0 = None if adv0 is None else (
        x_start.view(np.complex128) + level.radial_power(-2.0 * cfg.alpha) * adv0).view(np.float64)
    x, rnorm, info["inner_iters"], converged = gmres(matvec, b_vec, x_start, ax0, rtol=cfg.inner_tol,
                                                     steps=_GMRES_STEPS)
    rel = info["inner_residual"] = float(rnorm / np.linalg.norm(b_vec))

    theta = field_of(x)
    if not converged:
        raise ConvergenceError(
            f"linear solve did not reach inner_tol={cfg.inner_tol:g} within the GMRES budget of {_GMRES_STEPS} "
            f"Arnoldi steps (relative residual {rel:.3e})",
            best=theta,
            residual_rel=rel,
        )
    return theta, info


def linear_solve(v: VelocityField, f: SpectralField, N: int, cfg: SolverConfig) -> SpectralField:
    """Solve the truncated linear problem (-Delta)^alpha theta + P_N(v.grad theta) = P_N f."""
    return _linear_solve_info(v, f, N, cfg)[0]


def residual(theta: SpectralField, f: SpectralField, alpha: float, project_N: int) -> ResidualRecord:
    """r = (-Delta)^alpha theta + P_N(v.grad theta) - P_N f with v induced by theta, the residual of the equation
    the outer iteration solves at top level N.

    theta lies in the range of P_N (see _range_of_P) and r is made on the level's half disk. A theta stored at the
    level's mode radius, as a solve there returns it, takes its product at that radius, the transform size of the
    level's solves, and any other at its support radius; v is stored at theta's support radius.
    """
    level, _ = _range_of_P(project_N, theta, f)
    v = velocity_from_theta(_new(theta.grid, _resize(theta.half, theta.max_mode_index())))
    values = _advect_level(v, theta, level, level.M if theta.M == level.M else None)
    r = _level_field(theta.grid, level, _disk_values(theta, level) * level.radial_power(2.0 * alpha) + values
                     - _disk_values(f, level))
    return ResidualRecord(r, hs_norm(r, -alpha), v, values)


def _nested_start(theta: SpectralField, b: np.ndarray, level: LevelTable,
                  prev: LevelTable) -> tuple[np.ndarray, bool]:
    """The start of a solve at level after one at prev as values on level's half disk, theta on prev's disk and
    b = (-Delta)^{-alpha} P_N f on the band beyond it, and whether that start is theta itself (the band carries
    no force)."""
    band = level.square.k2.ravel()[level.pos] > prev.bound
    values = _disk_values(theta, level)
    return (values, True) if not b[band].any() else (np.where(band, b, values), False)


def outer_iterate(f: SpectralField, cfg: SolverConfig) -> tuple[SpectralField, SolveReport]:
    """Approximation sequence theta_1, theta_2, ... for the P_{N_top} problem, N_top the top of default_schedule(grid).

    theta_1 = (-Delta)^{-alpha} P_N f at the first level N of the schedule; each later step solves the linear
    problem at the next level with the previously induced velocity, and at the top level 2^{N_top} it is iterated
    to a fixed point. The first iterate, at any level, whose residual at P_{N_top} drops below
    outer_tol * ||f||_{H^{-alpha}} is accepted once its velocity passes the smallness gate of the solves; a nonzero
    force whose norm underflows to 0 or overflows leaves no target and is a ConfigError, and so is a step whose
    arithmetic overflows.

    Each solve starts from the last iterate (nested iteration, see _nested_start); every residual before
    a top-level solve takes its product at that solve's P, which hands GMRES A theta when the start is
    theta, and a solve that returns its start theta changes no bit of it and keeps its residual. A
    top-level solve that does so above the target cannot progress, and is a ConvergenceError at once.
    """
    grid, schedule = f.grid, default_schedule(f.grid)
    n_top = schedule[-1]
    try:
        with np.errstate(over="raise", invalid="raise"):
            f_low = hs_norm(f, -cfg.alpha)
    except FloatingPointError:
        raise ConfigError(f"the force's H^-{cfg.alpha:g} norm overflows, so no residual target can be set") from None
    if f_low == 0 and f.max_mode_index() > 0:
        raise ConfigError(f"the force's H^-{cfg.alpha:g} norm underflows to 0, so no residual target can be set")
    target = cfg.outer_tol * f_low
    report = SolveReport(alpha=cfg.alpha)

    # theta_1 is the first level's solve from the zero field with no velocity
    N, theta, res, v, adv, unchanged = schedule[0] - 1, field_from_modes(grid, {}), math.inf, None, None, False
    try:  # an overflow is refused where it happens, before an inf or NaN reaches the next smallness gate
        with np.errstate(over="raise", invalid="raise"):
            while not res <= target:
                stalled = unchanged and N == n_top
                if stalled or len(report.steps) >= cfg.max_outer:
                    raise ConvergenceError(
                        (f"outer iteration stalled at inner_tol={cfg.inner_tol:g} (a top-level solve returns its start"
                         " unchanged)" if stalled else f"outer iteration cap {cfg.max_outer} hit")
                        + f" with residual {res:.3e} (target {target:.3e})",
                        best=theta, residual_rel=res / f_low if f_low > 0 else res)
                prev, N = N, min(N + 1, n_top)
                b = _low_data(f, grid.level(N), cfg.alpha)  # the solve's right-hand side, and its start on the band
                x0, from_theta = (None, False) if v is None else _nested_start(
                    theta, b, grid.level(N), grid.level(prev))
                # v is the residual's velocity, and before a top-level solve its product is made at that solve's P
                new_theta, info = _linear_solve_info(v, f, N, cfg, x0, adv if from_theta and N == n_top else None, b)
                b = None  # the solve's alone: held through the residual, it raises the peak memory
                diff = hs_norm(new_theta - theta, cfg.alpha)
                # a solve that returns its start theta changes no bit of it, so its residual stands, unless this
                # step closes the level below the top, whose residual is made at the top solve's P
                unchanged = from_theta and info["inner_iters"] == 0 and N != n_top - 1
                theta = new_theta
                if not unchanged:
                    x0, v, adv = None, None, None  # drop the start and the old velocity before the next is sampled
                    # keep the residual's norm, velocity and product, not its field; the level below the top is
                    # taken to the top radius, where the next solve's products run
                    res, v, adv = attrgetter("r_norm", "v", "adv")(residual(
                        project_low(theta, n_top) if N == n_top - 1 else theta, f, cfg.alpha, n_top))
                report.steps.append(SolveStep(
                    n=N, h_alpha=hs_norm(theta, cfg.alpha), h_crit=hs_norm(theta, 2.0 - 2.0 * cfg.alpha),
                    diff_h_alpha=diff, residual=res, **info,
                ))
            _smallness_gate(v, N, cfg.alpha)  # the accepted iterate's velocity, as the next solve would take it
    except FloatingPointError as exc:
        raise ConfigError(f"the outer step at N={N} leaves the float range ({exc}); the force is too large") from None

    report.converged, report.residual = True, res
    f_crit = hs_norm(f, 2.0 - 4.0 * cfg.alpha)
    report.c_star = report.steps[-1].h_crit / f_crit if f_crit > 0 else None
    return theta, report


# -- Picard iterates ------------------------------------------------------

def picard_theta1(a: SpectralField, alpha: float) -> SpectralField:
    """First iterate (-Delta)^{-alpha} a."""
    return fractional_laplacian(a, -alpha)


def theta2(a: SpectralField, alpha: float, project_N: int) -> SpectralField:
    """Second iterate theta_1[a] - B[a,a] of the P_N-truncated problem, B[a,b] = (-Delta)^{-alpha} P_N[ v(theta_1[a])
    . grad(theta_1[b]) ] with theta_1 = (-Delta)^{-alpha} P_N a: comparable to outer_iterate output at top level N."""
    level, _ = _range_of_P(project_N, None, a)
    t1 = picard_theta1(project_low(a, project_N), alpha)
    adv = _advect_level(velocity_from_theta(t1), t1, level) * level.radial_power(-2.0 * alpha)
    return t1 - _level_field(a.grid, level, adv)
