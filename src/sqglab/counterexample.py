"""Force families that defeat uniform continuity of the data-to-solution map.

The family is f_n = g_n + h_n with g_n a modulated bump at carrier 2^n and
h_n a fixed-shape origin bump whose amplitude vanishes as n grows, while
the second Picard iterates of f_n and g_n stay order-one apart. Everything
is built from compactly supported continuum transforms (patches), so the
carrier frequency costs nothing; a torus bridge samples the same objects
onto a lattice for the full nonlinear solves.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from numbers import Integral

import numpy as np

from .grid import GridSpec
from .patches import (
    PatchField,
    _new_patch,
    apply_radial,
    coalesce,
    convolve,
    gradient,
    patch_hs_norm,
    riesz_perp_velocity,
    to_torus,
)
from .norms import hs_norm
from .solver import GapRecord, SolverConfig, default_schedule, outer_iterate, theta2

__all__ = [
    "CounterexampleSpec",
    "PhiProfile",
    "build_phi",
    "build_forces",
    "patch_theta1",
    "patch_bilinear_B",
    "SecondIterateParts",
    "decompose_second_iterate",
    "RLRecord",
    "riemann_lebesgue_check",
    "NormTable",
    "NORM_TABLE_COLUMNS",
    "nonuniform_experiment",
]


@dataclass(frozen=True)
class CounterexampleSpec:
    """Parameters of the force family f_n: amplitude, dissipation order, patch sample spacing."""

    delta: float
    alpha: float
    h_xi: float = 1.0 / 32.0

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie strictly inside (0, 1/2), got {self.alpha}")
        _samples_per_unit(self.h_xi)


def _samples_per_unit(h_xi: float) -> int:
    """1/h_xi for a patch sample spacing h_xi, which must lie in (0, 1/16] and divide the unit."""
    if not 0.0 < h_xi <= 1.0 / 16.0:
        raise ValueError(f"h_xi must lie in (0, 1/16], got {h_xi}")
    m = 1.0 / h_xi
    if abs(m - round(m)) > 1e-9:
        raise ValueError(f"1/h_xi must be an integer, got {m}")
    return round(m)


# -- one-dimensional profile ------------------------------------------------

def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def phi_hat_at(tau: np.ndarray) -> np.ndarray:
    """The even bump profile: 1 on |tau| <= 1, smooth cutoff to 0 at |tau| = 2."""
    a = np.abs(np.asarray(tau, dtype=np.float64))
    return np.where(a <= 1.0, 1.0, np.where(a >= 2.0, 0.0, _smooth_step(2.0 - a)))


@dataclass(frozen=True)
class PhiProfile:
    """Sampled 1D transforms of the bump phi and its derived products.

    Arrays store the transform int u(x) e^{-i tau x} dx on a lattice of
    spacing h; lo gives the left endpoint in sample units.
    """

    h: float
    phi: np.ndarray       # phi^ on [-2, 2]
    phi2: np.ndarray      # (phi^2)^ on [-4, 4]
    phi_dphi: np.ndarray  # (phi phi')^ on [-4, 4]
    phi4: np.ndarray      # (phi^4)^ on [-8, 8]

    @property
    def m(self) -> int:
        """Samples per unit frequency."""
        return round(1.0 / self.h)

    def sample(self, array: np.ndarray, half_width: int, tau: int) -> complex:
        """Value of a stored transform at the integer frequency tau (0 outside its box), exact at any size."""
        j = (tau + half_width) * self.m
        if j < 0 or j >= array.size:
            return 0.0
        return complex(array[j])


def build_phi(h: float) -> PhiProfile:
    """Sample the bump transform at spacing h and derive product transforms by convolution."""
    m = _samples_per_unit(h)
    phi = phi_hat_at(h * np.arange(-2 * m, 2 * m + 1)).astype(np.complex128)
    conv_scale = h / (2.0 * np.pi)
    phi2 = np.convolve(phi, phi, mode="full") * conv_scale
    tau4 = h * np.arange(-4 * m, 4 * m + 1)
    phi_dphi = 0.5j * tau4 * phi2  # (phi phi')^ = (1/2)((phi^2)')^
    phi4 = np.convolve(phi2, phi2, mode="full") * conv_scale
    return PhiProfile(h=h, phi=phi, phi2=phi2, phi_dphi=phi_dphi, phi4=phi4)


# -- force construction ------------------------------------------------------

def _check_carrier_level(m: int, half_w: int, n) -> None:
    """Refuse a carrier level n unless its box of half width half_w clears the origin, 2^n > half_w, to stand for
    its mirror, and its corners, int64 indices at m samples a unit reaching 8 units past 2^n, fit: (2^n + 8) m."""
    low, top = half_w.bit_length(), (np.iinfo(np.int64).max // m - 8).bit_length() - 1
    if not (isinstance(n, Integral) and low <= n <= top):
        raise ValueError(f"carrier level n must be an integer in [{low}, {top}], got {n}: the carrier box must "
                         "clear the origin and fit the int64 patch lattice")


def _separable(prof: PhiProfile, fx: np.ndarray, fy: np.ndarray,
               half_w: tuple[int, int], n: int | None, amp: complex) -> PatchField:
    """amp fx(xi_1 - c) fy(xi_2) in the stored 2D convention, at c = 0 for n None, else at the carrier c = 2^n
    (see _check_carrier_level) with its mirror conj(amp) fx(xi_1 + c) fy(xi_2): a real field, as fx and fy
    transform real profiles."""
    m = prof.m
    if n is not None:
        _check_carrier_level(m, half_w[0], n)
    lo = ((0 if n is None else 2 ** int(n) * m) - half_w[0] * m, -half_w[1] * m)
    return PatchField(prof.h, (_new_patch(lo, amp * np.multiply.outer(fx, fy) / (2.0 * np.pi)),))


def build_forces(spec: CounterexampleSpec, n: int) -> tuple[PatchField, PatchField, PatchField]:
    """(f_n, g_n, h_n) with f_n = g_n + h_n at the carrier level n >= 2.

    g_n = delta 2^{-(2-2a)n} (-Delta)^a [ Phi(x) sin(2^n x_1) ],
    h_n = delta 2^{-(1-2a)n} (-Delta)^{a+1/2} Phi,  Phi(x) = phi(x_1) phi(x_2).
    """
    prof = build_phi(spec.h_xi)
    a = spec.alpha
    amp_g = spec.delta * 2.0 ** (-(2.0 - 2.0 * a) * n)
    g = apply_radial(_separable(prof, prof.phi, prof.phi, (2, 2), n, -0.5j * amp_g), 2.0 * a)

    amp_h = spec.delta * 2.0 ** (-(1.0 - 2.0 * a) * n)
    base = _separable(prof, prof.phi, prof.phi, (2, 2), None, amp_h)
    h_field = apply_radial(apply_radial(base, 2.0 * a), 1.0)  # origin power 2a + 1 exactly, see Patch

    return g + h_field, g, h_field


def patch_theta1(u: PatchField, alpha: float) -> PatchField:
    """First Picard iterate (-Delta)^{-alpha} u on patches."""
    return apply_radial(u, -2.0 * alpha)


def patch_bilinear_B(a: PatchField, b: PatchField, alpha: float) -> PatchField:
    """B[a,b] = (-Delta)^{-alpha}[ v(theta_1[a]) . grad(theta_1[b]) ] on patches."""
    v1, v2 = riesz_perp_velocity(patch_theta1(a, alpha))
    g1, g2 = gradient(patch_theta1(b, alpha))
    prod = convolve(v1, g1) + convolve(v2, g2)
    return apply_radial(coalesce(prod), -2.0 * alpha)


# -- closed-form decomposition ----------------------------------------------

@dataclass(frozen=True)
class SecondIterateParts:
    """Norms (all in the critical space) of the second-iterate gap pieces."""

    n: int
    d_low: float
    d_crit: float
    g2_gap: float
    b11: float
    b12: float
    b2: float
    bgh: float
    bhh: float
    recon_rel: float


def _closed_form(spec: CounterexampleSpec, n: int, prof: PhiProfile, fx: np.ndarray, fy: np.ndarray,
                 rate: float, amp: complex) -> PatchField:
    """delta^2 2^{-rate n} (-Delta)^{-a}[ fx(x_1) fy(x_2) (amp e^{i 2^n x_1} + conj(amp) e^{-i 2^n x_1}) ]."""
    scale = spec.delta**2 * 2.0 ** (-rate * n)
    return apply_radial(_separable(prof, fx, fy, (4, 4), n, amp * scale), -2.0 * spec.alpha)


def decompose_second_iterate(spec: CounterexampleSpec, n: int) -> SecondIterateParts:
    """Norms of the pieces of theta_2[f_n] - theta_2[g_n], with closed-form checks.

    The advective cross term B[h,g] collapses in closed form: the two sine
    contributions cancel pointwise, leaving the cosine piece b11 exactly, so
    b11 + b12 - b2 with b12 = b2 reconstructs it. recon_rel reports the
    relative distance between the generic convolution result and that
    closed form in the critical norm.
    """
    _check_carrier_level(_samples_per_unit(spec.h_xi), 4, n)  # the closed forms' boxes, the widest a level places
    prof = build_phi(spec.h_xi)
    a = spec.alpha
    s_crit = 2.0 - 2.0 * a
    _, g, h = build_forces(spec, n)

    d_low = patch_hs_norm(h, -a)
    d_crit = patch_hs_norm(h, 2.0 - 4.0 * a)

    b_gh = patch_bilinear_B(g, h, a)
    b_hg = patch_bilinear_B(h, g, a)
    b_hh = patch_bilinear_B(h, h, a)
    gap = b_gh + b_hg + b_hh

    # b11 = delta^2 2^{-(2-4a)n} (-Delta)^{-a}[ phi^2(x_1) (phi phi')(x_2) cos(2^n x_1) ]
    b11_field = _closed_form(spec, n, prof, prof.phi2, prof.phi_dphi, 2.0 - 4.0 * a, 0.5)
    # b12 = delta^2 2^{-(3-4a)n} (-Delta)^{-a}[ (phi phi')(x_1) (phi phi')(x_2) sin(2^n x_1) ]
    b12_field = _closed_form(spec, n, prof, prof.phi_dphi, prof.phi_dphi, 3.0 - 4.0 * a, -0.5j)
    b11 = patch_hs_norm(b11_field, s_crit)
    b12 = patch_hs_norm(b12_field, s_crit)
    recon = patch_hs_norm(b_hg - b11_field, s_crit)

    return SecondIterateParts(
        n=n,
        d_low=d_low,
        d_crit=d_crit,
        g2_gap=patch_hs_norm(gap, s_crit),
        b11=b11,
        b12=b12,
        b2=b12,
        bgh=patch_hs_norm(b_gh, s_crit),
        bhh=patch_hs_norm(b_hh, s_crit),
        recon_rel=recon / b11 if b11 > 0 else 0.0,
    )


# -- oscillation average ------------------------------------------------------

@dataclass(frozen=True)
class RLRecord:
    value: float
    limit: float
    rel_dev: float


def riemann_lebesgue_check(prof: PhiProfile, n: int) -> RLRecord:
    """||phi^2 sin(2^n .)||_{L^2(R)} against its oscillation average.

    int phi^4 sin^2(2^n x) dx = (1/2)(phi^4)^(0) - (1/2)(phi^4)^(2^{n+1}),
    and the transform of phi^4 is supported in [-8, 8], so the deviation
    from the n -> infinity limit is exactly zero once 2^{n+1} > 8.
    """
    if n < 1:
        raise ValueError(f"carrier level n must be >= 1, got {n}")
    at0 = prof.sample(prof.phi4, 8, 0).real
    osc = prof.sample(prof.phi4, 8, 2 ** (n + 1)).real
    value = float(np.sqrt(0.5 * (at0 - osc)))
    limit = float(np.sqrt(0.5 * at0))
    return RLRecord(value=value, limit=limit, rel_dev=abs(value - limit) / limit)


# -- norm table ---------------------------------------------------------------

NORM_TABLE_COLUMNS = ("n", "d_low", "d_crit", "g2_gap", "b11", "b12", "b2", "bgh", "full_gap", "rem_f", "rem_g")


@dataclass
class NormTable:
    """Per-carrier-level norms; the torus columns are None in a table without a torus."""

    rows: list[dict]
    warnings: list[str]


def nonuniform_experiment(
    spec: CounterexampleSpec,
    n_values: tuple[int, ...],
    torus: tuple[GridSpec, SolverConfig] | None = None,
) -> NormTable:
    """Decomposition norms over a range of carrier levels, plus torus solves.

    Patch-side columns are always filled. Given a torus, a (grid, solver
    config) pair, every row also gets the solved gap ||theta[f] - theta[g]||
    (the gap_crit of its GapRecord) and the Picard remainders
    ||theta[.] - theta_2[.]|| in the critical norm. Every level is checked
    before the first one runs: its boxes must clear the origin and fit the
    patch lattice, and with a torus its forces must lie inside the grid's
    dealias band; a level that does not is a ValueError naming it. A level
    whose patch norms are not finite, or whose d_crit or g2_gap is 0, is a
    ValueError too: delta is too far from 1 for the float range.
    """
    forces = {}
    for n in n_values:  # every level is checked, and with a torus sampled on its grid, before the first one runs
        _check_carrier_level(_samples_per_unit(spec.h_xi), 4, n)
        if torus is not None:
            f_n, g_n, _ = build_forces(spec, n)
            try:
                forces[n] = to_torus(f_n, torus[0]), to_torus(g_n, torus[0])
            except ValueError as exc:  # content past the dealias band, or a lattice spacing off the patch spacing
                raise ValueError(f"n={n}: {exc}") from None
    rows: list[dict] = []
    warnings: list[str] = []
    s_crit = 2.0 - 2.0 * spec.alpha
    for n in n_values:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                parts = decompose_second_iterate(spec, n)
        except OverflowError:  # delta^2 past the float range
            parts = None
        ok = parts is not None and np.isfinite(astuple(parts)).all() and parts.d_crit > 0 and parts.g2_gap > 0
        if not ok:
            raise ValueError(f"delta={spec.delta:g}, n={n}: the gap norms overflow or underflow to 0")
        row = {col: getattr(parts, col, None) for col in NORM_TABLE_COLUMNS}
        if torus is not None:
            (f_t, g_t), (grid, cfg) = forces[n], torus
            theta_f, theta_g = outer_iterate(f_t, cfg)[0], outer_iterate(g_t, cfg)[0]
            row["full_gap"] = GapRecord.between(f_t, g_t, theta_f, theta_g, cfg.alpha).gap_crit
            n_top = default_schedule(grid)[-1]  # the problem solved is P_{n_top}'s, at whatever level a solve stops
            row["rem_f"] = hs_norm(theta_f - theta2(f_t, cfg.alpha, project_N=n_top), s_crit)
            row["rem_g"] = hs_norm(theta_g - theta2(g_t, cfg.alpha, project_N=n_top), s_crit)
            slack = row["full_gap"] + row["rem_f"] + row["rem_g"] + parts.d_crit
            if slack < parts.g2_gap * (1.0 - 1e-6):
                warnings.append(
                    f"n={n}: triangle inequality violated: gap+remainders+data = {slack:.6g} "
                    f"below the second-iterate gap {parts.g2_gap:.6g}"
                )
        rows.append(row)
    return NormTable(rows=rows, warnings=warnings)
