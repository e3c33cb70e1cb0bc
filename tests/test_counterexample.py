"""Tests for the carrier-pair construction and its norm decomposition."""
import csv

import numpy as np
import pytest

from sqglab import SolverConfig, make_grid
from sqglab.counterexample import (
    NORM_TABLE_COLUMNS,
    CounterexampleSpec,
    build_forces,
    build_phi,
    decompose_second_iterate,
    nonuniform_experiment,
    phi_hat_at,
    riemann_lebesgue_check,
    _closed_form,
)
from sqglab.patches import hermitian_defect, patch_hs_norm

DELTA = 0.02
ALPHA = 0.4


def spec_at(n, **kw):
    return CounterexampleSpec(delta=kw.pop("delta", DELTA), alpha=kw.pop("alpha", ALPHA), n=n, **kw)


def fitted_slope(ns, values):
    return float(np.polyfit(ns, np.log2(values), 1)[0])


def physical(prof, array, half_width, x):
    """Inverse transform (h/2pi) sum v_j exp(i tau_j x) of a stored profile on [-half_width, half_width]."""
    tau = prof.h * np.arange(-half_width * prof.m, half_width * prof.m + 1)
    ph = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=np.float64), tau))
    return (prof.h / (2.0 * np.pi)) * np.real(ph @ array)


@pytest.fixture(scope="module")
def parts():
    return {n: decompose_second_iterate(spec_at(n)) for n in range(3, 11)}


@pytest.fixture(scope="module")
def prof():
    return build_phi(spec_at(3))


class TestSpecValidation:
    """Parameter constraints on the construction."""

    def test_amplitude_positive(self):
        """delta must be positive."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=0.0, alpha=ALPHA, n=3)

    def test_alpha_strictly_subcritical(self):
        """alpha = 1/2 is excluded; the gap construction needs alpha < 1/2."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=0.5, n=3)
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=0.0, n=3)

    def test_carrier_level_integer(self):
        """n must be an integer >= 1."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, n=0)
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, n=2.5)

    def test_sample_spacing_resolved(self):
        """h_xi must resolve the transition band and divide the unit."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, n=3, h_xi=1.0 / 10.0)
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, n=3, h_xi=3.0 / 64.0)


class TestPhiProfile:
    """The even bump profile and its derived product transforms."""

    def test_plateau_and_support(self):
        """phi^ is 1 on |tau| <= 1 and 0 from |tau| = 2 on."""
        assert phi_hat_at(0.0) == 1.0
        assert phi_hat_at(1.0) == 1.0
        assert phi_hat_at(-0.7) == 1.0
        assert phi_hat_at(2.0) == 0.0
        assert phi_hat_at(3.0) == 0.0

    def test_transition_monotone(self):
        """The glue decreases across [1, 2], strictly away from the edges."""
        tau = np.linspace(1.0, 2.0, 65)
        vals = phi_hat_at(tau)
        assert np.all(np.diff(vals) <= 0)
        mid = phi_hat_at(np.linspace(1.1, 1.9, 33))
        assert np.all(mid > 0) and np.all(mid < 1)
        assert np.all(np.diff(mid) < 0)
        np.testing.assert_allclose(phi_hat_at(1.5), 0.5, rtol=1e-14)

    def test_even(self):
        """phi^ is even."""
        tau = np.linspace(0.0, 2.5, 41)
        np.testing.assert_array_equal(phi_hat_at(tau), phi_hat_at(-tau))

    def test_array_extents(self):
        """Stored transforms cover [-2,2], [-4,4], [-8,8] at spacing h."""
        prof = build_phi(spec_at(3))
        m = prof.m
        assert prof.phi.size == 4 * m + 1
        assert prof.phi2.size == 8 * m + 1
        assert prof.phi_dphi.size == 8 * m + 1
        assert prof.phi4.size == 16 * m + 1

    def test_product_transforms_consistent(self):
        """(phi^2)^ and (phi^4)^ invert to the pointwise powers of phi."""
        prof = build_phi(spec_at(3))
        x = np.linspace(-6.0, 6.0, 41)
        phi_x = physical(prof, prof.phi, 2, x)
        np.testing.assert_allclose(physical(prof, prof.phi2, 4, x), phi_x**2, atol=1e-14)
        np.testing.assert_allclose(physical(prof, prof.phi4, 8, x), phi_x**4, atol=1e-14)

    def test_derivative_transform(self):
        """(phi phi')^ inverts to half the derivative of phi^2."""
        prof = build_phi(spec_at(3))
        x = np.linspace(-4.0, 4.0, 31)
        dx = 1e-5
        num = (physical(prof, prof.phi2, 4, x + dx) - physical(prof, prof.phi2, 4, x - dx)) / (4 * dx)
        np.testing.assert_allclose(physical(prof, prof.phi_dphi, 4, x), num, atol=1e-8)

    def test_sample_lattice_rules(self):
        """sample() reads integer frequencies on the lattice and zeros outside the box on both sides."""
        prof = build_phi(spec_at(3))
        assert prof.sample(prof.phi, 2, 0) == 1.0
        assert prof.sample(prof.phi, 2, 5) == 0.0
        assert prof.sample(prof.phi, 2, -3) == 0.0

    def test_quartic_mass_stable_under_refinement(self):
        """int phi^4 from the transform is stable to 1e-8 under h halving."""
        coarse = build_phi(spec_at(3))
        fine = build_phi(spec_at(3, h_xi=1.0 / 64.0))
        a = coarse.sample(coarse.phi4, 8, 0).real
        b = fine.sample(fine.phi4, 8, 0).real
        assert a > 0
        assert abs(a - b) / a <= 1e-8


class TestForces:
    """The force pair and its supports."""

    def test_supports(self):
        """g sits in carrier boxes, h in the centered box |xi_i| <= 2."""
        _, g, h = build_forces(spec_at(3))
        carrier = 8 * build_phi(spec_at(3)).m
        for p, sign in zip(g.patches, (1, -1)):
            assert p.lo[0] == sign * carrier - 2 * round(1 / g.h)
            assert p.hi()[0] == sign * carrier + 2 * round(1 / g.h)
            assert abs(p.lo[1]) * g.h == 2.0
        (hp,) = h.patches
        assert hp.lo == (-2 * round(1 / h.h), -2 * round(1 / h.h))

    def test_h_vanishes_at_origin(self):
        """The |xi|^{2 alpha + 1} multiplier kills the zero frequency."""
        from sqglab.patches import materialize

        _, _, h = build_forces(spec_at(3))
        (hp,) = h.patches
        vals = materialize(hp, h.h)
        i0 = -hp.lo[0]
        assert vals[i0, i0] == 0.0

    def test_forces_are_hermitian(self):
        """The three forces and the closed-form b11 and b12 are real fields, exactly."""
        for n in (3, 6):
            spec = spec_at(n)
            prof = build_phi(spec)
            b11 = _closed_form(spec, prof, prof.phi2, prof.phi_dphi, 2.0 - 4.0 * ALPHA, 0.5)
            b12 = _closed_form(spec, prof, prof.phi_dphi, prof.phi_dphi, 3.0 - 4.0 * ALPHA, -0.5j)
            for u in (*build_forces(spec), b11, b12):
                assert hermitian_defect(u) == 0.0

    def test_f_splits_into_g_plus_h(self):
        """f carries exactly the patches of g and h."""
        f, g, h = build_forces(spec_at(3))
        assert len(f.patches) == len(g.patches) + len(h.patches)
        np.testing.assert_allclose(
            patch_hs_norm(f, -ALPHA) ** 2,
            patch_hs_norm(g, -ALPHA) ** 2 + patch_hs_norm(h, -ALPHA) ** 2,
            rtol=1e-10,
        )

    def test_g_norm_uniform_in_carrier(self):
        """||g_n|| in the data norms stays comparable over n."""
        vals = []
        for n in range(3, 11):
            _, g, _ = build_forces(spec_at(n))
            vals.append((patch_hs_norm(g, -ALPHA) + patch_hs_norm(g, 2 - 4 * ALPHA)) / DELTA)
        assert max(vals) <= 1.25 * min(vals)
        tail = vals[-3:]
        assert max(tail) <= 1.02 * min(tail)

    def test_h_norm_decays_exactly(self):
        """||h_n|| scales by exactly 2^{-(1-2 alpha)} per carrier level."""
        prev = None
        for n in range(3, 8):
            _, _, h = build_forces(spec_at(n))
            cur = patch_hs_norm(h, 2 - 4 * ALPHA)
            if prev is not None:
                np.testing.assert_allclose(cur / prev, 2.0 ** -(1 - 2 * ALPHA), rtol=1e-12)
            prev = cur

    def test_amplitude_is_linear_in_delta(self):
        """Doubling delta doubles every force norm."""
        _, g1, h1 = build_forces(spec_at(4, delta=0.01))
        _, g2, h2 = build_forces(spec_at(4, delta=0.02))
        np.testing.assert_allclose(patch_hs_norm(g2, 0.3), 2 * patch_hs_norm(g1, 0.3), rtol=1e-12)
        np.testing.assert_allclose(patch_hs_norm(h2, 0.3), 2 * patch_hs_norm(h1, 0.3), rtol=1e-12)


class TestDecomposition:
    """Second-iterate gap pieces and their carrier-level rates."""

    def test_small_carrier_rejected(self):
        """Levels below n=3 would collide with the origin block."""
        with pytest.raises(ValueError, match="n >= 3"):
            decompose_second_iterate(spec_at(2))

    def test_closed_form_reconstruction(self, parts):
        """The generic convolution B[h,g] matches the closed form b11."""
        for p in parts.values():
            assert p.recon_rel <= 1e-12

    def test_b2_equals_b12(self, parts):
        """The two sine-carrying pieces coincide."""
        for p in parts.values():
            assert p.b2 == p.b12

    def test_data_distance_rate(self, parts):
        """d_low and d_crit decay at exactly -(1-2 alpha) per level."""
        ns = np.arange(4, 11)
        for key in ("d_low", "d_crit"):
            slope = fitted_slope(ns, [getattr(parts[n], key) for n in ns])
            np.testing.assert_allclose(slope, -(1 - 2 * ALPHA), atol=1e-9)

    def test_near_critical_rate(self):
        """Close to alpha = 1/2 the data distance decays almost not at all."""
        lo = decompose_second_iterate(spec_at(4, alpha=0.49))
        hi = decompose_second_iterate(spec_at(8, alpha=0.49))
        slope = np.log2(hi.d_crit / lo.d_crit) / 4.0
        np.testing.assert_allclose(slope, -0.02, atol=1e-9)

    def test_b12_to_b11_decays_like_half(self, parts):
        """||b12||/||b11|| has log2 slope in [-1.15, -0.85]."""
        ns = np.arange(4, 11)
        slope = fitted_slope(ns, [parts[n].b12 / parts[n].b11 for n in ns])
        assert -1.15 <= slope <= -0.85

    def test_b11_plateaus(self, parts):
        """||b11|| settles at a positive level for large n."""
        tail = [parts[n].b11 for n in range(6, 11)]
        assert min(tail) > 0
        assert max(tail) / min(tail) <= 1.01

    def test_bgh_decays_like_inverse_carrier(self, parts):
        """||B[g,h]|| decays with log2 slope near -1.

        The advecting velocity comes from the carrier piece, so the term
        gains a full 2^{-n} beyond the generic -(1-2 alpha) data rate.
        """
        ns = np.arange(4, 11)
        slope = fitted_slope(ns, [parts[n].bgh for n in ns])
        assert -1.1 <= slope <= -0.9

    def test_bhh_decays_at_twice_the_data_rate(self, parts):
        """||B[h,h]|| is quadratic in h, so its slope is -2(1-2 alpha)."""
        ns = np.arange(4, 11)
        slope = fitted_slope(ns, [parts[n].bhh for n in ns])
        np.testing.assert_allclose(slope, -2 * (1 - 2 * ALPHA), atol=1e-3)

    def test_gap_persists_while_data_vanishes(self, parts):
        """g2_gap stays near the b11 plateau as d_crit decays."""
        for p in parts.values():
            assert abs(p.g2_gap - p.b11) <= (p.bgh + p.bhh) * (1.0 + 1e-12)
        gaps = [p.g2_gap for p in parts.values()]
        assert max(gaps) <= 2.0 * min(gaps)
        tail = [parts[n].g2_gap for n in range(5, 11)]
        assert max(tail) <= 1.05 * min(tail)
        ratios = [p.g2_gap / p.d_crit for p in parts.values()]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_gap_scales_quadratically_in_delta(self):
        """The b-pieces are quadratic in delta, the data pieces linear."""
        a = decompose_second_iterate(spec_at(5, delta=0.01))
        b = decompose_second_iterate(spec_at(5, delta=0.02))
        np.testing.assert_allclose(b.d_crit / a.d_crit, 2.0, rtol=1e-12)
        np.testing.assert_allclose(b.b11 / a.b11, 4.0, rtol=1e-12)
        np.testing.assert_allclose(b.bgh / a.bgh, 4.0, rtol=1e-12)
        np.testing.assert_allclose(b.g2_gap / a.g2_gap, 4.0, rtol=1e-12)


class TestRiemannLebesgue:
    """The oscillation average of ||phi^2 sin(2^n .)||_{L^2}."""

    def test_exact_beyond_support(self, prof):
        """For n >= 2 the correction transform sits outside [-8, 8]."""
        for n in range(2, 13):
            rec = riemann_lebesgue_check(prof, n)
            assert rec.rel_dev == 0.0

    def test_first_level_sees_the_correction(self, prof):
        """At n = 1 the oscillatory term is active and positive."""
        rec = riemann_lebesgue_check(prof, 1)
        assert rec.rel_dev > 1e-3
        assert rec.value < rec.limit

    def test_limit_value(self, prof):
        """The limit is sqrt((1/2) int phi^4)."""
        rec = riemann_lebesgue_check(prof, 5)
        at0 = prof.sample(prof.phi4, 8, 0).real
        np.testing.assert_allclose(rec.limit, np.sqrt(0.5 * at0), rtol=1e-14)

    def test_invalid_level_rejected(self, prof):
        """n must be at least 1."""
        with pytest.raises(ValueError):
            riemann_lebesgue_check(prof, 0)


class TestNormTable:
    """The per-level table and the CSV the nonuniform run writes of it."""

    def test_patch_only_rows(self):
        """Without a grid the torus columns stay empty."""
        table = nonuniform_experiment(spec_at(3), (3, 4, 5))
        assert [r["n"] for r in table.rows] == [3, 4, 5]
        for row in table.rows:
            assert row["full_gap"] is None and row["rem_f"] is None and row["rem_g"] is None
            assert row["d_crit"] > 0 and row["g2_gap"] > 0
        assert table.warnings == []

    def test_csv_layout(self, tmp_path):
        """The nonuniform.csv that `sqg-lab nonuniform` writes has the fixed column order and empty
        optional cells."""
        from sqglab.cli import main

        table = nonuniform_experiment(spec_at(3), (3, 4))
        argv = ["nonuniform", "--delta", str(DELTA), "--alpha", str(ALPHA), "--n_min", "3", "--n_max", "4"]
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        with open(tmp_path / "nonuniform.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(NORM_TABLE_COLUMNS)
        assert len(rows) == 3
        assert rows[1][0] == "3"
        assert rows[1][-1] == "" and rows[1][-2] == "" and rows[1][-3] == ""
        assert float(rows[1][2]) == table.rows[0]["d_crit"]

    def test_torus_columns_where_feasible(self):
        """Feasible levels get solved gaps; infeasible ones get warnings."""
        grid = make_grid(512, 16 * np.pi)
        cfg = SolverConfig(alpha=ALPHA)
        table = nonuniform_experiment(spec_at(3), (3, 4), grid=grid, cfg=cfg)
        row3, row4 = table.rows
        assert row3["full_gap"] is not None
        np.testing.assert_allclose(row3["full_gap"], row3["d_crit"], rtol=1e-3)
        assert row3["rem_f"] <= 1e-6 * row3["d_crit"]
        assert row3["rem_g"] <= 1e-6 * row3["d_crit"]
        assert row4["full_gap"] is None
        assert any("n=4" in w for w in table.warnings)

    def test_non_lipschitz_signature(self):
        """gap/data ratio in the critical norm grows with the carrier level."""
        table = nonuniform_experiment(spec_at(3), (3, 6))
        r3, r6 = table.rows
        ratio3 = r3["g2_gap"] / r3["d_crit"]
        ratio6 = r6["g2_gap"] / r6["d_crit"]
        assert ratio6 > ratio3
        assert r6["d_crit"] < 0.7 * r3["d_crit"]
