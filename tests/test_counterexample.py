"""Tests for the carrier-force construction and its norm decomposition."""
import csv
from dataclasses import fields

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
from sqglab.norms import hs_norm
from sqglab.patches import coalesce, patch_hs_norm, to_torus

DELTA = 0.02
ALPHA = 0.4
H_XI = CounterexampleSpec.h_xi  # the default patch sample spacing
SPEC = CounterexampleSpec(delta=DELTA, alpha=ALPHA)


def fitted_slope(ns, values):
    return float(np.polyfit(ns, np.log2(values), 1)[0])


def physical(prof, array, half_width, x):
    """Inverse transform (h/2pi) sum v_j exp(i tau_j x) of a stored profile on [-half_width, half_width]."""
    tau = prof.h * np.arange(-half_width * prof.m, half_width * prof.m + 1)
    ph = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=np.float64), tau))
    return (prof.h / (2.0 * np.pi)) * np.real(ph @ array)


@pytest.fixture(scope="module")
def parts():
    return {n: decompose_second_iterate(SPEC, n) for n in range(3, 11)}


@pytest.fixture(scope="module")
def prof():
    return build_phi(H_XI)


class TestSpecValidation:
    """Parameter constraints on the construction."""

    def test_amplitude_positive(self):
        """delta must be positive."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=0.0, alpha=ALPHA)

    def test_alpha_strictly_subcritical(self):
        """alpha = 1/2 is excluded; the gap construction needs alpha < 1/2."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=0.5)
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=0.0)

    def test_carrier_level_integer(self):
        """The carrier level is an argument of build_forces, an integer from 2, where g's carrier box
        [2^n - 2, 2^n + 2] clears the origin, to the top of the int64 patch lattice. At n = 1 the box would
        touch xi_1 = 0 and be read as an origin patch without its mirror."""
        with pytest.raises(ValueError, match="clear the origin"):
            build_forces(SPEC, 1)
        for n in (0, -3, 2.5, 3.0, 58):
            with pytest.raises(ValueError, match=r"carrier level n must be an integer in \[2, 57\]"):
                build_forces(SPEC, n)
        (gp,) = build_forces(SPEC, 2)[1].patches
        assert gp.lo[0] > 0

    def test_fields(self):
        """The spec holds the family's parameters; the carrier level is an argument of what builds a member."""
        assert [f.name for f in fields(CounterexampleSpec)] == ["delta", "alpha", "h_xi"]

    def test_sample_spacing_resolved(self):
        """h_xi must resolve the transition band and divide the unit."""
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, h_xi=1.0 / 10.0)
        with pytest.raises(ValueError):
            CounterexampleSpec(delta=DELTA, alpha=ALPHA, h_xi=3.0 / 64.0)


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
        prof = build_phi(H_XI)
        m = prof.m
        assert prof.phi.size == 4 * m + 1
        assert prof.phi2.size == 8 * m + 1
        assert prof.phi_dphi.size == 8 * m + 1
        assert prof.phi4.size == 16 * m + 1

    def test_product_transforms_consistent(self):
        """(phi^2)^ and (phi^4)^ invert to the pointwise powers of phi."""
        prof = build_phi(H_XI)
        x = np.linspace(-6.0, 6.0, 41)
        phi_x = physical(prof, prof.phi, 2, x)
        np.testing.assert_allclose(physical(prof, prof.phi2, 4, x), phi_x**2, atol=1e-14)
        np.testing.assert_allclose(physical(prof, prof.phi4, 8, x), phi_x**4, atol=1e-14)

    def test_derivative_transform(self):
        """(phi phi')^ inverts to half the derivative of phi^2."""
        prof = build_phi(H_XI)
        x = np.linspace(-4.0, 4.0, 31)
        dx = 1e-5
        num = (physical(prof, prof.phi2, 4, x + dx) - physical(prof, prof.phi2, 4, x - dx)) / (4 * dx)
        np.testing.assert_allclose(physical(prof, prof.phi_dphi, 4, x), num, atol=1e-8)

    def test_sample_lattice_rules(self):
        """sample() reads integer frequencies on the lattice and zeros outside the box on both sides."""
        prof = build_phi(H_XI)
        assert prof.sample(prof.phi, 2, 0) == 1.0
        assert prof.sample(prof.phi, 2, 5) == 0.0
        assert prof.sample(prof.phi, 2, -3) == 0.0

    def test_quartic_mass_stable_under_refinement(self):
        """int phi^4 from the transform is stable to 1e-8 under h halving."""
        coarse = build_phi(H_XI)
        fine = build_phi(1.0 / 64.0)
        a = coarse.sample(coarse.phi4, 8, 0).real
        b = fine.sample(fine.phi4, 8, 0).real
        assert a > 0
        assert abs(a - b) / a <= 1e-8


class TestForces:
    """The force pair and its supports."""

    def test_supports(self):
        """g sits in one carrier box at +2^n, standing with its mirror at -2^n, h in the centered box |xi_i| <= 2."""
        _, g, h = build_forces(SPEC, 3)
        carrier = 8 * build_phi(H_XI).m
        (gp,) = g.patches
        assert gp.lo[0] == carrier - 2 * round(1 / g.h)
        assert gp.hi()[0] == carrier + 2 * round(1 / g.h)
        assert abs(gp.lo[1]) * g.h == 2.0
        (hp,) = h.patches
        assert hp.lo == (-2 * round(1 / h.h), -2 * round(1 / h.h))

    def test_h_vanishes_at_origin(self):
        """The |xi|^{2 alpha + 1} multiplier kills the zero frequency."""
        from sqglab.patches import materialize

        _, _, h = build_forces(SPEC, 3)
        (hp,) = h.patches
        vals = materialize(hp, h.h)
        i0 = -hp.lo[0]
        assert vals[i0, i0] == 0.0

    def test_forces_are_hermitian(self):
        """The three forces and the closed-form b11 and b12 are real fields by construction: each carrier is one
        patch on the xi_1 > 0 side, standing with its mirror, and h's origin patch is exactly self-conjugate."""
        prof = build_phi(H_XI)
        for n in (3, 6):
            b11 = _closed_form(SPEC, n, prof, prof.phi2, prof.phi_dphi, 2.0 - 4.0 * ALPHA, 0.5)
            b12 = _closed_form(SPEC, n, prof, prof.phi_dphi, prof.phi_dphi, 3.0 - 4.0 * ALPHA, -0.5j)
            for u in (*build_forces(SPEC, n), b11, b12):
                for p in u.patches:
                    if p.contains_origin():
                        assert p.lo == tuple(-x for x in p.hi())
                        np.testing.assert_array_equal(p.values, np.conj(p.values[::-1, ::-1]))
                    else:
                        assert p.lo[0] > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_carrier_sampled_with_its_mirror(self, n):
        """On K = 256, L = 8 pi the sampled g_n has the L2 norm of its coalesced field, whose patch is trimmed
        off the origin: the torus holds the carrier and its mirror."""
        grid = make_grid(256, 8 * np.pi)
        _, g, _ = build_forces(SPEC, n)
        want = hs_norm(to_torus(coalesce(g), grid), 0.0)
        assert want > 0
        np.testing.assert_allclose(hs_norm(to_torus(g, grid), 0.0), want, rtol=1e-14)

    def test_f_splits_into_g_plus_h(self):
        """f carries exactly the patches of g and h."""
        f, g, h = build_forces(SPEC, 3)
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
            _, g, _ = build_forces(SPEC, n)
            vals.append((patch_hs_norm(g, -ALPHA) + patch_hs_norm(g, 2 - 4 * ALPHA)) / DELTA)
        assert max(vals) <= 1.25 * min(vals)
        tail = vals[-3:]
        assert max(tail) <= 1.02 * min(tail)

    def test_h_norm_decays_exactly(self):
        """||h_n|| scales by exactly 2^{-(1-2 alpha)} per carrier level."""
        prev = None
        for n in range(3, 8):
            _, _, h = build_forces(SPEC, n)
            cur = patch_hs_norm(h, 2 - 4 * ALPHA)
            if prev is not None:
                np.testing.assert_allclose(cur / prev, 2.0 ** -(1 - 2 * ALPHA), rtol=1e-12)
            prev = cur

    def test_amplitude_is_linear_in_delta(self):
        """Doubling delta doubles every force norm."""
        _, g1, h1 = build_forces(CounterexampleSpec(0.01, ALPHA), 4)
        _, g2, h2 = build_forces(CounterexampleSpec(0.02, ALPHA), 4)
        np.testing.assert_allclose(patch_hs_norm(g2, 0.3), 2 * patch_hs_norm(g1, 0.3), rtol=1e-12)
        np.testing.assert_allclose(patch_hs_norm(h2, 0.3), 2 * patch_hs_norm(h1, 0.3), rtol=1e-12)


class TestDecomposition:
    """Second-iterate gap pieces and their carrier-level rates."""

    def test_small_carrier_rejected(self):
        """Levels below n=3 would collide with the origin block: the closed forms' boxes of half width 4 need
        2^n > 4, by the one carrier-level rule."""
        with pytest.raises(ValueError, match=r"carrier level n must be an integer in \[3, 57\], got 2"):
            decompose_second_iterate(SPEC, 2)

    def test_closed_form_reconstruction(self, parts):
        """The generic convolution B[h,g] matches the closed form b11."""
        for p in parts.values():
            assert p.recon_rel <= 1e-12

    def test_each_conjugate_pair_convolved_once(self, monkeypatch):
        """A carrier level makes 6 patch convolutions of 3 transforms each: B[g,h], B[h,g] and B[h,h] take two
        each, and none recomputes the conjugate partner of another."""
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        decompose_second_iterate(SPEC, 3)
        assert calls == ["fftn", "fftn", "ifftn"] * 6

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
        lo = decompose_second_iterate(CounterexampleSpec(DELTA, 0.49), 4)
        hi = decompose_second_iterate(CounterexampleSpec(DELTA, 0.49), 8)
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
        a = decompose_second_iterate(CounterexampleSpec(0.01, ALPHA), 5)
        b = decompose_second_iterate(CounterexampleSpec(0.02, ALPHA), 5)
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

    # the patch columns at delta = 0.02, alpha = 0.4, n = 3..10, as written when each carrier stored both
    # conjugate patches: d_low, d_crit, g2_gap, b11, b12 (= b2), bgh
    PINNED = {
        3: (0.007731711197983908, 0.010352245242848742, 8.154123952734273e-06, 9.748606464125191e-06,
            5.83601069203585e-07, 1.678942449891403e-06),
        4: (0.0067308455386478425, 0.009012152927541595, 8.895680081708309e-06, 9.694076196422595e-06,
            2.9032306861920213e-07, 8.411955919811177e-07),
        5: (0.005859541375129084, 0.00784553480758215, 9.282812012400469e-06, 9.680398034917852e-06,
            1.4498289511886182e-07, 4.2081648373954074e-07),
        6: (0.00510102704477557, 0.006829934746099989, 9.479506192735784e-06, 9.676975786395426e-06,
            7.246931281367146e-08, 2.1043567038783083e-07),
        7: (0.0044407019672181355, 0.005945803540493117, 9.578228058009913e-06, 9.676120057120151e-06,
            3.623189570746828e-08, 1.0522126660110793e-07),
        8: (0.003865855598991955, 0.005176122621424373, 9.627463921463902e-06, 9.6759061143874e-06,
            1.811560295865496e-08, 5.2611062314879396e-08),
        9: (0.0033654227693239217, 0.004506076463770798, 9.651926034701376e-06, 9.67585262805385e-06,
            9.05775837345595e-09, 2.6305584786990557e-08),
        10: (0.002929770687564542, 0.003922767403791075, 9.664046510210069e-06, 9.675839256429822e-06,
             4.528873798681972e-09, 1.3152799097275356e-08),
    }

    def test_patch_columns_pinned(self):
        """The patch-only columns of the default table stay within 1e-13 relative of their pinned values."""
        table = nonuniform_experiment(SPEC, tuple(range(3, 11)))
        for row in table.rows:
            d_low, d_crit, g2_gap, b11, b12, bgh = self.PINNED[row["n"]]
            want = {"d_low": d_low, "d_crit": d_crit, "g2_gap": g2_gap, "b11": b11, "b12": b12, "b2": b12, "bgh": bgh}
            for col, value in want.items():
                np.testing.assert_allclose(row[col], value, rtol=1e-13, atol=0, err_msg=f"n={row['n']} {col}")

    def test_patch_only_rows(self):
        """Without a grid the torus columns stay empty."""
        table = nonuniform_experiment(SPEC, (3, 4, 5))
        assert [r["n"] for r in table.rows] == [3, 4, 5]
        for row in table.rows:
            assert row["full_gap"] is None and row["rem_f"] is None and row["rem_g"] is None
            assert row["d_crit"] > 0 and row["g2_gap"] > 0
        assert table.warnings == []

    def test_csv_layout(self, tmp_path):
        """The nonuniform.csv that `sqg-lab nonuniform` writes has the fixed column order and empty
        optional cells."""
        from sqglab.cli import main

        table = nonuniform_experiment(SPEC, (3, 4))
        argv = ["nonuniform", "--delta", str(DELTA), "--alpha", str(ALPHA), "--n_min", "3", "--n_max", "4"]
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        with open(tmp_path / "nonuniform.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(NORM_TABLE_COLUMNS)
        assert len(rows) == 3
        assert rows[1][0] == "3"
        assert rows[1][-1] == "" and rows[1][-2] == "" and rows[1][-3] == ""
        assert float(rows[1][2]) == table.rows[0]["d_crit"]

    def test_torus_row_pinned(self):
        """A level the grid holds (n=3 at K=512, L=16pi) gets its solved gap and Picard remainders; the values are
        pinned bit for bit."""
        table = nonuniform_experiment(SPEC, (3,), (make_grid(512, 16 * np.pi), SolverConfig(alpha=ALPHA)))
        (row,) = table.rows
        assert (row["full_gap"], row["rem_f"], row["rem_g"]) == (0.010352248991012399, 4.24280338732772e-09,
                                                                 3.0610068145696104e-19)
        assert table.warnings == []

    def test_torus_remainders_are_of_the_top_problem(self, monkeypatch):
        """The Picard remainders compare each solve with theta2 of the P_{n_top} problem it solves, n_top the
        top of the grid's schedule, wherever the solve stops: at K=1024, L=2pi the n=3 f solve stops at
        level 5 of 7, both theta2 calls take project_N=7, and rem_f is the distance to it, bit for bit. (Here
        theta2 at P_5 has the same bits, since its product's modes lie inside level 5's disk.)"""
        import sqglab.counterexample as counterexample
        from sqglab import default_schedule, outer_iterate, theta2

        levels = []
        monkeypatch.setattr(counterexample, "theta2", lambda a, alpha, project_N: levels.append(project_N)
                            or theta2(a, alpha, project_N=project_N))
        grid, cfg = make_grid(1024, 2.0 * np.pi), SolverConfig(alpha=ALPHA)
        (row,) = nonuniform_experiment(SPEC, (3,), (grid, cfg)).rows
        assert levels == [7, 7]
        f_t = to_torus(build_forces(SPEC, 3)[0], grid)
        theta_f, report = outer_iterate(f_t, cfg)
        assert (report.steps[-1].n, default_schedule(grid)[-1]) == (5, 7)
        assert row["rem_f"] == hs_norm(theta_f - theta2(f_t, ALPHA, project_N=7), 2.0 - 2.0 * ALPHA)

    def test_torus_level_past_the_band_refused(self, monkeypatch):
        """A level whose force leaves the dealias band (n=4 reaches |xi| = 18 past K=512's cutoff 10.6) is a
        ValueError naming it, raised before any level is decomposed or solved."""
        import sqglab.counterexample as counterexample

        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(counterexample, "decompose_second_iterate", no_level)
        monkeypatch.setattr(counterexample, "outer_iterate", no_level)
        with pytest.raises(ValueError, match=r"^n=4: patch content reaches .* beyond the dealias cutoff"):
            nonuniform_experiment(SPEC, (3, 4), (make_grid(512, 16 * np.pi), SolverConfig(alpha=ALPHA)))

    def test_non_lipschitz_signature(self):
        """gap/data ratio in the critical norm grows with the carrier level."""
        table = nonuniform_experiment(SPEC, (3, 6))
        r3, r6 = table.rows
        ratio3 = r3["g2_gap"] / r3["d_crit"]
        ratio6 = r6["g2_gap"] / r6["d_crit"]
        assert ratio6 > ratio3
        assert r6["d_crit"] < 0.7 * r3["d_crit"]
