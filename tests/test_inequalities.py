"""Tests for the randomized product and commutator estimate probes."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sqglab import (
    cancellation_probe,
    commutator_estimate_ratio,
    commutator_field,
    commutator_operating_point,
    field_from_modes,
    fractional_laplacian,
    hs_norm,
    make_grid,
    pointwise_product,
    product_estimate_ratio,
    product_operating_point,
    run_commutator_probe,
    run_product_probe,
    sample_band_limited,
)
from sqglab import inequalities
from sqglab.inequalities import _stream
from lattice_tables import Lattice, translate

GRID = make_grid(32, np.pi)


def cos_mode(grid, m1, m2, amp=1.0):
    return field_from_modes(grid, {(m1, m2): 0.5 * amp})


class TestExponentValidation:
    """Admissibility checks on the exponent tuples."""

    def test_product_sum_mismatch(self):
        """s1+s2 and s3+s4 must agree."""
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 2, 0)
        with pytest.raises(ValueError, match="sums differ"):
            product_estimate_ratio(f, g, (0.5, 0.5, 0.5, 0.6))

    def test_product_sum_positive(self):
        """The common sum must be positive."""
        f = cos_mode(GRID, 1, 0)
        with pytest.raises(ValueError, match="must be positive"):
            product_estimate_ratio(f, f, (0.5, -0.5, 0.5, -0.5))

    def test_product_endpoint_exponents(self):
        """s1 and s4 must stay below 1."""
        f = cos_mode(GRID, 1, 0)
        with pytest.raises(ValueError, match="s1 < 1 and s4 < 1"):
            product_estimate_ratio(f, f, (1.0, 0.5, 0.5, 1.0))

    def test_commutator_pair_sums(self):
        """All three exponent pairs must share one sum."""
        f = cos_mode(GRID, 1, 0)
        with pytest.raises(ValueError, match="pair sums"):
            commutator_estimate_ratio(f, f, (0.5, 0.5, 0.5, 0.5, 0.5, 0.6))

    def test_commutator_range(self):
        """s2 > 0, s3 < 2, s6 < 1 are all enforced."""
        f = cos_mode(GRID, 1, 0)
        with pytest.raises(ValueError, match="s2 > 0"):
            commutator_estimate_ratio(f, f, (1.0, -0.5, 0.25, 0.25, 0.25, 0.25))
        with pytest.raises(ValueError, match="s3 < 2"):
            commutator_estimate_ratio(f, f, (1.0, 1.5, 2.5, 0.0, 1.6, 0.9))

    def test_zero_inputs_rejected(self):
        """A vanishing right-hand side has no ratio."""
        z = field_from_modes(GRID, {})
        with pytest.raises(ValueError, match="nonzero"):
            product_estimate_ratio(z, z, (0.5, 0.5, 0.5, 0.5))


class TestOperatingPoints:
    """Exponent tuples used by the solver's energy estimates."""

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.5])
    def test_product_point_admissible(self, alpha):
        """The contraction-estimate exponents pass validation."""
        s1, s2, s3, s4 = product_operating_point(alpha)
        assert (s1, s4) == (alpha, alpha)
        np.testing.assert_allclose(s1 + s2, 2.0 - 2.0 * alpha, rtol=1e-15)
        np.testing.assert_allclose(s3 + s4, s1 + s2, rtol=1e-15)
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 0, 2)
        assert product_estimate_ratio(f, g, (s1, s2, s3, s4)) > 0

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.5])
    def test_commutator_point_admissible(self, alpha):
        """The critical-norm energy exponents pass validation."""
        point = commutator_operating_point(alpha)
        assert point[0] == 2.0 - 3.0 * alpha
        sums = {point[0] + point[1], point[2] + point[3], point[4] + point[5]}
        assert len({round(s, 12) for s in sums}) == 1
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 0, 2)
        assert commutator_estimate_ratio(f, g, point) >= 0


class TestCommutatorField:
    """The multiplier commutator against hand-expanded trigonometry."""

    def test_order_zero_vanishes(self):
        """With s1 = 0 the commutator is identically zero."""
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 2, 0)
        c = commutator_field(f, g, 0.0)
        assert hs_norm(c, 0.0) == 0.0
        assert commutator_estimate_ratio(f, g, (0.0, 1.0, 0.5, 0.5, 1.0, 0.0)) == 0.0

    def test_first_order_oracle(self):
        """[|D|, cos x1] cos 2x1 = (cos 3x1 - cos x1) / 2."""
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 2, 0)
        c = commutator_field(f, g, 1.0)
        expected = field_from_modes(GRID, {(3, 0): 0.25, (1, 0): -0.25})
        np.testing.assert_allclose(
            hs_norm(c - expected, 0.0), 0.0, atol=1e-12 * hs_norm(expected, 0.0)
        )

    def test_smoothing_gain(self):
        """One derivative falls on the smooth factor, not on g."""
        f = cos_mode(GRID, 1, 0)
        g = cos_mode(GRID, 8, 0)
        c = commutator_field(f, g, 1.0)
        expected = field_from_modes(GRID, {(9, 0): 0.25, (7, 0): -0.25})
        np.testing.assert_allclose(
            hs_norm(c - expected, 0.0), 0.0, atol=1e-12 * hs_norm(expected, 0.0)
        )


class TestRatioInvariance:
    """Scalings and translations the ratios must not see."""

    def test_product_scale_invariant(self):
        """Rescaling either factor leaves the ratio unchanged."""
        f = sample_band_limited(GRID, 1.0, 5.0, seed=11)
        g = sample_band_limited(GRID, 1.0, 5.0, seed=12)
        point = product_operating_point(0.4)
        base = product_estimate_ratio(f, g, point)
        np.testing.assert_allclose(
            product_estimate_ratio(f * 2.0, g * 0.125, point), base, rtol=1e-12
        )

    def test_product_translation_invariant(self):
        """Translating both factors together leaves the ratio unchanged."""
        f = sample_band_limited(GRID, 1.0, 5.0, seed=21)
        g = sample_band_limited(GRID, 1.0, 5.0, seed=22)
        point = product_operating_point(0.4)
        base = product_estimate_ratio(f, g, point)
        shift = (0.7, -1.3)
        np.testing.assert_allclose(
            product_estimate_ratio(translate(f, shift), translate(g, shift), point),
            base,
            rtol=1e-12,
        )

    def test_commutator_scale_invariant(self):
        """Rescaling either argument leaves the commutator ratio unchanged."""
        f = sample_band_limited(GRID, 1.0, 5.0, seed=31)
        g = sample_band_limited(GRID, 1.0, 5.0, seed=32)
        point = commutator_operating_point(0.4)
        base = commutator_estimate_ratio(f, g, point)
        np.testing.assert_allclose(
            commutator_estimate_ratio(f * 0.25, g * 8.0, point), base, rtol=1e-12
        )


class TestSampler:
    """Band-limited Gaussian draws."""

    def test_deterministic(self):
        """Equal seeds reproduce the draw bit for bit."""
        u = sample_band_limited(GRID, 1.0, 6.0, seed=7)
        w = sample_band_limited(GRID, 1.0, 6.0, seed=7)
        np.testing.assert_array_equal(u.coeffs, w.coeffs)

    def test_unit_l2_norm(self):
        """Draws are normalized in L^2."""
        u = sample_band_limited(GRID, 2.0, 8.0, seed=3)
        np.testing.assert_allclose(hs_norm(u, 0.0), 1.0, rtol=1e-12)

    def test_annulus_support(self):
        """Coefficients vanish off the requested annulus."""
        u = sample_band_limited(GRID, 2.0, 6.0, seed=5)
        kmag = Lattice(GRID).kmag
        outside = (kmag <= 2.0) | (kmag > 6.0 * (1.0 + 1e-12))
        assert np.all(u.coeffs[outside] == 0)
        assert np.any(u.coeffs != 0)

    def test_draw_stays_on_the_band(self):
        """A draw at K = 2048 allocates nothing of size K x K: its traced peak stays under 1 MiB."""
        grid = make_grid(2048, np.pi)
        tracemalloc.start()
        try:
            sample_band_limited(grid, 1.0, 5.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_band_validation(self):
        """Degenerate or unresolvable bands are rejected."""
        with pytest.raises(ValueError, match="k_min < k_max"):
            sample_band_limited(GRID, 5.0, 5.0, seed=0)
        with pytest.raises(ValueError, match="dealias"):
            sample_band_limited(GRID, 1.0, 100.0, seed=0)
        tight = make_grid(16, np.pi)
        with pytest.raises(ValueError, match="no lattice points"):
            sample_band_limited(tight, 4.0, 4.1, seed=0)


class TestCancellation:
    """The transport term is skew against its own scalar."""

    def test_parallel_flow_exact_zero(self):
        """A single-direction field self-advects to exactly zero."""
        theta = field_from_modes(GRID, {(1, 0): -0.5j})
        assert cancellation_probe(theta) == 0.0

    def test_two_mode_cancellation(self):
        """cos x1 + cos x2 pairs to zero despite a nonzero transport term."""
        theta = field_from_modes(GRID, {(1, 0): 0.5, (0, 1): 0.5})
        assert cancellation_probe(theta) <= 1e-12

    def test_random_band_fields(self):
        """Unit-norm random fields pair to roundoff."""
        for seed in range(5):
            theta = sample_band_limited(GRID, 1.0, 8.0, seed=seed)
            assert cancellation_probe(theta) <= 1e-9

    def test_band_guard(self):
        """Fields past K/4 are refused to keep the pairing alias-free."""
        theta = field_from_modes(GRID, {(9, 0): 0.5})
        with pytest.raises(ValueError, match="band-limited"):
            cancellation_probe(theta)


class TestProbeRuns:
    """Shape and bookkeeping of the randomized sweeps."""

    def test_product_probe_record(self):
        """The record carries every ratio and the worst witness."""
        probe = run_product_probe(GRID, product_operating_point(0.4), samples=8, seed=42)
        assert probe.kind == "product"
        assert probe.samples == 8 and len(probe.ratios) == 8
        assert probe.worst_ratio == max(probe.ratios)
        assert probe.exponents == product_operating_point(0.4)
        f, g = probe.witness
        np.testing.assert_allclose(
            product_estimate_ratio(f, g, probe.exponents), probe.worst_ratio, rtol=1e-13
        )

    def test_commutator_probe_record(self):
        """The commutator sweep mirrors the product bookkeeping."""
        probe = run_commutator_probe(
            GRID, commutator_operating_point(0.4), samples=6, seed=9
        )
        assert probe.kind == "commutator"
        assert len(probe.ratios) == 6
        assert probe.worst_ratio == max(probe.ratios)
        assert probe.k_max == GRID.dealias_k / 2.0

    def test_probe_deterministic(self):
        """Equal seeds give equal sweeps, and draw i does not depend on the sample count."""
        a = run_product_probe(GRID, product_operating_point(0.3), samples=5, seed=1)
        b = run_product_probe(GRID, product_operating_point(0.3), samples=5, seed=1)
        assert a.ratios == b.ratios
        assert run_product_probe(GRID, product_operating_point(0.3), samples=8, seed=1).ratios[:5] == a.ratios

    def test_ratios_bounded(self):
        """Worst ratios stay moderate at the solver operating point."""
        probe = run_product_probe(GRID, product_operating_point(0.4), samples=20, seed=4)
        assert probe.worst_ratio < 5.0

    def test_sample_count_validated(self):
        """At least one sample is required."""
        with pytest.raises(ValueError, match="at least 1"):
            run_product_probe(GRID, product_operating_point(0.4), samples=0, seed=0)


class TestStackedDraws:
    """The probes evaluate their draws a stack at a time; every stack gives the one-draw path's bits."""

    PROBES = {
        "product": (run_product_probe, product_estimate_ratio, product_operating_point),
        "commutator": (run_commutator_probe, commutator_estimate_ratio, commutator_operating_point),
    }

    @staticmethod
    def draw(kind, seed, i):
        """f, then g, of draw i, drawn one at a time from the draw's own stream."""
        rng = _stream(seed, kind, i)
        return tuple(sample_band_limited(GRID, 1.0, GRID.dealias_k / 2.0, rng) for _ in range(2))

    @staticmethod
    def field_ratio(kind, f, g, e):
        """The estimate's ratio written with the field API: pointwise_product, fractional_laplacian, hs_norm."""
        if kind == "product":
            lhs = hs_norm(pointwise_product(f, g), e[0] + e[1] - 1.0)
            return lhs / (hs_norm(f, e[0]) * hs_norm(g, e[1]) + hs_norm(f, e[2]) * hs_norm(g, e[3]))
        half = e[0] / 2.0
        c = fractional_laplacian(pointwise_product(f, g), half) - pointwise_product(f, fractional_laplacian(g, half))
        return hs_norm(c, e[1] - 1.0) / (hs_norm(f, e[2]) * hs_norm(g, e[3]) + hs_norm(f, e[4]) * hs_norm(g, e[5]))

    @pytest.mark.parametrize("kind", ["product", "commutator"])
    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 9])
    def test_stacks_give_the_one_draw_ratios(self, kind, samples):
        """Each ratio, full and partial stacks alike, equals bit for bit the public one-draw ratio of
        sample_band_limited's f and g from the draw's stream and the same ratio written with the field API,
        and the witness is the first maximal draw."""
        run, ratio, point = self.PROBES[kind]
        probe = run(GRID, point(0.4), samples, seed=5)
        draws = [self.draw(kind, 5, i) for i in range(samples)]
        assert probe.ratios == tuple(ratio(f, g, probe.exponents) for f, g in draws)
        assert probe.ratios == tuple(self.field_ratio(kind, f, g, probe.exponents) for f, g in draws)
        first = probe.ratios.index(max(probe.ratios))
        assert [w.half.tobytes() for w in probe.witness] == [u.half.tobytes() for u in draws[first]]

    @pytest.mark.parametrize("kind", ["product", "commutator"])
    def test_ratio_prefixes_agree_across_stack_splits(self, kind):
        """Runs whose sample counts split the draws into different stacks agree on every shared draw."""
        run, _, point = self.PROBES[kind]
        full = run(GRID, point(0.4), 9, seed=2).ratios
        for samples in (1, 3, 4, 5):
            assert run(GRID, point(0.4), samples, seed=2).ratios == full[:samples]

    @pytest.mark.parametrize("kind", ["product", "commutator"])
    def test_witness_is_the_first_of_tied_draws(self, kind, monkeypatch):
        """With draw i replaced by 2^i times draw 0 (both fields), which scales every product, norm and sum
        exactly, all nine ratios tie bit for bit and the witness is draw 0, not a later stack's draw."""
        draws = inequalities._draws

        def tied(grid, k_min, k_max, n, rng, per):
            first = 0
            for stack in draws(grid, k_min, k_max, n, rng, per):
                if first == 0:
                    base = stack[0].copy()
                stack[:] = base * 2.0 ** np.arange(first, first + len(stack))[:, None, None, None]
                first += len(stack)
                yield stack

        monkeypatch.setattr(inequalities, "_draws", tied)
        run, _, point = self.PROBES[kind]
        probe = run(GRID, point(0.4), 9, seed=7)
        assert len(set(probe.ratios)) == 1
        assert [w.half.tobytes() for w in probe.witness] == [u.half.tobytes() for u in self.draw(kind, 7, 0)]

    def test_a_refused_stack_is_evaluated_once(self, monkeypatch):
        """A stack holding a draw whose norms overflow, draw 5 (both fields scaled by 1e200), is refused from its
        one evaluation: _estimate runs once per stack, and no draw of the refused stack is evaluated again."""
        draws, estimate, sizes = inequalities._draws, inequalities._estimate, []

        def scaled(grid, k_min, k_max, n, rng, per):
            first = 0
            for stack in draws(grid, k_min, k_max, n, rng, per):
                if first <= 5 < first + len(stack):
                    stack[5 - first] *= 1e200
                first += len(stack)
                yield stack

        def counted(kind, grid, f, g, exponents):
            sizes.append(len(f))
            return estimate(kind, grid, f, g, exponents)

        monkeypatch.setattr(inequalities, "_draws", scaled)
        monkeypatch.setattr(inequalities, "_estimate", counted)
        with pytest.raises(ValueError, match="product probe draw 5: ratio"):
            run_product_probe(GRID, product_operating_point(0.4), 9, seed=0)
        assert sizes == [4, 4]

    @pytest.mark.parametrize("side, ratio", [(1, "0.0"), (0, "inf")], ids=["rhs", "lhs"])
    def test_a_side_past_the_float_range_is_refused(self, side, ratio, monkeypatch):
        """Draw 6 with one side inf and the other finite is refused by number, the right side's case
        although its ratio, 0.0, is finite."""
        estimate, calls = inequalities._estimate, []

        def broken(kind, grid, f, g, exponents):
            sides = estimate(kind, grid, f, g, exponents)
            calls.append(len(f))
            if len(calls) == 2:  # the second stack, draws 4..7
                sides[side][6 - 4] = np.inf
            return sides

        monkeypatch.setattr(inequalities, "_estimate", broken)
        with pytest.raises(ValueError, match=f"commutator probe draw 6: ratio {ratio} of sides"):
            run_commutator_probe(GRID, commutator_operating_point(0.4), 9, seed=3)
