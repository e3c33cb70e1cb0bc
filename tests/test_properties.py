"""Property-based checks of the spectral field invariants."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqglab import (
    SpectralField,
    advect,
    apply_lax_milgram_operator,
    bilinear_B,
    dealias,
    field_from_modes,
    field_from_physical,
    fractional_laplacian,
    heat_smooth,
    hs_norm,
    l2_inner,
    make_grid,
    picard_theta1,
    pointwise_product,
    project_low,
    rescale,
    residual,
    theta2,
    to_physical,
    translate,
    velocity_from_theta,
)
from lattice_tables import Lattice

GRID = make_grid(32, np.pi)

mode_keys = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda t: t != (0, 0)
)
mode_values = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
fields = st.builds(
    lambda modes: field_from_modes(GRID, modes),
    st.dictionaries(mode_keys, mode_values, min_size=1, max_size=8),
)
sobolev_s = st.floats(-1.5, 2.5, allow_nan=False)


@given(fields, fields)
def test_sums_stay_hermitian(u, w):
    """Coefficient symmetry survives linear combinations."""
    c = (u + 2.0 * w).coeffs
    K = GRID.K
    idx = (-np.arange(K)) % K
    np.testing.assert_allclose(c, np.conj(c[np.ix_(idx, idx)]), atol=1e-14)


@given(fields)
def test_parseval(u):
    """The L^2 pairing of a field with itself is its squared norm."""
    np.testing.assert_allclose(l2_inner(u, u), hs_norm(u, 0.0) ** 2, rtol=1e-10, atol=1e-300)


@given(fields, st.integers(0, 3), sobolev_s)
def test_projection_contracts(u, n, s):
    """Low-pass truncation never increases a homogeneous norm."""
    p = project_low(u, n)
    assert hs_norm(p, s) <= hs_norm(u, s) * (1.0 + 1e-12)
    np.testing.assert_array_equal(project_low(p, n).coeffs, p.coeffs)


@given(fields, fields, st.integers(0, 3))
def test_projection_self_adjoint(u, w, n):
    """<P u, w> = <u, P w> for the sharp low-pass."""
    lhs = l2_inner(project_low(u, n), w)
    rhs = l2_inner(u, project_low(w, n))
    scale = hs_norm(u, 0.0) * hs_norm(w, 0.0) + 1e-30
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


@given(fields, st.floats(0.0, 2.0, allow_nan=False), st.floats(0.0, 2.0, allow_nan=False), sobolev_s)
def test_heat_semigroup(u, a, b, s):
    """Two mollifications compose into one and never increase norms."""
    two = heat_smooth(heat_smooth(u, a), b)
    one = heat_smooth(u, float(np.hypot(a, b)))
    np.testing.assert_allclose(two.coeffs, one.coeffs, atol=1e-14)
    assert hs_norm(two, s) <= hs_norm(u, s) * (1.0 + 1e-12)


@given(fields, st.floats(-1.0, 1.0, allow_nan=False), st.floats(-1.0, 1.0, allow_nan=False))
def test_multiplier_composition(u, a, b):
    """Fractional Laplacians compose by adding their orders."""
    lhs = fractional_laplacian(fractional_laplacian(u, a), b)
    rhs = fractional_laplacian(u, a + b)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11, atol=1e-16)


@given(fields, st.tuples(st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False)), sobolev_s)
def test_translation_isometry(u, shift, s):
    """Translations preserve every homogeneous norm."""
    np.testing.assert_allclose(hs_norm(translate(u, shift), s), hs_norm(u, s), rtol=1e-11)


@given(fields)
def test_velocity_divergence_free(u):
    """The induced velocity is exactly solenoidal on the lattice."""
    v = velocity_from_theta(u)
    lat = Lattice(GRID)
    div = lat.kx * v.v1.coeffs + lat.ky * v.v2.coeffs
    np.testing.assert_allclose(div, 0.0, atol=1e-14)


@settings(max_examples=40)
@given(fields, fields)
def test_product_commutes(u, w):
    """The dealiased pointwise product is symmetric."""
    np.testing.assert_array_equal(
        pointwise_product(u, w).coeffs, pointwise_product(w, u).coeffs
    )


def public_outputs(u, w):
    """One result of every public operator that returns a field, built from u and w."""
    v = velocity_from_theta(u)
    low = project_low(u, 2)
    wide = field_from_physical(GRID, to_physical(u) + to_physical(w))  # reaches the Nyquist lines
    wide_v = velocity_from_theta(wide)
    return {
        "field_from_modes": u,
        "add": u + w,
        "sub": u - w,
        "scale": -2.5 * u,
        "neg": -u,
        "dealias": dealias(wide),
        "fractional_laplacian": fractional_laplacian(u, -0.4),
        "velocity_v1": v.v1,
        "velocity_v2": v.v2,
        "project_low": low,
        "heat_smooth": heat_smooth(u, 0.3),
        "translate": translate(u, (0.7, -1.3)),
        "rescale": rescale(u, -0.2),
        "advect": advect(velocity_from_theta(w), u),
        "advect_divergence": advect(velocity_from_theta(w), u, form="divergence"),
        "pointwise_product": pointwise_product(u, w),
        "field_from_physical": wide,
        "translate_nyquist": translate(wide, (0.7, -1.3)),
        "velocity_nyquist_v1": wide_v.v1,
        "velocity_nyquist_v2": wide_v.v2,
        "picard_theta1": picard_theta1(u, 0.4),
        "bilinear_B": bilinear_B(u, w, 0.4),
        "theta2": theta2(u, 0.4, project_N=2),
        "apply_lax_milgram_operator": apply_lax_milgram_operator(velocity_from_theta(w), low, 2, 0.4),
        "residual": residual(u, w, 0.4, project_N=2).r_field,
    }


@settings(max_examples=40)
@given(fields, fields)
def test_operators_hermitian_by_construction(u, w):
    """Every operator's coefficients are exactly Hermitian and mean-free, read-only and built once.

    Each output's dealias flag is read off its support.
    """
    flip = (-np.arange(GRID.K)) % GRID.K
    for name, out in public_outputs(u, w).items():
        assert out.is_dealiased == (out.max_mode_index() <= out.grid.dealias_index), name
        c = out.coeffs
        assert c is out.coeffs, name
        assert not c.flags.writeable, name
        assert np.array_equal(c, np.conj(c[np.ix_(flip, flip)])), name
        assert c[0, 0] == 0.0, name


# -- field_from_modes against the K x K path it replaced ------------------

GRID16 = make_grid(16, np.pi)
NYQUIST_KEYS = [(8, 0), (-8, 0), (0, 8), (0, -8), (8, 8), (-8, -8), (8, -8), (3, 8), (-3, -8), (8, 3), (-8, 3), (0, 0)]
any_keys = st.one_of(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.sampled_from(NYQUIST_KEYS))
any_values = st.one_of(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0j, complex(0.5, 1e-13), complex(0.5, 1e-11), complex(0.0, -0.0)]),
)


@st.composite
def mode_dicts(draw):
    """Mode dictionaries on K = 16: some entries are followed by their partner -m, a few hold NaN or inf."""
    modes = draw(st.dictionaries(any_keys, any_values, max_size=8))
    for m1, m2 in draw(st.lists(st.sampled_from(sorted(modes)), max_size=3)) if modes else ():
        modes[(-m1, -m2)] = draw(any_values)
    if modes and draw(st.integers(0, 9)) == 7:
        modes[draw(st.sampled_from(sorted(modes)))] = draw(st.sampled_from([complex("nan"), complex("inf")]))
    return modes


def ref_field_from_modes(grid, modes):
    """The former path: every entry and its conjugate written into K x K, then the validating constructor."""
    c = Lattice(grid).zeros()
    K = grid.K
    for (m1, m2), val in modes.items():
        if max(abs(m1), abs(m2)) > K // 2:
            raise ValueError(f"mode {(m1, m2)} outside the lattice for K={K}")
        c[m1 % K, m2 % K] = val
        c[(-m1) % K, (-m2) % K] = np.conj(val)
    return SpectralField(grid, c)


def outcome(build, *args):
    """The half square a builder returns, or the message of its refusal."""
    try:
        return build(*args).half
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(mode_dicts())
def test_field_from_modes_matches_full_lattice_path(modes):
    """field_from_modes equals the K x K path bit for bit, and refuses exactly what it refused, with its message."""
    new, ref = outcome(field_from_modes, GRID16, modes), outcome(ref_field_from_modes, GRID16, modes)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


@settings(max_examples=60)
@given(mode_dicts())
def test_mode_matches_coeffs_on_mode_dicts(modes):
    """mode() returns coeffs' entry bit for bit on every lattice mode, Nyquist lines and wrapped indices included."""
    try:
        u = field_from_modes(GRID16, modes)
    except ValueError:
        return
    K = GRID16.K
    for m1 in range(-K, K):
        for m2 in range(-K, K):
            assert np.complex128(u.mode(m1, m2)).tobytes() == u.coeffs[m1 % K, m2 % K].tobytes(), (m1, m2)
