"""Pseudospectral laboratory for the stationary fractional surface
quasi-geostrophic equation on a periodic square.

Fields are stored spectrally; the solver runs a dyadically truncated
Lax-Milgram scheme under a smallness gate; a continuum Fourier-patch
backend reaches carrier frequencies no lattice could hold.
"""
from .grid import GridSpec, make_grid
from .field import (
    SpectralField,
    VelocityField,
    advect,
    dealias,
    field_from_modes,
    field_from_physical,
    fractional_laplacian,
    heat_smooth,
    l2_inner,
    pointwise_product,
    project_low,
    rescale,
    to_physical,
    velocity_from_theta,
)
from .norms import (
    InterpolationRecord,
    hs_norm,
    interpolation_check,
    scan_bound,
    smoothing_limit_scan,
    velocity_hs_norm,
)
from .io import read_field, write_field
from .solver import (
    ConfigError,
    ConvergenceError,
    GapRecord,
    SmallnessError,
    SolveReport,
    SolveStep,
    SolverConfig,
    apply_lax_milgram_operator,
    default_schedule,
    linear_solve,
    outer_iterate,
    picard_theta1,
    residual,
    theta2,
)
from .patches import (
    FrequencyOverflowError,
    Patch,
    PatchField,
    patch_hs_norm,
    to_torus,
)
from .counterexample import (
    CounterexampleSpec,
    NormTable,
    PhiProfile,
    RLRecord,
    SecondIterateParts,
    build_forces,
    build_phi,
    decompose_second_iterate,
    nonuniform_experiment,
    patch_bilinear_B,
    patch_theta1,
    riemann_lebesgue_check,
)
from .inequalities import (
    EstimateProbe,
    cancellation_probe,
    commutator_estimate_ratio,
    commutator_field,
    commutator_operating_point,
    product_estimate_ratio,
    product_operating_point,
    run_commutator_probe,
    run_product_probe,
    sample_band_limited,
)

__version__ = "0.1.0"
