"""Resolvent kernels of half-plane Dirac operators with a mass-type boundary
condition: closed-form fiber kernels, the assembled edge kernel, kernel
compositions and Born series, magnetic perturbation theory, smooth functional
calculus, and the bulk-edge spectral toolbox.
"""

from .core import (
    BoundaryParam,
    BranchMatchingError,
    ContourError,
    DiagonalKernelError,
    EigensolverError,
    QuadratureError,
    SpectralPoint,
)
from .closed_form import (
    alpha,
    apply_fiber_resolvent,
    beta_coeffs,
    bulk_plane_kernel,
    fiber_kernel,
    whole_line_kernel,
)
from .edge_kernel import (
    ContourConfig,
    DecayFit,
    edge_F_batch,
    edge_F_direct,
    fit_decay,
    halfplane_kernel_batch,
    zigzag_zero_mode,
)
from .kernel_ops import (
    BornResult,
    ComposedValue,
    CompositionPlan,
    PotentialField,
    born_series,
    compose2,
    compose3,
    low_lambda_form,
    resolvent_kernel,
)
from .magnetic import (
    S_b_kernel,
    T_b_kernel,
    dirac_stencil_2d,
    gauge_phase,
    magnetic_resolvent,
    magnetic_translation_matrix,
    schur_norm_Tb,
    select_lambda0,
    transverse_gauge,
    transverse_gauge_residual,
)
from .hs_calculus import (
    HsQuadrature,
    SchwartzFunction,
    almost_analytic_eval,
    dbar_eval,
    fiber_F_kernel,
    hs_apply_matrix,
)
from .fiber import (
    DispersionData,
    FiberDiscretization,
    GapWindow,
    assembled_bulk_diagonal,
    bulk_ids,
    combes_thomas_check,
    discretize_fiber,
    dispersion_curves,
    edge_bulk_diagonal_gap,
    edge_conductance,
    edge_density_rho,
    gap_window,
    ids_derivative,
    landau_levels,
)

__version__ = "0.1.0"
