"""Numerical Fourier analysis on the Heisenberg group.

The group H^d is realized as T*R^d x R with coordinates (y, eta, s); its
Fourier transform is a complex-valued function on the discrete frequency
set N^{2d} x (R \\ {0}) completed by a half-line boundary.  The package
provides the physical-space calculus, the transform and its inverse, the
frequency-space difference calculus, explicit Schwartz profiles, heat
flow, and tempered-distribution pairings, together with a verification
command-line tool (``hfourier verify``).
"""

from .config import Config, PhysGridSpec, default_config, load_config
from .fields import SampledField, YField, field_from_csv, field_to_csv, read_field, write_field
from .freq_space import (
    BoundaryPoint,
    FreqFunction,
    FreqPoint,
    IntegralResult,
    LambdaGrid,
    distance,
    integrate,
    l1m_norm,
)
from .heisenberg import (
    PHYS_OPS,
    apply_phys_op,
    convolve,
    dilate,
    group_inverse,
    group_mul,
)
from .hermite import hermite_rows
from .diff_ops import delta_hat, dlambda_hat, ladder_freq, lift, mhat, sigma0_hat
from .profiles import (
    Profile,
    boundary_diff,
    heat_profile,
    profile_exp_floor,
    profile_gauss,
    profile_to_freq_function,
)
from .transform import (
    SpectralTable,
    forward_direct,
    forward_factored,
    inverse_at_point,
    inverse_on_grid,
    multiplier_apply,
    plancherel_norms,
    rep_matrix_coeff,
    spectral_product,
    spectral_product_boundary,
    table_from_csv,
    table_to_csv,
    transpose_transform,
)
from .wigner import boundary_kernel, wigner_eval
from .distributions import (
    Distribution,
    fourier_distribution,
    g_hat_boundary,
    g_hat_boundary_batch,
    make_f_gamma,
    pair,
)
from .verify import SUITES, CheckRecord, VerifyContext, run_suites

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
