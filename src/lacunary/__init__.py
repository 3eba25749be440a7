"""Cyclotomic-factor machinery for sparse 0,1-polynomials.

Detection of cyclotomic divisors by two independent exact algorithms, the
lattice geometry of vanishing sums of roots of unity, evaluable probability
bounds, and seeded Monte Carlo / exhaustive experiments.
"""

from .bounds import (
    BoundBreakdown,
    BoundRow,
    admissible_kernels,
    chernoff_tail_bound,
    default_exponent_constant,
    lattice_ball_bound,
    small_n_exact,
    total_bound,
)
from .cyclotomic import (
    DensePoly,
    cyclotomic_poly,
    divides_phi_dense,
    divides_phi_structural,
    find_cyclotomic_factors,
    has_cyclotomic_factor,
    root_power_sum_is_zero,
    sweep_cap,
)
from .errors import (
    InvalidParametersError,
    LacunaryError,
    PolyParseError,
    ResourceLimitError,
)
from .experiment import (
    EstimateReport,
    decay_series,
    estimate_any_cyclotomic,
    estimate_phi_n,
    exhaustive_enumeration,
    reports_to_csv,
    wilson_interval,
)
from .lattice import (
    BallQuery,
    RelationBasis,
    basis_to_json,
    build_basis,
    enumerate_ball,
    mesh_max_length,
    volume_count_bound,
)
from .sparsepoly import (
    CoefficientVector,
    SparsePoly,
    atom_probability,
    format_poly,
    multinomial_weight,
    parse_poly_line,
    read_poly_file,
    reduce_mod_cyclic,
    sample_random,
)

__version__ = "0.1.0"
