"""Phase-space quantum mechanics on the Moyal star-product algebra.

Exact closed-form star products on polynomial-Gaussian functions, an
independent grid-based twisted-convolution engine, oscillator models
(harmonic, Hooke-coupled two-electron, damped) and the Wigner-function
negativity indicator.
"""

__version__ = "0.1.0"

from .errors import (BoxTooSmallError, ConvergenceError, GridMismatchError,
                     MoyalError, NonNormalizableError, ParameterMismatchError,
                     StarSingularError)
from .symbols import PolynomialSymbol, p_symbol, q_symbol
from .polygauss import PolyGauss, PolyGauss1D, QuadForm, integrate, marginal
from .bopp import BoppOperator, apply, bopp_from_symbol
from .star import polygauss_star
from .residual import eigen_residual, halton_points
from .grid import (GridField, GridSpec, grid_distance, moyal_bracket_numeric,
                   sample, star_numeric, tapered_sample,
                   wigner_from_wavefunction)
from .models import (DampedParams, HeliumParams, HeliumState,
                     annihilation_symbol, creation_symbol, damped_energy,
                     damped_hamiltonian, damped_quasiamplitude, damped_wigner,
                     damped_wigner_values, harmonic_wigner,
                     harmonic_wigner_values, helium_energy,
                     helium_energy_first_order, helium_excite, helium_ground,
                     helium_hamiltonians, helium_wigner, hermite_function,
                     laguerre, oscillator_ground,
                     oscillator_hamiltonian, oscillator_state, z_coordinate)
from .negativity import (ETA_REFERENCE, LambdaScanReport, NegativityRecord,
                         damped_box, eta_grid, eta_grid_damped, eta_radial,
                         lambda_scan, negativity_table)

__all__ = [
    "__version__",
    "MoyalError", "ParameterMismatchError", "StarSingularError",
    "NonNormalizableError", "GridMismatchError", "BoxTooSmallError",
    "ConvergenceError",
    "PolynomialSymbol", "q_symbol", "p_symbol",
    "QuadForm", "PolyGauss", "PolyGauss1D", "integrate", "marginal",
    "BoppOperator", "bopp_from_symbol", "apply",
    "polygauss_star",
    "eigen_residual", "halton_points",
    "GridSpec", "GridField", "sample", "tapered_sample", "star_numeric",
    "moyal_bracket_numeric", "wigner_from_wavefunction", "grid_distance",
    "laguerre", "hermite_function",
    "oscillator_ground", "oscillator_state", "oscillator_hamiltonian",
    "annihilation_symbol", "creation_symbol",
    "harmonic_wigner", "harmonic_wigner_values",
    "HeliumParams", "HeliumState", "helium_ground", "helium_excite",
    "helium_energy", "helium_energy_first_order", "helium_wigner",
    "helium_hamiltonians",
    "DampedParams", "z_coordinate", "damped_energy", "damped_hamiltonian",
    "damped_quasiamplitude", "damped_wigner", "damped_wigner_values",
    "NegativityRecord", "LambdaScanReport", "eta_radial", "eta_grid",
    "eta_grid_damped", "negativity_table", "lambda_scan", "damped_box",
    "ETA_REFERENCE",
]
