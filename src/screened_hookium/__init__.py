"""Exactly solvable two-electron atom with harmonic confinement and a
screened, regularized electron-electron interaction.

The package finds the couplings at which the relative-motion problem admits
closed-form polynomial solutions, constructs the wavefunctions, energies and
the ground-state electron density, and verifies every analytic result against
an independent Laguerre-DVR eigensolver.  Only `oracle.quadrature`, the
adaptive reference the tests compare against, needs scipy.
"""

from . import atom, groundstate, heun, limits, oracle
from .atom import (
    AtomParameters,
    PolynomialSolution,
    QuantumNumbers,
    Symmetry,
    assemble_total_energy,
    classify_symmetry,
    heun_parameters,
    jacobi_transform,
    normalize_class,
    normalize_radial,
    quantized_energy,
    radial_ode_residual,
    radial_solution,
    relative_potential,
    solve_class,
    solve_g,
    termination_matrix,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    DomainError,
    ScreenedHookiumError,
    TerminationError,
)
from .groundstate import (
    DensityProfile,
    GroundState,
    density_closed_form,
    density_numeric,
    density_profile,
    density_profile_numeric,
    ground_state,
    normalization_constant,
    wavefunction,
)
from .heun import HeunParameters
from .limits import (
    LimitSpectrumEntry,
    large_d_degenerate,
    large_d_energy,
    small_d_degeneracy_g,
    small_d_energy,
)
from .oracle import (
    OracleEigenpair,
    integrate_heun_ode,
    quadrature,
    radial_eigensolve,
    radial_eigensolve_class,
)

__version__ = "0.1.0"
