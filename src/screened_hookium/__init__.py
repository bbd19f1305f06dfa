"""Exactly solvable two-electron atom with harmonic confinement and a
screened, regularized electron-electron interaction.

The package finds the couplings at which the relative-motion problem admits
closed-form polynomial solutions, constructs the wavefunctions, energies and
the ground-state electron density, and verifies every analytic result against
an independent finite-difference eigensolver.

The eigensolver (`oracle`) is the only part that needs scipy; it and the
names re-exported from it load on first use, so every other path imports
numpy alone.
"""

import importlib

from . import atom, groundstate, heun, limits
from .atom import (
    AtomParameters,
    PolynomialSolution,
    QuantumNumbers,
    Symmetry,
    assemble_total_energy,
    classify_symmetry,
    heun_parameters,
    jacobi_transform,
    normalize_radial,
    quantized_energy,
    radial_ode_residual,
    radial_solution,
    relative_potential,
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
    cusp_derivative,
    density_closed_form,
    density_numeric,
    density_profile,
    density_profile_numeric,
    ground_state,
    normalization_constant,
    wavefunction,
)
from .heun import HeunParameters, SeriesCoefficients
from .limits import (
    LimitSpectrumEntry,
    Regime,
    large_d_degenerate,
    large_d_energy,
    small_d_degeneracy_g,
    small_d_energy,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {"OracleEigenpair", "RadialGrid", "default_grid", "integrate_heun_ode", "quadrature",
     "radial_eigensolve"}
)


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        # import_module, not `from . import oracle`: the latter probes this
        # module's attributes and would recurse into __getattr__.
        oracle = importlib.import_module(f"{__name__}.oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
