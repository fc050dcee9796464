"""Numerical library for the periodic Toda chain.

Builds the two classes of symmetric Lax matrices and their higher-flow
generators, verifies the algebraic identities relating them, locates the
singular strata of the conserved-trace map through eigenvalue
degeneracies, checks the local canonical structure and transverse
frequencies at singular points, and computes Maslov indices of closed
curves both as Lagrangian winding numbers and as products of eigenvector
holonomies.
"""

from .lax import (
    PhaseDomainError,
    PhasePoint,
    SignVector,
    LaxMatrix,
    GeneratorMatrix,
    build_lax,
    build_generator,
    integrals,
    hamiltonian,
    conjugating_signs,
    off_band_check,
    trace_relation_check,
    char_poly_offset,
)
from .spectral import (
    SpectralData,
    AnnihilatorPolynomial,
    decompose,
    spectra,
    interlacing_check,
    annihilator,
)
from .dynamics import (
    Gradient,
    Trajectory,
    grad_F,
    grad_combination,
    poisson,
    lax_residual,
    integrate_flow,
    trajectory_to_csv,
)
from .singularity import (
    PairTarget,
    CorankReport,
    OmegaPoint,
    SingularPoint,
    all_pair_targets,
    corank,
    omega_point,
    find_singular,
    perturbed_seed,
    transverse_frequency,
    hessian_structure_check,
    bracket_relations_check,
    tangent_symplectic_check,
)
from .maslov import (
    ClosedCurve,
    HolonomyResult,
    MaslovResult,
    DiskSpec,
    maslov_index,
    check_holonomy_theorem,
    enclosure_count_check,
)
from .reporting import CheckRecord, VerificationReport
from .verify import RunConfig, run_suite

__version__ = "0.1.0"
