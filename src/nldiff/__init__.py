"""Quadrature solver for steady nonlocal diffusion equations on the line.

The operator maps u to the integral of (u(x) - u(x - y)) against a
symmetric, exponentially decaying kernel in y.  The package discretizes it
with hat function quadrature on a uniform grid, assembles the window
system for Dirichlet, whole-line, and flux-closure formulations, and ships
a benchmark registry with a convergence harness around them.
"""

from .assembly import (
    DecayModel,
    DirichletProblem,
    DiscreteSystem,
    NeumannProblem,
    RealLineProblem,
    assemble,
    assemble_dirichlet,
    assemble_realline,
    dirichlet_boundary_term,
    neumann_to_realline,
    realline_boundary_terms,
)
from .expint import exp_int
from .grids import Grid, WeightSet, build_grid, compute_weights
from .harness import (
    BuiltCase,
    CompatibilityResult,
    ConvergenceReport,
    ConvergenceRow,
    RegisteredProblem,
    audit_closed_forms,
    compatibility_check,
    emit_csv,
    registry,
    run_convergence,
)
from .kernels import (
    Kernel,
    KernelValidationReport,
    SignClass,
    build_kernel,
    laplace_kernel,
    mixed_exponential_kernel,
    moment_f,
    tail_mass,
    validate_kernel,
)
from .operator import StructuredOperator
from .quadrature import (
    DecayCertificate,
    GrowthCertificate,
    PowerDecayCertificate,
    QuadratureError,
    QuadratureResult,
    adaptive_quad,
)
from .solve import (
    Solution,
    SolveError,
    StabilityReport,
    evaluate_solution,
    solve,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "DecayModel",
    "DirichletProblem",
    "DiscreteSystem",
    "GrowthCertificate",
    "NeumannProblem",
    "RealLineProblem",
    "assemble",
    "assemble_dirichlet",
    "assemble_realline",
    "dirichlet_boundary_term",
    "neumann_to_realline",
    "realline_boundary_terms",
    "exp_int",
    "Grid",
    "WeightSet",
    "build_grid",
    "compute_weights",
    "BuiltCase",
    "CompatibilityResult",
    "ConvergenceReport",
    "ConvergenceRow",
    "RegisteredProblem",
    "audit_closed_forms",
    "compatibility_check",
    "emit_csv",
    "registry",
    "run_convergence",
    "Kernel",
    "KernelValidationReport",
    "SignClass",
    "build_kernel",
    "laplace_kernel",
    "mixed_exponential_kernel",
    "moment_f",
    "tail_mass",
    "validate_kernel",
    "StructuredOperator",
    "DecayCertificate",
    "PowerDecayCertificate",
    "QuadratureError",
    "QuadratureResult",
    "adaptive_quad",
    "Solution",
    "SolveError",
    "StabilityReport",
    "evaluate_solution",
    "solve",
    "stability_report",
    "__version__",
]
