"""Canonical-phase statistics from balanced homodyne data.

The package covers the full chain: kernel construction (kernels,
specfun), quantum-state quadrature distributions (states), homodyne
simulation (simulator), moment estimation with error analysis
(estimator), and phase-distribution reconstruction (reconstruct).
"""

from .estimator import (
    MomentEstimate,
    aliasing_bias,
    estimate_all,
    kernel_overlaps,
    load_moments,
    save_moments,
    smear_bias,
)
from .kernels import (
    KernelSpec,
    KernelTable,
    build_kernel_table,
    classical_kernel,
    quantum_kernel,
    smear_error_kernel,
)
from .reconstruct import (
    PhaseDistribution,
    fourier_reconstruct,
    least_squares_reconstruct,
    load_distribution,
    save_distribution,
)
from .simulator import (
    ExperimentPlan,
    MeasurementSet,
    load_records,
    run_experiment,
    sample_quadrature,
    save_records,
)
from .states import (
    DensityMatrix,
    StateSpec,
    build_state,
    exact_moments,
    exact_phase_dist,
    quadrature_pdf,
)

__all__ = [
    "DensityMatrix",
    "ExperimentPlan",
    "KernelSpec",
    "KernelTable",
    "MeasurementSet",
    "MomentEstimate",
    "PhaseDistribution",
    "StateSpec",
    "aliasing_bias",
    "build_kernel_table",
    "build_state",
    "classical_kernel",
    "estimate_all",
    "exact_moments",
    "exact_phase_dist",
    "fourier_reconstruct",
    "kernel_overlaps",
    "least_squares_reconstruct",
    "load_distribution",
    "load_moments",
    "load_records",
    "quadrature_pdf",
    "quantum_kernel",
    "run_experiment",
    "sample_quadrature",
    "save_distribution",
    "save_moments",
    "save_records",
    "smear_bias",
    "smear_error_kernel",
]

__version__ = "0.1.0"
