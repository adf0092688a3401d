"""High-order samplers for underdamped Langevin dynamics.

The package splits into five layers.  :mod:`ulmc.brownian` draws the
space-time coefficients of Brownian intervals and refines them exactly;
:mod:`ulmc.integrators` advances position and velocity with a five-stage
two-gradient step, a one-gradient splitting step, and a frozen-gradient
baseline; :mod:`ulmc.potentials` supplies quadratic and Bayesian logistic
targets with smoothness metadata; :mod:`ulmc.metrics` compares sample
clouds by energy distance and exact transport; and :mod:`ulmc.harness`
orchestrates the reproducible studies behind the ``ulmc`` command line.
"""

from .brownian import (
    BrownianIncrement,
    BrownianPath,
    DyadicBrownianTree,
    combine,
    keyed_generator,
    refine,
    sample_increment,
)
from .harness import (
    ConvergenceReport,
    MixingReport,
    StationaryReport,
    compare_study,
    contractivity_study,
    fit_order,
    gaussian_ground_truth,
    long_run_ground_truth,
    mixing_study,
    stationary_study,
    strong_error_study,
)
from .integrators import (
    STEPPERS,
    DivergenceError,
    PhaseState,
    SolverConfig,
    euler_step,
    quicsort_step,
    simulate,
    ubu_step,
)
from .metrics import (
    EmpiricalDistribution,
    energy_distance_sq,
    subsample,
    wasserstein2,
)
from .potentials import (
    GradientCounter,
    LogisticDataset,
    LogisticPosterior,
    QuadraticPotential,
    load_dataset,
    sample_prior,
    synthetic_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianIncrement",
    "BrownianPath",
    "ConvergenceReport",
    "DivergenceError",
    "DyadicBrownianTree",
    "EmpiricalDistribution",
    "GradientCounter",
    "LogisticDataset",
    "LogisticPosterior",
    "MixingReport",
    "PhaseState",
    "QuadraticPotential",
    "STEPPERS",
    "SolverConfig",
    "StationaryReport",
    "combine",
    "compare_study",
    "contractivity_study",
    "energy_distance_sq",
    "euler_step",
    "fit_order",
    "gaussian_ground_truth",
    "keyed_generator",
    "load_dataset",
    "long_run_ground_truth",
    "mixing_study",
    "quicsort_step",
    "refine",
    "sample_increment",
    "sample_prior",
    "simulate",
    "stationary_study",
    "strong_error_study",
    "subsample",
    "synthetic_dataset",
    "ubu_step",
    "wasserstein2",
    "__version__",
]
