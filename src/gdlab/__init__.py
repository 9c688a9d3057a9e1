"""gdlab: a verification lab for (stochastic, distributed) gradient descent
on exactly-interpolating linear problems."""

from .problem import Dataset, gen_dataset
from .theory import expected_mm, optimal_rate
from .solvers import (
    EnsembleResult,
    SolverConfig,
    derive_seed,
    fit_rate,
    run_ensemble,
    run_gd,
    run_sgd,
)
from .distributed import (
    DgdTrace,
    consensus_metrics,
    dgd_operator_spectrum,
    incidence,
    make_graph,
    run_dgd,
    stability_bound,
    stable_eta,
)

__version__ = "0.1.0"
