"""gdlab: a verification lab for (stochastic, distributed) gradient descent
on exactly-interpolating linear problems."""

from .problem import (
    Dataset,
    DegenerateHessianError,
    SpectralSummary,
    dataset_from_json,
    dataset_from_rows,
    dataset_to_json,
    gen_dataset,
    hessian,
    load_dataset,
    spectral_summary,
)
from .theory import (
    CostModel,
    RatePrediction,
    cost_model,
    expected_mm,
    g_eigen,
    gm_am_factor,
    mc_expected_mm,
    optimal_rate,
    orthogonal_rate,
)
from .solvers import (
    EnsembleResult,
    IterationTrace,
    RateFit,
    SolverConfig,
    default_fit_window,
    derive_seed,
    estimate_rate,
    run_ensemble,
    run_gd,
    run_sgd,
)
from .distributed import (
    CommGraph,
    ConsensusMetrics,
    DgdTrace,
    GraphConnectError,
    OperatorSpectrum,
    consensus_metrics,
    dgd_operator_spectrum,
    graph_from_json,
    graph_to_json,
    incidence,
    is_connected,
    laplacian,
    load_graph,
    make_graph,
    run_dgd,
    stability_bound,
    stable_eta,
)

__version__ = "0.1.0"
