"""Gaussian structural models over chain graphs.

Chain graphs mix directed and undirected edges: arrows carry the causal
ordering between blocks of nodes, undirected edges carry dependence
between the error terms inside a block. This package provides the
graphical layer (validity, separation, Markov equivalence, equivalence
class enumeration), the Gaussian model layer (simulation, equal-variance
rescaling, conditioning), maximum-likelihood fitting (unconstrained: one
loop whose rounds are a regression step plus one sweep of iterative
proportional fitting, with `ipf` that loop without predictors; or under
equal error variances), and structure
identification: under equal error variances the generating graph itself,
not just its Markov equivalence class, is recoverable from the
observational distribution.
"""

from .estimation import (
    ComponentFit,
    EqualVarianceScorer,
    FitResult,
    IpfResult,
    fit,
    fit_component,
    fit_score,
    gaussian_average_loglik,
    ipf,
    moment_matrix,
    penalized_score,
)
from .experiments import ExperimentConfig, ExperimentReport, run_experiment, write_report
from .graphs import (
    CapacityError,
    ChainGraph,
    GraphStructureError,
    MagnifiedGraph,
    Triplex,
    adjacencies,
    canonical_key,
    chain_components,
    determined_closure,
    equivalence_class,
    find_semidirected_cycle,
    is_chain_graph,
    magnify,
    markov_equivalent,
    orientations,
    random_chain_graph,
    relatives,
    structural_hamming_distance,
    triplexes,
)
from .io import (
    graph_from_dict,
    graph_hash,
    graph_to_dict,
    read_covariance,
    read_dataset,
    read_graph,
    read_parameters,
    write_covariance,
    write_dataset,
    write_graph,
    write_parameters,
)
from .search import (
    IdentifyResult,
    MemberFit,
    SearchConfig,
    SkeletonResult,
    greedy_search,
    identify_in_class,
    skeleton_recovery,
    two_phase,
)
from .sem import (
    Dataset,
    GaussianDistribution,
    SemParameters,
    compose_seed,
    condition,
    faithful_parameters,
    gaussian_ci,
    implied_distribution,
    random_parameters,
    rescale_equal_variances,
    sample,
)
from .separation import (
    SeparationQuery,
    all_separations,
    separated,
    separated_magnified,
)

__version__ = "0.1.0"
