"""Adaptive routing-policy choice models on stochastic time-dependent networks.

Two logit formulations of the same trip: a link-level model that applies
a logit at every decision state with expected downstream values from a
log-sum recursion, and an origin-level model that applies one logit over
all routing policies. The origin logit factors into a link-level logit
at a per-state scale, so both models are solved by the same backward
sweep, and each solve is a :class:`ValueFunction` that one set of
readers serves: choice, sequence and path probabilities, likelihoods and
the sampler. The package solves, simulates, estimates, and compares both.
"""

from .comparison import (
    EquivalenceReport,
    ModelRatios,
    RatioTable,
    RouteRatios,
    TwoRouteBuild,
    TwoRouteScenario,
    build_two_route_network,
    closed_form_ratios,
    dominance_class,
    equivalence_report,
    extremeness_check,
    pipeline_ratios,
    ratio_table,
    scenario_grid,
)
from .errors import (
    EstimationError,
    HorizonError,
    NetworkFormatError,
    PoiConsistencyError,
    PolicyExplosionError,
    StdRouteError,
    UnreachableDestinationError,
    ValidationError,
)
from .estimation import EstimationResult, ObservationSet, fit, log_likelihood
from .network import (
    CompiledGraph,
    DecisionGraph,
    EventCollection,
    Link,
    State,
    StdNetwork,
    SupportPointSet,
    bundled_network_text,
    compile_graph,
    decision_graph,
    event_collections_at,
    initial_state,
    load_bundled_network,
    load_network,
    load_network_file,
    transition_prob,
    travel_time,
)
from .nonrecursive import (
    policy_choice_probs,
    policy_utilities,
    sample_sequence_counts_nr,
    solve_value_functions_nr,
)
from .policy import (
    PolicyChoiceSet,
    StateSequence,
    enumerate_policies,
    enumerate_sequences,
    optimal_policy,
)
from .recursive import (
    choice_distribution,
    path_probabilities,
    sample_sequence_counts,
    sequence_likelihood,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_value_functions,
)
from .utility import LinkUtilitySpec, ValueFunction, travel_time_attributes

__version__ = "0.1.0"

__all__ = [
    "CompiledGraph",
    "DecisionGraph",
    "EquivalenceReport",
    "EstimationError",
    "EstimationResult",
    "EventCollection",
    "HorizonError",
    "Link",
    "LinkUtilitySpec",
    "ModelRatios",
    "NetworkFormatError",
    "ObservationSet",
    "PoiConsistencyError",
    "PolicyChoiceSet",
    "PolicyExplosionError",
    "RatioTable",
    "RouteRatios",
    "State",
    "StateSequence",
    "StdNetwork",
    "StdRouteError",
    "SupportPointSet",
    "TwoRouteBuild",
    "TwoRouteScenario",
    "UnreachableDestinationError",
    "ValidationError",
    "ValueFunction",
    "build_two_route_network",
    "bundled_network_text",
    "choice_distribution",
    "closed_form_ratios",
    "compile_graph",
    "decision_graph",
    "dominance_class",
    "enumerate_policies",
    "enumerate_sequences",
    "equivalence_report",
    "event_collections_at",
    "extremeness_check",
    "fit",
    "initial_state",
    "load_bundled_network",
    "load_network",
    "load_network_file",
    "log_likelihood",
    "optimal_policy",
    "path_probabilities",
    "pipeline_ratios",
    "policy_choice_probs",
    "policy_utilities",
    "ratio_table",
    "sample_sequence_counts",
    "sample_sequence_counts_nr",
    "scenario_grid",
    "sequence_likelihood",
    "sequence_log_likelihood",
    "sequence_probabilities",
    "solve_value_functions",
    "solve_value_functions_nr",
    "transition_prob",
    "travel_time",
    "travel_time_attributes",
]
