"""Origin-level logit model: one choice over routing policies, then deterministic execution.

A multinomial logit over the routing policies from the origin is applied
once, with each policy's deterministic utility equal to its accumulated
link utility, weighted at each state ``s`` by the probability ``w(s)`` of
reaching it (:attr:`CompiledGraph.reach`). En route the traveler executes
the chosen policy. A policy tree never merges (its branches hold disjoint
knowledge sets), so the logit's sum over policies factors state by state:
the origin logit is a link-level logit at scale ``mu / w(s)`` in each
state, solved by the recursive model's sweep, and sampled by the
recursive model's sampler. Only per-policy outputs enumerate policies:
policy utilities and choice probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .network import (
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    initial_state as default_initial_state,
    transition_prob,
)
from .numerics import check_sample_size, softmax
from .policy import (
    DEFAULT_POLICY_CAP,
    PolicyChoiceSet,
    RoutingPolicy,
    StateSequence,
    _backward_counts,
    contains,
    policy_expected_utility,
)
from .recursive import (
    path_probabilities,
    sample_sequence,
    sample_sequence_counts,
    sequence_likelihood,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_log_sum,
)
from .utility import LinkUtilitySpec, ValueFunction


def solve_value_functions_nr(
    net: StdNetwork,
    spp: SupportPointSet,
    utility: LinkUtilitySpec,
    initial: State | None = None,
) -> ValueFunction:
    """The origin logit over every routing policy from ``initial``, as one backward sweep.

    The log-sum sweep of the recursive model at scale mu / w(s) in each
    state. The initial state's value is mu times the log-sum over
    policies of exp(policy utility / mu), and each state's choice
    probabilities are the chance that the chosen policy takes each link
    there, given that the trip reaches the state.
    """
    graph = compile_graph(net, spp, initial or default_initial_state(net, spp))
    return solve_log_sum(graph, utility, utility.mu / graph.reach)


def policy_utilities(cs: PolicyChoiceSet, utility: LinkUtilitySpec) -> np.ndarray:
    if not cs.policies:
        raise ValidationError("policy choice set is empty")
    return np.array(
        [
            policy_expected_utility(cs.network, cs.support_points, policy, utility)
            for policy in cs.policies
        ]
    )


def policy_choice_probs(cs: PolicyChoiceSet, utility: LinkUtilitySpec) -> np.ndarray:
    """Logit probabilities over the whole choice set, in choice-set order."""
    return softmax(policy_utilities(cs, utility) / utility.mu)


def policy_choice_prob(cs: PolicyChoiceSet, policy: RoutingPolicy, utility: LinkUtilitySpec) -> float:
    return float(policy_choice_probs(cs, utility)[cs.index_of(policy)])


def sequence_prob_given_policy(
    seq: StateSequence, policy: RoutingPolicy, spp: SupportPointSet
) -> float:
    """Probability of observing the sequence when this policy is executed.

    Zero unless the policy contains the sequence; otherwise the chain of
    knowledge transitions collapses to the probability of the final
    knowledge state given the initial one.
    """
    if not contains(policy, seq):
        return 0.0
    return transition_prob(spp, seq.final_state.ev, seq.initial_state.ev)


def _solve(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, seq: StateSequence | None = None
) -> ValueFunction:
    """The model over a choice set, which must hold every policy from its initial state."""
    if seq is not None and seq.initial_state != cs.initial_state:
        raise ValidationError("sequence and choice set have different initial states")
    vf = solve_value_functions_nr(cs.network, cs.support_points, utility, initial=cs.initial_state)
    if len(cs) != _backward_counts(vf.graph, math.prod)[0]:
        raise ValidationError("a choice set must hold every routing policy from its initial state")
    return vf


def sequence_likelihood_nr(
    seq: StateSequence, cs: PolicyChoiceSet, utility: LinkUtilitySpec
) -> float:
    """Marginal sequence probability: sum over policies of choice prob times execution prob."""
    return sequence_likelihood(_solve(cs, utility, seq), seq)


def sequence_log_likelihood_nr(
    seq: StateSequence, cs: PolicyChoiceSet, utility: LinkUtilitySpec
) -> float:
    """Log of the marginal sequence probability, stable for very small scale parameters."""
    return sequence_log_likelihood(_solve(cs, utility, seq), seq)


def sequence_probabilities_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, cap: int = DEFAULT_POLICY_CAP
) -> dict[StateSequence, float]:
    """Marginal probability of every feasible sequence from the choice set's initial state."""
    return sequence_probabilities(_solve(cs, utility), cap=cap)


def path_probabilities_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, cap: int = DEFAULT_POLICY_CAP
) -> dict[tuple[int, ...], float]:
    """Marginal sequence probabilities aggregated by traversed link path."""
    return path_probabilities(_solve(cs, utility), cap=cap)


def sample_sequence_nr(cs: PolicyChoiceSet, utility: LinkUtilitySpec, seed=None) -> StateSequence:
    """One trajectory, drawn link by link from the solved model."""
    return sample_sequence(_solve(cs, utility), seed)


def sample_sequence_counts_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, n: int, seed=None
) -> dict[StateSequence, int]:
    """Frequencies of ``n`` independent trajectories, drawn link by link from the solved model."""
    check_sample_size(n)
    return sample_sequence_counts(_solve(cs, utility), n, seed)
