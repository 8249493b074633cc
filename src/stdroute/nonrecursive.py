"""Origin-level logit model: one choice over routing policies, then deterministic execution.

A multinomial logit over the routing policies from the origin is applied
once, with each policy's deterministic utility equal to its accumulated
link utility, weighted at each state ``s`` by the probability ``w(s)`` of
reaching it (:attr:`CompiledGraph.reach`). En route the traveler executes
the chosen policy. A policy tree never merges (its branches hold disjoint
knowledge sets), so the logit's sum over policies factors state by state:
the origin logit is a link-level logit at scale ``mu / w(s)`` in each
state, solved by :func:`solve_value_functions_nr` as one sweep of the
recursive model. The solved :class:`ValueFunction` is read by the
recursive model's readers: likelihoods, sequence and path probabilities
and the sampler. Only per-policy outputs take a :class:`PolicyChoiceSet`:
policy utilities (read from the compiled graph) and choice probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .network import (
    CompiledGraph,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    initial_state as default_initial_state,
    transition_prob,
)
from .numerics import check_sample_size, softmax
from .policy import (
    PolicyChoiceSet,
    RoutingPolicy,
    StateSequence,
    _backward_counts,
    _tree_utility,
    contains,
)
from .recursive import sample_sequence_counts, solve_log_sum
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
    there, given that the trip reaches the state. A state too rarely
    reached for its scale is refused (:func:`nonrecursive_scale`).
    """
    graph = compile_graph(net, spp, initial or default_initial_state(net, spp))
    return solve_log_sum(graph, utility, nonrecursive_scale(graph, utility.mu))


def nonrecursive_scale(graph: CompiledGraph, mu: float) -> np.ndarray:
    """The model's logit scale mu / w(s) in every state of the graph.

    A state reached with a probability w(s) <= mu / 1e300 is rejected: a
    scale below 1e300, times the log of any number of links, stays
    finite, but a larger one can overflow the values.
    """
    rarest = int(np.argmin(graph.reach))
    w = float(graph.reach[rarest])
    if w * 1e300 <= mu:
        raise ValidationError(
            f"state {graph.states[rarest]} is reached with probability {w!r}; "
            "the non-recursive scale mu / w(s) needs w(s) > mu / 1e300"
        )
    return mu / graph.reach


def policy_utilities(cs: PolicyChoiceSet, utility: LinkUtilitySpec) -> np.ndarray:
    """Expected utility of every policy of the choice set, in choice-set order.

    See :func:`~stdroute.policy.policy_expected_utility`; the utilities of
    the graph's state-actions are computed once for the whole set.
    """
    if not cs.policies:
        raise ValidationError("policy choice set is empty")
    graph = compile_graph(cs.network, cs.support_points, cs.initial_state)
    utilities = utility.utilities(graph)
    return np.array([_tree_utility(graph, utilities, policy) for policy in cs.policies])


def policy_choice_probs(cs: PolicyChoiceSet, utility: LinkUtilitySpec) -> np.ndarray:
    """Logit probabilities over the whole choice set, in choice-set order.

    Finite utilities that give a non-finite probability raise
    ``ValidationError``, as they do in the solve.
    """
    utilities = policy_utilities(cs, utility)
    probs = softmax(utilities / utility.mu)
    if not np.isfinite(probs).all() and np.isfinite(utilities).all():
        raise ValidationError(
            f"the policy choice probabilities are not finite at logit scale mu={utility.mu!r}"
        )
    return probs


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


def sample_sequence_counts_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, n: int, seed=None
) -> dict[StateSequence, int]:
    """Frequencies of ``n`` independent trajectories, drawn link by link from the solved model.

    The choice set must hold every routing policy from its initial state.
    """
    check_sample_size(n)
    vf = solve_value_functions_nr(cs.network, cs.support_points, utility, initial=cs.initial_state)
    if len(cs) != _backward_counts(vf.graph, math.prod)[0]:
        raise ValidationError("a choice set must hold every routing policy from its initial state")
    return sample_sequence_counts(vf, n, seed)
