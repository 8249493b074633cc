"""Origin-level logit model: one choice over routing policies, then deterministic execution.

A multinomial logit over the routing policies from the origin is applied
once, with each policy's deterministic utility equal to its accumulated
link utility, weighted at each state ``s`` by the probability ``w(s)`` of
reaching it (:attr:`CompiledGraph.reach`). En route the traveler executes
the chosen policy. A policy tree never merges (its branches hold disjoint
knowledge sets), so the logit's sum over policies factors state by state:
the origin logit is a link-level logit at scale ``mu / w(s)`` in each
state, solved by the recursive model's sweep. Only per-policy outputs
enumerate policies: policy utilities and choice probabilities, and
sampling, whose seeded draw is over (policy, scenario) pairs.
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
    successor_states,
    transition_prob,
)
from .numerics import as_rng, check_sample_size, softmax
from .policy import (
    DEFAULT_POLICY_CAP,
    PolicyChoiceSet,
    RoutingPolicy,
    StateSequence,
    _backward_counts,
    contains,
    policy_expected_utility,
    rollout_policy,
)
from .recursive import (
    path_probabilities,
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
    """Sample a policy at the origin, then roll it out drawing knowledge transitions."""
    rng = as_rng(seed)
    probs = policy_choice_probs(cs, utility)
    policy = cs.policies[rng.choice(len(cs.policies), p=probs)]
    net, spp = cs.network, cs.support_points
    state = cs.initial_state
    states = [state]
    while not net.is_destination(state.link):
        succ = successor_states(net, spp, state, policy.next_link(state))
        idx = rng.choice(len(succ), p=np.array([p for _, p in succ]))
        state = succ[idx][0]
        states.append(state)
    return StateSequence(tuple(states))


def sample_sequence_counts_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, n: int, seed=None
) -> dict[StateSequence, int]:
    """Frequencies of ``n`` independent samples.

    Drawing a policy and a full scenario is equivalent to drawing the
    knowledge transitions step by step, so each sample reduces to one
    draw over (policy, scenario) pairs and a precomputed rollout.
    """
    check_sample_size(n)
    rng = as_rng(seed)
    spp = cs.support_points
    probs = policy_choice_probs(cs, utility)
    scenarios = list(cs.initial_state.ev)
    scenario_probs = np.array([spp.probabilities[r - 1] for r in scenarios])
    scenario_probs = scenario_probs / scenario_probs.sum()
    joint = np.outer(probs, scenario_probs).ravel()
    joint = joint / joint.sum()
    draws = rng.multinomial(n, joint).reshape(len(cs.policies), len(scenarios))
    result: dict[StateSequence, int] = {}
    for i, policy in enumerate(cs.policies):
        for j, r in enumerate(scenarios):
            count = int(draws[i, j])
            if count == 0:
                continue
            seq = rollout_policy(cs.network, spp, policy, r)
            result[seq] = result.get(seq, 0) + count
    return dict(sorted(result.items(), key=lambda item: item[0].label()))
