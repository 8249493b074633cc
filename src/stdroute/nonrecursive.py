"""Origin-level logit model: one choice over routing policies, then deterministic execution.

A multinomial logit over a choice set of routing policies is applied once
at the origin, with each policy's deterministic utility equal to its
probability-weighted accumulated link utility. En route the traveler
executes the chosen policy, so randomness after the origin comes from
nature alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .network import SupportPointSet, successor_states, transition_prob
from .numerics import as_rng, check_sample_size, log_softmax, logsumexp, softmax
from .policy import (
    DEFAULT_POLICY_CAP,
    PolicyChoiceSet,
    RoutingPolicy,
    StateSequence,
    contains,
    enumerate_sequences,
    policy_expected_utility,
    rollout_policy,
)
from .utility import LinkUtilitySpec


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


def sequence_likelihood_nr(
    seq: StateSequence, cs: PolicyChoiceSet, utility: LinkUtilitySpec
) -> float:
    """Marginal sequence probability: sum over policies of choice prob times execution prob."""
    seq.validate(cs.network, cs.support_points)
    if seq.initial_state != cs.initial_state:
        raise ValidationError("sequence and choice set have different initial states")
    probs = policy_choice_probs(cs, utility)
    return float(
        sum(
            probs[i] * sequence_prob_given_policy(seq, policy, cs.support_points)
            for i, policy in enumerate(cs.policies)
        )
    )


def sequence_log_likelihood_nr(
    seq: StateSequence, cs: PolicyChoiceSet, utility: LinkUtilitySpec
) -> float:
    """Log of the marginal sequence probability, stable for very small scale parameters."""
    seq.validate(cs.network, cs.support_points)
    if seq.initial_state != cs.initial_state:
        raise ValidationError("sequence and choice set have different initial states")
    log_probs = log_softmax(policy_utilities(cs, utility) / utility.mu)
    contained = [i for i, policy in enumerate(cs.policies) if contains(policy, seq)]
    if not contained:
        return -math.inf
    trans = transition_prob(cs.support_points, seq.final_state.ev, seq.initial_state.ev)
    if trans == 0.0:
        return -math.inf
    return logsumexp([log_probs[i] for i in contained]) + math.log(trans)


def sequence_probabilities_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, cap: int = DEFAULT_POLICY_CAP
) -> dict[StateSequence, float]:
    """Marginal probability of every feasible sequence from the choice set's initial state."""
    sequences = enumerate_sequences(cs.network, cs.support_points, cs.initial_state, cap=cap)
    probs = policy_choice_probs(cs, utility)
    result: dict[StateSequence, float] = {}
    for seq in sequences:
        result[seq] = float(
            sum(
                probs[i] * sequence_prob_given_policy(seq, policy, cs.support_points)
                for i, policy in enumerate(cs.policies)
            )
        )
    return result


def path_probabilities_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, cap: int = DEFAULT_POLICY_CAP
) -> dict[tuple[int, ...], float]:
    """Marginal sequence probabilities aggregated by traversed link path."""
    totals: dict[tuple[int, ...], float] = {}
    for seq, prob in sequence_probabilities_nr(cs, utility, cap=cap).items():
        totals[seq.path] = totals.get(seq.path, 0.0) + prob
    return dict(sorted(totals.items()))


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
