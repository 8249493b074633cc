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
and the sampler. Only per-policy outputs take a :class:`PolicyChoiceSet`,
whose policies are rows of the compiled graph's state-actions: policy
utilities, one segment sum of the reach-weighted utilities over the rows,
and choice probabilities.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping

import numpy as np

from .errors import ValidationError
from .network import (
    CompiledGraph,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    initial_state as default_initial_state,
)
from .numerics import check_sample_size, segment_sums, softmax
from .policy import PolicyChoiceSet, StateSequence, _backward_counts
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

    The sum of w(s) * u(s, a) over the state-actions of each row, added
    in walk order: a policy tree never merges, as its branches hold
    disjoint knowledge sets, so it reaches each of its states with
    probability w(s), the compiled graph's ``reach``.
    """
    if not cs.rows:
        raise ValidationError("policy choice set is empty")
    graph = cs.graph
    weighted = graph.reach[graph.action_state] * utility.utilities(graph)
    taken = np.fromiter(itertools.chain.from_iterable(cs.rows), dtype=np.intp)
    owner = np.repeat(np.arange(len(cs)), [len(row) for row in cs.rows])
    return segment_sums(owner, weighted[taken], len(cs))


def policy_choice_probs(cs: PolicyChoiceSet, utility: LinkUtilitySpec) -> np.ndarray:
    """Logit probabilities over the whole choice set, in choice-set order.

    Finite utilities that give a non-finite probability raise
    ``ValidationError``, as they do in the solve.
    """
    return _policy_logit(policy_utilities(cs, utility), utility.mu)


def _policy_logit(utilities: np.ndarray, mu: float) -> np.ndarray:
    """The logit at scale ``mu`` over policy utilities, for callers that hold the utilities."""
    probs = softmax(utilities / mu)
    if not np.isfinite(probs).all() and np.isfinite(utilities).all():
        raise ValidationError(
            f"the policy choice probabilities are not finite at logit scale mu={mu!r}"
        )
    return probs


def sample_sequence_counts_nr(
    cs: PolicyChoiceSet, utility: LinkUtilitySpec, n: int, seed=None
) -> Mapping[StateSequence, int]:
    """Frequencies of ``n`` independent trajectories, drawn link by link from the solved model.

    The choice set must hold every routing policy from its initial state.
    """
    check_sample_size(n)
    vf = solve_value_functions_nr(cs.network, cs.support_points, utility, initial=cs.initial_state)
    if len(cs) != _backward_counts(vf.graph, math.prod)[0]:
        raise ValidationError("a choice set must hold every routing policy from its initial state")
    return sample_sequence_counts(vf, n, seed)
