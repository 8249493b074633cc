"""The two models bracket the optimal policy's values on random networks.

At every state V*(s) <= V_rec(s) <= V_nr(s), and at the origin
V_nr(s0) <= V*(s0) + mu ln |Pi|, where V* is the max-sweep value of
``optimal_policy`` and |Pi| the exact policy count. Each has a one-line
proof: a log-sum is at least its maximum; sigma ln sum exp(q / sigma) is
non-decreasing in sigma, and the non-recursive scale mu / w(s) is at least
mu; a log-sum over |Pi| policies is at most their maximum plus mu ln |Pi|.
"""

import math

import numpy as np
import pytest

from netgen import random_network
from stdroute import (
    LinkUtilitySpec,
    initial_state,
    optimal_policy,
    solve_value_functions,
    solve_value_functions_nr,
)
from stdroute.policy import _backward_counts

RTOL = 1e-14
NETWORKS = [random_network(np.random.default_rng(seed)) for seed in range(200)]


def at_most(lower, upper) -> bool:
    """``lower <= upper`` everywhere, up to RTOL relative to the larger magnitude."""
    return bool(np.all(lower <= upper + RTOL * np.maximum(np.abs(lower), np.abs(upper))))


@pytest.mark.parametrize("beta", [-1.0, 0.5])
@pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
def test_the_models_bracket_the_optimal_policy(mu, beta):
    utility = LinkUtilitySpec(beta=(beta,), mu=mu)
    for j, (net, spp) in enumerate(NETWORKS):
        s0 = initial_state(net, spp)
        best = optimal_policy(net, spp, s0, utility)[1].state_values
        rec = solve_value_functions(net, spp, utility, initial=s0)
        nr = solve_value_functions_nr(net, spp, utility, initial=s0).state_values
        policies = _backward_counts(rec.graph, math.prod)[0]
        assert at_most(best, rec.state_values), f"network {j}: V* exceeds V_rec"
        assert at_most(rec.state_values, nr), f"network {j}: V_rec exceeds V_nr"
        assert at_most(nr[0], best[0] + mu * math.log(policies)), f"network {j}: V_nr(s0) too large"
