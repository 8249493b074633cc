"""One sampler for both models: sampled trip frequencies against exact sequence probabilities.

The non-recursive model is sampled link by link from its solve at scale
mu / w(s), and checked against the paper's data process marginalized
exactly: a routing policy chosen at the origin, rolled out in each
scenario.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from netgen import random_network
from oracle import policy_scenario_probabilities
from stdroute import (
    LinkUtilitySpec,
    enumerate_policies,
    initial_state,
    sample_sequence_counts,
    sample_sequence_counts_nr,
    sequence_probabilities,
    solve_value_functions,
)

TRIPS = 20_000
# cells expected to hold fewer trips are pooled into one, as Pearson's approximation needs
MIN_EXPECTED = 5.0


def pearson_p_value(counts: dict, probs: dict, n: int) -> float:
    """p-value of Pearson's chi-square test of sampled counts against exact probabilities."""
    assert set(counts) <= {seq for seq, p in probs.items() if p > 0}
    expected = n * np.array(list(probs.values()))
    observed = np.array([counts.get(seq, 0) for seq in probs])
    small = expected < MIN_EXPECTED
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    keep = expected > 0
    expected, observed = expected[keep], observed[keep]
    if len(expected) < 2:
        return 1.0
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(statistic, len(expected) - 1))


@pytest.mark.parametrize("model", ["recursive", "nonrecursive"])
def test_frequencies_match_exact_probabilities(model):
    rng = np.random.default_rng(61)
    p_values = []
    for k in range(50):
        net, spp = random_network(rng)
        s0 = initial_state(net, spp)
        utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),))
        if model == "recursive":
            vf = solve_value_functions(net, spp, utility, initial=s0)
            probs = sequence_probabilities(vf)
            counts = sample_sequence_counts(vf, TRIPS, seed=k)
        else:
            cs = enumerate_policies(net, spp, s0)
            probs = policy_scenario_probabilities(cs, utility)
            counts = sample_sequence_counts_nr(cs, utility, TRIPS, seed=k)
        assert sum(counts.values()) == TRIPS
        p_values.append(pearson_p_value(counts, probs, TRIPS))
    assert min(p_values) > 1e-4, sorted(p_values)[:3]
