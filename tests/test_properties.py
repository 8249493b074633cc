"""Probability invariants of both models, and the compile against its oracle, over random networks (Hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from netgen import random_network
from stdroute import (
    LinkUtilitySpec,
    compile_graph,
    initial_state,
    path_probabilities,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)

# the same examples on every run, and no example database
settings.register_profile(
    "stdroute", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("stdroute")

SOLVERS = (solve_value_functions, solve_value_functions_nr)
networks = st.integers(0, 2**32 - 1).map(lambda seed: random_network(np.random.default_rng(seed)))
scales = st.floats(1e-3, 10.0)
coefficients = st.floats(-3.0, 0.0)
ONE = pytest.approx(1.0, abs=1e-12)


def solved(example, mu, beta):
    net, spp = example
    utility = LinkUtilitySpec(beta=(beta,), mu=mu)
    return [solve(net, spp, utility, initial=initial_state(net, spp)) for solve in SOLVERS]


@given(networks, scales, coefficients)
def test_sequence_and_path_probabilities_sum_to_one(example, mu, beta):
    for vf in solved(example, mu, beta):
        assert math.fsum(sequence_probabilities(vf).values()) == ONE
        assert math.fsum(path_probabilities(vf).values()) == ONE


@given(networks, scales, coefficients)
def test_choice_probabilities_sum_to_one_at_every_decision_state(example, mu, beta):
    for vf in solved(example, mu, beta):
        graph = vf.graph
        assert np.all(vf.choice_probs >= 0)
        rows = np.bincount(graph.action_state, vf.choice_probs, len(graph.states))
        assert np.allclose(rows[~graph.terminal], 1.0, rtol=0, atol=1e-12)


@given(networks)
def test_compile_is_bitwise_the_state_level_expansion(example):
    net, spp = example
    s0 = initial_state(net, spp)
    assert oracle.graph_mismatches(compile_graph(net, spp, s0), oracle.compile_graph(net, spp, s0)) == []
