"""Probability invariants of both models, the compile against its oracle, and the document readers on arbitrary JSON (Hypothesis)."""

import copy
import json
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
    ObservationSet,
    StdRouteError,
    bundled_network_text,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    initial_state,
    load_bundled_network,
    load_network,
    path_probabilities,
    policy_utilities,
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


@given(networks, scales, coefficients)
def test_nr_initial_value_is_the_log_sum_over_policies(example, mu, beta):
    net, spp = example
    s0 = initial_state(net, spp)
    utility = LinkUtilitySpec(beta=(beta,), mu=mu)
    vf = solve_value_functions_nr(net, spp, utility, initial=s0)
    expected = mu * oracle.logsumexp(policy_utilities(enumerate_policies(net, spp, s0), utility) / mu)
    assert abs(vf[s0] - expected) <= 1e-12 * max(1.0, abs(expected))


# as many plain values as nested ones: ids, times and counts are where a document goes wrong
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def positions(doc, prefix=()):
    """The path of every value inside a JSON document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from positions(value, prefix + (key,))


def substituted(doc, path, value) -> str:
    """The document as JSON text, with the value at ``path`` replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


NETWORK = json.loads(bundled_network_text())


def observation_document():
    """Every trip of the bundled network, two of them without knowledge states (they are read from the times)."""
    net, spp = load_bundled_network()
    records = json.loads(ObservationSet(enumerate_sequences(net, spp, initial_state(net, spp))).to_json())
    for record in records[0], records[2]:
        for state in record["states"]:
            del state["ev_members"]
    return records


OBSERVATIONS = observation_document()


def read_at_every_position(doc, value, read) -> None:
    """Read the document with ``value`` in place of each of its values in turn.

    Each reading must succeed or raise a :class:`StdRouteError`.
    """
    for path in positions(doc):
        try:
            read(substituted(doc, path, value))
        except StdRouteError:
            pass
        except Exception as exc:
            raise AssertionError(f"{value!r} at {path} raised {exc!r}") from exc


@settings(max_examples=50)
@given(json_values)
def test_network_document_loads_or_raises_a_package_error(value):
    read_at_every_position(NETWORK, value, load_network)


@settings(max_examples=50)
@given(json_values)
def test_observation_document_loads_or_raises_a_package_error(value):
    net, spp = load_bundled_network()
    read_at_every_position(OBSERVATIONS, value, lambda text: ObservationSet.from_json(text, net, spp))
