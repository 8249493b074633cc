"""Probability invariants of both models, the compile, its height-level schedule, the label ranks and the exact value gradient against their oracles, the two-route pipeline against its closed forms, and the document readers on arbitrary JSON (Hypothesis)."""

import copy
import json
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracle
from netgen import random_network
from stdroute import (
    LinkUtilitySpec,
    ObservationSet,
    StdRouteError,
    TwoRouteScenario,
    ValidationError,
    bundled_network_text,
    closed_form_ratios,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    equivalence_report,
    initial_state,
    load_bundled_network,
    load_network,
    path_probabilities,
    pipeline_ratios,
    policy_utilities,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)
from stdroute.policy import sequence_table
from stdroute.nonrecursive import nonrecursive_scale
from stdroute.recursive import solve_log_sum, value_gradients

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


@given(networks, coefficients)
def test_height_levels_solve_as_time_layers_bit_for_bit(example, beta):
    net, spp = example
    s0 = initial_state(net, spp)
    by_height, by_time = compile_graph(net, spp, s0), oracle.compile_graph(net, spp, s0, by_time=True)
    # each state and state-action of the time layout at its place in the height layout
    state = np.array([by_height.index[s] for s in by_time.states])
    owner = by_time.action_state
    action = by_height.action_ptr[state[owner]] + np.arange(len(owner)) - by_time.action_ptr[owner]
    assert by_height.action_link[action].tobytes() == by_time.action_link.tobytes()

    def same(x, y):
        return x.shape == y.shape and x.tobytes() == y.tobytes()

    def same_solves(h, t):
        assert same(h.state_values[state], t.state_values)
        assert same(h.action_values[action], t.action_values)
        assert same(h.choice_probs[action], t.choice_probs)
        assert same(h.log_choice_probs[action], t.log_choice_probs)

    # the logit scale per state of the recursive and the non-recursive model
    models = (lambda graph, mu: np.full(len(graph.states), mu), nonrecursive_scale)
    mus = (1.0, 0.3, 1e-3)
    for scale in models:
        for mu in mus:
            utility = LinkUtilitySpec(beta=(beta,), mu=mu)
            h, t = (solve_log_sum(g, utility, scale(g, mu)) for g in (by_height, by_time))
            same_solves(h, t)
            (dv_h, dq_h), (dv_t, dq_t) = value_gradients(h), value_gradients(t)
            assert same(dv_h[state], dv_t) and same(dq_h[action], dq_t)
    utility = LinkUtilitySpec(beta=(beta,), mu=1.0)
    batch = lambda g: np.stack([scale(g, mu) for scale in models for mu in mus], axis=1)
    same_solves(*(solve_log_sum(g, utility, batch(g)) for g in (by_height, by_time)))


@given(networks, scales, coefficients)
def test_nr_initial_value_is_the_log_sum_over_policies(example, mu, beta):
    net, spp = example
    s0 = initial_state(net, spp)
    utility = LinkUtilitySpec(beta=(beta,), mu=mu)
    vf = solve_value_functions_nr(net, spp, utility, initial=s0)
    expected = mu * oracle.logsumexp(policy_utilities(enumerate_policies(net, spp, s0), utility) / mu)
    assert abs(vf[s0] - expected) <= 1e-12 * max(1.0, abs(expected))


@given(networks)
def test_label_rank_rows_order_sequences_as_their_labels(example):
    net, spp = example
    graph = compile_graph(net, spp, initial_state(net, spp))
    rows = lambda seq: graph.label_rank[[graph.index[s] for s in seq.states]].tolist()
    sequences = sequence_table(graph).sequences
    assert sorted(sequences, key=rows) == sorted(sequences, key=lambda seq: seq.label())


@given(networks, scales, coefficients)
def test_initial_value_gradient_is_the_central_difference(example, mu, beta):
    net, spp = example
    s0 = initial_state(net, spp)
    tol = 1e-5 if mu <= 1e-3 else 1e-6
    for solve in SOLVERS:
        value = lambda b: solve(net, spp, LinkUtilitySpec(beta=tuple(b), mu=mu), initial=s0)[s0]
        exact = value_gradients(solve(net, spp, LinkUtilitySpec(beta=(beta,), mu=mu), initial=s0))[0][0]
        reference = oracle.finite_difference_gradient(value, [beta])
        assert np.abs(exact - reference) <= tol * np.abs(reference)


@st.composite
def network_documents(draw):
    """Network documents of at most 5 nodes, 8 links, 3 periods and 3 scenarios, times 1 to 5.

    The origin is a loop on n0 and the destination the last node, so most
    documents load; links may form cycles and dead ends. Departure times
    agree across scenarios, and some probabilities are as small as a
    float gets. No expansion passes a few hundred states.
    """
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 5)))]
    tails = st.sampled_from(nodes[:-1])
    pairs = draw(st.lists(st.tuples(tails, st.sampled_from(nodes)), min_size=1, max_size=6))
    pairs.append((draw(tails), nodes[-1]))
    horizon = draw(st.integers(1, 3))
    weight = st.floats(0, 1, exclude_min=True) | st.sampled_from([5e-324, 1e-310, 6e-309, 1e-300])
    weights = draw(st.lists(weight, min_size=1, max_size=3))
    departure = [draw(st.integers(1, 5)) for _ in pairs]
    later = st.lists(st.integers(1, 5), min_size=horizon - 1, max_size=horizon - 1)
    points = [
        {
            "probability": w / sum(weights),
            "travel_times": {str(i + 1): [d] + draw(later) for i, d in enumerate(departure)},
        }
        for w in weights
    ]
    links = [("n0", "n0")] + pairs
    return json.dumps(
        {
            "nodes": nodes,
            "links": [{"id": i, "from": tail, "to": head} for i, (tail, head) in enumerate(links)],
            "origin_link": 0,
            "destination_link": len(pairs),
            "horizon": horizon,
            "support_points": points,
        }
    )


@given(network_documents())
def test_a_loaded_network_solves_to_finite_values_or_raises_a_package_error(text):
    try:
        net, spp = load_network(text)
        s0 = initial_state(net, spp)
        assert len(compile_graph(net, spp, s0).states) <= 10_000
        solved = [solve(net, spp, LinkUtilitySpec(), initial=s0) for solve in SOLVERS]
    except StdRouteError:
        return
    for vf in solved:
        for values in (vf.state_values, vf.action_values, vf.choice_probs):
            assert np.isfinite(values).all()


def outcome(compare, net, spp, utility=None):
    """What ``compare`` returns, or the class and message of the error it raises."""
    try:
        return compare(net, spp, utility)
    except Exception as exc:  # any error: its class and message are compared
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(network_documents())
def test_a_loaded_network_compares_as_separate_solves_do(text):
    # one batch solve for every (model, mu) column: the report, or the first column's error
    try:
        net, spp = load_network(text)
        assert len(compile_graph(net, spp, initial_state(net, spp)).states) <= 10_000
    except StdRouteError:
        return
    assert outcome(equivalence_report, net, spp) == outcome(oracle.equivalence_report, net, spp)


# the minimal document of the fuzz tests above: its second scenario has probability 5e-324,
# so the non-recursive scale mu / w(s) of the state that knows it is infinite
SUBNORMAL_DOCUMENT = {
    "nodes": ["n0", "n1", "n2"],
    "links": [
        {"id": 0, "from": "n0", "to": "n0"},
        {"id": 1, "from": "n0", "to": "n1"},
        {"id": 2, "from": "n1", "to": "n2"},
    ],
    "origin_link": 0,
    "destination_link": 2,
    "horizon": 2,
    "support_points": [
        {"probability": 1.0, "travel_times": {"1": [1, 1], "2": [1, 1]}},
        {"probability": 5e-324, "travel_times": {"1": [1, 1], "2": [1, 2]}},
    ],
}


def test_a_state_reached_with_a_subnormal_probability_is_refused():
    net, spp = load_network(json.dumps(SUBNORMAL_DOCUMENT))
    solve_value_functions(net, spp, LinkUtilitySpec())
    with pytest.raises(ValidationError, match=r"State\(1,1,\{2\}\) is reached with probability 5e-324"):
        solve_value_functions_nr(net, spp, LinkUtilitySpec())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "document, beta, mu, message",
    [
        (None, -1.0, 1e-310, "the values are not finite at logit scale mu=1e-310"),
        (None, -1e306, 1.0, "the values are not finite at logit scale mu=0.01"),
        (None, -1.0, 1e301, "is reached with probability 0.5"),
        (SUBNORMAL_DOCUMENT, -1.0, 1.0, "is reached with probability 5e-324"),
        # the recursive column at mu=1 solves before the non-recursive column's scale is refused
        (SUBNORMAL_DOCUMENT, -1.0, 1e-30, "is reached with probability 5e-324"),
        # the base columns are not finite, and come before the refused scale at mu=1
        (SUBNORMAL_DOCUMENT, -1.0, 1e-310, "the values are not finite at logit scale mu=1e-310"),
    ],
)
def test_the_comparison_raises_the_first_error_of_the_separate_solves(document, beta, mu, message):
    net, spp = load_network(json.dumps(document)) if document else load_bundled_network()
    utility = LinkUtilitySpec(beta=(beta,), mu=mu)
    error = outcome(equivalence_report, net, spp, utility)
    assert error == outcome(oracle.equivalence_report, net, spp, utility)
    assert error[0] is ValidationError and message in error[1]


# the documented refusals of a scenario whose ratios leave the float range or lose an offset
RATIO_REFUSALS = re.compile(
    r"the closed-form (ratio exp\([xy]\)|marginal ratio) overflows at "
    r"|the pipeline route odds overflow at "
    r"|[xy]=\S+ vanishes in floating point: "
)


@st.composite
def two_route_scenarios(draw):
    """Scenarios with base times up to 700, where exp(x) > exp(-a) stays a normal float.

    Offsets run past 709.8, where the closed-form ratios overflow, and p
    stays above 1e-300, where the non-recursive scale 1 / p is refused.
    """
    a, b = (draw(st.floats(0.0, 700.0, exclude_min=True)) for _ in "ab")
    x = draw(st.floats(-a, 750.0, exclude_min=True))
    y = draw(st.floats(-b, 750.0, exclude_min=True))
    p = draw(st.floats(1e-300, 1.0, exclude_min=True, exclude_max=True))
    return TwoRouteScenario(a=a, b=b, x=x, y=y, p=p)


# values with no integer time scale of denominator <= 10**4
@example(TwoRouteScenario(a=2.0, b=2.0, x=0.1234567, y=0.5, p=0.5))
@example(TwoRouteScenario(a=1 / 7, b=1 / 13, x=1 / 11, y=1 / 17, p=0.5))
@example(TwoRouteScenario(a=2.0, b=2.0, x=-2 + 1e-13, y=0.0, p=0.5))
@given(two_route_scenarios())
def test_pipeline_ratios_are_the_closed_forms(s):
    try:
        closed, piped = closed_form_ratios(s), pipeline_ratios(s)
    except ValidationError as exc:
        if not RATIO_REFUSALS.match(str(exc)):
            raise
        reject()
    for model in ("recursive", "nonrecursive"):
        assert getattr(piped, model) == pytest.approx(getattr(closed, model), rel=1e-12, abs=0)


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
