"""One sampler for both models: sampled trip frequencies against exact sequence probabilities.

The non-recursive model is sampled link by link from its solve at scale
mu / w(s), and checked against the paper's data process marginalized
exactly: a routing policy chosen at the origin, rolled out in each
scenario. The draws themselves, and their order, are checked against
the scalar count splitter of the oracle, and the result is checked to read
as the plain dict of those counts.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import oracle
from netgen import bench_module, random_network
from oracle import policy_scenario_probabilities
from stdroute import (
    Link,
    LinkUtilitySpec,
    ObservationSet,
    StateSequence,
    StdNetwork,
    SupportPointSet,
    enumerate_policies,
    initial_state,
    load_network,
    log_likelihood,
    sample_sequence_counts,
    sample_sequence_counts_nr,
    sequence_likelihood,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
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


@pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
def test_draws_and_order_are_the_scalar_splitter(solve):
    rng = np.random.default_rng(29)
    for k in range(200):
        net, spp = random_network(rng, max_links=8, max_support=4, max_horizon=4)
        for mu in (1.0, 0.05):
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),), mu=mu)
            vf = solve(net, spp, utility, initial=initial_state(net, spp))
            for n in (1, 7, 5000):
                expected = oracle.split_sequence_counts(vf, n, seed=k)
                assert list(sample_sequence_counts(vf, n, seed=k).items()) == list(expected.items())


def one_period_network(nodes, hops):
    """Link 0 at o, then links 1, 2, ... from ``(tail, head, time)`` hops; the last ends the trip.

    One period and one scenario, so each link always takes its one time.
    """
    links = (Link(0, "o", "o"), *(Link(k, tail, head) for k, (tail, head, _) in enumerate(hops, 1)))
    net = StdNetwork(nodes=nodes, links=links, origin_link=0, destination_link=len(hops), horizon=1)
    spp = SupportPointSet(
        link_ids=tuple(range(1, len(links))),
        travel_times=np.array([[[time for _, _, time in hops]]]),
        probabilities=np.ones(1),
    )
    return net, spp


def ladder_network(stages=71, single=35, exits=False):
    """A chain of stages from o to z, each two parallel links of times 1 and 2 but one.

    A walk takes one link per stage: a choice at each of the 70 two-link
    stages and a forced step, which draws nothing, at the single-link one.
    With ``exits`` every stage but the last also has a link straight to z,
    slow enough that some trips go on, so trips end at every stage.
    """
    nodes, hops = ("o", *(f"n{k}" for k in range(1, stages)), "z"), []
    for k in range(stages):
        for _ in range(1 if k == single else 2):
            hops.append((nodes[k], nodes[k + 1], 1 + (len(hops) + 1) % 2))
        if exits and k < stages - 1:
            hops.append((nodes[k], "z", 3 + 7 * (stages - k) // 10))
    return one_period_network(nodes, hops)


@pytest.mark.parametrize("mu", [1.0, 0.05])
def test_draws_and_order_on_a_ladder_of_71_stages(mu):
    net, spp = ladder_network()
    vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,), mu=mu))
    for n in (1, 7, 5000):
        counts = sample_sequence_counts(vf, n, seed=n)
        assert {len(seq.path) for seq in counts} == {71}
        expected = oracle.split_sequence_counts(vf, n, seed=n)
        assert list(counts.items()) == list(expected.items())


def test_draws_and_order_on_a_ladder_with_an_exit_at_every_stage():
    net, spp = ladder_network(exits=True)
    vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,)))
    for n in (1, 7, 5000):
        counts = sample_sequence_counts(vf, n, seed=n)
        expected = oracle.split_sequence_counts(vf, n, seed=n)
        assert list(counts.items()) == list(expected.items())
    # the rows of trips that end at every one of the 71 steps are rebuilt together
    assert {len(seq.path) for seq in counts} == set(range(1, 72))


def fan_network(fan=32, narrow=64, wide=64):
    """Two stages of ``fan`` parallel links, then one link to w or one of ``narrow`` to v.

    The fan x fan walks of the two stages all reach the state of the link
    to w, which has ``wide`` links to z; each also reaches ``narrow``
    states at v, which have two links to z. At the step from w and v, the
    live prefixes at the narrow states far outnumber those at the wide one.
    """
    hops = [("o", "a", 1)] * fan + [("a", "b", 1)] * fan + [("b", "w", 1)] + [("b", "v", 1)] * narrow
    hops += [("v", "z", 1), ("v", "z", 2), *(("w", "z", 1 + j % 4) for j in range(wide))]
    return one_period_network(("o", "a", "b", "w", "v", "z"), hops)


def test_a_wide_state_that_many_prefixes_reach():
    net, spp = fan_network()
    vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,)))
    graph = vf.graph
    tracemalloc.start()
    try:
        counts = sample_sequence_counts(vf, 40_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = oracle.split_sequence_counts(vf, 40_000, seed=3)
    assert list(counts.items()) == list(expected.items())
    # all 1024 prefixes reach the state of 64 edges mid-trip, among some 25,000 live ones
    (wide,) = [i for i, state in enumerate(graph.states) if state.link == 2 * 32 + 1]
    assert np.diff(graph.edge_ptr[graph.action_ptr[[wide, wide + 1]]]) == 64
    assert len({seq.states[:3] for seq in counts if seq.states[3] == graph.states[wide]}) == 1024
    assert len({seq.states[:4] for seq in counts}) > 25_000
    # a (live prefixes x widest state) matrix of 1.6 million entries would peak near 60 MB
    assert peak < 30e6, peak


def test_a_binomial_of_no_trips_or_no_chance_draws_nothing():
    # the sampler draws for prefixes with no trips left: those draws must be 0 and take no number
    n = np.array([0, 40, 0, 9, 3000, 5, 0])
    p = np.array([0.3, 0.2, 0.9, 0.0, 0.4, 0.7, 0.0])
    keep = (n > 0) & (p > 0)
    with_zeros, without = np.random.default_rng(8), np.random.default_rng(8)
    drawn = with_zeros.binomial(n, p)
    assert (drawn[~keep] == 0).all()
    assert (drawn[keep] == without.binomial(n[keep], p[keep])).all()
    assert with_zeros.bit_generator.state == without.bit_generator.state
    assert (with_zeros.random(4) == without.random(4)).all()


@pytest.fixture(scope="module")
def grid_vf():
    """The recursive solve on the benchmark's seed-1 rec-predict grid (6x6, R=32, K=6)."""
    workloads = bench_module("workloads")
    wl = workloads.RecPredict
    net, spp = load_network(workloads.sized_grid((1,), *wl.grid, wl.target)[0])
    return solve_value_functions(net, spp, wl.utility)


def test_draws_and_order_on_the_benchmark_grid(grid_vf):
    expected = oracle.split_sequence_counts(grid_vf, 20_000, seed=1)
    assert list(sample_sequence_counts(grid_vf, 20_000, seed=1).items()) == list(expected.items())


def test_frequencies_on_the_benchmark_grid(grid_vf):
    probs = sequence_probabilities(grid_vf)
    assert len(probs) == 8064
    counts = sample_sequence_counts(grid_vf, 200_000, seed=1)
    assert sum(counts.values()) == 200_000
    assert pearson_p_value(counts, probs, 200_000) > 1e-4


def test_memory_holds_the_walks_not_a_walker_by_edge_gather(grid_vf):
    # the departure state has 64 edges: a dense compare would gather 200,000 x 64 floats at once
    tracemalloc.start()
    try:
        # every key is read in the window: the result builds its sequences on the first read
        dict(sample_sequence_counts(grid_vf, 200_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, peak


@pytest.fixture
def constructions(monkeypatch):
    """Every ``StateSequence`` built while the test runs."""
    made, post_init = [], StateSequence.__post_init__

    def counted(seq):
        made.append(seq)
        post_init(seq)

    monkeypatch.setattr(StateSequence, "__post_init__", counted)
    return made


def test_counts_are_read_without_building_a_sequence(grid_vf, constructions):
    counts = sample_sequence_counts(grid_vf, 50_000, seed=1)
    assert len(counts) > 4000
    assert len(counts.values()) == len(counts) and sum(counts.values()) == 50_000
    assert constructions == []
    keys = list(counts)
    assert len(constructions) == len(keys) == len(counts)
    assert list(counts.keys()) == keys and len(constructions) == len(keys)


@pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
def test_keys_values_and_items_align_in_the_splitters_order(grid_vf, solve):
    graph = grid_vf.graph
    cases = [(solve(graph.network, graph.support_points, grid_vf.utility), 20_000, 1)]
    rng = np.random.default_rng(43)
    for k in range(50):
        net, spp = random_network(rng)
        utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),))
        cases.append((solve(net, spp, utility, initial=initial_state(net, spp)), 1000, k))
    for vf, n, seed in cases:
        counts = sample_sequence_counts(vf, n, seed=seed)
        expected = oracle.split_sequence_counts(vf, n, seed=seed)
        values = counts.values()  # read before any key
        assert values == tuple(expected.values())
        assert list(counts.keys()) == list(counts) == list(expected)
        assert list(counts.items()) == list(zip(counts.keys(), values))
        assert counts.values() == values


def test_the_result_reads_as_the_equal_dict(vf):
    counts = sample_sequence_counts(vf, 3, seed=2)
    plain = oracle.split_sequence_counts(vf, 3, seed=2)
    assert len(plain) == 2
    assert counts == plain and plain == counts and not counts != plain
    assert counts != {**plain, next(iter(plain)): 0} and counts != {}
    assert repr(counts) == f"SampledCounts({plain!r})"
    for seq, count in plain.items():
        assert seq in counts and counts[seq] == counts.get(seq) == count
    missing = [seq for seq in sequence_probabilities(vf) if seq not in plain]
    assert len(missing) == 2
    for seq in missing:
        assert seq not in counts and counts.get(seq) is None and counts.get(seq, 0) == 0
        with pytest.raises(KeyError):
            counts[seq]


def test_the_result_cannot_be_changed(vf):
    counts = sample_sequence_counts(vf, 1000, seed=2)
    values = counts.values()
    seq = next(iter(counts))
    assert isinstance(values, tuple)
    with pytest.raises(TypeError):
        values[0] = 0
    with pytest.raises(TypeError):
        counts[seq] = 0
    with pytest.raises(TypeError):
        del counts[seq]
    assert counts.values() == values and sum(values) == 1000


@pytest.mark.parametrize("read_keys", [False, True])
def test_a_pickle_round_trip_gives_an_equal_mapping(vf, read_keys):
    counts = sample_sequence_counts(vf, 1000, seed=4)
    if read_keys:
        list(counts)
    copy = pickle.loads(pickle.dumps(counts))
    plain = oracle.split_sequence_counts(vf, 1000, seed=4)
    assert copy.values() == counts.values()
    assert copy == counts == plain
    assert list(copy.items()) == list(plain.items())


@pytest.mark.parametrize("model", ["recursive", "nonrecursive"])
def test_observations_from_a_sample_are_those_from_its_dict(grid_vf, model):
    net, spp = grid_vf.graph.network, grid_vf.graph.support_points
    solve = solve_value_functions if model == "recursive" else solve_value_functions_nr
    sample = sample_sequence_counts(solve(net, spp, grid_vf.utility), 2000, seed=5)
    lazy, plain = ObservationSet.from_counts(sample), ObservationSet.from_counts(dict(sample))
    assert lazy.observations == plain.observations
    assert list(lazy.grouped().items()) == list(plain.grouped().items())
    beta = list(grid_vf.utility.beta)
    assert log_likelihood(model, net, spp, lazy, beta) == log_likelihood(model, net, spp, plain, beta)


def sliver_network(lead=False):
    """Two links from a to the destination z; the slow one's choice probability underflows to 0.

    The three scenarios split when link 1 is traversed. Their transition
    probabilities, 9/28, 18/28 and 1/28, add up to 1 - 2**-53, so the
    fast link's edges leave a sliver of mass below 1 to the slow link's
    edges of probability 0.
    With ``lead`` the trip departs from o and takes a forced link to a
    first, so the choice is made at a later state than the initial one.
    """
    nodes, links = ("a", "z"), [Link(0, "a", "a"), Link(1, "a", "z"), Link(2, "a", "z")]
    if lead:
        nodes, links = ("o", *nodes), [Link(0, "o", "o"), *links[1:], Link(3, "o", "a")]
    net = StdNetwork(
        nodes=nodes,
        links=tuple(links),
        origin_link=0,
        destination_link=1,
        horizon=2 + lead,
    )
    # per scenario and period, the times of links 1, 2 (and 3): equal up to the split
    times = np.array([[[1, 50, 1]] * (1 + lead) + [[k, 50, 1]] for k in (1, 2, 3)])
    spp = SupportPointSet(
        link_ids=(1, 2, 3)[: len(links) - 1],
        travel_times=times[:, :, : len(links) - 1],
        probabilities=np.array([9.0, 18.0, 1.0]) / 28,
    )
    return net, spp


@pytest.mark.parametrize("lead", [False, True])
@pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
def test_no_edge_of_probability_zero_is_drawn(solve, lead):
    net, spp = sliver_network(lead)
    vf = solve(net, spp, LinkUtilitySpec(beta=(-1.0,), mu=0.01), initial=initial_state(net, spp))
    graph = vf.graph
    # the edges of the state that chooses between links 1 and 2
    i = graph.action_state[graph.action_link == 1][0]
    edges = slice(graph.edge_ptr[graph.action_ptr[i]], graph.edge_ptr[graph.action_ptr[i + 1]])
    probs = (vf.choice_probs[graph.edge_action] * graph.edge_prob)[edges]
    assert (i > 0) == lead
    assert probs[-1] == 0.0 and np.cumsum(probs)[-1] == 1.0 - 2.0**-53
    for seed in range(100):
        counts = sample_sequence_counts(vf, 1000, seed=seed)
        assert {seq.path for seq in counts} == {(3, 1) if lead else (1,)}
        assert sum(counts.values()) == 1000
    assert all(sequence_likelihood(vf, seq) > 0 for seq in counts)
