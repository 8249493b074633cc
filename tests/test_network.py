import json

import numpy as np
import pytest

from netgen import random_network
from stdroute import (
    EventCollection,
    HorizonError,
    Link,
    NetworkFormatError,
    PoiConsistencyError,
    State,
    StdNetwork,
    SupportPointSet,
    UnreachableDestinationError,
    ValidationError,
    bundled_network_text,
    decision_graph,
    event_collections_at,
    initial_state,
    load_network,
    transition_prob,
    travel_time,
)


def doc() -> dict:
    return json.loads(bundled_network_text())


class TestLoadNetwork:
    def test_example_document(self, net, spp):
        assert len(net.nodes) == 3
        assert sorted(l.id for l in net.links) == [0, 1, 2, 3]
        assert net.horizon == 2
        assert spp.size == 2
        assert np.allclose(spp.probabilities, [0.5, 0.5])
        assert net.destination_node == "c"
        assert net.outgoing(0) == (1,)
        assert net.outgoing(1) == (2, 3)
        assert net.outgoing(2) == ()

    def test_probabilities_must_sum_to_one(self):
        bad = doc()
        bad["support_points"][0]["probability"] = 0.6
        with pytest.raises(ValidationError, match="sum"):
            load_network(json.dumps(bad))

    def test_single_support_point_is_deterministic(self):
        single = doc()
        single["support_points"] = [single["support_points"][0] | {"probability": 1.0}]
        net, spp = load_network(json.dumps(single))
        assert spp.size == 1
        assert event_collections_at(spp, 5) == (EventCollection((1,)),)

    def test_zero_travel_time_rejected(self):
        bad = doc()
        bad["support_points"][0]["travel_times"]["2"] = [0, 3]
        with pytest.raises(ValidationError, match=">= 1"):
            load_network(json.dumps(bad))

    def test_malformed_json_reports_line(self):
        with pytest.raises(NetworkFormatError, match="line 1"):
            load_network("{nodes: oops}")

    def test_missing_key_reported(self):
        bad = doc()
        del bad["horizon"]
        with pytest.raises(NetworkFormatError, match="horizon"):
            load_network(json.dumps(bad))

    def test_missing_link_times_reported(self):
        bad = doc()
        del bad["support_points"][0]["travel_times"]["3"]
        with pytest.raises(NetworkFormatError, match="missing links"):
            load_network(json.dumps(bad))

    def test_origin_link_travel_times_are_ignored(self, spp):
        # the dummy origin link is never traversed, so its row is skipped unread
        extra = doc()
        extra["support_points"][0]["travel_times"]["0"] = [5, 5]
        extra["support_points"][1]["travel_times"]["0"] = "not a row"
        _, loaded = load_network(json.dumps(extra))
        assert loaded.link_ids == spp.link_ids
        assert np.array_equal(loaded.travel_times, spp.travel_times)

    def test_destination_must_be_absorbing(self):
        bad = doc()
        bad["links"].append({"id": 4, "from": "c", "to": "b"})
        with pytest.raises(ValidationError, match="absorbing"):
            load_network(json.dumps(bad))


class TestEventCollections:
    def test_partition_at_departure(self, spp):
        assert event_collections_at(spp, 0) == (EventCollection((1, 2)),)

    def test_partition_splits_at_time_one(self, spp):
        assert event_collections_at(spp, 1) == (EventCollection((1,)), EventCollection((2,)))

    def test_static_tail_reuses_last_period(self, spp):
        assert event_collections_at(spp, 7) == event_collections_at(spp, 1)

    def test_refinement(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            _, spp = random_network(rng)
            for t in range(spp.horizon + 1):
                coarse = event_collections_at(spp, t)
                fine = event_collections_at(spp, t + 1)
                for cls in fine:
                    assert any(set(cls.members) <= set(c.members) for c in coarse)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValidationError):
            EventCollection(())


class TestTransitionProb:
    def test_example_split(self, spp):
        assert transition_prob(spp, EventCollection((1,)), EventCollection((1, 2))) == 0.5

    def test_identity(self, spp):
        ev = EventCollection((1, 2))
        assert transition_prob(spp, ev, ev) == 1.0

    def test_disjoint_gives_zero(self, spp):
        assert transition_prob(spp, EventCollection((2,)), EventCollection((1,))) == 0.0

    def test_three_point_set(self):
        spp = SupportPointSet(
            link_ids=(1,),
            travel_times=np.array([[[1]], [[2]], [[3]]]),
            probabilities=np.array([0.2, 0.3, 0.5]),
        )
        assert transition_prob(spp, EventCollection((1, 2)), EventCollection((1, 2, 3))) == 0.5

    def test_matches_direct_subset_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            _, spp = random_network(rng, max_support=3)
            r = spp.size
            members = lambda: tuple(
                sorted(rng.choice(r, size=rng.integers(1, r + 1), replace=False) + 1)
            )
            ev, ev_next = EventCollection(members()), EventCollection(members())
            expected_num = sum(
                spp.probabilities[i - 1] for i in set(ev.members) & set(ev_next.members)
            )
            expected_den = sum(spp.probabilities[i - 1] for i in ev.members)
            assert transition_prob(spp, ev_next, ev) == pytest.approx(
                expected_num / expected_den, abs=1e-15
            )


class TestTravelTime:
    def test_realized_time_at_junction(self, net, spp):
        assert travel_time(net, spp, 2, State(1, 1, EventCollection((1,)))) == 3

    def test_departure_time(self, net, spp, s0):
        assert travel_time(net, spp, 1, s0) == 1

    def test_static_tail(self, net, spp):
        assert travel_time(net, spp, 3, State(1, 5, EventCollection((2,)))) == 2

    def test_disagreeing_scenarios_rejected(self, net, spp):
        ad_hoc = State(1, 1, EventCollection((1, 2)))
        with pytest.raises(PoiConsistencyError):
            travel_time(net, spp, 2, ad_hoc)

    def test_unknown_outgoing_link_rejected(self, net, spp, s0):
        with pytest.raises(ValidationError):
            travel_time(net, spp, 3, s0)

    @pytest.mark.parametrize("scenario", [0, 3, -1])
    def test_scenario_outside_the_support_points_rejected(self, net, spp, scenario):
        message = f"scenario {scenario} is not among the support points 1..2"
        with pytest.raises(ValidationError, match=message):
            spp.time_at(scenario, 0, 1)
        if scenario > 0:
            with pytest.raises(ValidationError, match=message):
                travel_time(net, spp, 2, State(1, 1, EventCollection((scenario,))))

    def test_negative_time_rejected(self, net, spp):
        with pytest.raises(ValidationError, match="time period must be non-negative"):
            spp.time_at(1, -1, 1)
        with pytest.raises(ValidationError, match="time period must be non-negative") as info:
            travel_time(net, spp, 1, State(0, -1, EventCollection((1, 2))))
        assert type(info.value) is ValidationError


class TestSuccessorStates:
    """The successor lists of the decision graph, read through its State-level view."""

    def test_departure_splits(self, net, spp, s0):
        succ = decision_graph(net, spp, s0).choices[s0][1]
        assert succ == (
            (State(1, 1, EventCollection((1,))), 0.5),
            (State(1, 1, EventCollection((2,))), 0.5),
        )

    def test_singleton_knowledge_is_deterministic(self, net, spp, s0):
        succ = decision_graph(net, spp, s0).choices[State(1, 1, EventCollection((1,)))][2]
        assert succ == ((State(2, 4, EventCollection((1,))), 1.0),)

    def test_single_support_point_network(self):
        rng = np.random.default_rng(5)
        net, spp = random_network(rng, support_count=1)
        s0 = initial_state(net, spp)
        graph = decision_graph(net, spp, s0)
        for state in graph.decision_states():
            assert list(graph.choices[state]) == list(net.outgoing(state.link))
            for succ in graph.choices[state].values():
                assert len(succ) == 1 and succ[0][1] == 1.0

    def test_probabilities_sum_to_one_and_time_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            net, spp = random_network(rng)
            graph = decision_graph(net, spp, initial_state(net, spp))
            for state in graph.decision_states():
                assert list(graph.choices[state]) == list(net.outgoing(state.link))
                for succ in graph.choices[state].values():
                    assert sum(p for _, p in succ) == pytest.approx(1.0, abs=1e-12)
                    assert all(nxt.time > state.time for nxt, _ in succ)


class TestStateSpace:
    def test_ambiguous_departure_rejected(self):
        bad = doc()
        bad["support_points"][0]["travel_times"]["1"] = [2, 1]
        net, spp = load_network(json.dumps(bad))
        with pytest.raises(ValidationError, match="ambiguous"):
            initial_state(net, spp)

    def test_dead_end_detected(self):
        net = StdNetwork(
            nodes=("o", "m", "x", "z"),
            links=(Link(0, "o", "o"), Link(1, "o", "m"), Link(2, "m", "x"), Link(3, "m", "z")),
            origin_link=0,
            destination_link=3,
            horizon=2,
        )
        spp = SupportPointSet(
            link_ids=(1, 2, 3),
            travel_times=np.ones((1, 2, 3), dtype=np.int64),
            probabilities=np.array([1.0]),
        )
        with pytest.raises(UnreachableDestinationError):
            decision_graph(net, spp, initial_state(net, spp))

    def test_cycle_hits_horizon_guard(self):
        net = StdNetwork(
            nodes=("o", "m", "n", "z"),
            links=(
                Link(0, "o", "o"),
                Link(1, "o", "m"),
                Link(2, "m", "n"),
                Link(3, "n", "m"),
                Link(4, "n", "z"),
            ),
            origin_link=0,
            destination_link=4,
            horizon=2,
        )
        spp = SupportPointSet(
            link_ids=(1, 2, 3, 4),
            travel_times=np.ones((1, 2, 4), dtype=np.int64),
            probabilities=np.array([1.0]),
        )
        with pytest.raises(HorizonError):
            decision_graph(net, spp, initial_state(net, spp))

    def test_states_are_immutable_and_hashable(self, s0):
        with pytest.raises(Exception):
            s0.link = 5
        assert len({s0, State(s0.link, s0.time, s0.ev)}) == 1


def chain(first_link_times):
    """The acyclic chain a -> b -> c -> d over two periods, every time 1 except link 1's."""
    net = StdNetwork(
        nodes=("a", "b", "c", "d"),
        links=(Link(0, "a", "a"), Link(1, "a", "b"), Link(2, "b", "c"), Link(3, "c", "d")),
        origin_link=0,
        destination_link=3,
        horizon=2,
    )
    times = np.ones((1, 2, 3), dtype=np.int64)
    times[0, :, 0] = first_link_times
    spp = SupportPointSet(link_ids=(1, 2, 3), travel_times=times, probabilities=np.array([1.0]))
    return net, spp


class TestTripHorizon:
    def test_the_bound_sums_each_links_longest_time(self, net, spp):
        # links 1, 2 and 3 of the bundled network take at most 2, 3 and 2
        assert net.trip_horizon(spp) == 7

    def test_a_late_departure_is_not_past_the_horizon(self):
        net, spp = chain([1, 1])
        graph = decision_graph(net, spp, initial_state(net, spp, 6))
        assert [s.time for s in graph.states] == [6, 7, 8, 9]

    def test_a_long_stochastic_period_time_is_not_past_the_horizon(self):
        net, spp = chain([100, 1])
        graph = decision_graph(net, spp, initial_state(net, spp))
        assert [s.time for s in graph.states] == [0, 100, 101, 102]
        assert net.trip_horizon(spp) == 102

    def test_no_acyclic_random_network_reaches_the_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            net, spp = random_network(rng, max_links=8)
            bound = net.trip_horizon(spp)
            for start in decision_graph(net, spp, initial_state(net, spp)).decision_states():
                graph = decision_graph(net, spp, start)
                assert max(s.time for s in graph.states) <= start.time + bound


def set_probability(value):
    def edit(d):
        d["support_points"][0]["probability"] = value
    return edit


def set_key(key, value):
    def edit(d):
        d[key] = value
    return edit


def set_first_link_id(value):
    def edit(d):
        d["links"][1]["id"] = value
    return edit


def set_travel_time(value):
    def edit(d):
        d["support_points"][0]["travel_times"]["2"][1] = value
    return edit


def renumber_link_3(value):
    """Give link 3 the id ``value``, in the links and in every travel-time table."""
    def edit(d):
        d["links"][3]["id"] = value
        for point in d["support_points"]:
            point["travel_times"][str(value)] = point["travel_times"].pop("3")
    return edit


def set_first_link_end(key, value):
    def edit(d):
        d["links"][1][key] = value
    return edit


def repeat_link_key(key):
    """Name link 2 a second time in the first support point's travel times, under ``key``."""
    def edit(d):
        table = d["support_points"][0]["travel_times"]
        table[key] = [2, 2]  # the first row reads [2, 3]
    return edit


class TestDocumentTypes:
    """Every mistyped value ends in a NetworkFormatError and exit status 1, never a traceback."""

    CASES = {
        "probability-string": (set_probability("0.5"), "probability must be a number"),
        "probability-null": (set_probability(None), "probability must be a number"),
        "probability-bool": (set_probability(True), "probability must be a number"),
        "probability-huge-int": (set_probability(10**400), "probability must be a number"),
        "horizon-bool": (set_key("horizon", True), "'horizon' must be a positive integer"),
        "horizon-10**30": (set_key("horizon", 10**30), rf"must list {10**30} periods"),
        "origin-bool": (set_key("origin_link", True), "'origin_link' must be a link id"),
        "destination-bool": (
            set_key("destination_link", True), "'destination_link' must be a link id"
        ),
        "link-id-bool": (set_first_link_id(True), r"links\[1\].id must be an integer"),
        "link-id-2**63": (renumber_link_3(2**63), r"links\[3\].id must be an integer of magnitude"),
        "link-id-below-int64": (
            renumber_link_3(-(2**70)), r"links\[3\].id must be an integer of magnitude"
        ),
        "time-bool": (set_travel_time(True), r"travel_times\[2\]\[1\] must be an integer"),
        "time-2**63": (set_travel_time(2**63), r"travel_times\[2\]\[1\] must be an integer"),
        "time-below-int64": (
            set_travel_time(-(2**70)), r"travel_times\[2\]\[1\] must be an integer"
        ),
        "link-from-list": (set_first_link_end("from", ["a"]), r"links\[1\].from must be a node name"),
        "link-to-object": (set_first_link_end("to", {"b": 1}), r"links\[1\].to must be a node name"),
        "link-to-number": (set_first_link_end("to", 2), r"links\[1\].to must be a node name"),
        "travel-times-link-named-twice": (
            repeat_link_key("02"), r"support_points\[0\].travel_times names link 2 twice"
        ),
    }
    cases = pytest.mark.parametrize("edit, message", list(CASES.values()), ids=list(CASES))

    @cases
    def test_rejected_with_a_message(self, edit, message):
        bad = doc()
        edit(bad)
        with pytest.raises(NetworkFormatError, match=message):
            load_network(json.dumps(bad))

    @cases
    def test_cli_exits_1(self, edit, message, tmp_path, capsys):
        from stdroute.cli import main

        bad = doc()
        edit(bad)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_largest_int64_travel_time_loads(self):
        big = doc()
        set_travel_time(2**63 - 1)(big)
        net, spp = load_network(json.dumps(big))
        assert spp.time_at(1, 1, 2) == 2**63 - 1
