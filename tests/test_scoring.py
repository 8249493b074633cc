"""Scoring observation sets in index space: cached hashes, one grouping, a step table per graph."""

import copy
import dataclasses
import itertools
import json
import pickle
import re

import numpy as np
import pytest

import oracle
import stdroute.estimation
from netgen import bench_module, random_network
from stdroute import (
    EstimationError,
    EventCollection,
    HorizonError,
    Link,
    LinkUtilitySpec,
    ObservationSet,
    State,
    StateSequence,
    StdNetwork,
    StdRouteError,
    SupportPointSet,
    ValidationError,
    bundled_network_text,
    enumerate_sequences,
    fit,
    load_network,
    log_likelihood,
    sample_sequence_counts,
    solve_value_functions,
    solve_value_functions_nr,
    travel_time,
    travel_time_attributes,
)

MODELS = ("recursive", "nonrecursive")
V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def with_mid_network_starts(sequences):
    """The sequences, followed by each one's trip from its second state where that is a trip."""
    return list(sequences) + [StateSequence(s.states[1:]) for s in sequences if len(s.states) > 2]


class TestHashContract:
    def test_equal_objects_hash_equal(self, net, spp, s0):
        seq = max(enumerate_sequences(net, spp, s0), key=lambda s: len(s.states))
        state = seq.states[1]
        rebuilt = StateSequence(
            tuple(State(s.link, s.time, EventCollection(s.ev.members[::-1])) for s in seq.states)
        )
        for obj, equal in (
            (state.ev, EventCollection(state.ev.members[::-1])),
            (state, State(state.link, state.time, EventCollection(state.ev.members))),
            (seq, rebuilt),
        ):
            copies = [
                equal,
                pickle.loads(pickle.dumps(obj)),
                copy.copy(obj),
                copy.deepcopy(obj),
                dataclasses.replace(obj),
            ]
            for other in copies:
                assert other == obj
                assert hash(other) == hash(obj)

    def test_replace_hashes_the_new_fields(self, s0):
        moved = dataclasses.replace(s0, time=s0.time + 1)
        assert moved != s0
        assert hash(moved) == hash(State(s0.link, s0.time + 1, s0.ev))


class TestAgainstTheScalarLoop:
    @pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
    def test_random_networks_bitwise(self, mu):
        rng = np.random.default_rng(4242)
        several_initial_states = 0
        for _ in range(100):
            net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
            vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,)))
            counts = sample_sequence_counts(vf, 30, seed=rng)
            sampled = [seq for seq, count in counts.items() for _ in range(count)]
            observations = with_mid_network_starts(sampled)
            order = rng.permutation(len(observations))
            obs = ObservationSet(tuple(observations[i] for i in order))
            several_initial_states += len({s.initial_state for s in obs.observations}) > 1
            beta = [-float(rng.uniform(0.5, 2.0))]
            for model in MODELS:
                expected = oracle.log_likelihood(model, net, spp, obs, beta, mu)
                # the second call reads the step tables cached by the first
                assert log_likelihood(model, net, spp, obs, beta, mu) == expected
                assert log_likelihood(model, net, spp, obs, beta, mu) == expected
        assert several_initial_states > 50

    @pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
    def test_long_trips_and_their_scores_bitwise(self, mu):
        # every trip across a 5 x 5 grid has 8 steps: 16 likelihood terms, 8 score terms
        net, spp = load_network(bench_module("gen").grid_network([7, 0], 5, 4, 4))
        vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,)))
        obs = ObservationSet.from_counts(sample_sequence_counts(vf, 200, seed=7))
        assert {len(seq.states) for seq in obs.observations} == {9}
        beta = [-0.7]
        for model, solve in zip(MODELS, (solve_value_functions, solve_value_functions_nr)):
            total, scores, _ = stdroute.estimation._score(
                model, net, spp, obs, beta, mu, travel_time_attributes, scores=True
            )
            assert total == oracle.log_likelihood(model, net, spp, obs, beta, mu)
            solved = solve(net, spp, LinkUtilitySpec(beta=tuple(beta), mu=mu))
            for seq, row in zip(obs._groups.sequences, scores.tolist()):
                assert row == oracle.sequence_score(solved, seq)


def mutated(rng, seq, net, spp):
    """The sequence with one change that usually makes it infeasible, and the change's name."""
    states = list(seq.states)
    k = int(rng.integers(len(states)))
    state = states[k]
    kind = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
    if kind == "time":
        states[k] = State(state.link, max(0, state.time + int(rng.choice([-1, 1]))), state.ev)
    elif kind == "knowledge":
        subsets = [
            members
            for size in range(1, spp.size + 1)
            for members in itertools.combinations(range(1, spp.size + 1), size)
            if members != state.ev.members
        ]
        members = subsets[int(rng.integers(len(subsets)))]
        states[k] = State(state.link, state.time, EventCollection(members))
    elif kind == "link":
        k = max(k, 1)
        previous = states[k - 1].link
        others = [l.id for l in net.links if l.id not in net.outgoing(previous)] + [99]
        states[k] = State(int(rng.choice(others)), states[k].time, states[k].ev)
    elif kind == "truncate":
        states = states[: max(1, k)]
    elif kind == "short":
        states = states[: int(rng.integers(2))]
    else:  # a non-partition initial set: one of the scenarios it should hold, or all of them
        first = states[0]
        ev = first.ev.members
        members = ev[:1] if len(ev) > 1 else tuple(range(1, spp.size + 1))
        states[0] = State(first.link, first.time, EventCollection(members))
    return StateSequence(tuple(states)), kind


MUTATIONS = ("time", "knowledge", "link", "truncate", "short", "initial")


def validation_outcome(validate):
    try:
        validate()
    except StdRouteError as exc:
        return type(exc), str(exc)
    return None


class TestValidationAgainstTheScalarLoop:
    def test_mutated_random_observation_sets(self):
        rng = np.random.default_rng(808)
        outcomes = {kind: set() for kind in MUTATIONS}
        for _ in range(200):
            support = int(rng.integers(2, 4))
            net, spp = random_network(rng, max_links=8, max_horizon=3, support_count=support)
            vf = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0,)))
            counts = sample_sequence_counts(vf, 20, seed=rng)
            observations = with_mid_network_starts(s for s, c in counts.items() for _ in range(c))
            j = int(rng.integers(len(observations)))
            observations[j], kind = mutated(rng, observations[j], net, spp)
            obs = ObservationSet(tuple(observations))
            expected = validation_outcome(lambda: oracle.scalar_validate(obs, net, spp))
            assert validation_outcome(lambda: obs.validate(net, spp)) == expected
            outcomes[kind].add(expected if expected is None else expected[0])
        # every kind of change is met, and each is rejected at least once
        assert all(ValidationError in kinds for kinds in outcomes.values()), outcomes


def nan_in_scenario_2(net, spp, a, state):
    """Travel time, except NaN at states that know scenario 2 was drawn."""
    return (float("nan") if state.ev.members == (2,) else float(travel_time(net, spp, a, state)),)


class TestErrors:
    @pytest.mark.parametrize("model", MODELS)
    def test_non_finite_term_names_the_first_offending_observation(self, net, spp, s0, model):
        full = enumerate_sequences(net, spp, s0)
        via = {seq.states[1]: StateSequence(seq.states[1:]) for seq in full}
        obs = ObservationSet((via[V1], via[V1], via[V2], full[0], via[V2]))
        with pytest.raises(EstimationError, match="observation 2 has zero or non-finite"):
            log_likelihood(model, net, spp, obs, [-1.0], attributes=nan_in_scenario_2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("attributes", [nan_in_scenario_2, lambda *args: (float("nan"),)])
    def test_sampling_refuses_choice_probabilities_that_are_not_finite(self, net, spp, attributes):
        vf = solve_value_functions(net, spp, LinkUtilitySpec(attributes=attributes))
        with pytest.raises(ValidationError, match="a choice probability of the solve is not finite"):
            sample_sequence_counts(vf, 5, seed=1)

    @pytest.mark.parametrize("model", MODELS)
    def test_sequence_leaving_the_graph_reports_the_validation_error(self, net, spp, s0, model):
        bad = StateSequence(
            (s0, State(1, 3, EventCollection((1,))), State(2, 6, EventCollection((1,))))
        )
        with pytest.raises(ValidationError) as expected:
            bad.validate(net, spp)
        obs = ObservationSet((enumerate_sequences(net, spp, s0)[0], bad))
        with pytest.raises(ValidationError) as got:
            log_likelihood(model, net, spp, obs, [-1.0])
        assert str(got.value) == str(expected.value)

    def test_validation_checks_each_distinct_sequence_once(self, net, spp, s0, monkeypatch):
        bad = StateSequence(
            (s0, State(1, 3, EventCollection((1,))), State(2, 6, EventCollection((1,))))
        )
        with pytest.raises(ValidationError) as expected:
            bad.validate(net, spp)
        full = enumerate_sequences(net, spp, s0)
        observations = (full[0], full[1], full[0], bad, full[1], bad, full[2])
        checked = []
        original = StateSequence.validate

        def counted(self, *args):
            checked.append(self)
            return original(self, *args)

        rows = []
        original_table = stdroute.estimation.step_table

        def counted_table(graph, sequences):
            rows.extend(sequences)
            return original_table(graph, sequences)

        monkeypatch.setattr(StateSequence, "validate", counted)
        monkeypatch.setattr(stdroute.estimation, "step_table", counted_table)
        with pytest.raises(ValidationError, match=re.escape(f"observation 3: {expected.value}")):
            ObservationSet(observations).validate(net, spp)
        # the step table words its rejection, then the scalar loop names the first failure
        assert rows == [full[0], full[1], bad, full[2]]
        assert checked == [bad, full[0], full[1], bad]

        checked.clear()
        rows.clear()
        document = ObservationSet(observations[:3] * 4 + (full[2],)).to_json()
        obs = ObservationSet.from_json(document, net, spp)
        fit("recursive", net, spp, obs, beta0=[-0.5])
        # a valid set is checked by its step table alone, which fit finds built
        assert checked == []
        assert rows == [full[0], full[1], full[2]]

    def test_a_feasible_set_on_a_graph_past_the_horizon_raises_the_graphs_error(self):
        # o -> m -> n -> z with a cycle m -> n -> m: the trip is feasible, its graph infinite
        net = StdNetwork(
            nodes=("o", "m", "n", "z"),
            links=tuple(
                Link(i, tail, head)
                for i, (tail, head) in enumerate(("oo", "om", "mn", "nm", "nz"))
            ),
            origin_link=0,
            destination_link=4,
            horizon=1,
        )
        spp = SupportPointSet((1, 2, 3, 4), np.ones((1, 1, 4), dtype=np.int64), np.array([1.0]))
        ev = EventCollection((1,))
        trip = StateSequence(tuple(State(link, t, ev) for t, link in enumerate((0, 1, 2, 4))))
        trip.validate(net, spp)
        with pytest.raises(HorizonError, match="^links 2 -> 3 -> 2 form a cycle reachable from State"):
            ObservationSet.from_json(ObservationSet((trip,)).to_json(), net, spp)

    @pytest.mark.parametrize("model", MODELS)
    def test_empty_sequence_is_a_validation_error(self, net, spp, s0, model):
        full = enumerate_sequences(net, spp, s0)
        message = "^observation 1: a state sequence needs at least a departure and an arrival"
        with pytest.raises(ValidationError, match=message):
            ObservationSet((full[0], StateSequence(()), full[1])).validate(net, spp)
        with pytest.raises(ValidationError, match=message):
            fit(model, net, spp, ObservationSet((full[0], StateSequence(()))), beta0=[-0.5])

    @pytest.mark.parametrize("model", MODELS)
    def test_an_empty_sequence_scored_unvalidated_is_named(self, net, spp, s0, model):
        full = enumerate_sequences(net, spp, s0)
        for observations, i in (((StateSequence(()),), 0), ((full[0], StateSequence(())), 1)):
            with pytest.raises(EstimationError, match=f"^observation {i} has zero or non-finite"):
                log_likelihood(model, net, spp, ObservationSet(observations), [-1.0])


class TestCaching:
    @pytest.mark.parametrize("model", MODELS)
    def test_one_set_on_two_networks(self, net, spp, s0, model):
        # a third parallel link keeps every sequence feasible but renumbers the graph
        document = json.loads(bundled_network_text())
        document["links"].append({"id": 4, "from": "b", "to": "c"})
        for point, times in zip(document["support_points"], ([1, 4], [1, 3])):
            point["travel_times"]["4"] = times
        other_net, other_spp = load_network(json.dumps(document))
        sequences = with_mid_network_starts(enumerate_sequences(net, spp, s0))
        obs = ObservationSet(tuple(sequences))
        first = log_likelihood(model, net, spp, obs, [-1.2])
        other = log_likelihood(model, other_net, other_spp, obs, [-1.2])
        again = log_likelihood(model, net, spp, obs, [-1.2])
        fresh = ObservationSet(obs.observations)
        assert first == again == log_likelihood(model, net, spp, fresh, [-1.2])
        fresh = ObservationSet(obs.observations)
        assert other == log_likelihood(model, other_net, other_spp, fresh, [-1.2])
        assert other != first

    def test_a_scored_set_pickles_without_its_caches(self, net, spp, s0):
        # the cached graph holds this extractor, which cannot be pickled
        def attributes(cnet, cspp, a, state):
            return (float(travel_time(cnet, cspp, a, state)),)

        obs = ObservationSet(tuple(enumerate_sequences(net, spp, s0)), ("a", "b", "c", "d"))
        value = log_likelihood("recursive", net, spp, obs, [-1.0], attributes=attributes)
        restored = pickle.loads(pickle.dumps(obs))
        assert restored == obs and restored.traveler_ids == obs.traveler_ids
        again = log_likelihood("recursive", net, spp, restored, [-1.0], attributes=attributes)
        assert again == value

    def test_grouped_returns_a_fresh_dict(self, net, spp, s0):
        seqs = enumerate_sequences(net, spp, s0)
        obs = ObservationSet((seqs[1], seqs[0], seqs[1]))
        grouped = obs.grouped()
        assert grouped == {seqs[1]: 2, seqs[0]: 1} and list(grouped) == [seqs[1], seqs[0]]
        grouped.clear()
        assert obs.grouped() == {seqs[1]: 2, seqs[0]: 1}

    def test_fit_encodes_once_per_graph_and_hashes_no_observation_after_the_first_call(
        self, net, spp, s0, vf, monkeypatch
    ):
        sampled = sample_sequence_counts(vf, 500, seed=3)
        trips = ObservationSet.from_counts(sampled).observations
        obs = ObservationSet(tuple(with_mid_network_starts(trips)))
        encoded = []
        original_table = stdroute.estimation.step_table

        def counted_table(graph, sequences):
            encoded.append(graph)
            return original_table(graph, sequences)

        hashes = [0]
        original_hash = StateSequence.__hash__

        def counted_hash(self):
            hashes[0] += 1
            return original_hash(self)

        per_call = []
        original_score = stdroute.estimation._score

        def counted_score(*args, **kwargs):
            before = hashes[0]
            value = original_score(*args, **kwargs)
            per_call.append(hashes[0] - before)
            return value

        monkeypatch.setattr(stdroute.estimation, "step_table", counted_table)
        monkeypatch.setattr(StateSequence, "__hash__", counted_hash)
        monkeypatch.setattr(stdroute.estimation, "_score", counted_score)
        fit("recursive", net, spp, obs, beta0=[-0.5])
        # fit groups the observations once, when it validates them, so no
        # scoring call hashes a sequence
        assert hashes[0] >= len(obs)
        assert len(per_call) > 3
        assert per_call == [0] * len(per_call)
        initial_states = {seq.initial_state for seq in obs.observations}
        assert len(initial_states) == 3
        assert sorted(g.initial.sort_key for g in encoded) == sorted(
            s.sort_key for s in initial_states
        )
