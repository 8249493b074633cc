import json
import tracemalloc

import numpy as np
import pytest

import oracle
from netgen import chain_network, random_network
from oracle import policy_maps, rollout_policy, row_policy
from stdroute import (
    EventCollection,
    LinkUtilitySpec,
    PolicyExplosionError,
    State,
    StateSequence,
    ValidationError,
    bundled_network_text,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    initial_state,
    load_network,
    optimal_policy,
    policy_utilities,
    sequence_likelihood,
    solve_value_functions,
    solve_value_functions_nr,
    travel_time,
)
from stdroute.policy import _walk_tree, sequence_table
from stdroute.recursive import step_table

V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def time_and_departure(net, spp, a, state):
    return (float(travel_time(net, spp, a, state)), float(state.time))


UTILITIES = [LinkUtilitySpec(), LinkUtilitySpec(beta=(-1.0, -0.25), attributes=time_and_departure)]


def row_by_junction(cs, at_v1, at_v2):
    """The row of the unique policy taking the given links at the two junction states."""
    for row, policy in zip(cs.rows, policy_maps(cs)):
        if policy[V1] == at_v1 and policy[V2] == at_v2:
            return row
    raise AssertionError("policy not found")


def row_contains(graph, row, seq):
    """Whether the sequence's state-actions are all in the row."""
    return set(step_table(graph, [seq]).actions.tolist()) <= set(row)


def sequence(net, spp, s0, via, link):
    """The example sequence taking `link` at the junction in scenario branch `via`."""
    for seq in enumerate_sequences(net, spp, s0):
        if seq.states[1].ev == EventCollection((via,)) and seq.states[2].link == link:
            return seq
    raise AssertionError("sequence not found")


class TestEnumeratePolicies:
    def test_example_has_four_policies(self, cs):
        assert len(cs.rows) == 4
        junction_decisions = [(p[V1], p[V2]) for p in policy_maps(cs)]
        assert junction_decisions == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_all_policies_start_with_the_only_departure_link(self, cs, s0):
        assert all(p[s0] == 1 for p in policy_maps(cs))

    def test_deterministic_network_policies_are_simple_paths(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            sized = initial_state(net, spp)
            cs = enumerate_policies(net, spp, sized)
            seqs = enumerate_sequences(net, spp, sized)
            assert len(cs.rows) == len(seqs)
            policy_paths = sorted(
                oracle.policy_outcomes(net, spp, sized, p)[0][0].path for p in policy_maps(cs)
            )
            assert policy_paths == sorted(q.path for q in seqs)

    def test_three_scenario_variant_has_eight_policies(self):
        doc = json.loads(bundled_network_text())
        doc["support_points"] = [
            {"probability": 0.25, "travel_times": {"1": [1, 1], "2": [2, 3], "3": [1, 2]}},
            {"probability": 0.25, "travel_times": {"1": [1, 2], "2": [2, 2], "3": [1, 2]}},
            {"probability": 0.5, "travel_times": {"1": [1, 3], "2": [2, 2], "3": [1, 2]}},
        ]
        net, spp = load_network(json.dumps(doc))
        cs = enumerate_policies(net, spp, initial_state(net, spp))
        # two choices at each of the three junction states
        assert len(cs.rows) == 2**3

    def test_rows_match_the_merged_dicts_in_order(self):
        # each row read as a policy against the dict-merge enumeration, and walked as its tree
        rng = np.random.default_rng(7)
        policies = 0
        for _ in range(200):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            cs = enumerate_policies(net, spp, s0)
            assert policy_maps(cs) == oracle.merged_policies(net, spp, s0)
            graph = cs.graph
            for row, policy in zip(cs.rows, policy_maps(cs)):
                walked = _walk_tree(graph, lambda i: graph.action(i, policy[graph.states[i]]))
                assert row == tuple(walked.values())
            policies += len(cs)
        assert policies > 900

    def test_cap_guard(self, net, spp, s0):
        with pytest.raises(PolicyExplosionError, match="cap"):
            enumerate_policies(net, spp, s0, cap=3)

    def test_no_duplicate_decision_maps(self, cs):
        assert len(set(cs.rows)) == len(cs.rows)
        assert len({frozenset(p.items()) for p in policy_maps(cs)}) == len(cs.rows)

    def test_domain_closure_and_leaf_destination(self, net, spp, s0, cs):
        for policy in policy_maps(cs):
            reached = set()
            for seq, _ in oracle.policy_outcomes(net, spp, s0, policy):
                reached.update(seq.states[:-1])
                assert net.is_destination(seq.final_state.link)
            assert reached == set(policy)


class TestPolicyExpectedUtility:
    def test_example_expected_travel_times(self, net, spp, cs, unit_utility):
        expected = [-3.5, -3.5, -3.0, -3.0]
        assert policy_utilities(cs, unit_utility).tolist() == pytest.approx(expected, abs=1e-12)

    def test_deterministic_network_equals_path_utility(self):
        rng = np.random.default_rng(23)
        net, spp = random_network(rng, support_count=1)
        s0 = initial_state(net, spp)
        u = LinkUtilitySpec()
        cs = enumerate_policies(net, spp, s0)
        for policy, value in zip(policy_maps(cs), policy_utilities(cs, u)):
            (seq, prob), = oracle.policy_outcomes(net, spp, s0, policy)
            assert prob == 1.0
            total = -sum(
                seq.states[i + 1].time - seq.states[i].time
                for i in range(len(seq.states) - 1)
            )
            assert value == pytest.approx(total)

    @pytest.mark.parametrize("utility", UTILITIES, ids=["travel-time", "two-attribute"])
    def test_matches_the_leaf_walk(self, utility):
        # the reach-weighted sum over the tree's states against the leaf walk, on every policy
        rng = np.random.default_rng(41)
        policies = 0
        for _ in range(120):
            rnet, rspp = random_network(rng)
            rcs = enumerate_policies(rnet, rspp, initial_state(rnet, rspp))
            expected = [
                oracle.policy_expected_utility(rnet, rspp, rcs.initial_state, p, utility)
                for p in policy_maps(rcs)
            ]
            assert policy_utilities(rcs, utility) == pytest.approx(expected, rel=1e-12, abs=0)
            policies += len(rcs)
        assert policies > 300


class TestContains:
    """A row contains a sequence when the sequence's state-actions are all in it."""

    def test_example_containment(self, net, spp, s0, cs):
        seq1 = sequence(net, spp, s0, via=1, link=2)
        assert row_contains(cs.graph, row_by_junction(cs, 2, 2), seq1)
        assert row_contains(cs.graph, row_by_junction(cs, 2, 3), seq1)
        assert not row_contains(cs.graph, row_by_junction(cs, 3, 2), seq1)

    def test_rollout_is_contained(self, net, spp, s0, cs):
        for row, policy in zip(cs.rows, policy_maps(cs)):
            for r in s0.ev:
                assert row_contains(cs.graph, row, rollout_policy(net, spp, s0, policy, r))

    def test_exactly_one_contained_sequence_per_scenario(self, net, spp, s0, cs):
        # fixing nature's scenario, a policy admits exactly its rollout
        all_sequences = enumerate_sequences(net, spp, s0)
        for row, policy in zip(cs.rows, policy_maps(cs)):
            for r in s0.ev:
                matching = [
                    seq
                    for seq in all_sequences
                    if r in seq.final_state.ev and row_contains(cs.graph, row, seq)
                ]
                assert matching == [rollout_policy(net, spp, s0, policy, r)]

    def test_mismatched_initial_state_rejected(self, cs):
        seq = StateSequence((V1, State(2, 4, EventCollection((1,)))))
        with pytest.raises(ValidationError, match="sequence starts at"):
            row_contains(cs.graph, cs.rows[0], seq)

    def test_agrees_with_the_decision_dicts(self):
        # every (row, sequence) pair of random networks against the dict-based reference
        rng = np.random.default_rng(43)
        pairs = contained = 0
        for _ in range(150):
            net, spp = random_network(rng)
            cs = enumerate_policies(net, spp, initial_state(net, spp))
            table = sequence_table(cs.graph)
            ends = [*table.steps.starts.tolist()[1:], len(table.steps.actions)]
            actions = [
                set(table.steps.actions[lo:hi].tolist())
                for lo, hi in zip(table.steps.starts.tolist(), ends)
            ]
            for row, policy in zip(cs.rows, policy_maps(cs)):
                for seq, taken in zip(table.sequences, actions):
                    inside = taken <= set(row)
                    assert inside == oracle.contains(policy, seq)
                    pairs += 1
                    contained += inside
        assert contained > 500 and pairs - contained > 500


class TestOptimalPolicy:
    def test_example_value_and_decisions(self, net, spp, s0, cs, unit_utility):
        row, values = optimal_policy(net, spp, s0, unit_utility)
        assert values[s0] == pytest.approx(-3.0, abs=1e-12)
        # link 3 is strictly better in scenario 1; the scenario-2 tie breaks to link 2
        assert row_policy(values.graph, row) == {s0: 1, V1: 3, V2: 2}
        assert row == row_by_junction(cs, 3, 2)

    def test_never_beaten_by_enumeration(self, unit_utility):
        # the optimal row is a row of the choice set, and one of the best
        rng = np.random.default_rng(31)
        for _ in range(15):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            cs = enumerate_policies(net, spp, s0)
            best_row, _ = optimal_policy(net, spp, s0, unit_utility)
            assert best_row in cs.rows
            values = policy_utilities(cs, unit_utility)
            assert abs(values[cs.rows.index(best_row)] - values.max()) <= 1e-12

    def test_deterministic_network_is_shortest_path(self, unit_utility):
        rng = np.random.default_rng(37)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            s0 = initial_state(net, spp)
            _, values = optimal_policy(net, spp, s0, unit_utility)
            shortest = policy_utilities(enumerate_policies(net, spp, s0), unit_utility).max()
            assert values[s0] == pytest.approx(shortest, abs=1e-12)

    def test_dominant_route_always_taken(self, unit_utility):
        from stdroute import build_two_route_network

        from stdroute.comparison import LINK_ROUTE2, TwoRouteScenario

        build = build_two_route_network(TwoRouteScenario(a=2, b=2, x=1, y=1, p=0.5))
        row, table = optimal_policy(
            build.network, build.support_points, build.initial_state, build.utility
        )
        policy = row_policy(table.graph, row)
        junctions = [s for s in policy if s.link == 1]
        assert junctions and all(policy[s] == LINK_ROUTE2 for s in junctions)


class TestDeepNetwork:
    """A chain far longer than Python's recursion limit: every walk of its graph is a loop."""

    N = 2000

    @pytest.fixture(scope="class")
    def chain(self):
        net, spp = chain_network(self.N)
        return net, spp, initial_state(net, spp)

    def test_the_one_policy_is_the_optimal_row(self, chain, unit_utility):
        net, spp, s0 = chain
        cs = enumerate_policies(net, spp, s0)
        row, _ = optimal_policy(net, spp, s0, unit_utility)
        assert len(cs.rows) == 1 and len(cs.rows[0]) == self.N
        assert cs.rows == (row,)

    def test_enumeration_drops_rows_once_read(self, chain):
        net, spp, s0 = chain
        enumerate_policies(net, spp, s0)  # the graph and its list views are cached: the walk is measured
        tracemalloc.start()
        try:
            enumerate_policies(net, spp, s0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every state's row kept to the end would hold N (N + 1) / 2 state-actions, about 16 MB
        assert peak < 2_000_000

    def test_the_one_sequence_is_certain_under_both_models(self, chain, unit_utility):
        net, spp, s0 = chain
        (seq,) = sequence_table(compile_graph(net, spp, s0)).sequences
        assert len(seq.states) == self.N + 1 and seq.path == tuple(range(1, self.N + 1))
        for solve in (solve_value_functions, solve_value_functions_nr):
            assert sequence_likelihood(solve(net, spp, unit_utility), seq) == 1.0


class TestStateSequence:
    def test_example_sequence_validates(self, net, spp, s0):
        for seq in enumerate_sequences(net, spp, s0):
            seq.validate(net, spp)

    def test_wrong_arrival_time_rejected(self, net, spp, s0):
        seq = StateSequence((s0, State(1, 2, EventCollection((1,))), State(2, 5, EventCollection((1,)))))
        with pytest.raises(ValidationError, match="arrival time"):
            seq.validate(net, spp)

    def test_non_partition_knowledge_rejected(self, net, spp, s0):
        seq = StateSequence((s0, State(1, 1, EventCollection((1, 2))), State(2, 4, EventCollection((1,)))))
        with pytest.raises(ValidationError, match="partition"):
            seq.validate(net, spp)

    def test_must_end_at_destination(self, net, spp, s0):
        seq = StateSequence((s0, State(1, 1, EventCollection((1,)))))
        with pytest.raises(ValidationError, match="destination"):
            seq.validate(net, spp)

    def test_path_drops_the_dummy_link(self, net, spp, s0):
        seq = sequence(net, spp, s0, via=1, link=2)
        assert tuple(s.link for s in seq.states) == (0, 1, 2)
        assert seq.path == (1, 2)

    def test_sequence_count_guard(self, net, spp, s0):
        with pytest.raises(PolicyExplosionError):
            enumerate_sequences(net, spp, s0, cap=2)
