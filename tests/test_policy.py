import json

import numpy as np
import pytest

import oracle
from netgen import random_network
from oracle import rollout_policy
from stdroute import (
    EventCollection,
    LinkUtilitySpec,
    PolicyChoiceSet,
    PolicyExplosionError,
    RoutingPolicy,
    State,
    StateSequence,
    ValidationError,
    bundled_network_text,
    contains,
    enumerate_policies,
    enumerate_sequences,
    initial_state,
    load_network,
    optimal_policy,
    policy_expected_utility,
    policy_utilities,
    travel_time,
)

V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def time_and_departure(net, spp, a, state):
    return (float(travel_time(net, spp, a, state)), float(state.time))


UTILITIES = [LinkUtilitySpec(), LinkUtilitySpec(beta=(-1.0, -0.25), attributes=time_and_departure)]


def policy_by_junction(cs, at_v1, at_v2):
    """The unique policy taking the given links at the two junction states."""
    for policy in cs.policies:
        if policy.next_link(V1) == at_v1 and policy.next_link(V2) == at_v2:
            return policy
    raise AssertionError("policy not found")


def sequence(net, spp, s0, via, link):
    """The example sequence taking `link` at the junction in scenario branch `via`."""
    for seq in enumerate_sequences(net, spp, s0):
        if seq.states[1].ev == EventCollection((via,)) and seq.states[2].link == link:
            return seq
    raise AssertionError("sequence not found")


class TestEnumeratePolicies:
    def test_example_has_four_policies(self, cs):
        assert len(cs.policies) == 4
        junction_decisions = [
            (p.next_link(V1), p.next_link(V2)) for p in cs.policies
        ]
        assert junction_decisions == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_all_policies_start_with_the_only_departure_link(self, cs, s0):
        assert all(p.next_link(s0) == 1 for p in cs.policies)

    def test_deterministic_network_policies_are_simple_paths(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            sized = initial_state(net, spp)
            cs = enumerate_policies(net, spp, sized)
            seqs = enumerate_sequences(net, spp, sized)
            assert len(cs.policies) == len(seqs)
            policy_paths = sorted(
                oracle.policy_outcomes(net, spp, p)[0][0].path for p in cs.policies
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
        assert len(cs.policies) == 2**3

    def test_cap_guard(self, net, spp, s0):
        with pytest.raises(PolicyExplosionError, match="cap"):
            enumerate_policies(net, spp, s0, cap=3)

    def test_no_duplicate_decision_maps(self, cs):
        assert len(set(cs.policies)) == len(cs.policies)

    def test_domain_closure_and_leaf_destination(self, net, spp, cs):
        for policy in cs.policies:
            reached = set()
            for seq, _ in oracle.policy_outcomes(net, spp, policy):
                reached.update(seq.states[:-1])
                assert net.is_destination(seq.final_state.link)
            assert reached == set(policy.decision_map)


class TestPolicyExpectedUtility:
    def test_example_expected_travel_times(self, net, spp, cs, unit_utility):
        expected = [-3.5, -3.5, -3.0, -3.0]
        values = [policy_expected_utility(net, spp, p, unit_utility) for p in cs.policies]
        assert values == pytest.approx(expected, abs=1e-12)

    def test_deterministic_network_equals_path_utility(self):
        rng = np.random.default_rng(23)
        net, spp = random_network(rng, support_count=1)
        s0 = initial_state(net, spp)
        u = LinkUtilitySpec()
        cs = enumerate_policies(net, spp, s0)
        for policy in cs.policies:
            (seq, prob), = oracle.policy_outcomes(net, spp, policy)
            assert prob == 1.0
            total = -sum(
                seq.states[i + 1].time - seq.states[i].time
                for i in range(len(seq.states) - 1)
            )
            assert policy_expected_utility(net, spp, policy, u) == pytest.approx(total)

    @pytest.mark.parametrize("utility", UTILITIES, ids=["travel-time", "two-attribute"])
    def test_matches_the_leaf_walk(self, utility):
        # the reach-weighted sum over the tree's states against the leaf walk, on every policy
        rng = np.random.default_rng(41)
        policies = 0
        for _ in range(120):
            rnet, rspp = random_network(rng)
            rcs = enumerate_policies(rnet, rspp, initial_state(rnet, rspp))
            expected = [oracle.policy_expected_utility(rnet, rspp, p, utility) for p in rcs.policies]
            assert policy_utilities(rcs, utility) == pytest.approx(expected, rel=1e-12, abs=0)
            for policy, value in zip(rcs.policies, expected):
                got = policy_expected_utility(rnet, rspp, policy, utility)
                assert got == pytest.approx(value, rel=1e-12, abs=0)
            policies += len(rcs.policies)
        assert policies > 300

    def test_a_missing_decision_is_named(self, net, spp, s0, unit_utility):
        partial = RoutingPolicy.from_map(s0, {s0: 1, V1: 2})
        message = r"policy has no decision for state State\(1,1,\{2\}\)"
        with pytest.raises(ValidationError, match=message):
            policy_expected_utility(net, spp, partial, unit_utility)
        with pytest.raises(ValidationError, match=message):
            policy_utilities(PolicyChoiceSet(net, spp, s0, (partial,)), unit_utility)


class TestContains:
    def test_example_containment(self, net, spp, s0, cs):
        seq1 = sequence(net, spp, s0, via=1, link=2)
        assert contains(policy_by_junction(cs, 2, 2), seq1)
        assert contains(policy_by_junction(cs, 2, 3), seq1)
        assert not contains(policy_by_junction(cs, 3, 2), seq1)

    def test_rollout_is_contained(self, net, spp, cs):
        for policy in cs.policies:
            for r in policy.initial_state.ev:
                assert contains(policy, rollout_policy(net, spp, policy, r))

    def test_exactly_one_contained_sequence_per_scenario(self, net, spp, s0, cs):
        # fixing nature's scenario, a policy admits exactly its rollout
        all_sequences = enumerate_sequences(net, spp, s0)
        for policy in cs.policies:
            for r in policy.initial_state.ev:
                matching = [
                    seq
                    for seq in all_sequences
                    if r in seq.final_state.ev and contains(policy, seq)
                ]
                assert matching == [rollout_policy(net, spp, policy, r)]

    def test_mismatched_initial_state_rejected(self, net, spp, cs):
        seq = StateSequence((V1, State(2, 4, EventCollection((1,)))))
        with pytest.raises(ValidationError):
            contains(cs.policies[0], seq)


class TestOptimalPolicy:
    def test_example_value_and_decisions(self, net, spp, s0, unit_utility):
        policy, values = optimal_policy(net, spp, s0, unit_utility)
        assert values[s0] == pytest.approx(-3.0, abs=1e-12)
        # link 3 is strictly better in scenario 1; the scenario-2 tie breaks to link 2
        assert policy.next_link(V1) == 3
        assert policy.next_link(V2) == 2

    def test_never_beaten_by_enumeration(self, unit_utility):
        rng = np.random.default_rng(31)
        for _ in range(15):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            cs = enumerate_policies(net, spp, s0)
            best_policy, _ = optimal_policy(net, spp, s0, unit_utility)
            best = policy_expected_utility(net, spp, best_policy, unit_utility)
            for policy in cs.policies:
                value = policy_expected_utility(net, spp, policy, unit_utility)
                assert value <= best + 1e-12

    def test_deterministic_network_is_shortest_path(self, unit_utility):
        rng = np.random.default_rng(37)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            s0 = initial_state(net, spp)
            policy, values = optimal_policy(net, spp, s0, unit_utility)
            shortest = max(
                policy_expected_utility(net, spp, p, unit_utility)
                for p in enumerate_policies(net, spp, s0).policies
            )
            assert values[s0] == pytest.approx(shortest, abs=1e-12)

    def test_dominant_route_always_taken(self, unit_utility):
        from stdroute import build_two_route_network

        from stdroute.comparison import LINK_ROUTE2, TwoRouteScenario

        build = build_two_route_network(TwoRouteScenario(a=2, b=2, x=1, y=1, p=0.5))
        policy, _ = optimal_policy(
            build.network, build.support_points, build.initial_state, build.utility
        )
        junctions = [s for s in policy.decision_map if s.link == 1]
        assert junctions and all(policy.next_link(s) == LINK_ROUTE2 for s in junctions)


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
        assert seq.links == (0, 1, 2)
        assert seq.path == (1, 2)

    def test_sequence_count_guard(self, net, spp, s0):
        with pytest.raises(PolicyExplosionError):
            enumerate_sequences(net, spp, s0, cap=2)
