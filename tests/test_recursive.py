import math

import numpy as np
import pytest

from netgen import random_network
from oracle import expected_downstream, link_utility
from stdroute import (
    EventCollection,
    HorizonError,
    LinkUtilitySpec,
    Link,
    State,
    StdNetwork,
    SupportPointSet,
    ValidationError,
    choice_distribution,
    decision_graph,
    enumerate_policies,
    enumerate_sequences,
    initial_state,
    link_choice_prob,
    optimal_policy,
    path_probabilities,
    policy_expected_utility,
    sample_sequence_counts,
    sequence_likelihood,
    sequence_likelihood_value_form,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
    travel_time,
)

V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def by_branch(probs):
    """Example sequence probabilities keyed by (scenario branch, junction link)."""
    return {
        (seq.states[1].ev.members[0], seq.states[2].link): p for seq, p in probs.items()
    }


class TestValueFunctions:
    def test_junction_value_is_log_sum(self, vf):
        assert vf[V1] == pytest.approx(math.log(math.exp(-3) + math.exp(-2)), abs=1e-12)

    def test_departure_value_is_utility_plus_expected_downstream(self, vf, s0):
        assert vf[s0] == pytest.approx(-1 + 0.5 * vf[V1] + 0.5 * vf[V2], abs=1e-12)

    def test_destination_states_worth_zero(self, vf, net):
        terminal = [s for s in vf.values if net.is_destination(s.link)]
        assert terminal and all(vf[s] == 0.0 for s in terminal)

    def test_fixed_point_residual(self, net, spp, unit_utility):
        rng = np.random.default_rng(43)
        cases = [(net, spp)] + [random_network(rng) for _ in range(10)]
        for cnet, cspp in cases:
            s0 = initial_state(cnet, cspp)
            vf = solve_value_functions(cnet, cspp, unit_utility, initial=s0)
            mu = unit_utility.mu
            for state in vf.values:
                if cnet.is_destination(state.link):
                    continue
                exponents = [
                    (link_utility(unit_utility, cnet, cspp, a, state) + expected_downstream(vf, a, state))
                    / mu
                    for a in cnet.outgoing(state.link)
                ]
                shift = max(exponents)
                rhs = mu * (shift + math.log(sum(math.exp(e - shift) for e in exponents)))
                assert vf[state] == pytest.approx(rhs, abs=1e-10)

    def test_exponential_form_identity(self, net, spp, unit_utility, vf):
        # exp(V/mu) equals the plain sum of exponentiated choice terms
        mu = unit_utility.mu
        for state in vf.values:
            if net.is_destination(state.link):
                continue
            total = sum(
                math.exp(
                    (link_utility(unit_utility, net, spp, a, state) + expected_downstream(vf, a, state))
                    / mu
                )
                for a in net.outgoing(state.link)
            )
            assert math.exp(vf[state] / mu) == pytest.approx(total, rel=1e-12)

    def test_single_choice_everywhere(self):
        net = StdNetwork(
            nodes=("o", "m", "z"),
            links=(Link(0, "o", "o"), Link(1, "o", "m"), Link(2, "m", "z")),
            origin_link=0,
            destination_link=2,
            horizon=2,
        )
        spp = SupportPointSet(
            link_ids=(1, 2),
            travel_times=np.array([[[1, 1], [1, 3]], [[1, 1], [1, 1]]]),
            probabilities=np.array([0.5, 0.5]),
        )
        s0 = initial_state(net, spp)
        u = LinkUtilitySpec()
        vf = solve_value_functions(net, spp, u, initial=s0)
        cs = enumerate_policies(net, spp, s0)
        # with one policy the value equals its expected utility, and all choices are sure
        assert vf[s0] == pytest.approx(
            policy_expected_utility(net, spp, cs.policies[0], u), abs=1e-12
        )
        for state in vf.values:
            if not net.is_destination(state.link):
                assert choice_distribution(vf, state) == {
                    net.outgoing(state.link)[0]: 1.0
                }

    def test_small_scale_approaches_optimal_values(self, net, spp, unit_utility, s0):
        rng = np.random.default_rng(47)
        cases = [(net, spp)] + [random_network(rng) for _ in range(8)]
        for cnet, cspp in cases:
            c0 = initial_state(cnet, cspp)
            mu = 1e-4
            vf = solve_value_functions(cnet, cspp, unit_utility.with_mu(mu), initial=c0)
            _, opt = optimal_policy(cnet, cspp, c0, unit_utility)
            graph = decision_graph(cnet, cspp, c0)
            max_choices = max(
                (len(cnet.outgoing(s.link)) for s in graph.decision_states()), default=1
            )
            bound = mu * math.log(max(max_choices, 2)) * len(graph.states)
            for state in vf.values:
                assert vf[state] >= opt[state] - 1e-12
                assert vf[state] <= opt[state] + bound + 1e-12
            # the argmax action agrees with the optimal policy wherever it is unique
            for state in graph.decision_states():
                dist = choice_distribution(vf, state)
                top = max(dist.values())
                argmax = [a for a, p in dist.items() if p == top]
                optimal_actions = [
                    a
                    for a in cnet.outgoing(state.link)
                    if link_utility(unit_utility, cnet, cspp, a, state)
                    + sum(p * opt[nxt] for nxt, p in graph.choices[state][a])
                    >= opt[state] - 1e-9
                ]
                assert set(argmax) <= set(optimal_actions)


class TestChoiceProbabilities:
    def test_junction_scenario_one(self, vf):
        assert link_choice_prob(vf, V1, 2) == pytest.approx(1 / (1 + math.e), abs=1e-12)
        assert link_choice_prob(vf, V1, 3) == pytest.approx(1 / (math.exp(-1) + 1), abs=1e-12)

    def test_junction_scenario_two(self, vf):
        assert link_choice_prob(vf, V2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_departure_is_sure(self, vf, s0):
        assert link_choice_prob(vf, s0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_distributions_normalize(self, unit_utility):
        rng = np.random.default_rng(53)
        for _ in range(10):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            vf = solve_value_functions(net, spp, unit_utility, initial=s0)
            graph = decision_graph(net, spp, s0)
            for state in graph.decision_states():
                assert sum(choice_distribution(vf, state).values()) == pytest.approx(
                    1.0, abs=1e-12
                )


class TestSequenceLikelihood:
    def test_example_values(self, vf):
        probs = by_branch(sequence_probabilities(vf))
        assert probs[(1, 2)] == pytest.approx(1 / (2 * (1 + math.e)), abs=1e-12)
        assert probs[(2, 2)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(1, 3)] == pytest.approx(1 / (2 * (math.exp(-1) + 1)), abs=1e-12)
        assert probs[(2, 3)] == pytest.approx(0.25, abs=1e-12)

    def test_total_probability(self, vf, unit_utility):
        assert sum(sequence_probabilities(vf).values()) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(59)
        for _ in range(10):
            net, spp = random_network(rng)
            nvf = solve_value_functions(net, spp, unit_utility)
            assert sum(sequence_probabilities(nvf).values()) == pytest.approx(1.0, abs=1e-10)

    def test_value_form_agrees_with_product_form(self, net, spp, vf, unit_utility):
        rng = np.random.default_rng(61)
        cases = [(net, spp, vf)]
        for _ in range(6):
            rnet, rspp = random_network(rng)
            cases.append((rnet, rspp, solve_value_functions(rnet, rspp, unit_utility)))
        for cnet, cspp, cvf in cases:
            for seq in enumerate_sequences(cnet, cspp, cvf.initial):
                direct = sequence_likelihood(cvf, seq)
                via_values = sequence_likelihood_value_form(cvf, seq)
                assert via_values == pytest.approx(direct, rel=1e-12)
                assert math.exp(sequence_log_likelihood(cvf, seq)) == pytest.approx(
                    direct, rel=1e-12
                )

    def test_value_form_rejects_a_max_table(self, net, spp, s0, unit_utility):
        # the max table is the zero-scale limit; at the junction in {2} both
        # links take 2 periods and the tie goes to link 2
        _, table = optimal_policy(net, spp, s0, unit_utility)
        for seq in enumerate_sequences(net, spp, s0):
            if (seq.states[1], seq.states[2].link) in ((V1, 2), (V2, 3)):
                assert sequence_likelihood(table, seq) == 0.0
                with pytest.raises(ValidationError, match="max table"):
                    sequence_likelihood_value_form(table, seq)

    def test_invalid_sequence_rejected(self, vf, s0):
        from stdroute import StateSequence, ValidationError

        bad = StateSequence((s0, State(1, 3, EventCollection((1,))), State(2, 6, EventCollection((1,)))))
        with pytest.raises(ValidationError):
            sequence_likelihood(vf, bad)

    def test_translation_by_a_constant(self, net, spp, s0, vf):
        # add a constant c to every link utility via a second attribute
        c = 0.7

        def shifted_attributes(cnet, cspp, a, state):
            return (float(travel_time(cnet, cspp, a, state)), 1.0)

        shifted = LinkUtilitySpec(beta=(-1.0, c), attributes=shifted_attributes)
        vf_shifted = solve_value_functions(net, spp, shifted, initial=s0)
        # every trip here has exactly two links, so the departure value moves by 2c
        assert vf_shifted[s0] == pytest.approx(vf[s0] + 2 * c, abs=1e-12)
        for state in (V1, V2, s0):
            base = choice_distribution(vf, state)
            moved = choice_distribution(vf_shifted, state)
            for a, p in base.items():
                assert moved[a] == pytest.approx(p, abs=1e-12)


class TestPathProbabilities:
    def test_example_paths(self, vf):
        paths = path_probabilities(vf)
        rec_seq = by_branch(sequence_probabilities(vf))
        assert paths[(1, 2)] == pytest.approx(rec_seq[(1, 2)] + rec_seq[(2, 2)], abs=1e-14)
        assert paths[(1, 3)] == pytest.approx(rec_seq[(1, 3)] + rec_seq[(2, 3)], abs=1e-14)
        assert paths[(1, 2)] == pytest.approx(0.3845, abs=5e-5)
        assert paths[(1, 3)] == pytest.approx(0.6155, abs=5e-5)

    def test_deterministic_network_matches_policy_logit(self, unit_utility):
        rng = np.random.default_rng(67)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            s0 = initial_state(net, spp)
            nvf = solve_value_functions(net, spp, unit_utility, initial=s0)
            rec = path_probabilities(nvf)
            nr = path_probabilities(solve_value_functions_nr(net, spp, unit_utility, initial=s0))
            assert set(rec) == set(nr)
            for path in rec:
                assert rec[path] == pytest.approx(nr[path], abs=1e-10)


def one_draw(vf, seed):
    """One sampled trajectory."""
    (seq,) = sample_sequence_counts(vf, 1, seed)
    return seq


class TestSampling:
    def test_support_and_determinism(self, vf, net, spp, s0):
        feasible = set(enumerate_sequences(net, spp, s0))
        drawn = [one_draw(vf, seed) for seed in range(40)]
        assert set(drawn) <= feasible
        # both knowledge branches show up across seeds
        assert {seq.states[1].ev.members for seq in drawn} == {(1,), (2,)}
        assert one_draw(vf, 5) == one_draw(vf, 5)

    def test_counts_match_probabilities(self, vf):
        n = 200_000
        counts = sample_sequence_counts(vf, n, seed=2)
        probs = sequence_probabilities(vf)
        assert sum(counts.values()) == n
        for seq, p in probs.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(seq, 0) / n - p) <= 3 * sigma

    def test_counts_agree_with_single_draws_support(self, vf):
        counts = sample_sequence_counts(vf, 500, seed=9)
        feasible = set(sequence_probabilities(vf))
        assert set(counts) <= feasible

    def test_counts_on_a_larger_state_space(self, unit_utility):
        # 19 reachable states: path codes exceed 62 bits, exercising the
        # arbitrary-precision fallback
        rng = np.random.default_rng(0)
        net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
        s0 = initial_state(net, spp)
        assert len(decision_graph(net, spp, s0).states) >= 16
        nvf = solve_value_functions(net, spp, unit_utility, initial=s0)
        n = 100_000
        counts = sample_sequence_counts(nvf, n, seed=5)
        probs = sequence_probabilities(nvf)
        assert sum(counts.values()) == n
        assert set(counts) <= set(probs)
        for seq, p in probs.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(seq, 0) / n - p) <= 3 * max(sigma, 1e-12)

    def test_non_positive_scale_rejected(self):
        from stdroute import ValidationError

        with pytest.raises(ValidationError, match="mu"):
            LinkUtilitySpec(mu=0.0)

    def test_horizon_guard_on_cyclic_network(self):
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
            solve_value_functions(net, spp, LinkUtilitySpec())
