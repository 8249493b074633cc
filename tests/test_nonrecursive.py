import math
import sys

import numpy as np
import pytest

from netgen import random_network
from oracle import (
    logsumexp,
    policy_choice_prob,
    policy_maps,
    rollout_policy,
    sequence_likelihood_value_form,
    sequence_prob_given_policy,
)
from stdroute import (
    EventCollection,
    LinkUtilitySpec,
    ObservationSet,
    PolicyChoiceSet,
    State,
    TwoRouteScenario,
    ValidationError,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    equivalence_report,
    fit,
    initial_state,
    log_likelihood,
    path_probabilities,
    pipeline_ratios,
    policy_choice_probs,
    policy_utilities,
    sample_sequence_counts,
    sample_sequence_counts_nr,
    sequence_likelihood,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)

V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def by_branch(probs):
    return {
        (seq.states[1].ev.members[0], seq.states[2].link): p for seq, p in probs.items()
    }


def nr_solve(cs, utility):
    """The non-recursive model from the choice set's initial state."""
    return solve_value_functions_nr(cs.network, cs.support_points, utility, initial=cs.initial_state)


def junction_policy(cs, at_v1, at_v2):
    for policy in policy_maps(cs):
        if policy[V1] == at_v1 and policy[V2] == at_v2:
            return policy
    raise AssertionError


class TestPolicyChoiceProbs:
    def test_example_values(self, cs, unit_utility):
        probs = policy_choice_probs(cs, unit_utility)
        slow = math.exp(-3.5) / (2 * math.exp(-3.5) + 2 * math.exp(-3))
        fast = math.exp(-3.0) / (2 * math.exp(-3.5) + 2 * math.exp(-3))
        assert probs[0] == pytest.approx(slow, abs=1e-12)
        assert probs[1] == pytest.approx(slow, abs=1e-12)
        assert probs[2] == pytest.approx(fast, abs=1e-12)
        assert probs[3] == pytest.approx(fast, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert policy_choice_prob(cs, cs.rows[0], unit_utility) == pytest.approx(
            slow, abs=1e-12
        )

    def test_equal_utilities_give_uniform_probabilities(self, cs):
        from stdroute import LinkUtilitySpec

        def flat(net, spp, a, state):
            return (1.0,)

        uniform = policy_choice_probs(cs, LinkUtilitySpec(beta=(-1.0,), attributes=flat))
        assert np.allclose(uniform, 0.25, atol=1e-12)

    def test_small_scale_concentrates_on_optimal_set(self, cs, unit_utility):
        probs = policy_choice_probs(cs, unit_utility.with_mu(1e-4))
        utilities = policy_utilities(cs, unit_utility)
        best = utilities.max()
        optimal = utilities >= best - 1e-12
        assert probs[optimal].sum() >= 1 - 1e-3
        # the two tied optimal policies split the mass evenly
        assert np.allclose(probs[optimal], probs[optimal][0], atol=1e-12)


class TestSequenceGivenPolicy:
    def test_contained_sequence_gets_the_transition_probability(self, net, spp, s0, cs, sequences=None):
        seq1 = [
            q for q in enumerate_sequences(net, spp, s0)
            if q.states[1] == V1 and q.states[2].link == 2
        ][0]
        assert sequence_prob_given_policy(seq1, junction_policy(cs, 2, 2), spp) == 0.5
        assert sequence_prob_given_policy(seq1, junction_policy(cs, 3, 2), spp) == 0.0

    def test_deterministic_network_is_path_indicator(self, unit_utility):
        rng = np.random.default_rng(71)
        net, spp = random_network(rng, support_count=1)
        s0 = initial_state(net, spp)
        cs = enumerate_policies(net, spp, s0)
        for seq in enumerate_sequences(net, spp, s0):
            for policy in policy_maps(cs):
                expected = 1.0 if rollout_policy(net, spp, s0, policy, 1) == seq else 0.0
                assert sequence_prob_given_policy(seq, policy, spp) == expected


class TestSequenceLikelihood:
    def test_example_values(self, cs, unit_utility):
        probs = by_branch(sequence_probabilities(nr_solve(cs, unit_utility)))
        assert probs[(1, 2)] == pytest.approx(
            math.exp(-3.5) / (2 * (math.exp(-3.5) + math.exp(-3))), abs=1e-12
        )
        assert probs[(1, 3)] == pytest.approx(
            math.exp(-3.0) / (2 * (math.exp(-3.5) + math.exp(-3))), abs=1e-12
        )
        assert probs[(2, 2)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(2, 3)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(1, 2)] == pytest.approx(0.1888, abs=5e-5)
        assert probs[(1, 3)] == pytest.approx(0.3112, abs=5e-5)

    def test_path_masses(self, cs, unit_utility):
        paths = path_probabilities(nr_solve(cs, unit_utility))
        assert paths[(1, 2)] == pytest.approx(0.4388, abs=5e-5)
        assert paths[(1, 3)] == pytest.approx(0.5612, abs=5e-5)

    def test_total_probability(self, cs, unit_utility):
        assert sum(sequence_probabilities(nr_solve(cs, unit_utility)).values()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_log_form_agrees(self, net, spp, s0, cs, unit_utility):
        vf = nr_solve(cs, unit_utility)
        for seq in enumerate_sequences(net, spp, s0):
            direct = sequence_likelihood(vf, seq)
            assert math.exp(sequence_log_likelihood(vf, seq)) == pytest.approx(
                direct, rel=1e-12
            )

    def test_marginalization_oracle(self, unit_utility):
        # brute-force double sum over (policy, scenario) pairs
        rng = np.random.default_rng(73)
        for _ in range(8):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            cs = enumerate_policies(net, spp, s0)
            probs = policy_choice_probs(cs, unit_utility)
            start_mass = spp.mass(s0.ev.members)
            for seq, modeled in sequence_probabilities(nr_solve(cs, unit_utility)).items():
                total = 0.0
                for prob, policy in zip(probs, policy_maps(cs)):
                    for r in s0.ev:
                        if rollout_policy(net, spp, s0, policy, r) == seq:
                            total += prob * spp.probabilities[r - 1] / start_mass
                assert total == pytest.approx(modeled, abs=1e-12)

    def test_mismatched_initial_state_rejected(self, cs, unit_utility, net, spp):
        other = State(1, 1, EventCollection((1,)))
        from stdroute import StateSequence

        seq = StateSequence((other, State(2, 4, EventCollection((1,)))))
        with pytest.raises(ValidationError):
            sequence_likelihood(nr_solve(cs, unit_utility), seq)


class TestDeterministicEquivalence:
    def test_single_scenario_networks(self, unit_utility):
        rng = np.random.default_rng(79)
        for _ in range(8):
            net, spp = random_network(rng, support_count=1)
            s0 = initial_state(net, spp)
            vf = solve_value_functions(net, spp, unit_utility, initial=s0)
            rec = path_probabilities(vf)
            nr = path_probabilities(solve_value_functions_nr(net, spp, unit_utility, initial=s0))
            for path in rec:
                assert rec[path] == pytest.approx(nr[path], abs=1e-10)

    def test_divergence_shrinks_with_scale(self, net, spp, s0, cs, unit_utility):
        divergences = []
        for mu in (1.0, 0.1, 0.01, 1e-4):
            scaled = unit_utility.with_mu(mu)
            vf = solve_value_functions(net, spp, scaled, initial=s0)
            rec = sequence_probabilities(vf)
            nr = sequence_probabilities(nr_solve(cs, scaled))
            divergences.append(max(abs(rec[q] - nr[q]) for q in rec))
        assert divergences == sorted(divergences, reverse=True)
        assert divergences[-1] < 1e-9


def one_draw(cs, utility, seed):
    """One trajectory of the non-recursive model."""
    (seq,) = sample_sequence_counts(nr_solve(cs, utility), 1, seed)
    return seq


class TestSampling:
    def test_determinism_and_support(self, net, spp, s0, cs, unit_utility):
        feasible = set(enumerate_sequences(net, spp, s0))
        assert one_draw(cs, unit_utility, 3) == one_draw(cs, unit_utility, 3)
        for seed in range(30):
            assert one_draw(cs, unit_utility, seed) in feasible

    def test_single_policy_choice_set(self, unit_utility):
        rng = np.random.default_rng(83)
        while True:
            net, spp = random_network(rng, max_links=3)
            s0 = initial_state(net, spp)
            cs = enumerate_policies(net, spp, s0)
            if len(cs) == 1:
                break
        rollouts = {rollout_policy(net, spp, s0, policy_maps(cs)[0], r) for r in s0.ev}
        for seed in range(10):
            assert one_draw(cs, unit_utility, seed) in rollouts

    def test_counts_match_probabilities(self, cs, unit_utility):
        n = 10**6
        counts = sample_sequence_counts_nr(cs, unit_utility, n, seed=4)
        probs = sequence_probabilities(nr_solve(cs, unit_utility))
        assert sum(counts.values()) == n
        for seq, p in probs.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts.get(seq, 0) / n - p) <= 3 * sigma

    def test_empty_choice_set_rejected(self, net, spp, s0, unit_utility):
        empty = PolicyChoiceSet(compile_graph(net, spp, s0), ())
        with pytest.raises(ValidationError, match="empty"):
            policy_choice_probs(empty, unit_utility)


class TestSweep:
    """The origin logit as a link-level logit at scale mu / w(s), checked against enumeration."""

    @pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
    def test_random_networks_match_enumeration(self, mu):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),), mu=mu)
            vf = solve_value_functions_nr(net, spp, utility, initial=s0)
            cs = enumerate_policies(net, spp, s0)
            expected = mu * logsumexp(policy_utilities(cs, utility) / mu)
            assert abs(vf[s0] - expected) <= 1e-12 * max(1.0, abs(expected))
            probs = policy_choice_probs(cs, utility)
            for seq in enumerate_sequences(net, spp, s0):
                brute = sum(
                    p * sequence_prob_given_policy(seq, policy, spp)
                    for p, policy in zip(probs, policy_maps(cs))
                )
                assert abs(sequence_likelihood(vf, seq) - brute) <= 1e-12

    @pytest.mark.parametrize("mu", [1.0, 0.3])
    def test_policy_probabilities_are_products_of_the_sweep_choices(self, mu):
        # the paper's definition: a policy's probability is the product of the
        # solved link-choice probabilities over the state-actions it takes
        rng = np.random.default_rng(2029)
        for _ in range(200):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),), mu=mu)
            choice = solve_value_functions_nr(net, spp, utility, initial=s0).choice_probs.tolist()
            cs = enumerate_policies(net, spp, s0)
            products = np.array([math.prod(choice[j] for j in row) for row in cs.rows])
            assert np.abs(products - policy_choice_probs(cs, utility)).max() <= 1e-14
            assert abs(products.sum() - 1.0) <= 1e-14

    def test_value_form_agrees_with_product_form(self, net, spp, unit_utility):
        rng = np.random.default_rng(97)
        cases = [(net, spp)] + [random_network(rng) for _ in range(6)]
        scales = set()
        for cnet, cspp in cases:
            for mu in (1.0, 0.3):
                vf = solve_value_functions_nr(cnet, cspp, unit_utility.with_mu(mu))
                scales.update(vf.scale.tolist())
                for seq in enumerate_sequences(cnet, cspp, vf.initial):
                    direct = sequence_likelihood(vf, seq)
                    assert sequence_likelihood_value_form(vf, seq) == pytest.approx(
                        direct, rel=1e-12
                    )
        assert len(scales) > 2  # the scale varies between states, not only with mu

    def test_partial_choice_set_rejected(self, net, spp, s0, cs, unit_utility):
        partial = PolicyChoiceSet(cs.graph, cs.rows[:2])
        with pytest.raises(ValidationError, match="every routing policy"):
            sample_sequence_counts_nr(partial, unit_utility, 10, seed=0)


def refuse_policy_enumeration(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_policies was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stdroute" and hasattr(module, "enumerate_policies"):
            monkeypatch.setattr(module, "enumerate_policies", refuse)


class TestWithoutPolicyEnumeration:
    def test_likelihood_fit_and_comparison(self, monkeypatch, net, spp, unit_utility):
        rng = np.random.default_rng(101)
        cases = [(net, spp), random_network(rng, support_count=3)]
        choice_sets = [enumerate_policies(n, s, initial_state(n, s)) for n, s in cases]
        refuse_policy_enumeration(monkeypatch)
        for (cnet, cspp), cs in zip(cases, choice_sets):
            vf = solve_value_functions(cnet, cspp, unit_utility)
            obs = ObservationSet.from_counts(sample_sequence_counts(vf, 200, seed=5))
            assert math.isfinite(log_likelihood("nonrecursive", cnet, cspp, obs, [-1.0]))
            result = fit("nonrecursive", cnet, cspp, obs, [-0.5])
            assert math.isfinite(result.log_likelihood)
            assert equivalence_report(cnet, cspp).support_count == cspp.size
            probs = sequence_probabilities(nr_solve(cs, unit_utility))
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        scenarios = [
            TwoRouteScenario(a=3, b=2, x=-1, y=0, p=0.5),  # the bundled network
            TwoRouteScenario(a=1.5, b=2.25, x=0.75, y=-1.25, p=float(rng.uniform(0.1, 0.9))),
        ]
        for scenario in scenarios:
            ratios = pipeline_ratios(scenario)
            assert all(math.isfinite(r) for r in ratios.nonrecursive)
