import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import stdroute.estimation
from netgen import random_network
from stdroute import (
    EstimationError,
    EventCollection,
    Link,
    NetworkFormatError,
    LinkUtilitySpec,
    ObservationSet,
    State,
    StateSequence,
    StdNetwork,
    SupportPointSet,
    ValidationError,
    enumerate_policies,
    enumerate_sequences,
    fit,
    initial_state,
    load_bundled_network,
    load_network,
    log_likelihood,
    sample_sequence_counts,
    sample_sequence_counts_nr,
    solve_value_functions,
    solve_value_functions_nr,
    travel_time,
    travel_time_attributes,
)
from oracle import finite_difference_gradient, hessian_std_errors

MODELS = ("recursive", "nonrecursive")
GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def time_and_parity(net, spp, a, state):
    return (float(travel_time(net, spp, a, state)), float(a % 2))


def exact_gradient(model, net, spp, obs, beta, mu=1.0, attributes=time_and_parity):
    """The gradient of the log likelihood, summed from the scores of the distinct sequences."""
    _, scores = stdroute.estimation._score(model, net, spp, obs, beta, mu, attributes, scores=True)
    return obs._groups.counts @ scores


def baseline_grid():
    """The benchmark's grid ([5, 0], 5, 16, 5): 1,739 states."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return load_network(gen.grid_network([5, 0], 5, 16, 5))


def branch_sequence(net, spp, s0, via, link):
    for seq in enumerate_sequences(net, spp, s0):
        if seq.states[1].ev == EventCollection((via,)) and seq.states[2].link == link:
            return seq
    raise AssertionError


class TestLogLikelihood:
    def test_single_observation_recursive(self, net, spp, s0):
        seq = branch_sequence(net, spp, s0, via=1, link=2)
        value = log_likelihood("recursive", net, spp, ObservationSet((seq,)), [-1.0])
        assert value == pytest.approx(math.log(1 / (2 * (1 + math.e))), abs=1e-12)

    def test_single_observation_nonrecursive(self, net, spp, s0):
        seq = branch_sequence(net, spp, s0, via=1, link=2)
        value = log_likelihood("nonrecursive", net, spp, ObservationSet((seq,)), [-1.0])
        expected = math.log(math.exp(-3.5) / (2 * (math.exp(-3.5) + math.exp(-3))))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_empty_observation_set(self, net, spp):
        assert log_likelihood("recursive", net, spp, ObservationSet(()), [-1.0]) == 0.0

    def test_permutation_invariance(self, net, spp, s0):
        seqs = list(enumerate_sequences(net, spp, s0))
        forward = ObservationSet(tuple(seqs * 3))
        backward = ObservationSet(tuple(reversed(seqs * 3)))
        for model in ("recursive", "nonrecursive"):
            assert log_likelihood(model, net, spp, forward, [-0.8]) == log_likelihood(
                model, net, spp, backward, [-0.8]
            )

    def test_repeated_calls_agree_bitwise(self, net, spp, s0):
        obs = ObservationSet(tuple(enumerate_sequences(net, spp, s0)))
        for model in ("recursive", "nonrecursive"):
            first = log_likelihood(model, net, spp, obs, [-1.3])
            second = log_likelihood(model, net, spp, obs, [-1.3])
            assert first == second

    def test_non_finite_likelihood_names_the_observation(self, net, spp, s0):
        seq = branch_sequence(net, spp, s0, via=1, link=2)
        with pytest.raises(EstimationError, match="observation 0"):
            log_likelihood("recursive", net, spp, ObservationSet((seq,)), [float("nan")])

    def test_unknown_model_rejected(self, net, spp):
        with pytest.raises(ValidationError):
            log_likelihood("mixed", net, spp, ObservationSet(()), [-1.0])

    def test_gradient_matches_independent_step_size(self, net, spp, s0):
        obs = ObservationSet(tuple(enumerate_sequences(net, spp, s0)) * 5)
        for model in ("recursive", "nonrecursive"):
            f = lambda b: log_likelihood(model, net, spp, obs, b)
            g_fine = finite_difference_gradient(f, np.array([-1.0]), rel_step=1e-6)
            g_coarse = finite_difference_gradient(f, np.array([-1.0]), rel_step=1e-5)
            assert g_fine[0] == pytest.approx(g_coarse[0], rel=1e-4, abs=1e-8)


class TestFit:
    def test_interior_optimum_satisfies_first_order_condition(self):
        # three parallel routes with times 1, 2, 3; observing the middle one
        # puts the maximum-likelihood coefficient at an interior point
        net = StdNetwork(
            nodes=("o", "z"),
            links=(Link(0, "o", "o"), Link(1, "o", "z"), Link(2, "o", "z"), Link(3, "o", "z")),
            origin_link=0,
            destination_link=1,
            horizon=1,
        )
        spp = SupportPointSet(
            link_ids=(1, 2, 3),
            travel_times=np.array([[[1, 2, 3]]]),
            probabilities=np.array([1.0]),
        )
        s0 = initial_state(net, spp)
        ev = EventCollection((1,))
        seq = StateSequence((s0, State(2, 2, ev)))
        result = fit("recursive", net, spp, ObservationSet((seq,)), beta0=[-1.0])
        assert result.converged
        assert result.gradient_norm < 1e-6
        assert result.beta_hat[0] == pytest.approx(0.0, abs=1e-4)

    def test_no_std_errors_when_no_trip_has_a_choice(self):
        net = StdNetwork(
            nodes=("o", "z"),
            links=(Link(0, "o", "o"), Link(1, "o", "z")),
            origin_link=0,
            destination_link=1,
            horizon=1,
        )
        spp = SupportPointSet(
            link_ids=(1,), travel_times=np.array([[[2]]]), probabilities=np.array([1.0])
        )
        seq = StateSequence((initial_state(net, spp), State(1, 2, EventCollection((1,)))))
        result = fit("recursive", net, spp, ObservationSet((seq,) * 3), beta0=[-1.0])
        assert result.converged and result.gradient_norm == 0.0
        assert result.std_errors is None

    def test_recovery_smoke(self, net, spp, vf):
        counts = sample_sequence_counts(vf, 2000, seed=1)
        obs = ObservationSet.from_counts(counts)
        result = fit("recursive", net, spp, obs, beta0=[-0.5])
        assert result.converged
        assert abs(result.beta_hat[0] + 1.0) < 0.15
        assert result.std_errors is not None and result.std_errors[0] > 0
        assert abs(result.beta_hat[0] + 1.0) < 4 * result.std_errors[0]

    def test_same_data_fits_match_across_models(self, net, spp, s0, cs, vf, unit_utility):
        # the fitted likelihoods coincide on this network: both models can
        # reproduce any split between the two informative sequences
        counts = sample_sequence_counts(vf, 4000, seed=6)
        obs = ObservationSet.from_counts(counts)
        rec = fit("recursive", net, spp, obs, beta0=[-0.5])
        nr = fit("nonrecursive", net, spp, obs, beta0=[-0.5])
        assert rec.log_likelihood >= nr.log_likelihood - 1e-6

    def test_empty_observations_rejected(self, net, spp):
        with pytest.raises(EstimationError):
            fit("recursive", net, spp, ObservationSet(()), beta0=[-1.0])

    def test_trips_may_start_mid_network(self, net, spp, s0):
        # a traveler first observed at the junction contributes a term from
        # its own initial state
        full = branch_sequence(net, spp, s0, via=1, link=2)
        partial = StateSequence(full.states[1:])
        obs = ObservationSet((full, partial))
        value = log_likelihood("recursive", net, spp, obs, [-1.0])
        expected = math.log(1 / (2 * (1 + math.e))) + math.log(1 / (1 + math.e))
        assert value == pytest.approx(expected, abs=1e-12)
        nr_value = log_likelihood("nonrecursive", net, spp, obs, [-1.0])
        # from the junction state the policy choice set has two one-step
        # policies with utilities -3 and -2
        expected_nr = math.log(math.exp(-3.5) / (2 * (math.exp(-3.5) + math.exp(-3)))) + math.log(
            math.exp(-3) / (math.exp(-3) + math.exp(-2))
        )
        assert nr_value == pytest.approx(expected_nr, abs=1e-12)


class TestExactScore:
    @pytest.mark.parametrize("mu, tol", [(1.0, 1e-6), (0.3, 1e-6), (1e-3, 1e-5)])
    @pytest.mark.parametrize("model", MODELS)
    def test_random_networks_match_central_differences(self, model, mu, tol):
        rng = np.random.default_rng(808)
        beta = np.array([-1.0, 0.5])
        worst, informative = 0.0, 0
        for _ in range(100):
            net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
            obs = ObservationSet(tuple(enumerate_sequences(net, spp, initial_state(net, spp))))
            exact = exact_gradient(model, net, spp, obs, beta, mu)
            f = lambda b: log_likelihood(model, net, spp, obs, b, mu, time_and_parity)
            reference = finite_difference_gradient(f, beta)
            scale = np.max(np.abs(reference))
            error = np.max(np.abs(exact - reference))
            worst = max(worst, error / scale if scale > 0 else error)
            informative += scale > 0
        assert worst <= tol
        assert informative >= 50  # a network with a single route has a zero gradient

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("network", ["bundled", "baseline grid"])
    def test_bhhh_std_errors_match_the_hessian(self, model, network):
        net, spp = load_bundled_network() if network == "bundled" else baseline_grid()
        solve = solve_value_functions if model == "recursive" else solve_value_functions_nr
        vf = solve(net, spp, LinkUtilitySpec(beta=(-1.0,)))
        obs = ObservationSet.from_counts(sample_sequence_counts(vf, 2000, seed=1))
        result = fit(model, net, spp, obs, beta0=[-0.5])
        assert result.converged
        f = lambda b: log_likelihood(model, net, spp, obs, b)
        reference = hessian_std_errors(f, result.beta_hat)
        assert result.std_errors[0] == pytest.approx(reference[0], rel=0.02)

    def test_fit_reports_the_gradient_of_the_mean(self, net, spp, vf):
        obs = ObservationSet.from_counts(sample_sequence_counts(vf, 2000, seed=1))
        result = fit("recursive", net, spp, obs, beta0=[-0.5])
        gradient = exact_gradient(
            "recursive", net, spp, obs, result.beta_hat, attributes=travel_time_attributes
        )
        assert result.gradient_norm == pytest.approx(abs(gradient[0]) / len(obs), rel=1e-9)
        assert result.log_likelihood == log_likelihood("recursive", net, spp, obs, result.beta_hat)


class TestObservationIO:
    def test_round_trip_with_explicit_knowledge(self, net, spp, s0):
        obs = ObservationSet(tuple(enumerate_sequences(net, spp, s0)))
        parsed = ObservationSet.from_json(obs.to_json(), net, spp)
        assert parsed.observations == obs.observations

    def test_reconstruction_from_times(self, net, spp, s0):
        seq = branch_sequence(net, spp, s0, via=1, link=2)
        records = [
            {
                "traveler_id": "n1",
                "states": [{"link": s.link, "time": s.time} for s in seq.states],
            }
        ]
        parsed = ObservationSet.from_json(json.dumps(records), net, spp)
        assert parsed.observations == (seq,)

    def test_ambiguous_reconstruction_rejected(self, net, spp, s0):
        # the route with identical times in both scenarios cannot reveal
        # which junction state occurred
        seq = branch_sequence(net, spp, s0, via=2, link=3)
        records = [
            {"states": [{"link": s.link, "time": s.time} for s in seq.states]}
        ]
        with pytest.raises(ValidationError, match="ambiguous"):
            ObservationSet.from_json(json.dumps(records), net, spp)

    @pytest.mark.parametrize("time", [-1, -2, -3, -(2**40)])
    def test_negative_time_rejected(self, net, spp, s0, time):
        # without knowledge states the times are read as periods of the travel-time table
        seq = branch_sequence(net, spp, s0, via=1, link=2)
        states = [{"link": s.link, "time": s.time} for s in seq.states]
        states[1]["time"] = time
        with pytest.raises(NetworkFormatError, match="record 0: 'time' must not be negative"):
            ObservationSet.from_json(json.dumps([{"states": states}]), net, spp)

    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "reconstructed"])
    def test_unknown_link_rejected(self, net, spp, s0, explicit):
        records = json.loads(ObservationSet((branch_sequence(net, spp, s0, via=1, link=2),)).to_json())
        states = records[0]["states"]
        states[0]["link"] = 99
        if not explicit:
            for state in states:
                del state["ev_members"]
        with pytest.raises(ValidationError, match="observation 0: unknown link 99"):
            ObservationSet.from_json(json.dumps(records), net, spp)

    def test_impossible_times_rejected(self, net, spp):
        records = [
            {"states": [{"link": 0, "time": 0}, {"link": 1, "time": 9}]}
        ]
        with pytest.raises(ValidationError, match="no scenario"):
            ObservationSet.from_json(json.dumps(records), net, spp)

    BAD_STATES = {
        "link-non-numeric": ({"link": "x"}, "'link' and 'time' must be integers"),
        "link-string": ({"link": "1"}, "'link' and 'time' must be integers"),
        "link-float": ({"link": 1.5}, "'link' and 'time' must be integers"),
        "time-null": ({"time": None}, "'link' and 'time' must be integers"),
        "time-bool": ({"time": True}, "'link' and 'time' must be integers"),
        "members-string": ({"ev_members": "1;2"}, "'ev_members' must be a list of integers"),
        "members-number": ({"ev_members": 5}, "'ev_members' must be a list of integers"),
        "members-strings": ({"ev_members": ["1"]}, "'ev_members' must be a list of integers"),
        "members-bool": ({"ev_members": [True]}, "'ev_members' must be a list of integers"),
    }
    bad_states = pytest.mark.parametrize(
        "change, message", list(BAD_STATES.values()), ids=list(BAD_STATES)
    )

    @staticmethod
    def records_with(net, spp, s0, change) -> str:
        obs = ObservationSet((branch_sequence(net, spp, s0, via=1, link=2),))
        records = json.loads(obs.to_json())
        records[0]["states"][1].update(change)
        return json.dumps(records)

    @bad_states
    def test_mistyped_state_rejected(self, net, spp, s0, change, message):
        with pytest.raises(NetworkFormatError, match=message):
            ObservationSet.from_json(self.records_with(net, spp, s0, change), net, spp)

    @bad_states
    def test_cli_exits_1_on_a_mistyped_state(self, net, spp, s0, change, message, tmp_path, capsys):
        from stdroute import bundled_network_text
        from stdroute.cli import main

        net_path, obs_path = tmp_path / "net.json", tmp_path / "obs.json"
        net_path.write_text(bundled_network_text())
        obs_path.write_text(self.records_with(net, spp, s0, change))
        assert main(["estimate", str(net_path), str(obs_path)]) == 1
        assert message in capsys.readouterr().err

    def test_invalid_sequence_rejected(self, net, spp):
        records = [
            {
                "states": [
                    {"link": 0, "time": 0, "ev_members": [1, 2]},
                    {"link": 3, "time": 1, "ev_members": [1]},
                ]
            }
        ]
        with pytest.raises(ValidationError, match="observation 0"):
            ObservationSet.from_json(json.dumps(records), net, spp)
