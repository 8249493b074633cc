"""The sequence table of a compiled graph, checked against the oracle, and how often it is built."""

import numpy as np
import pytest

import oracle
import stdroute.policy
from netgen import random_network
from stdroute import (
    LinkUtilitySpec,
    PolicyChoiceSet,
    PolicyExplosionError,
    RoutingPolicy,
    ValidationError,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    equivalence_report,
    initial_state,
    load_bundled_network,
    path_probabilities,
    sample_sequence_counts_nr,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)
from stdroute.policy import sequence_table
from stdroute.recursive import step_table


def count_enumerations(monkeypatch) -> list:
    """Record the graph of every sequence enumeration from now on."""
    walked = []
    original = stdroute.policy._enumerate_sequences

    def counted(graph):
        walked.append(graph)
        return original(graph)

    monkeypatch.setattr(stdroute.policy, "_enumerate_sequences", counted)
    return walked


class TestAgainstOracle:
    """Bit-for-bit the numbers of listing and scoring every sequence anew on each call."""

    @pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
    def test_sequence_and_path_probabilities(self, mu):
        rng = np.random.default_rng(515)
        for _ in range(100):
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),), mu=mu)
            for solve in (solve_value_functions, solve_value_functions_nr):
                vf = solve(net, spp, utility, initial=s0)
                expected = oracle.sequence_probabilities(vf)
                assert list(sequence_probabilities(vf).items()) == list(expected.items())
                assert list(path_probabilities(vf).items()) == list(
                    oracle.path_probabilities(vf).items()
                )

    def test_equivalence_report(self):
        rng = np.random.default_rng(516)
        for _ in range(100):
            net, spp = random_network(rng)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),))
            assert equivalence_report(net, spp, utility) == oracle.equivalence_report(
                net, spp, utility
            )

    def test_table_rows_are_the_sequences_steps_and_paths(self):
        rng = np.random.default_rng(517)
        for _ in range(20):
            net, spp = random_network(rng)
            graph = compile_graph(net, spp, initial_state(net, spp))
            table = sequence_table(graph)
            assert list(table.sequences) == oracle.enumerate_sequences(graph)
            assert list(table.paths) == sorted({seq.path for seq in table.sequences})
            for seq, k in zip(table.sequences, table.path_index.tolist()):
                assert table.paths[k] == seq.path
            steps = step_table(graph, table.sequences)
            assert np.array_equal(steps.actions, table.steps.actions)
            assert np.array_equal(steps.edges, table.steps.edges)


class TestEnumerations:
    def test_equivalence_report_enumerates_once_per_graph(self, monkeypatch):
        net, spp = load_bundled_network()
        walked = count_enumerations(monkeypatch)
        equivalence_report(net, spp)
        assert walked == [compile_graph(net, spp, initial_state(net, spp))]

    def test_smaller_cap_still_raises_after_an_uncapped_call(self):
        net, spp = load_bundled_network()
        s0 = initial_state(net, spp)
        vf = solve_value_functions(net, spp, LinkUtilitySpec(), initial=s0)
        count = len(sequence_probabilities(vf, cap=10**9))
        assert count > 1
        for read in (sequence_probabilities, path_probabilities):
            with pytest.raises(PolicyExplosionError, match=f"^{count} state sequences"):
                read(vf, cap=count - 1)
        with pytest.raises(PolicyExplosionError):
            enumerate_sequences(net, spp, s0, cap=count - 1)
        assert len(sequence_probabilities(vf, cap=count)) == count

    def test_cap_is_checked_before_anything_is_enumerated(self, monkeypatch):
        net, spp = load_bundled_network()
        walked = count_enumerations(monkeypatch)
        with pytest.raises(PolicyExplosionError):
            enumerate_sequences(net, spp, initial_state(net, spp), cap=1)
        assert walked == []

    def test_no_trip_from_the_destination(self, net, spp, s0):
        arrival = enumerate_sequences(net, spp, s0)[0].final_state
        utility = LinkUtilitySpec()
        # the one choice set from the destination: the empty policy
        cs = PolicyChoiceSet(net, spp, arrival, (RoutingPolicy.from_map(arrival, {}),))
        calls = [
            lambda: solve_value_functions(net, spp, utility, initial=arrival),
            lambda: solve_value_functions_nr(net, spp, utility, initial=arrival),
            lambda: enumerate_sequences(net, spp, arrival),
            lambda: enumerate_policies(net, spp, arrival),
            lambda: sample_sequence_counts_nr(cs, utility, 5, seed=1),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="at least a departure and an arrival"):
                call()
