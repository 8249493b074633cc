"""Compiled decision graph: agreement with the State-level oracle, caching, and input checks."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import stdroute
import stdroute.network
from netgen import bench_module, cyclic_network, random_network
from stdroute import (
    EventCollection,
    HorizonError,
    LinkUtilitySpec,
    ObservationSet,
    State,
    StateSequence,
    SupportPointSet,
    TwoRouteScenario,
    UnreachableDestinationError,
    ValidationError,
    build_two_route_network,
    bundled_network_text,
    choice_distribution,
    compile_graph,
    decision_graph,
    enumerate_policies,
    enumerate_sequences,
    initial_state,
    load_network,
    log_likelihood,
    optimal_policy,
    sample_sequence_counts,
    sample_sequence_counts_nr,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
    travel_time,
)
from stdroute.cli import main
from stdroute.policy import sequence_table
from stdroute.recursive import sequence_log_likelihoods, solve_log_sum, value_gradients

TOL = 1e-12


def close(x, y):
    return abs(x - y) <= TOL * max(1.0, abs(y))


class TestOracle:
    @pytest.mark.parametrize("mu", [1.0, 0.3, 1e-3])
    def test_random_networks_match_the_dict_walk(self, mu):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
            s0 = initial_state(net, spp)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),), mu=mu)
            vf = solve_value_functions(net, spp, utility, initial=s0)
            reference = oracle.solve_values(net, spp, utility, s0)
            assert vf.values.keys() == reference.keys()
            for state, value in reference.items():
                assert close(vf[state], value)
                if net.is_destination(state.link):
                    continue
                expected = oracle.choice_distribution(net, spp, utility, reference, state)
                got = choice_distribution(vf, state)
                assert got.keys() == expected.keys()
                assert all(close(got[a], p) for a, p in expected.items())
            for seq in enumerate_sequences(net, spp, s0):
                expected = oracle.sequence_log_likelihood(net, spp, utility, reference, seq)
                assert close(sequence_log_likelihood(vf, seq), expected)

    def test_choice_probabilities_normalize(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net, spp = random_network(rng, max_links=8)
            vf = solve_value_functions(net, spp, LinkUtilitySpec(mu=0.5))
            graph = vf.graph
            totals = np.bincount(graph.action_state, vf.choice_probs, len(graph.states))
            assert np.allclose(totals[~graph.terminal], 1.0, atol=TOL)
            assert np.allclose(np.exp(vf.log_choice_probs), vf.choice_probs, atol=TOL)


def outcome(build, net, spp, initial):
    """The compiled graph from ``initial``, or the type and message of the error raised."""
    try:
        return build(net, spp, initial)
    except stdroute.StdRouteError as exc:
        return type(exc), str(exc)


def assert_same_outcome(net, spp, initial):
    got = outcome(compile_graph, net, spp, initial)
    expected = outcome(oracle.compile_graph, net, spp, initial)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert oracle.graph_mismatches(got, expected) == []


def assert_refused(build, net, spp, initial):
    message = f"^initial knowledge state {re.escape(repr(initial.ev))} is not a partition class$"
    with pytest.raises(ValidationError, match=message):
        build(net, spp, initial)


def refusing_readers():
    """Every public reader that takes an initial state, as ``(net, spp, initial)`` calls."""
    utility = LinkUtilitySpec()
    return (
        compile_graph,
        lambda net, spp, s: solve_value_functions(net, spp, utility, initial=s),
        lambda net, spp, s: solve_value_functions_nr(net, spp, utility, initial=s),
        enumerate_sequences,
        enumerate_policies,
        lambda net, spp, s: optimal_policy(net, spp, s, utility),
        decision_graph,
    )


CYCLE_MESSAGE = re.compile(r"links ([\d >-]+) form a cycle reachable from (.+): a trip has no time bound")


def reaches(net, link, target):
    """Whether ``target`` follows ``link`` on some walk of one or more links."""
    seen, stack = set(), list(net.outgoing(link))
    while stack:
        a = stack.pop()
        if a not in seen:
            seen.add(a)
            stack.extend(net.outgoing(a))
    return target in seen


def reaches_a_cycle(net, link):
    """Whether a link on a cycle is ``link`` or follows it."""
    return any(reaches(net, a, a) for a in {link} | {l.id for l in net.links if reaches(net, link, l.id)})


class TestAgainstTheStateLevelExpansion:
    """Every array of the index-space compile is bitwise the State-level expansion's."""

    def test_random_networks(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            net, spp = random_network(rng, max_links=8, max_support=4, max_horizon=4)
            assert_same_outcome(net, spp, initial_state(net, spp))

    def test_benchmark_grids(self):
        workloads = bench_module("workloads")
        for wl, grids in ((workloads.RecFit, 3), (workloads.NrFit, 3), (workloads.RecPredict, 1)):
            for j in range(grids):
                seed = (1, j) if grids > 1 else (1,)
                net, spp = load_network(workloads.sized_grid(seed, *wl.grid, wl.target)[0])
                assert_same_outcome(net, spp, initial_state(net, spp))

    def test_two_route_builds(self):
        scenarios = bench_module("gen").two_route_grid(1)
        assert len(scenarios) == 550
        builds = [build_two_route_network(TwoRouteScenario(*values)) for values in scenarios]
        distinct = {id(b.support_points): b for b in builds}.values()
        assert len(distinct) == len({p for *_, p in scenarios})
        for build in distinct:
            assert_same_outcome(build.network, build.support_points, build.initial_state)

    def test_every_set_of_scenarios_as_the_initial_knowledge(self):
        # a class compiles to the State-level expansion; every other set of scenarios is refused
        rng = np.random.default_rng(8)
        refused = compiled = 0
        for _ in range(40):
            net, spp = random_network(rng, max_links=6, max_support=3, max_horizon=3)
            scenarios = range(1, spp.size + 1)
            for state in compile_graph(net, spp, initial_state(net, spp)).states[:6]:
                if net.is_destination(state.link):
                    continue
                classes = stdroute.event_collections_at(spp, state.time)
                for n in range(1, spp.size + 1):
                    for members in itertools.combinations(scenarios, n):
                        ev = EventCollection(members)
                        initial = State(state.link, state.time, ev)
                        if ev in classes:
                            assert_same_outcome(net, spp, initial)
                            compiled += 1
                        else:
                            assert_refused(compile_graph, net, spp, initial)
                            refused += 1
        assert refused and compiled

    def test_subset_and_inconsistent_initial_states_on_the_bundled_network(self, net, spp, s0):
        # EV{1} is a subset of the class at time 0; scenarios 1 and 2 disagree on link 2 at time 1
        for state in (State(0, 0, EventCollection((1,))), State(1, 1, EventCollection((1, 2)))):
            for read in refusing_readers():
                assert_refused(read, net, spp, state)
        for state in (s0, State(1, 1, EventCollection((1,))), State(1, 1, EventCollection((2,)))):
            assert_same_outcome(net, spp, state)

    def test_horizon_and_dead_end_errors_name_the_same_state(self):
        # compile raises where the expansion raises: a reachable cycle of links is named before any
        # state is expanded; otherwise the error (a dead end) names the state the expansion met
        rng = np.random.default_rng(3)
        kinds = set()
        for _ in range(300):
            net, spp = cyclic_network(rng)
            s0 = initial_state(net, spp)
            got = outcome(compile_graph, net, spp, s0)
            expected = outcome(oracle.compile_graph, net, spp, s0)
            assert isinstance(got, tuple) == isinstance(expected, tuple)
            if reaches_a_cycle(net, s0.link):
                kind, message = got
                match = CYCLE_MESSAGE.fullmatch(message)
                assert kind is HorizonError and match and match[2] == repr(s0)
                cycle = [int(a) for a in match[1].split(" -> ")]
                assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
                assert all(b in net.outgoing(a) for a, b in zip(cycle, cycle[1:]))
                assert reaches(net, s0.link, cycle[0])
                kinds.add((kind, expected[0]))
            elif isinstance(expected, tuple):
                assert got == expected
                kinds.add(got[0])
            else:
                assert oracle.graph_mismatches(got, expected) == []
                kinds.add(None)
        # a cycle past a dead end is named too, where the expansion met the dead end first
        assert kinds == {
            None,
            UnreachableDestinationError,
            (HorizonError, HorizonError),
            (HorizonError, UnreachableDestinationError),
        }

    def test_a_cycle_with_a_time_of_a_trillion_is_named_at_once(self):
        # the expansion would need about 5e11 states to reach the trip horizon
        src = str(Path(stdroute.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        script = (
            "import numpy as np, stdroute as sr\n"
            "links = tuple(sr.Link(i, t, h) for i, (t, h) in enumerate(('oo', 'om', 'mn', 'nm', 'nz')))\n"
            "net = sr.StdNetwork(('o', 'm', 'n', 'z'), links, 0, 4, 1)\n"
            "times = np.ones((1, 1, 4), dtype=np.int64)\n"
            "times[0, 0, 3] = 10**12\n"
            "spp = sr.SupportPointSet((1, 2, 3, 4), times, np.array([1.0]))\n"
            "try:\n"
            "    sr.compile_graph(net, spp, sr.initial_state(net, spp))\n"
            "except sr.HorizonError as exc:\n"
            "    print(exc)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert CYCLE_MESSAGE.fullmatch(run.stdout.rstrip("\n")).groups() == ("2 -> 3 -> 2", "State(0,0,{1})")

    def test_an_initial_state_outside_the_support_points_is_refused(self, net, spp, s0):
        for state, message in (
            (State(0, -1, s0.ev), "time period must be non-negative"),
            (State(0, 0, EventCollection((1, 3))), "knowledge state EV{1,3} is not a partition class"),
        ):
            with pytest.raises(ValidationError, match=re.escape(message)):
                compile_graph(net, spp, state)

    def test_a_destination_state_is_refused(self, net, spp, s0):
        arrival = enumerate_sequences(net, spp, s0)[0].final_state
        for build in (compile_graph, decision_graph):
            with pytest.raises(ValidationError, match="at least a departure and an arrival"):
                build(net, spp, arrival)

    def test_the_view_is_the_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            net, spp = random_network(rng, max_links=8)
            s0 = initial_state(net, spp)
            view, expanded = decision_graph(net, spp, s0), oracle.decision_graph(net, spp, s0)
            assert view.initial == expanded.initial
            assert view.states == tuple(sorted(compile_graph(net, spp, s0).states, key=lambda s: s.sort_key))
            assert view.states == expanded.states
            assert view.terminal == expanded.terminal
            assert view.choices == expanded.choices


class TestOneContractFromCompileToLikelihood:
    """What a solve from any state lists and samples, the likelihood readers accept."""

    @pytest.mark.parametrize("model", ["recursive", "nonrecursive"])
    def test_every_state_as_the_initial_state(self, model):
        solve = solve_value_functions if model == "recursive" else solve_value_functions_nr
        utility = LinkUtilitySpec(beta=(-0.7,), mu=0.8)
        rng = np.random.default_rng(40)
        solved = refused = 0
        for _ in range(40):
            net, spp = random_network(rng, max_links=6, max_support=3, max_horizon=3)
            for state in compile_graph(net, spp, initial_state(net, spp)).states:
                if net.is_destination(state.link):
                    continue
                vf = solve(net, spp, utility, initial=state)
                sampled = ObservationSet.from_counts(sample_sequence_counts(vf, 50, seed=1))
                sampled.validate(net, spp)
                listed = sequence_probabilities(vf)
                obs = ObservationSet(tuple(listed))
                expected = math.fsum(math.log(p) for p in listed.values())
                got = log_likelihood(model, net, spp, obs, utility.beta, utility.mu)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
                solved += 1
                classes = stdroute.event_collections_at(spp, state.time)
                for n in range(1, spp.size + 1):
                    for members in itertools.combinations(range(1, spp.size + 1), n):
                        ev = EventCollection(members)
                        if ev not in classes:
                            for read in refusing_readers():
                                assert_refused(read, net, spp, State(state.link, state.time, ev))
                            refused += 1
        assert solved > 100 and refused > 100


class TestGraph:
    def test_layers_are_contiguous_height_levels(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net, spp = random_network(rng, max_links=8)
            graph = compile_graph(net, spp, initial_state(net, spp))
            heights = oracle.heights(oracle.decision_graph(net, spp, graph.initial))
            height = np.array([heights[s] for s in graph.states])
            assert graph.initial == initial_state(net, spp)
            assert graph.layers[0].states == slice(0, 1)
            covered = []
            for layer in graph.layers:
                assert len(set(height[layer.states].tolist())) == 1
                assert not graph.terminal[layer.states].any()
                covered.extend(range(layer.states.start, layer.states.stop))
                assert layer.actions.start == graph.action_ptr[layer.states.start]
                assert layer.actions.stop == graph.action_ptr[layer.states.stop]
                assert layer.edges.start == graph.edge_ptr[layer.actions.start]
                assert layer.edges.stop == graph.edge_ptr[layer.actions.stop]
                targets = graph.edge_target[layer.edges]
                assert (height[targets] < height[layer.states.start]).all()
            assert covered == np.flatnonzero(~graph.terminal).tolist()
            steps = max(len(seq.states) for seq in sequence_table(graph).sequences) - 1
            assert len(graph.layers) == steps

    def test_arrays_match_the_expansion(self, net, spp, s0):
        graph = compile_graph(net, spp, s0)
        expanded = oracle.decision_graph(net, spp, s0)
        assert set(graph.states) == set(expanded.states)
        for i, state in enumerate(graph.states):
            choices = expanded.choices.get(state, {})
            actions = slice(graph.action_ptr[i], graph.action_ptr[i + 1])
            assert graph.action_link[actions].tolist() == list(choices)
            for j in range(actions.start, actions.stop):
                edges = slice(graph.edge_ptr[j], graph.edge_ptr[j + 1])
                successors = choices[int(graph.action_link[j])]
                assert [graph.states[k] for k in graph.edge_target[edges]] == [s for s, _ in successors]
                assert graph.edge_prob[edges].tolist() == [p for _, p in successors]

    def test_second_solve_reuses_the_compiled_graph(self, monkeypatch):
        net, spp = load_network(bundled_network_text())
        calls = []
        original = stdroute.network._compile

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stdroute.network, "_compile", counted)
        s0 = initial_state(net, spp)
        first = solve_value_functions(net, spp, LinkUtilitySpec())
        second = solve_value_functions(net, spp, LinkUtilitySpec(beta=(-2.0,), mu=0.5))
        enumerate_policies(net, spp, s0)
        enumerate_sequences(net, spp, s0)
        decision_graph(net, spp, s0)
        assert len(calls) == 1
        assert first.graph is second.graph

    def test_attributes_are_extracted_once_per_extractor(self, net, spp, s0):
        calls = []

        def attributes(cnet, cspp, a, state):
            calls.append(a)
            return (float(travel_time(cnet, cspp, a, state)),)

        for beta in (-1.0, -0.5, -2.0):
            solve_value_functions(net, spp, LinkUtilitySpec(beta=(beta,), attributes=attributes))
        assert len(calls) == len(compile_graph(net, spp, s0).action_link)

    def test_the_oldest_attribute_matrix_is_evicted(self):
        net, spp = load_network(bundled_network_text())
        graph = compile_graph(net, spp, initial_state(net, spp))
        calls = []

        def extractor(k):
            def attributes(cnet, cspp, a, state):
                calls.append(k)
                return (float(k),)

            return attributes

        extractors = [extractor(k) for k in range(stdroute.network.ATTRIBUTE_CACHE_SIZE + 1)]
        for f in extractors:
            graph.attribute_matrix(f)
        per_matrix = len(graph.action_link)
        assert len(calls) == len(extractors) * per_matrix
        # the newest are kept; the first was dropped to make room for the last, so it is rebuilt
        graph.attribute_matrix(extractors[-1])
        assert len(calls) == len(extractors) * per_matrix
        assert np.array_equal(graph.attribute_matrix(extractors[0]), np.zeros((per_matrix, 1)))
        assert len(calls) == (len(extractors) + 1) * per_matrix

    def test_attribute_count_must_match_beta(self, net, spp):
        with pytest.raises(ValidationError, match="beta has 2"):
            solve_value_functions(net, spp, LinkUtilitySpec(beta=(-1.0, 0.5)))

    def test_solve_from_a_destination_state(self, net, spp, s0):
        # a one-state "trip" has no departure: compiling from the arrival is refused
        arrival = enumerate_sequences(net, spp, s0)[0].final_state
        with pytest.raises(ValidationError, match="at least a departure and an arrival"):
            compile_graph(net, spp, arrival)
        with pytest.raises(ValidationError, match="at least a departure and an arrival"):
            solve_value_functions(net, spp, LinkUtilitySpec(), initial=arrival)


SOLVERS = (solve_value_functions, solve_value_functions_nr)


def time_and_parity(net, spp, a, state):
    return (float(travel_time(net, spp, a, state)), float(a % 2))


class TestBatchSweep:
    """A batch is swept as its columns would be alone: every array is bitwise equal."""

    def test_a_batch_of_both_models_and_scales_is_its_single_solves(self):
        rng = np.random.default_rng(1313)
        for _ in range(200):
            net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
            utility = LinkUtilitySpec(beta=(-float(rng.uniform(0.5, 2.0)),))
            graph = compile_graph(net, spp, initial_state(net, spp))
            steps = sequence_table(graph).steps
            singles, scales = [], []
            for mu in (1.0, 0.3, 1e-3):
                scaled = utility.with_mu(mu)
                singles += [solve(net, spp, scaled) for solve in SOLVERS]
                scales += [np.full(len(graph.states), mu), mu / graph.reach]
            batch = solve_log_sum(graph, utility, np.stack(scales, axis=1))
            log_likelihoods = sequence_log_likelihoods(batch, steps)
            for b, vf in enumerate(singles):
                for name in ("state_values", "action_values", "choice_probs", "log_choice_probs"):
                    assert np.array_equal(getattr(batch, name)[:, b], getattr(vf, name)), name
                assert np.array_equal(log_likelihoods[:, b], sequence_log_likelihoods(vf, steps))

    def test_gradients_are_one_sweep_per_coefficient(self):
        rng = np.random.default_rng(1314)
        for _ in range(200):
            net, spp = random_network(rng, max_links=8, max_support=3, max_horizon=3)
            mu = float(rng.choice([1.0, 0.3, 1e-3]))
            utility = LinkUtilitySpec(beta=(-1.0, 0.5), mu=mu, attributes=time_and_parity)
            for solve in SOLVERS:
                vf = solve(net, spp, utility)
                graph, probs = vf.graph, vf.choice_probs

                def expectation(dq, layer):
                    a, d = layer.actions, layer.states
                    return np.bincount(graph.action_owner[a], probs[a] * dq, d.stop - d.start)

                X = graph.attribute_matrix(time_and_parity)
                dV, dq = value_gradients(vf)
                for k in range(X.shape[1]):
                    dV_k, dq_k = graph.sweep(X[:, k], expectation)
                    assert np.array_equal(dV[:, k], dV_k) and np.array_equal(dq[:, k], dq_k)


class TestLikelihoodLookups:
    def test_infeasible_sequence_reports_the_validation_error(self, vf, net, spp, s0):
        bad = StateSequence(
            (s0, State(1, 3, EventCollection((1,))), State(2, 6, EventCollection((1,))))
        )
        with pytest.raises(ValidationError) as expected:
            bad.validate(net, spp)
        with pytest.raises(ValidationError) as got:
            sequence_log_likelihood(vf, bad)
        assert str(got.value) == str(expected.value)

    def test_unfinished_sequence_reports_the_validation_error(self, vf, net, spp, s0):
        seq = enumerate_sequences(net, spp, s0)[0]
        with pytest.raises(ValidationError, match="does not end at the destination"):
            sequence_log_likelihood(vf, StateSequence(seq.states[:-1]))

    def test_feasible_sequence_outside_the_solved_graph_is_rejected(self, net, spp, s0):
        full = enumerate_sequences(net, spp, s0)[0]
        junction = solve_value_functions(net, spp, LinkUtilitySpec(), initial=full.states[1])
        with pytest.raises(ValidationError, match="not reachable"):
            sequence_log_likelihood(junction, full)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SupportPointSet(
                link_ids=(1,),
                travel_times=np.ones((2, 1, 1), dtype=np.int64),
                probabilities=np.array([bad, 0.5]),
            )

    def test_nan_probability_in_a_document_rejected(self):
        doc = json.loads(bundled_network_text())
        doc["support_points"][0]["probability"] = math.nan
        with pytest.raises(ValidationError, match="finite"):
            load_network(json.dumps(doc))

    def test_non_finite_travel_time_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            SupportPointSet(
                link_ids=(1,),
                travel_times=np.full((1, 1, 1), math.inf),
                probabilities=np.array([1.0]),
            )

    # 2**63 does not fit the int64 counts
    @pytest.mark.parametrize("n", [0, -3, 2.5, True, 2**63])
    def test_sample_size_must_be_positive(self, vf, cs, unit_utility, n):
        with pytest.raises(ValidationError, match="positive integer"):
            sample_sequence_counts(vf, n, seed=1)
        with pytest.raises(ValidationError, match="positive integer"):
            sample_sequence_counts_nr(cs, unit_utility, n, seed=1)

    @pytest.mark.parametrize("model", ["recursive", "nonrecursive"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_cli_rejects_non_positive_samples(self, tmp_path, capsys, model, samples):
        path = tmp_path / "net.json"
        path.write_text(bundled_network_text())
        args = ["simulate", str(path), "--model", model, "--samples", samples]
        assert main(args) == 1
        assert "positive integer" in capsys.readouterr().err

    def test_cli_rejects_a_sample_size_beyond_int64(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(bundled_network_text())
        assert main(["simulate", str(path), "--samples", str(2**63)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the number of samples must be a positive integer of at most 2**63 - 1,"
            " got 9223372036854775808\n"
        )

    def test_a_trillion_trips_are_counted_exactly(self, vf):
        # the counts are split down the prefix tree, so the cost does not grow with n
        counts = sample_sequence_counts(vf, 10**12, seed=1)
        assert sum(counts.values()) == 10**12


class TestModuleEntryPoints:
    @staticmethod
    def run(*args):
        src = str(Path(stdroute.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("module", ["stdroute", "stdroute.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        path = tmp_path / "net.json"
        path.write_text(bundled_network_text())
        run = self.run("-m", module, "simulate", str(path), "--samples", "0")
        assert run.returncode == 1
        assert "error:" in run.stderr and "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", ["import", "validate", "estimate"])
    def test_no_command_imports_scipy(self, tmp_path, vf, command):
        net_path, obs_path = tmp_path / "net.json", tmp_path / "obs.json"
        net_path.write_text(bundled_network_text())
        obs_path.write_text(ObservationSet.from_counts(sample_sequence_counts(vf, 50, seed=1)).to_json())
        args = {
            "import": ["-c", "import stdroute"],
            "validate": ["-m", "stdroute", "validate", str(net_path)],
            "estimate": ["-m", "stdroute", "estimate", str(net_path), str(obs_path), "--beta=-0.5"],
        }[command]
        run = self.run("-X", "importtime", *args)
        assert run.returncode == 0
        if command == "estimate":
            assert "converged:      True" in run.stdout
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in run.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "stdroute.estimation" in imported
        assert not [name for name in imported if name.split(".")[0] == "scipy"]
