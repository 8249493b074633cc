"""Error branches that no other test reaches: each raises its class with its message.

The logit-scale tests check that a scale no solve can use is an error, not
a table of NaN: ``LinkUtilitySpec`` refuses a non-finite ``mu``, and a solve
(or a policy logit) whose finite utilities give non-finite values names the
scale; a batch solve names its first such column.
"""

import json
import math
import re
import sys

import numpy as np
import pytest

from netgen import random_network
from oracle import policy_choice_prob, sequence_likelihood_value_form
from stdroute import (
    EventCollection,
    Link,
    LinkUtilitySpec,
    NetworkFormatError,
    ObservationSet,
    State,
    StdNetwork,
    SupportPointSet,
    TwoRouteScenario,
    ValidationError,
    build_two_route_network,
    choice_distribution,
    closed_form_ratios,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    event_collections_at,
    extremeness_check,
    load_network,
    load_network_file,
    path_probabilities,
    pipeline_ratios,
    policy_choice_probs,
    ratio_table,
    sample_sequence_counts,
    sequence_likelihood,
    sequence_log_likelihood,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)
from stdroute.network import read_text_file
from stdroute.numerics import as_rng, check_sample_size
from stdroute.recursive import solve_log_sum


def support_points(times, probabilities=(1.0,)):
    return SupportPointSet(
        link_ids=(1,), travel_times=np.asarray(times), probabilities=np.array(probabilities)
    )


def network(origin_head="a", horizon=1):
    return StdNetwork(
        nodes=("a", "b"),
        links=(Link(0, "a", origin_head), Link(1, "a", "b")),
        origin_link=0,
        destination_link=1,
        horizon=horizon,
    )


class TestConstruction:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: support_points(np.ones((1, 1), int)), "travel_times must have shape (R, K, m)"),
            (
                lambda: support_points(np.ones((1, 1, 2), int)),
                "travel_times columns do not match link_ids",
            ),
            (
                lambda: support_points(np.ones((1, 1, 1), int), (0.5, 0.5)),
                "probabilities do not match the number of support points",
            ),
            (
                lambda: SupportPointSet((1, 1), np.ones((1, 1, 2), int), np.array([1.0])),
                "link_ids must be distinct, got (1, 1)",
            ),
            (
                lambda: support_points(np.ones((1, 1, 1), int), [[1.0]]),
                "probabilities must be one number per support point, got shape (1, 1)",
            ),
            # above int64, an unsigned or a float time would wrap in the cast to int64
            (
                lambda: support_points(np.full((1, 1, 1), 2**63, np.uint64)),
                "travel times must be below 2**63, the int64 limit",
            ),
            (
                lambda: support_points(np.full((1, 1, 1), 1e30)),
                "travel times must be below 2**63, the int64 limit",
            ),
            (
                lambda: support_points(np.full((1, 1, 1), 2.0**63)),
                "travel times must be below 2**63, the int64 limit",
            ),
            (lambda: support_points(np.full((1, 1, 1), -1e30)), "zero or negative time found"),
            (lambda: network(horizon=0), "horizon must be at least 1 period"),
            (lambda: network(origin_head="b"), "origin link may not end at the destination node"),
            (lambda: TwoRouteScenario(a=1, b=0, x=0, y=0, p=0.5), "b must be positive"),
        ],
    )
    def test_invalid_input(self, build, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize(
        "times", [np.full((1, 1, 1), 2**63 - 1, np.uint64), np.full((1, 1, 1), 2.0**63 - 1024)]
    )
    def test_times_that_int64_holds_are_kept_exactly(self, times):
        kept = support_points(times).travel_times
        assert kept.dtype == np.int64
        assert kept.tolist() == [[[int(times[0, 0, 0])]]]

    @pytest.mark.parametrize("count", [-2, 2.5, True, "3"])
    def test_observation_counts_must_be_non_negative_integers(self, net, spp, s0, count):
        seq = enumerate_sequences(net, spp, s0)[0]
        message = f"the count of sequence {seq.label()} must be a non-negative integer, got {count!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ObservationSet.from_counts({seq: count})

    # a numpy scalar is printed as the Python number it holds, not as its repr
    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda seq: support_points(np.ones((2, 1, 1), int), np.array([0.3, 0.4])),
                "support point probabilities sum to 0.7, expected 1",
            ),
            (
                lambda seq: ObservationSet.from_counts({seq: np.int64(-2)}),
                "must be a non-negative integer, got -2",
            ),
            (
                lambda seq: ObservationSet.from_counts({seq: np.float64(2.5)}),
                "must be a non-negative integer, got 2.5",
            ),
            (
                lambda seq: check_sample_size(np.int64(0)),
                "the number of samples must be a positive integer of at most 2**63 - 1, got 0",
            ),
        ],
    )
    def test_a_numpy_value_is_printed_as_a_number(self, net, spp, s0, build, message):
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            build(enumerate_sequences(net, spp, s0)[0])

    def test_observation_counts_of_zero_and_numpy_integers_are_kept(self, net, spp, s0):
        first, second = enumerate_sequences(net, spp, s0)[:2]
        obs = ObservationSet.from_counts({first: 0, second: np.int64(2)})
        assert obs.observations == (second, second)

    def test_traveler_ids_must_match_the_observations(self, net, spp, s0):
        seq = enumerate_sequences(net, spp, s0)[0]
        with pytest.raises(ValidationError, match="traveler_ids do not match the number"):
            ObservationSet(observations=(seq,), traveler_ids=("a", "b"))


class TestTwoRouteBuild:
    @pytest.mark.parametrize(
        "values",
        [
            # denominators 97, 103 and 7, whose lcm no integer time scale could hold
            dict(a=1 / 97, b=1 / 103, x=1 / 7 - 1 / 97, y=0),
            # a route time of 1e-13, far below any integer time scale
            dict(a=2, b=2, x=-2 + 1e-13, y=0),
        ],
        ids=["time-scale-69937", "route-time-1e-13"],
    )
    def test_fractional_route_times_agree_with_the_closed_form(self, values):
        table = ratio_table(TwoRouteScenario(**values, p=0.5))
        for closed, piped in zip(table.closed_form.recursive, table.pipeline.recursive):
            assert piped == pytest.approx(closed, rel=1e-12)
        for closed, piped in zip(table.closed_form.nonrecursive, table.pipeline.nonrecursive):
            assert piped == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("p", [1e-300, 1e-301, 5e-324])
    def test_a_probability_too_small_for_the_pipeline_is_named(self, p):
        s = TwoRouteScenario(a=2, b=2, x=1, y=1, p=p)
        message = f"p={p!r} is too small for the non-recursive pipeline: its scale mu / p needs p > mu / 1e300"
        for read in (pipeline_ratios, ratio_table):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                read(s)
        assert closed_form_ratios(s).recursive == (math.e, math.e, math.e)

    def test_the_smallest_probability_above_the_limit_is_solved(self):
        p = math.nextafter(1e-300, 1.0)
        table = ratio_table(TwoRouteScenario(a=2, b=2, x=1, y=1, p=p))
        assert table.pipeline.recursive == pytest.approx(table.closed_form.recursive, rel=1e-12)
        assert table.pipeline.nonrecursive == pytest.approx(table.closed_form.nonrecursive, rel=1e-12)

    @pytest.mark.parametrize("name", ["a", "b", "x", "y", "p"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite(self, name, value):
        values = dict(a=2.0, b=2.0, x=1.0, y=1.0, p=0.5) | {name: value}
        message = f"^{name} must be a finite number, got {value!r}$"
        with pytest.raises(ValidationError, match=message):
            TwoRouteScenario(**values)

    @pytest.mark.parametrize(
        "values, name",
        [
            (dict(a=1e300), "a"),
            (dict(b=2.0**63), "b"),
            (dict(x=1e19), "a+x"),
            (dict(b=0.5, y=2.0**63), "b+y"),
        ],
    )
    def test_a_route_time_beyond_int64(self, values, name):
        # the closed forms are read first, so the table names their overflow when they have one
        pipeline_message, table_message = {
            "a": ["x=1.0 vanishes in floating point: a + x equals a=1e+300"] * 2,
            "b": ["y=1.0 vanishes in floating point: b + y equals b=9.223372036854776e+18"] * 2,
            "a+x": (
                "the pipeline route odds overflow at x=1e+19, y=1.0",
                "the closed-form ratio exp(x) overflows at x=1e+19",
            ),
            "b+y": (
                "the pipeline route odds overflow at x=1.0, y=9.223372036854776e+18",
                "the closed-form ratio exp(y) overflows at y=9.223372036854776e+18",
            ),
        }[name]
        s = TwoRouteScenario(**(dict(a=2.0, b=2.0, x=1.0, y=1.0, p=0.5) | values))
        for read, message in ((pipeline_ratios, pipeline_message), (ratio_table, table_message)):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                read(s)

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (800.0, 1.0, "the closed-form ratio exp(x) overflows at x=800.0"),
            (1.0, 710.0, "the closed-form ratio exp(y) overflows at y=710.0"),
            (700.0, 100.0, "the closed-form marginal ratio overflows at x=700.0, y=100.0"),
        ],
    )
    def test_a_closed_form_ratio_that_overflows(self, x, y, message):
        s = TwoRouteScenario(a=2.0, b=2.0, x=x, y=y, p=0.5)
        for read in (closed_form_ratios, extremeness_check):
            with pytest.raises(ValidationError, match=re.escape(message)):
                read(s)

    @pytest.mark.parametrize(
        "values, message",
        [
            (dict(a=1e18, x=1.0), "x=1.0 vanishes in floating point: a + x equals a=1e+18"),
            (dict(b=1e18, y=-1.0), "y=-1.0 vanishes in floating point: b + y equals b=1e+18"),
        ],
    )
    def test_an_offset_that_vanishes(self, values, message):
        s = TwoRouteScenario(**(dict(a=2.0, b=2.0, x=1.0, y=1.0, p=0.5) | values))
        for read in (build_two_route_network, pipeline_ratios):
            with pytest.raises(ValidationError, match=re.escape(message)):
                read(s)

    @pytest.mark.parametrize(
        "values, message",
        [
            (dict(a=1e308, x=1e308), "the route time a + x = 1e+308 + 1e+308 overflows to infinity"),
            (dict(b=1e308, y=1e308), "the route time b + y = 1e+308 + 1e+308 overflows to infinity"),
        ],
    )
    def test_a_route_time_that_overflows(self, values, message):
        # unchecked, 0 * -inf on the one-hot rows would make NaN utilities, with a RuntimeWarning
        s = TwoRouteScenario(**(dict(a=2.0, b=2.0, x=1.0, y=1.0, p=0.5) | values))
        for read in (build_two_route_network, pipeline_ratios):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                read(s)

    def test_a_zero_offset_on_a_large_time_is_kept(self):
        build = build_two_route_network(TwoRouteScenario(a=1e18, b=2.0, x=0.0, y=1.0, p=0.5))
        assert build.utility.beta == (-1e18, -1e18, -2.0, -3.0)

    @pytest.mark.parametrize("x", [740.0, 800.0])
    def test_pipeline_odds_that_overflow(self, x):
        # at x=740 route 3 is chosen with a subnormal probability, at x=800 with probability 0
        s = TwoRouteScenario(a=2.0, b=2.0, x=x, y=1.0, p=0.5)
        message = f"the pipeline route odds overflow at x={x!r}, y=1.0"
        with pytest.raises(ValidationError, match=re.escape(message)):
            pipeline_ratios(s)


class TestObservationDocument:
    def test_invalid_json(self, net, spp):
        with pytest.raises(NetworkFormatError, match="invalid JSON at line 1, column 2"):
            ObservationSet.from_json("[", net, spp)

    def test_not_a_list(self, net, spp):
        with pytest.raises(NetworkFormatError, match="must be a list of records"):
            ObservationSet.from_json("{}", net, spp)

    # the second record is the bad one; each error keeps its class and names the record
    @pytest.mark.parametrize(
        "states, message",
        [
            (
                [{"link": 0, "time": 0, "ev_members": []}, {"link": 1, "time": 1, "ev_members": [1]}],
                "record 1: event collection must be non-empty",
            ),
            (
                [{"link": 0, "time": 0, "ev_members": [0]}, {"link": 1, "time": 1, "ev_members": [1]}],
                "record 1: scenario indices are 1-based",
            ),
            (
                [{"link": 0, "time": 0}, {"link": 77, "time": 1}],
                "record 1: link 77 has no travel-time distribution",
            ),
        ],
    )
    def test_a_state_error_names_its_record(self, net, spp, s0, states, message):
        good = json.loads(ObservationSet(enumerate_sequences(net, spp, s0)[:1]).to_json())
        document = json.dumps(good + [{"states": states}])
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ObservationSet.from_json(document, net, spp)


class TestUnreadableDocument:
    """Input the JSON parser cannot read is a NetworkFormatError, not a raw traceback."""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe", "invalid start byte at byte 0"),
            (b'{"nodes": ["\xc3"]}', "invalid continuation byte at byte 12"),
        ],
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, data, message):
        path = tmp_path / "f.json"
        path.write_bytes(data)
        message = f"{path} is not UTF-8 text: {message}"
        for read in (read_text_file, load_network_file):
            with pytest.raises(NetworkFormatError, match=f"^{re.escape(message)}$"):
                read(path)

    def test_a_document_nested_too_deep(self, net, spp):
        for read in (load_network, lambda text: ObservationSet.from_json(text, net, spp)):
            with pytest.raises(NetworkFormatError, match="^invalid JSON: "):
                read("[" * 200_000)

    def test_an_integer_too_long_to_convert(self):
        # Python versions with a digit limit refuse the integer; without one the key check fails
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        message = "^invalid JSON: " if 0 < limit < 5000 else "^missing required key 'links'$"
        with pytest.raises(NetworkFormatError, match=message):
            load_network('{"nodes": ' + "1" * 5000 + "}")


class TestSeeds:
    # the reason after the colon is numpy's own message
    @pytest.mark.parametrize("seed", [-1, 1.5, "a", [1, -1]])
    def test_a_seed_numpy_refuses(self, vf, seed):
        with pytest.raises(ValidationError, match=re.escape(f"invalid random seed {seed!r}: ")):
            sample_sequence_counts(vf, 5, seed=seed)

    def test_a_generator_is_used_as_it_is(self):
        rng = np.random.default_rng(3)
        assert as_rng(rng) is rng


class TestLookups:
    def test_negative_time_period(self, spp):
        with pytest.raises(ValidationError, match="time period must be non-negative"):
            event_collections_at(spp, -1)

    def test_link_that_is_not_an_outgoing_link(self, net, spp, s0):
        graph = compile_graph(net, spp, s0)
        with pytest.raises(ValidationError, match="link 9 is not an outgoing link of link 0"):
            graph.action(0, 9)

    def test_choice_at_the_destination(self, net, vf):
        state = next(s for s in vf.graph.states if net.is_destination(s.link))
        with pytest.raises(ValidationError, match=re.escape(f"state {state} has no outgoing links")):
            choice_distribution(vf, state)

    def test_state_outside_the_graph(self, vf):
        state = State(1, 99, EventCollection((1,)))
        for read in (vf.state_index, lambda s: choice_distribution(vf, s)):
            with pytest.raises(ValidationError, match=re.escape(f"no value stored for state {state}")):
                read(state)

    def test_destination_of_an_unknown_link(self, net):
        with pytest.raises(ValidationError, match="^unknown link 99$"):
            net.is_destination(99)


# every reader that takes one scale per state (the value form is the oracle's), called on a batch
# solve and one of its sequences
PER_STATE_READERS = {
    "choice_distribution": lambda vf, seq: choice_distribution(vf, seq.states[0]),
    "sequence_probabilities": lambda vf, seq: sequence_probabilities(vf),
    "path_probabilities": lambda vf, seq: path_probabilities(vf),
    "sample_sequence_counts": lambda vf, seq: sample_sequence_counts(vf, 10, seed=0),
    "sequence_likelihood": lambda vf, seq: sequence_likelihood(vf, seq),
    "sequence_log_likelihood": lambda vf, seq: sequence_log_likelihood(vf, seq),
    "sequence_likelihood_value_form": lambda vf, seq: sequence_likelihood_value_form(vf, seq),
    "ValueFunction.__getitem__": lambda vf, seq: vf[seq.states[0]],
    "ValueFunction.get": lambda vf, seq: vf.get(seq.states[0]),
}


class TestBatchSolve:
    @pytest.mark.parametrize("reader", PER_STATE_READERS)
    def test_a_per_state_reader_refuses_a_batch_solve(self, vf, reader):
        seq = next(iter(sequence_probabilities(vf)))
        batch = solve_log_sum(vf.graph, vf.utility, np.ones((len(vf.graph.states), 2)))
        message = "this reader needs an unbatched solve, one scale per state; "
        message += "this one has batch axes (2,)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            PER_STATE_READERS[reader](batch, seq)


    def test_the_value_readers_agree_on_an_unbatched_solve(self, vf):
        for state, value in vf.values.items():
            assert vf[state] == vf.get(state) == value
        assert vf.get(State(99, 0, vf.initial.ev), "none") == "none"


class TestLogitScale:
    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
    def test_spec_rejects_a_scale_that_is_not_finite_and_positive(self, mu):
        with pytest.raises(ValidationError, match="mu must be finite and strictly positive"):
            LinkUtilitySpec(mu=mu)

    @pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
    @pytest.mark.parametrize(
        "mu, message",
        [
            (math.inf, "mu must be finite and strictly positive"),
            (1e-310, "the values are not finite at logit scale mu=1e-310"),
        ],
    )
    def test_solve_names_the_scale(self, net, spp, solve, mu, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            solve(net, spp, LinkUtilitySpec(mu=mu))

    def test_a_batch_names_its_first_column_that_is_not_finite(self, net, spp, s0):
        graph = compile_graph(net, spp, s0)
        scale = np.ones((len(graph.states), 1)) * [1.0, 1e-310, 1e-320]
        message = "the values are not finite at logit scale mu=1e-310"
        with pytest.raises(ValidationError, match=re.escape(message)):
            solve_log_sum(graph, LinkUtilitySpec(), scale)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_policy_probabilities_name_the_scale(self, net, spp, s0):
        cs = enumerate_policies(net, spp, s0)
        utility = LinkUtilitySpec(mu=1e-310)
        message = "the policy choice probabilities are not finite at logit scale mu=1e-310"
        with pytest.raises(ValidationError, match=re.escape(message)):
            policy_choice_probs(cs, utility)
        with pytest.raises(ValidationError, match=re.escape(message)):
            policy_choice_prob(cs, cs.rows[0], utility)

    @pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
    def test_small_scale_that_stays_finite_is_solved(self, net, spp, solve):
        vf = solve(net, spp, LinkUtilitySpec(mu=1e-300))
        assert np.isfinite(vf.state_values).all()
        assert np.isfinite(vf.choice_probs).all()

    def test_a_solve_that_returns_is_finite_everywhere(self):
        # the solve checks the initial state's value only
        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(40):
            net, spp = random_network(rng)
            for beta, mu in [
                (-1, 1e-320), (-1, 1e-308), (-1, 1e308), (-1e307, 1), (-1e306, 1e-3), (1e308, 1)
            ]:
                for solve in (solve_value_functions, solve_value_functions_nr):
                    try:
                        vf = solve(net, spp, LinkUtilitySpec(beta=(beta,), mu=mu))
                    except ValidationError:
                        outcomes.add("raised")
                        continue
                    outcomes.add("solved")
                    assert np.isfinite(vf.state_values).all()
                    assert np.isfinite(vf.choice_probs).all()
        assert outcomes == {"raised", "solved"}
