"""Error branches that no other test reaches: each raises its class with its message.

The logit-scale tests check that a scale no solve can use is an error, not
a table of NaN: ``LinkUtilitySpec`` refuses a non-finite ``mu``, and a solve
(or a policy logit) whose finite utilities give non-finite values names the
scale; a batch solve names its first such column.
"""

import math
import re

import numpy as np
import pytest

from netgen import random_network
from stdroute import (
    EventCollection,
    Link,
    LinkUtilitySpec,
    NetworkFormatError,
    ObservationSet,
    RoutingPolicy,
    State,
    StdNetwork,
    SupportPointSet,
    TwoRouteScenario,
    ValidationError,
    build_two_route_network,
    choice_distribution,
    compile_graph,
    enumerate_policies,
    enumerate_sequences,
    event_collections_at,
    policy_choice_prob,
    policy_choice_probs,
    solve_value_functions,
    solve_value_functions_nr,
)
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
            (lambda: network(horizon=0), "horizon must be at least 1 period"),
            (lambda: network(origin_head="b"), "origin link may not end at the destination node"),
            (lambda: TwoRouteScenario(a=1, b=0, x=0, y=0, p=0.5), "b must be positive"),
        ],
    )
    def test_invalid_input(self, build, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()

    def test_traveler_ids_must_match_the_observations(self, net, spp, s0):
        seq = enumerate_sequences(net, spp, s0)[0]
        with pytest.raises(ValidationError, match="traveler_ids do not match the number"):
            ObservationSet(observations=(seq,), traveler_ids=("a", "b"))


class TestTwoRouteBuild:
    def test_time_scale_beyond_the_limit(self):
        # denominators 97, 103 and 7 are each representable; their lcm is not
        s = TwoRouteScenario(a=1 / 97, b=1 / 103, x=1 / 7 - 1 / 97, y=0, p=0.5)
        with pytest.raises(ValidationError, match="required time scale 69937 exceeds 10000"):
            build_two_route_network(s)

    def test_a_route_time_that_rounds_to_zero(self):
        s = TwoRouteScenario(a=2, b=2, x=-2 + 1e-13, y=0, p=0.5)
        with pytest.raises(ValidationError, match=r"a\+x scales to a non-positive travel time"):
            build_two_route_network(s)


class TestObservationDocument:
    def test_invalid_json(self, net, spp):
        with pytest.raises(NetworkFormatError, match="invalid JSON at line 1, column 2"):
            ObservationSet.from_json("[", net, spp)

    def test_not_a_list(self, net, spp):
        with pytest.raises(NetworkFormatError, match="must be a list of records"):
            ObservationSet.from_json("{}", net, spp)


class TestLookups:
    def test_negative_time_period(self, spp):
        with pytest.raises(ValidationError, match="time period must be non-negative"):
            event_collections_at(spp, -1)

    def test_link_that_is_not_an_outgoing_link(self, net, spp, s0):
        graph = compile_graph(net, spp, s0)
        with pytest.raises(ValidationError, match="link 9 is not an outgoing link of link 0"):
            graph.action(0, 9)

    def test_policy_outside_the_choice_set(self, cs, s0):
        with pytest.raises(ValidationError, match="policy is not a member of the choice set"):
            cs.index_of(RoutingPolicy(s0, ()))

    def test_choice_at_the_destination(self, net, vf):
        state = next(s for s in vf.graph.states if net.is_destination(s.link))
        with pytest.raises(ValidationError, match=re.escape(f"state {state} has no outgoing links")):
            choice_distribution(vf, state)

    def test_state_outside_the_graph(self, vf):
        state = State(1, 99, EventCollection((1,)))
        with pytest.raises(ValidationError, match=re.escape(f"no value stored for state {state}")):
            vf.state_index(state)


class TestLogitScale:
    @pytest.mark.parametrize("mu", [math.inf, math.nan, 0.0, -1.0])
    def test_spec_rejects_a_scale_that_is_not_finite_and_positive(self, mu):
        with pytest.raises(ValidationError, match="mu must be finite and strictly positive"):
            LinkUtilitySpec(mu=mu)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
            policy_choice_prob(cs, cs.policies[0], utility)

    @pytest.mark.parametrize("solve", [solve_value_functions, solve_value_functions_nr])
    def test_small_scale_that_stays_finite_is_solved(self, net, spp, solve):
        vf = solve(net, spp, LinkUtilitySpec(mu=1e-300))
        assert np.isfinite(vf.state_values).all()
        assert np.isfinite(vf.choice_probs).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
