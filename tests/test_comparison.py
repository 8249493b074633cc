import itertools
import json
import math
import sys

import numpy as np
import pytest

import oracle
from netgen import bench_module, random_network
from stdroute import (
    EventCollection,
    LinkUtilitySpec,
    State,
    TwoRouteScenario,
    ValidationError,
    build_two_route_network,
    bundled_network_text,
    choice_distribution,
    closed_form_ratios,
    compile_graph,
    decision_graph,
    dominance_class,
    equivalence_report,
    extremeness_check,
    initial_state,
    load_network,
    path_probabilities,
    pipeline_ratios,
    ratio_table,
    scenario_grid,
    solve_value_functions,
)
from stdroute import comparison, network
from stdroute.cli import _parse_grid, build_parser
from stdroute.comparison import LINK_APPROACH, LINK_ROUTE2, LINK_ROUTE3


def max_ratio_diff(scenario) -> float:
    table = ratio_table(scenario)
    closed = (*table.closed_form.recursive, *table.closed_form.nonrecursive)
    numeric = (*table.pipeline.recursive, *table.pipeline.nonrecursive)
    return max(abs(c - n) for c, n in zip(closed, numeric))


class TestScenario:
    def test_domain_constraints(self):
        with pytest.raises(ValidationError):
            TwoRouteScenario(a=0, b=2, x=0.5, y=0.5, p=0.5)
        with pytest.raises(ValidationError):
            TwoRouteScenario(a=2, b=2, x=-2.5, y=0.5, p=0.5)
        with pytest.raises(ValidationError):
            TwoRouteScenario(a=2, b=2, x=0.5, y=-2.5, p=0.5)
        with pytest.raises(ValidationError):
            TwoRouteScenario(a=2, b=2, x=0.5, y=0.5, p=1.0)


class TestBuild:
    def test_reference_scenario_reproduces_the_bundled_network(self, net, spp, unit_utility):
        build = build_two_route_network(TwoRouteScenario(a=3, b=2, x=-1, y=0, p=0.5))
        bspp = build.support_points
        # junction route utilities: route 2 takes (3, 2), route 3 takes (2, 2)
        assert build.utility.beta == (-3.0, -2.0, -2.0, -2.0)
        assert np.allclose(bspp.probabilities, [0.5, 0.5])
        # junction behavior matches the bundled network's choice probabilities
        vf_built = solve_value_functions(
            build.network, bspp, build.utility, initial=build.initial_state
        )
        vf_bundled = solve_value_functions(net, spp, unit_utility)
        for (built_state, _), (bundled_state, _) in zip(
            decision_graph(build.network, bspp, build.initial_state).choices[build.initial_state][
                LINK_APPROACH
            ],
            decision_graph(net, spp, initial_state(net, spp)).choices[initial_state(net, spp)][1],
        ):
            for a in (LINK_ROUTE2, LINK_ROUTE3):
                assert choice_distribution(vf_built, built_state)[a] == pytest.approx(
                    choice_distribution(vf_bundled, bundled_state)[a], abs=1e-12
                )

    def test_every_time_is_one_but_the_approach_in_state_2(self):
        build = build_two_route_network(TwoRouteScenario(a=2, b=2, x=-1.8, y=0.3, p=0.5))
        times = np.ones((2, 2, 3), dtype=np.int64)
        times[1, 1, 0] = 2
        assert np.array_equal(build.support_points.travel_times, times)

    def test_route_utilities_at_the_junction_states(self):
        build = build_two_route_network(TwoRouteScenario(a=2, b=3, x=-1.8, y=0.3, p=0.4))
        graph = compile_graph(build.network, build.support_points, build.initial_state)
        u = build.utility.utilities(graph)
        assert u[graph.action(0, LINK_APPROACH)] == 0.0
        for scenario, expected in ((1, (-2.0, -(2.0 - 1.8))), (2, (-3.0, -3.3))):
            i = graph.index[State(LINK_APPROACH, 1, EventCollection((scenario,)))]
            assert (u[graph.action(i, LINK_ROUTE2)], u[graph.action(i, LINK_ROUTE3)]) == expected

    def test_zero_offsets_make_routes_identical_per_state(self):
        build = build_two_route_network(TwoRouteScenario(a=2, b=3, x=0, y=0, p=0.4))
        assert build.utility.beta == (-2.0, -2.0, -3.0, -3.0)

    def test_route2_dominant_when_offsets_positive(self):
        beta = build_two_route_network(TwoRouteScenario(a=2, b=2, x=1, y=1, p=0.5)).utility.beta
        assert beta[0] > beta[1] and beta[2] > beta[3]

    def test_fractional_values_are_utilities(self):
        build = build_two_route_network(TwoRouteScenario(a=2, b=2, x=-1.8, y=0.3, p=0.5))
        assert build.utility.beta == (-2.0, -(2.0 - 1.8), -2.0, -2.3)

    def test_any_finite_value_agrees_with_the_closed_form(self):
        # pi has no denominator below 10**4 that a time scale could use
        assert max_ratio_diff(TwoRouteScenario(a=2, b=2, x=math.pi, y=0.5, p=0.5)) < 1e-12


class TestRatioTable:
    def test_zero_offsets_equalize_the_models(self):
        table = ratio_table(TwoRouteScenario(a=2, b=3, x=0, y=0, p=0.3))
        for ratios in (table.closed_form.recursive, table.closed_form.nonrecursive):
            assert ratios == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert extremeness_check(table.scenario) == "equal"

    def test_reference_scenario_state_ratio(self, vf):
        table = ratio_table(TwoRouteScenario(a=3, b=2, x=-1, y=0, p=0.5))
        assert table.closed_form.recursive.state1 == pytest.approx(math.exp(-1), abs=1e-12)
        v1 = State(1, 1, EventCollection((1,)))
        observed = choice_distribution(vf, v1)[2] / choice_distribution(vf, v1)[3]
        assert table.closed_form.recursive.state1 == pytest.approx(observed, abs=1e-12)

    def test_closed_form_matches_pipeline_on_random_scenarios(self):
        rng = np.random.default_rng(89)
        for _ in range(25):
            scenario = TwoRouteScenario(
                a=float(rng.integers(1, 5)),
                b=float(rng.integers(1, 5)),
                x=round(float(rng.uniform(-0.9, 5)), 1),
                y=round(float(rng.uniform(-0.9, 5)), 1),
                p=float(rng.uniform(0.05, 0.95)),
            )
            assert max_ratio_diff(scenario) < 1e-10

    @pytest.mark.parametrize("a", [1e3, 1e6, 1e9])
    def test_agreement_is_bounded_by_the_rounding_of_the_route_times(self, a):
        # the utilities -a and -(a + x) carry x only to the rounding of a + x
        x, b, y = 0.1, 2.0, 1.0
        table = ratio_table(TwoRouteScenario(a=a, b=b, x=x, y=y, p=0.5))
        closed = (*table.closed_form.recursive, *table.closed_form.nonrecursive)
        piped = (*table.pipeline.recursive, *table.pipeline.nonrecursive)
        worst = max(abs(n - c) / c for c, n in zip(closed, piped))
        assert worst <= math.ulp(a + x) + math.ulp(b + y) + 4 * sys.float_info.epsilon

    def test_nonrecursive_state_ratios_depend_on_p(self):
        scenario = TwoRouteScenario(a=2, b=2, x=1.0, y=2.0, p=0.3)
        closed = closed_form_ratios(scenario)
        assert closed.nonrecursive.state1 == pytest.approx(math.exp(0.3), abs=1e-12)
        assert closed.nonrecursive.state2 == pytest.approx(math.exp(1.4), abs=1e-12)


class TestAgainstSeparateSolves:
    """The batch solves behind ratios and reports give bit for bit what one solve per model gives."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pipeline_ratios_on_the_benchmark_grids(self, seed):
        for a, b, x, y, p in bench_module("gen").two_route_grid(seed):
            s = TwoRouteScenario(a=a, b=b, x=x, y=y, p=p)
            assert pipeline_ratios(s) == oracle.pipeline_ratios(s)

    def test_builds_share_one_graph_per_probability(self):
        first, second, other = (
            build_two_route_network(TwoRouteScenario(a=2, b=2, x=x, y=1, p=p))
            for x, p in ((1, 0.5), (2, 0.5), (1, 0.25))
        )
        assert first.network is second.network is other.network
        assert first.support_points is second.support_points
        assert first.support_points is not other.support_points
        graph = compile_graph(first.network, first.support_points, first.initial_state)
        assert compile_graph(second.network, second.support_points, second.initial_state) is graph
        assert compile_graph(other.network, other.support_points, other.initial_state) is not graph
        assert first.utility.beta != second.utility.beta

    def test_equivalence_reports_on_the_benchmark_networks(self):
        texts = bench_module("gen").layered_networks(1, 210)
        for text in texts:
            net, spp = load_network(text)
            assert equivalence_report(net, spp) == oracle.equivalence_report(net, spp)


class TestDominance:
    def test_paper_cases(self):
        assert dominance_class(TwoRouteScenario(a=2, b=2, x=1, y=2, p=0.5)) == "route2_dominant"
        assert dominance_class(TwoRouteScenario(a=2, b=2, x=0, y=0, p=0.5)) == "equal"
        assert dominance_class(TwoRouteScenario(a=2, b=2, x=1, y=-0.5, p=0.5)) == "nondominated"
        assert dominance_class(TwoRouteScenario(a=2, b=2, x=-1, y=-0.5, p=0.5)) == "route3_dominant"


class TestExtremeness:
    def test_dominant_cases_favor_the_recursive_model(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            for y in (0.1, 1.0, 3.0):
                for p in (0.05, 0.5, 0.95):
                    s = TwoRouteScenario(a=2, b=2, x=x, y=y, p=p)
                    assert extremeness_check(s) == "recursive_more_extreme"

    def test_reference_scenario_margins(self):
        # marginal route-2 masses 0.6155 (recursive) vs 0.5612 (non-recursive)
        s = TwoRouteScenario(a=3, b=2, x=-1, y=0, p=0.5)
        closed = closed_form_ratios(s)
        rec_margin = (closed.recursive.marginal - 1) / (closed.recursive.marginal + 1)
        nr_margin = (closed.nonrecursive.marginal - 1) / (closed.nonrecursive.marginal + 1)
        assert abs(rec_margin) == pytest.approx(2 * 0.6155 - 1, abs=1e-4)
        assert abs(nr_margin) == pytest.approx(2 * 0.5612 - 1, abs=1e-4)
        assert extremeness_check(s) == "recursive_more_extreme"

    def test_odds_inequalities_on_the_positive_grid(self):
        for x in np.linspace(0.1, 5, 8):
            for y in np.linspace(0.1, 5, 8):
                for p in np.linspace(0.05, 0.95, 7):
                    closed = closed_form_ratios(TwoRouteScenario(a=2, b=2, x=x, y=y, p=p))
                    assert closed.recursive.state1 > closed.nonrecursive.state1 > 1
                    assert closed.recursive.state2 > closed.nonrecursive.state2 > 1

    def test_nondominated_can_go_either_way(self):
        verdicts = set()
        for x in np.linspace(0.1, 3, 10):
            for y in np.linspace(-1.5, -0.1, 10):
                for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                    s = TwoRouteScenario(a=2, b=2, x=float(x), y=float(y), p=p)
                    verdicts.add(extremeness_check(s))
        assert "recursive_more_extreme" in verdicts
        assert "nonrecursive_more_extreme" in verdicts


class TestEquivalenceReport:
    def test_single_scenario_variant_splits_evenly(self, unit_utility):
        doc = json.loads(bundled_network_text())
        doc["support_points"] = [doc["support_points"][1] | {"probability": 1.0}]
        net, spp = load_network(json.dumps(doc))
        report = equivalence_report(net, spp, unit_utility)
        assert report.deterministic
        assert report.path_probability_max_diff < 1e-10
        vf = solve_value_functions(net, spp, unit_utility)
        assert path_probabilities(vf) == pytest.approx({(1, 2): 0.5, (1, 3): 0.5})

    def test_random_deterministic_networks(self, unit_utility):
        rng = np.random.default_rng(97)
        for _ in range(5):
            net, spp = random_network(rng, support_count=1)
            report = equivalence_report(net, spp, unit_utility)
            assert report.deterministic
            assert report.path_probability_max_diff < 1e-10

    def test_bundled_network_divergence_shrinks(self, net, spp, unit_utility):
        report = equivalence_report(net, spp, unit_utility)
        assert not report.deterministic
        assert report.divergence_monotone
        assert report.sequence_divergences[-1] < 1e-9

    def test_small_scale_concentrates_on_the_faster_route(self, net, spp, unit_utility):
        vf = solve_value_functions(net, spp, unit_utility.with_mu(1e-4))
        assert choice_distribution(vf, State(1, 1, EventCollection((1,))))[3] >= 0.999


class TestGrid:
    def test_default_grid_size_and_bounds(self):
        grid = scenario_grid()
        assert len(grid) >= 500
        assert min(s.x for s in grid) == -1.8
        assert max(s.x for s in grid) == 5.0
        assert {s.p for s in grid} == {0.05, 0.275, 0.5, 0.725, 0.95}

    def test_pipeline_ratios_are_the_closed_forms_on_the_grid_and_the_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        axes = [_parse_grid(getattr(args, f"{n}_grid"), f"{n}-grid") for n in "xyp"]
        defaults = [
            TwoRouteScenario(a=args.a, b=args.b, x=x, y=y, p=p) for x, y, p in itertools.product(*axes)
        ]
        for s in (*scenario_grid(), *defaults):
            closed, piped = closed_form_ratios(s), pipeline_ratios(s)
            for model in ("recursive", "nonrecursive"):
                assert getattr(piped, model) == pytest.approx(getattr(closed, model), rel=1e-12, abs=0)

    def test_the_grid_compiles_one_graph_per_probability(self, monkeypatch):
        comparison._support_points.cache_clear()
        compiled, compile_ = [], network._compile
        monkeypatch.setattr(network, "_compile", lambda *args: compiled.append(args) or compile_(*args))
        grid = scenario_grid()
        for s in grid:
            pipeline_ratios(s)
        assert len(compiled) == len({s.p for s in grid})
