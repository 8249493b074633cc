"""Model comparison on the two-route benchmark and equivalence checks.

The benchmark network has one origin-to-junction link followed by two
parallel links to the destination. Nature picks one of two states at the
junction: link 2 takes ``a`` or ``b`` time units, link 3 takes ``a + x``
or ``b + y``. The sign pattern of (x, y) decides whether one route beats
the other in every state, and closed forms give each model's ratio of
route choice probabilities, conditionally per state and marginally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import StdRouteError, ValidationError
from .network import (
    CompiledGraph,
    Link,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    initial_state as departure_state,
)
from .nonrecursive import solve_value_functions_nr
from .policy import sequence_table
from .recursive import choice_distribution, sequence_likelihoods, solve_value_functions
from .utility import LinkUtilitySpec, ValueFunction

MAX_TIME_DENOMINATOR = 10**4

LINK_ORIGIN = 0
LINK_APPROACH = 1
LINK_ROUTE2 = 2
LINK_ROUTE3 = 3


@dataclass(frozen=True)
class TwoRouteScenario:
    """Parameters of the two-route benchmark.

    a, b : travel time of link 2 in states 1 and 2 (both positive)
    x, y : offsets of link 3 relative to link 2 per state (x > -a, y > -b)
    p    : probability of state 1 (0 < p < 1)
    """

    a: float
    b: float
    x: float
    y: float
    p: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValidationError("a must be positive")
        if not self.b > 0:
            raise ValidationError("b must be positive")
        if not self.x > -self.a:
            raise ValidationError("x must exceed -a")
        if not self.y > -self.b:
            raise ValidationError("y must exceed -b")
        if not 0 < self.p < 1:
            raise ValidationError("p must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class TwoRouteBuild:
    """Concrete network for a scenario.

    Travel times are integers, so fractional scenario values are scaled
    by a common denominator; ``utility`` carries the matching travel-time
    coefficient -1/time_scale, which reproduces the unscaled utilities
    exactly.
    """

    network: StdNetwork
    support_points: SupportPointSet
    initial_state: State
    time_scale: int
    utility: LinkUtilitySpec


def _as_fraction(value: float, name: str) -> Fraction:
    frac = Fraction(value).limit_denominator(MAX_TIME_DENOMINATOR)
    if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
        raise ValidationError(
            f"{name}={value!r} is not representable with denominator <= {MAX_TIME_DENOMINATOR}"
        )
    return frac


def build_two_route_network(
    s: TwoRouteScenario, time_scale: int | None = None
) -> TwoRouteBuild:
    """Materialize the scenario as a network with two travel-time scenarios.

    The approach link takes one unit in both scenarios at the departure
    period and differs at the next period, so the junction states are
    always distinguishable. Route times follow the scenario parameters.
    """
    fa = _as_fraction(s.a, "a")
    fb = _as_fraction(s.b, "b")
    f3a = _as_fraction(s.a + s.x, "a+x")
    f3b = _as_fraction(s.b + s.y, "b+y")
    scale = time_scale
    if scale is None:
        scale = math.lcm(fa.denominator, fb.denominator, f3a.denominator, f3b.denominator)
    if scale > MAX_TIME_DENOMINATOR:
        raise ValidationError(f"required time scale {scale} exceeds {MAX_TIME_DENOMINATOR}")

    def scaled(frac: Fraction, name: str) -> int:
        value = frac * scale
        if value.denominator != 1:
            raise ValidationError(f"{name} is not an integer at time scale {scale}")
        if value < 1:
            raise ValidationError(f"{name} scales to a non-positive travel time")
        return int(value)

    t2_s1, t2_s2 = scaled(fa, "a"), scaled(fb, "b")
    t3_s1, t3_s2 = scaled(f3a, "a+x"), scaled(f3b, "b+y")
    g = int(scale)

    net = StdNetwork(
        nodes=("a", "b", "c"),
        links=(
            Link(LINK_ORIGIN, "a", "a"),
            Link(LINK_APPROACH, "a", "b"),
            Link(LINK_ROUTE2, "b", "c"),
            Link(LINK_ROUTE3, "b", "c"),
        ),
        origin_link=LINK_ORIGIN,
        destination_link=LINK_ROUTE2,
        horizon=2,
    )
    times = np.array(
        [
            [[g, g, g], [g, t2_s1, t3_s1]],
            [[g, g, g], [2 * g, t2_s2, t3_s2]],
        ],
        dtype=np.int64,
    )
    spp = SupportPointSet(
        link_ids=(LINK_APPROACH, LINK_ROUTE2, LINK_ROUTE3),
        travel_times=times,
        probabilities=np.array([s.p, 1.0 - s.p]),
    )
    utility = LinkUtilitySpec(beta=(-1.0 / g,), mu=1.0)
    return TwoRouteBuild(
        network=net,
        support_points=spp,
        initial_state=departure_state(net, spp),
        time_scale=g,
        utility=utility,
    )


class RouteRatios(NamedTuple):
    """P(link 2) / P(link 3): conditional on each state, then marginal."""

    state1: float
    state2: float
    marginal: float


@dataclass(frozen=True)
class ModelRatios:
    recursive: RouteRatios
    nonrecursive: RouteRatios


@dataclass(frozen=True)
class RatioTable:
    scenario: TwoRouteScenario
    closed_form: ModelRatios
    pipeline: ModelRatios


def _marginal_ratio(u: float, v: float, p: float) -> float:
    """Mix per-state odds u and v into the marginal odds of route 2 over route 3."""
    return (p * (v + 1.0) * u + (1.0 - p) * (u + 1.0) * v) / (
        p * (v + 1.0) + (1.0 - p) * (u + 1.0)
    )


def closed_form_ratios(s: TwoRouteScenario) -> ModelRatios:
    """Analytic probability ratios at unit scale with utility equal to negative travel time."""
    rec1, rec2 = math.exp(s.x), math.exp(s.y)
    nr1, nr2 = math.exp(s.p * s.x), math.exp(s.y - s.p * s.y)
    return ModelRatios(
        recursive=RouteRatios(rec1, rec2, _marginal_ratio(rec1, rec2, s.p)),
        nonrecursive=RouteRatios(nr1, nr2, _marginal_ratio(nr1, nr2, s.p)),
    )


def _junction_states(graph: CompiledGraph) -> tuple[State, State]:
    """The next states of the approach link from the departure state, in partition order."""
    j = graph.action(0, LINK_APPROACH)
    targets = graph.edge_target[graph.edge_ptr[j]:graph.edge_ptr[j + 1]].tolist()
    if len(targets) != 2:
        raise ValidationError("expected exactly two junction states")
    return graph.states[targets[0]], graph.states[targets[1]]


def _route_ratios(vf: ValueFunction, st1: State, st2: State, p: float) -> RouteRatios:
    """Route odds at each junction state of a solved model, then mixed by the state probability."""
    d1 = choice_distribution(vf, st1)
    d2 = choice_distribution(vf, st2)
    m2 = p * d1[LINK_ROUTE2] + (1.0 - p) * d2[LINK_ROUTE2]
    m3 = p * d1[LINK_ROUTE3] + (1.0 - p) * d2[LINK_ROUTE3]
    return RouteRatios(
        d1[LINK_ROUTE2] / d1[LINK_ROUTE3], d2[LINK_ROUTE2] / d2[LINK_ROUTE3], m2 / m3
    )


def pipeline_ratios(s: TwoRouteScenario) -> ModelRatios:
    """Same ratios computed through the full model machinery, for cross-validation.

    Every policy passes through both junction states, so the
    non-recursive model's choice probabilities there are the policy
    logit's marginal route shares.
    """
    build = build_two_route_network(s)
    st1, st2 = _junction_states(
        compile_graph(build.network, build.support_points, build.initial_state)
    )
    args = (build.network, build.support_points, build.utility, build.initial_state)
    return ModelRatios(
        recursive=_route_ratios(solve_value_functions(*args), st1, st2, s.p),
        nonrecursive=_route_ratios(solve_value_functions_nr(*args), st1, st2, s.p),
    )


def ratio_table(s: TwoRouteScenario) -> RatioTable:
    """Closed-form ratios next to the full-pipeline ones; they agree to solver precision."""
    return RatioTable(scenario=s, closed_form=closed_form_ratios(s), pipeline=pipeline_ratios(s))


def dominance_class(s: TwoRouteScenario) -> str:
    """Classify the sign pattern of (x, y).

    Both zero: the routes are identical per state. Both positive: link 2
    beats link 3 in every state. Both negative: link 3 beats link 2 in
    every state. Anything else: neither route dominates.
    """
    if s.x == 0 and s.y == 0:
        return "equal"
    if s.x > 0 and s.y > 0:
        return "route2_dominant"
    if s.x < 0 and s.y < 0:
        return "route3_dominant"
    return "nondominated"


def _margin(ratio: float) -> float:
    """P(link2) - P(link3) recovered from their ratio (the two sum to one)."""
    return (ratio - 1.0) / (ratio + 1.0)


def extremeness_check(s: TwoRouteScenario, tol: float = 1e-12) -> str:
    """Which model spreads the marginal route probabilities further apart."""
    ratios = closed_form_ratios(s)
    rec = abs(_margin(ratios.recursive.marginal))
    nr = abs(_margin(ratios.nonrecursive.marginal))
    if abs(rec - nr) <= tol:
        return "equal"
    return "recursive_more_extreme" if rec > nr else "nonrecursive_more_extreme"


@dataclass(frozen=True)
class EquivalenceReport:
    """Observed agreement between the two models on one network."""

    support_count: int
    deterministic: bool
    path_probability_max_diff: float
    mus: tuple[float, ...]
    sequence_divergences: tuple[float, ...]
    divergence_monotone: bool


def equivalence_report(
    net: StdNetwork,
    spp: SupportPointSet,
    utility: LinkUtilitySpec | None = None,
    mus: tuple[float, ...] = (1.0, 0.1, 0.01, 1e-4),
) -> EquivalenceReport:
    """Compare the two models on one network.

    Reports the largest per-path probability difference at the base
    scale and the largest per-sequence divergence for each scale in
    ``mus``, which shrinks toward zero as choice becomes deterministic.
    On a single-scenario network the models must agree per path to
    1e-10; a larger difference raises, since it can only be a solver
    defect.
    """
    if utility is None:
        utility = LinkUtilitySpec()
    s0 = departure_state(net, spp)
    table = sequence_table(compile_graph(net, spp, s0))

    def probabilities(solve, spec: LinkUtilitySpec) -> np.ndarray:
        return sequence_likelihoods(solve(net, spp, spec, initial=s0), table.steps)

    rec = probabilities(solve_value_functions, utility)
    nr = probabilities(solve_value_functions_nr, utility)
    path_diff = float(np.max(np.abs(table.path_sums(rec) - table.path_sums(nr))))
    if spp.size == 1 and path_diff > 1e-10:
        raise StdRouteError(
            f"single-scenario network: the models must agree per path but differ by {path_diff!r}"
        )

    divergences = []
    for mu in mus:
        scaled = utility.with_mu(mu)
        rec = probabilities(solve_value_functions, scaled)
        nr = probabilities(solve_value_functions_nr, scaled)
        divergences.append(float(np.max(np.abs(rec - nr))))
    monotone = all(
        divergences[i + 1] <= divergences[i] + 1e-15 for i in range(len(divergences) - 1)
    )
    return EquivalenceReport(
        support_count=spp.size,
        deterministic=spp.size == 1,
        path_probability_max_diff=path_diff,
        mus=tuple(mus),
        sequence_divergences=tuple(divergences),
        divergence_monotone=monotone,
    )


def scenario_grid(
    a: float = 2.0,
    b: float = 2.0,
    x_values: tuple[float, ...] = (-1.8, -1.1, -0.4, 0.3, 1.0, 1.7, 2.4, 3.1, 3.8, 4.5, 5.0),
    y_values: tuple[float, ...] = (-1.8, -1.1, -0.4, 0.3, 1.0, 1.7, 2.4, 3.1, 3.8, 5.0),
    p_values: tuple[float, ...] = (0.05, 0.275, 0.5, 0.725, 0.95),
) -> tuple[TwoRouteScenario, ...]:
    """Default benchmark grid: 550 scenarios spanning both offsets and the state probability."""
    return tuple(
        TwoRouteScenario(a=a, b=b, x=x, y=y, p=p)
        for x in x_values
        for y in y_values
        for p in p_values
    )
