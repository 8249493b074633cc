"""Model comparison on the two-route benchmark and equivalence checks.

The benchmark network has one origin-to-junction link followed by two
parallel links to the destination. Nature picks one of two states at the
junction: link 2 takes ``a`` or ``b`` time units, link 3 takes ``a + x``
or ``b + y``. The sign pattern of (x, y) decides whether one route beats
the other in every state, and closed forms give each model's ratio of
route choice probabilities, conditionally per state and marginally.

The full models check the closed forms on a unit-time network, one per
state probability ``p``, which reads the route times as utilities: the
junction states need only be told apart, not timed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
from .nonrecursive import nonrecursive_scale
from .policy import sequence_table
from .recursive import sequence_likelihoods, solve_log_sum
from .utility import LinkUtilitySpec, ValueFunction

EQUIVALENCE_MUS = (1.0, 0.1, 0.01, 1e-4)
# marginal route-probability margins closer than this are "equal" extremeness
EXTREMENESS_TOL = 1e-12

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

    Every value must be a finite number.
    """

    a: float
    b: float
    x: float
    y: float
    p: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "x", "y", "p"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
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
    """A scenario as the unit-time two-route network of its ``p`` and route utilities.

    ``network``, ``support_points`` and ``initial_state`` depend on ``p``
    only, and scenarios with the same ``p`` share them and their compiled
    graph. ``utility`` carries the scenario's route times as utilities:
    the coefficients ``(-a, -(a + x), -b, -(b + y))`` of route 2 and
    route 3 in state 1, then in state 2, on one-hot route indicators.
    """

    network: StdNetwork
    support_points: SupportPointSet
    initial_state: State
    utility: LinkUtilitySpec


# the links of every scenario, built and validated once
TWO_ROUTE_NETWORK = StdNetwork(
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
# every link takes one unit, except the approach link in state 2 at period 1,
# which takes two so that the junction states are told apart
UNIT_TIMES = np.array([[[1, 1, 1], [1, 1, 1]], [[1, 1, 1], [2, 1, 1]]], dtype=np.int64)
# attribute column of (link, junction knowledge set): route 2 then route 3, state 1 then state 2
ROUTE_COLUMNS = {
    (LINK_ROUTE2, (1,)): 0,
    (LINK_ROUTE3, (1,)): 1,
    (LINK_ROUTE2, (2,)): 2,
    (LINK_ROUTE3, (2,)): 3,
}


def _route_indicators(net: StdNetwork, spp: SupportPointSet, a: int, state: State) -> tuple[float, ...]:
    """One-hot over (route 2, route 3) x (state 1, state 2); zeros on the approach link."""
    column = ROUTE_COLUMNS.get((a, state.ev.members))
    return tuple(float(k == column) for k in range(len(ROUTE_COLUMNS)))


# every scenario of a sweep reads the same few probabilities
@functools.lru_cache(maxsize=128)
def _support_points(p: float) -> tuple[SupportPointSet, State]:
    """The unit-time support points at state probability ``p``, and their departure state."""
    spp = SupportPointSet(
        link_ids=(LINK_APPROACH, LINK_ROUTE2, LINK_ROUTE3),
        travel_times=UNIT_TIMES,
        probabilities=np.array([p, 1.0 - p]),
    )
    return spp, departure_state(TWO_ROUTE_NETWORK, spp)


def build_two_route_network(s: TwoRouteScenario) -> TwoRouteBuild:
    """The scenario as the unit-time two-route network of ``s.p``, with its route utilities.

    The route times enter only as utilities, so any finite scenario in
    the domain builds unless ``a + x`` or ``b + y`` overflows (x > -a and
    y > -b, so only to +inf), or an offset is too small to change its
    route time in floating point: either raises ``ValidationError``.
    """
    for name, base in (("x", "a"), ("y", "b")):
        offset, time = getattr(s, name), getattr(s, base)
        route_time = time + offset
        if route_time == math.inf:
            raise ValidationError(
                f"the route time {base} + {name} = {time!r} + {offset!r} overflows to infinity"
            )
        if offset and route_time == time:
            raise ValidationError(
                f"{name}={offset!r} vanishes in floating point: {base} + {name} equals {base}={time!r}"
            )
    spp, initial = _support_points(s.p)
    utility = LinkUtilitySpec(
        beta=(-s.a, -(s.a + s.x), -s.b, -(s.b + s.y)), attributes=_route_indicators
    )
    return TwoRouteBuild(
        network=TWO_ROUTE_NETWORK, support_points=spp, initial_state=initial, utility=utility
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


def _exp(value: float, expression: str) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        raise ValidationError(
            f"the closed-form ratio exp({expression}) overflows at {expression}={value!r}"
        ) from None


def closed_form_ratios(s: TwoRouteScenario) -> ModelRatios:
    """Analytic probability ratios at unit scale with utility equal to negative travel time.

    A ratio beyond the float range raises ``ValidationError`` naming the
    parameters it overflows at.
    """
    rec1, rec2 = _exp(s.x, "x"), _exp(s.y, "y")
    # p x lies between 0 and x, (1 - p) y between 0 and y: finite when the two above are
    nr1, nr2 = math.exp(s.p * s.x), math.exp(s.y - s.p * s.y)
    rec_marginal, nr_marginal = _marginal_ratio(rec1, rec2, s.p), _marginal_ratio(nr1, nr2, s.p)
    if not (math.isfinite(rec_marginal) and math.isfinite(nr_marginal)):
        raise ValidationError(f"the closed-form marginal ratio overflows at x={s.x!r}, y={s.y!r}")
    return ModelRatios(
        recursive=RouteRatios(rec1, rec2, rec_marginal),
        nonrecursive=RouteRatios(nr1, nr2, nr_marginal),
    )


def _junction_actions(graph: CompiledGraph) -> list[tuple[int, int]]:
    """The route 2 and route 3 state-actions at each junction state, in partition order."""
    j = graph.action(0, LINK_APPROACH)
    targets = graph.edge_target[graph.edge_ptr[j]:graph.edge_ptr[j + 1]].tolist()
    return [(graph.action(i, LINK_ROUTE2), graph.action(i, LINK_ROUTE3)) for i in targets]


def _route_ratios(probs: list[float], junctions: list[tuple[int, int]], p: float) -> RouteRatios:
    """Route odds at each junction state of a solved model, then mixed by the state probability.

    Odds over a route 3 probability that underflowed to 0 are infinite.
    """
    (r2_1, r3_1), (r2_2, r3_2) = ((probs[j2], probs[j3]) for j2, j3 in junctions)
    m2 = p * r2_1 + (1.0 - p) * r2_2
    m3 = p * r3_1 + (1.0 - p) * r3_2
    pairs = ((r2_1, r3_1), (r2_2, r3_2), (m2, m3))
    return RouteRatios(*(r2 / r3 if r3 else math.inf for r2, r3 in pairs))


def _solve_both(graph: CompiledGraph, utility: LinkUtilitySpec, mus) -> ValueFunction:
    """Both models at each scale of ``mus`` as one batch solve, columns in that order.

    Column ``2 i`` is the recursive and column ``2 i + 1`` the
    non-recursive model at ``mus[i]``. The checks of the separate solves
    run per column in the same order: a column whose non-recursive scale
    is refused is reported only if the columns before it solve to finite
    values.
    """
    scale = np.empty((len(graph.states), 2 * len(mus)))
    for i, mu in enumerate(mus):
        scale[:, 2 * i] = mu
        try:
            scale[:, 2 * i + 1] = nonrecursive_scale(graph, mu)
        except ValidationError:
            solve_log_sum(graph, utility, scale[:, : 2 * i + 1])
            raise
    return solve_log_sum(graph, utility, scale)


def pipeline_ratios(s: TwoRouteScenario) -> ModelRatios:
    """Same ratios computed through the full model machinery, for cross-validation.

    Every policy passes through both junction states, so the
    non-recursive model's choice probabilities there are the policy
    logit's marginal route shares. Odds beyond the float range raise
    ``ValidationError``, as the closed forms do, and so does a ``p`` too
    small for the non-recursive scale ``mu / p`` of the state-1 junction
    (:func:`~stdroute.nonrecursive.nonrecursive_scale`).
    """
    build = build_two_route_network(s)
    # 1 - p is at least 1.1e-16, so only the state-1 junction can be too rare
    if s.p * 1e300 <= build.utility.mu:
        raise ValidationError(
            f"p={s.p!r} is too small for the non-recursive pipeline: "
            "its scale mu / p needs p > mu / 1e300"
        )
    graph = compile_graph(build.network, build.support_points, build.initial_state)
    junctions = _junction_actions(graph)
    rec, nr = _solve_both(graph, build.utility, (build.utility.mu,)).choice_probs.T.tolist()
    ratios = ModelRatios(
        recursive=_route_ratios(rec, junctions, s.p),
        nonrecursive=_route_ratios(nr, junctions, s.p),
    )
    if not all(map(math.isfinite, (*ratios.recursive, *ratios.nonrecursive))):
        raise ValidationError(f"the pipeline route odds overflow at x={s.x!r}, y={s.y!r}")
    return ratios


def ratio_table(s: TwoRouteScenario) -> RatioTable:
    """Closed-form ratios next to the full-pipeline ones.

    The pipeline carries the offsets only to the rounding of the route
    utilities -(a + x) and -(b + y), so the two agree to a relative
    difference of about ``ulp(a + x) + ulp(b + y)`` plus a few rounding
    errors, not to solver precision: about 2e-14 at a = 1e3 and 2e-8 at
    a = 1e9 for x = 0.1.
    """
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


def extremeness_check(s: TwoRouteScenario) -> str:
    """Which model spreads the marginal route probabilities further apart."""
    ratios = closed_form_ratios(s)
    rec = abs(_margin(ratios.recursive.marginal))
    nr = abs(_margin(ratios.nonrecursive.marginal))
    if abs(rec - nr) <= EXTREMENESS_TOL:
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
) -> EquivalenceReport:
    """Compare the two models on one network.

    Reports the largest per-path probability difference at the base
    scale and the largest per-sequence divergence for each scale in
    ``EQUIVALENCE_MUS``, which shrinks toward zero as choice becomes
    deterministic. On a single-scenario network the models must agree
    per path to 1e-10; a larger difference raises, since it can only be
    a solver defect.
    """
    if utility is None:
        utility = LinkUtilitySpec()
    graph = compile_graph(net, spp, departure_state(net, spp))
    table = sequence_table(graph)
    probs = sequence_likelihoods(
        _solve_both(graph, utility, (utility.mu, *EQUIVALENCE_MUS)), table.steps
    )
    rec, nr = probs[:, 0::2], probs[:, 1::2]
    path_diff = float(np.max(np.abs(table.path_sums(rec[:, 0]) - table.path_sums(nr[:, 0]))))
    if spp.size == 1 and path_diff > 1e-10:
        raise StdRouteError(
            f"single-scenario network: the models must agree per path but differ by {path_diff!r}"
        )

    divergences = np.max(np.abs(rec[:, 1:] - nr[:, 1:]), axis=0).tolist()
    monotone = all(
        divergences[i + 1] <= divergences[i] + 1e-15 for i in range(len(divergences) - 1)
    )
    return EquivalenceReport(
        support_count=spp.size,
        deterministic=spp.size == 1,
        path_probability_max_diff=path_diff,
        mus=EQUIVALENCE_MUS,
        sequence_divergences=tuple(divergences),
        divergence_monotone=monotone,
    )


def scenario_grid() -> tuple[TwoRouteScenario, ...]:
    """Benchmark grid: 550 scenarios at a = b = 2 over both offsets and the state probability."""
    return tuple(
        TwoRouteScenario(a=2.0, b=2.0, x=x, y=y, p=p)
        for x in (-1.8, -1.1, -0.4, 0.3, 1.0, 1.7, 2.4, 3.1, 3.8, 4.5, 5.0)
        for y in (-1.8, -1.1, -0.4, 0.3, 1.0, 1.7, 2.4, 3.1, 3.8, 5.0)
        for p in (0.05, 0.275, 0.5, 0.725, 0.95)
    )
