"""Link utility specification and value-function container."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import ValidationError
from .network import CompiledGraph, State, StdNetwork, SupportPointSet, travel_time_attributes

AttributeExtractor = Callable[[StdNetwork, SupportPointSet, int, State], tuple[float, ...]]


@dataclass(frozen=True, eq=False)
class LinkUtilitySpec:
    """Deterministic link utility beta . attributes with logit scale ``mu``.

    The default is a single travel-time attribute with coefficient -1, so
    utility equals negative travel time. The attribute extractor must be
    a pure function of ``(net, spp, a, state)``: a compiled graph
    evaluates it once per state-action and caches the result per
    extractor object. The default is read from the travel times the
    graph recorded when it was built, without a call.
    """

    beta: tuple[float, ...] = (-1.0,)
    mu: float = 1.0
    attributes: AttributeExtractor = travel_time_attributes

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if not 0 < self.mu < math.inf:
            raise ValidationError("scale parameter mu must be finite and strictly positive")

    def utilities(self, graph: CompiledGraph) -> np.ndarray:
        """Utility of every state-action of a compiled graph: one ``X @ beta``.

        Finite coefficients and attributes whose products overflow raise
        ``ValidationError``; a non-finite coefficient or attribute is
        passed on, for the likelihood to name the observation it spoils.
        """
        X = graph.attribute_matrix(self.attributes)
        if X.shape[1] != len(self.beta):
            raise ValidationError(
                f"attribute vector has {X.shape[1]} entries but beta has {len(self.beta)}"
            )
        beta = np.array(self.beta)
        with np.errstate(over="ignore"):  # an overflow is the error raised below
            u = X @ beta
        if not np.isfinite(u).all() and np.isfinite(beta).all() and np.isfinite(X).all():
            raise ValidationError(f"the link utilities are not finite at beta={list(self.beta)}")
        return u

    def with_mu(self, mu: float) -> "LinkUtilitySpec":
        return replace(self, mu=float(mu))


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Expected utility-to-go per state, solved for one network/utility pair.

    Arrays follow the compiled graph: per state the logit ``scale`` it
    was solved at (0 for the max table of an optimal policy) and
    ``state_values`` (0 at the destination); per state-action the choice value ``q`` (utility plus expected downstream
    value) with the choice probabilities and their logs. The container keeps the inputs it was solved from so
    probability queries need no extra arguments. A batch solve
    (:func:`~stdroute.recursive.solve_log_sum`) gives every array trailing
    batch axes, which the step-table likelihoods keep; the per-state
    readers take an unbatched table.
    """

    utility: LinkUtilitySpec
    graph: CompiledGraph
    scale: np.ndarray
    state_values: np.ndarray
    action_values: np.ndarray
    choice_probs: np.ndarray
    log_choice_probs: np.ndarray

    @property
    def network(self) -> StdNetwork:
        return self.graph.network

    @property
    def support_points(self) -> SupportPointSet:
        return self.graph.support_points

    @property
    def initial(self) -> State:
        return self.graph.initial

    @cached_property
    def values(self) -> Mapping[State, float]:
        return dict(zip(self.graph.states, self.state_values.tolist()))

    @cached_property
    def choice_prob_list(self) -> list[float]:
        """``choice_probs`` as a list, for scalar reads; checked once, not per read."""
        self.require_unbatched()
        return self.choice_probs.tolist()

    def require_unbatched(self) -> None:
        """Reject a batch solve, for the readers that take one scale per state."""
        if self.scale.ndim > 1:
            raise ValidationError(
                "this reader needs an unbatched solve, one scale per state; "
                f"this one has batch axes {self.scale.shape[1:]}"
            )

    def state_index(self, state: State) -> int:
        try:
            return self.graph.index[state]
        except KeyError:
            raise ValidationError(f"no value stored for state {state}") from None

    def __getitem__(self, state: State) -> float:
        self.require_unbatched()
        return float(self.state_values[self.state_index(state)])

    def get(self, state: State, default: float | None = None):
        self.require_unbatched()
        return self[state] if state in self.graph.index else default
