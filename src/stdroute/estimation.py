"""Maximum-likelihood estimation of utility coefficients from observed trajectories.

Either model can be fitted, through one code path: both solve their
value functions with the same backward log-sum sweep (the non-recursive
model at a per-state scale, see :mod:`stdroute.nonrecursive`) and read
each sequence's likelihood from the solved arrays. The scale parameter
is held fixed (it is not separately identified from a single
attribute's coefficient); the coefficient vector is estimated by BFGS
on the log likelihood per trip. Its gradient is exact: the state space
is acyclic in time, so the derivatives of the values come out of one
more backward sweep with the coefficients as its batch, and each
distinct sequence's score is a gather over its flat step table, added
left to right by ``segment_sums`` over the steps' sequences. The same
scores give BHHH standard errors (Berndt, Hall, Hall & Hausman 1974).

Observations are validated by the same step tables: a sequence is
feasible when it is a walk, from its initial state to the destination,
of the decision graph compiled from that state. Validation builds the
tables, and every likelihood and fit reads them.

Observation file format (JSON): a list of records

    [{"traveler_id": "n1",
      "states": [{"link": 0, "time": 0, "ev_members": [1, 2]}, ...]},
     ...]

``ev_members`` may be omitted, in which case knowledge states are
reconstructed from the realized travel times implied by the link/time
pairs: the scenarios compatible with every observed increment must fall
inside a single knowledge class at each step, otherwise the record is
rejected as ambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple

import numpy as np

from .errors import EstimationError, NetworkFormatError, StdRouteError, ValidationError
from .network import (
    CompiledGraph,
    EventCollection,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    event_collections_at,
)
from .numerics import is_integer, segment_sums
from .nonrecursive import solve_value_functions_nr
from .policy import StateSequence, StepTable
from .recursive import (
    sequence_log_likelihoods,
    solve_value_functions,
    step_table,
    value_gradients,
)
from .utility import LinkUtilitySpec, travel_time_attributes

Model = Literal["recursive", "nonrecursive"]


class _Groups(NamedTuple):
    """Distinct sequences of an observation set, in order of first appearance."""

    sequences: tuple[StateSequence, ...]
    counts: np.ndarray
    first_index: tuple[int, ...]
    by_initial: dict[State, np.ndarray]  # positions of the sequences from each initial state


@dataclass(frozen=True)
class ObservationSet:
    """Observed state sequences, one per traveler.

    The grouping of identical sequences and, per compiled graph, their
    step tables are computed on first use and kept, so the set must not
    be changed after it is built.
    """

    observations: tuple[StateSequence, ...]
    traveler_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.traveler_ids and len(self.traveler_ids) != len(self.observations):
            raise ValidationError("traveler_ids do not match the number of observations")
        object.__setattr__(self, "_tables", {})

    def __len__(self) -> int:
        return len(self.observations)

    def __getstate__(self) -> dict:
        """Pickle and copy the observations without the caches, which hold compiled graphs."""
        return {"observations": self.observations, "traveler_ids": self.traveler_ids, "_tables": {}}

    @cached_property
    def _groups(self) -> _Groups:
        counts: dict[StateSequence, int] = {}
        first_index: dict[StateSequence, int] = {}
        for i, seq in enumerate(self.observations):
            counts[seq] = counts.get(seq, 0) + 1
            first_index.setdefault(seq, i)
        by_initial: dict[State, list[int]] = {}
        for position, seq in enumerate(counts):
            if seq.states:  # an empty sequence has no initial state; validate rejects it
                by_initial.setdefault(seq.initial_state, []).append(position)
        return _Groups(
            sequences=tuple(counts),
            counts=np.array(list(counts.values())),
            first_index=tuple(first_index.values()),
            by_initial={s: np.array(p, dtype=np.intp) for s, p in by_initial.items()},
        )

    def _steps(self, graph: CompiledGraph) -> StepTable:
        """Step table of the distinct sequences that start at the graph's initial state.

        Built on the first call for each graph and kept.
        """
        table = self._tables.get(graph)
        if table is None:
            groups = self._groups
            sequences = [groups.sequences[p] for p in groups.by_initial[graph.initial]]
            table = self._tables[graph] = step_table(graph, sequences)
        return table

    def validate(self, net: StdNetwork, spp: SupportPointSet) -> None:
        """Check that every sequence is a walk of the graph compiled from its initial state.

        Builds and keeps the step table of each observed initial state's
        graph, which every later likelihood reads; a sequence is feasible
        when each of its steps is an edge of that graph and it ends at the
        destination. After a failure, each distinct sequence is checked by
        :meth:`StateSequence.validate` in order of first appearance, so
        the error names the first infeasible observation; when all of
        them are feasible, the graph's own error (a trip past the
        horizon, a dead end) is raised.
        """
        groups = self._groups
        error = None
        try:
            for s0 in groups.by_initial:
                self._steps(compile_graph(net, spp, s0))
        except StdRouteError as exc:
            error = exc
        # an empty sequence has no initial state, so no graph: the loop below rejects it
        if error is None and sum(map(len, groups.by_initial.values())) == len(groups.sequences):
            return
        for seq, i in zip(groups.sequences, groups.first_index):
            try:
                seq.validate(net, spp)
            except ValidationError as exc:
                raise ValidationError(f"observation {i}: {exc}") from None
        raise error

    def grouped(self) -> dict[StateSequence, int]:
        """Distinct sequences with multiplicities; identical trips share one likelihood term."""
        groups = self._groups
        return dict(zip(groups.sequences, groups.counts.tolist()))

    @classmethod
    def from_counts(cls, counts: dict[StateSequence, int]) -> "ObservationSet":
        observations = []
        for seq, count in counts.items():
            observations.extend([seq] * count)
        return cls(observations=tuple(observations))

    @classmethod
    def from_json(cls, text: str, net: StdNetwork, spp: SupportPointSet) -> "ObservationSet":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NetworkFormatError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        if not isinstance(doc, list):
            raise NetworkFormatError("observation document must be a list of records")
        observations = []
        ids = []
        for i, record in enumerate(doc):
            if not isinstance(record, dict) or "states" not in record:
                raise NetworkFormatError(f"record {i} must be an object with a 'states' list")
            ids.append(str(record.get("traveler_id", i)))
            observations.append(_parse_states(record["states"], net, spp, i))
        obs = cls(observations=tuple(observations), traveler_ids=tuple(ids))
        obs.validate(net, spp)
        return obs

    def to_json(self) -> str:
        records = []
        for i, seq in enumerate(self.observations):
            traveler = self.traveler_ids[i] if self.traveler_ids else str(i)
            records.append(
                {
                    "traveler_id": traveler,
                    "states": [
                        {"link": s.link, "time": s.time, "ev_members": list(s.ev.members)}
                        for s in seq.states
                    ],
                }
            )
        return json.dumps(records, indent=2)


def _parse_states(raw, net: StdNetwork, spp: SupportPointSet, record_index: int) -> StateSequence:
    if not isinstance(raw, list) or len(raw) < 2:
        raise NetworkFormatError(f"record {record_index}: 'states' must list at least two states")
    entries = []
    explicit = True
    for entry in raw:
        if not isinstance(entry, dict) or "link" not in entry or "time" not in entry:
            raise NetworkFormatError(
                f"record {record_index}: each state needs 'link' and 'time'"
            )
        link, time, members = entry["link"], entry["time"], entry.get("ev_members")
        if not (is_integer(link) and is_integer(time)):
            raise NetworkFormatError(f"record {record_index}: 'link' and 'time' must be integers")
        if time < 0:
            raise NetworkFormatError(f"record {record_index}: 'time' must not be negative")
        if not (members is None or isinstance(members, list) and all(map(is_integer, members))):
            raise NetworkFormatError(
                f"record {record_index}: 'ev_members' must be a list of integers"
            )
        entries.append((link, time, members))
        explicit = explicit and members is not None
    if explicit:
        states = tuple(
            State(link, time, EventCollection(tuple(members)))
            for link, time, members in entries
        )
        return StateSequence(states)
    return _reconstruct_sequence(entries, net, spp, record_index)


def _reconstruct_sequence(entries, net, spp, record_index) -> StateSequence:
    """Recover knowledge states from link/time pairs via the realized increments."""
    compatible = set(range(1, spp.size + 1))
    for i in range(len(entries) - 1):
        link, time, _ = entries[i]
        next_link, next_time, _ = entries[i + 1]
        tau = next_time - time
        compatible &= {
            r for r in range(1, spp.size + 1) if spp.time_at(r, time, next_link) == tau
        }
    if not compatible:
        raise ValidationError(
            f"record {record_index}: observed travel times match no scenario"
        )
    states = []
    for link, time, _ in entries:
        classes = [
            ev for ev in event_collections_at(spp, time) if compatible <= set(ev.members)
        ]
        if not classes:
            raise ValidationError(
                f"record {record_index}: knowledge state at t={time} is ambiguous "
                "(compatible scenarios span several classes); provide ev_members"
            )
        states.append(State(link, time, classes[0]))
    return StateSequence(tuple(states))


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one maximum-likelihood fit."""

    model: str
    beta_hat: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_norm: float
    std_errors: np.ndarray | None = None


def log_likelihood(
    model: Model,
    net: StdNetwork,
    spp: SupportPointSet,
    obs: ObservationSet,
    beta,
    mu: float = 1.0,
    attributes=travel_time_attributes,
) -> float:
    """Sum of log sequence probabilities under the chosen model.

    Solves the model's value functions once per observed initial state
    (one backward sweep over the compiled graph, which the support points
    cache per initial state) and reads each distinct sequence's terms
    from the solved arrays through the observation set's step table for
    that graph. A non-finite contribution aborts with the index of the
    offending observation.
    """
    return _score(model, net, spp, obs, beta, mu, attributes, scores=False)[0]


def _score(model, net, spp, obs, beta, mu, attributes, scores: bool):
    """The log likelihood and, if ``scores``, each distinct sequence's score (gradient in beta).

    A score sums the derivatives of a sequence's log choice probabilities,
    ``(dq - dV(s)) / scale(s)`` per step, left to right; transition
    probabilities do not depend on beta.
    """
    if model not in ("recursive", "nonrecursive"):
        raise ValidationError(f"unknown model {model!r}")
    solve = solve_value_functions if model == "recursive" else solve_value_functions_nr
    if not len(obs):
        return 0.0, None
    beta_arr = np.asarray(beta, dtype=float)
    utility = LinkUtilitySpec(beta=tuple(beta_arr), mu=mu, attributes=attributes)
    groups = obs._groups
    terms = np.empty(len(groups.sequences))
    score_rows = np.empty((len(groups.sequences), beta_arr.size)) if scores else None
    for s0, positions in groups.by_initial.items():
        vf = solve(net, spp, utility, initial=s0)
        steps = obs._steps(vf.graph)
        terms[positions] = sequence_log_likelihoods(vf, steps)
        if scores:
            dV, dq = value_gradients(vf)
            state = vf.graph.action_state
            per_action = (dq - dV[state]) / vf.scale[state, None]
            score_rows[positions] = segment_sums(steps.rows, per_action[steps.actions], len(positions))
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        raise EstimationError(
            f"observation {groups.first_index[bad[0]]} has zero or non-finite probability "
            f"under the {model} model at beta={beta_arr.tolist()}"
        )
    # cumsum adds in order of first appearance, as a scalar loop would
    return float(np.cumsum(groups.counts * terms)[-1]), score_rows


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first fit.

    Importing scipy takes longer than loading a network and scoring a
    few thousand observations, so ``import stdroute`` does not pay for it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 200


def fit(
    model: Model,
    net: StdNetwork,
    spp: SupportPointSet,
    obs: ObservationSet,
    beta0,
    mu: float = 1.0,
    attributes=travel_time_attributes,
) -> EstimationResult:
    """Maximize the log likelihood over the coefficient vector.

    Parameters
    ----------
    model : "recursive" or "nonrecursive"
    beta0 : initial coefficient vector
    mu : fixed logit scale (not estimated)

    BFGS minimizes the negative log likelihood per trip with its exact
    gradient, so the convergence rule does not depend on the sample size:
    the infinity norm of the per-trip gradient, ``gradient_norm``, must
    drop below 1e-6 within 200 iterations; otherwise the best iterate is
    returned with ``converged`` False. Standard errors are the BHHH
    estimate from the outer products of the per-trip scores, None when
    that matrix is singular or gives a non-positive variance.
    """
    if not len(obs):
        raise EstimationError("cannot fit an empty observation set")
    obs.validate(net, spp)
    counts = obs._groups.counts
    trips = len(obs)

    def objective(beta: np.ndarray) -> tuple[float, np.ndarray]:
        total, scores = _score(model, net, spp, obs, beta, mu, attributes, scores=True)
        return -total / trips, -(counts @ scores) / trips

    result = minimize(
        objective,
        np.asarray(beta0, dtype=float),
        jac=True,
        method="BFGS",
        options={"gtol": GRADIENT_TOL, "maxiter": MAX_ITERATIONS},
    )
    beta_hat = np.asarray(result.x, dtype=float)
    total, scores = _score(model, net, spp, obs, beta_hat, mu, attributes, scores=True)
    grad_norm = float(np.max(np.abs(counts @ scores))) / trips
    converged = bool(result.success or grad_norm < GRADIENT_TOL)
    try:
        variances = np.diag(np.linalg.inv((scores.T * counts) @ scores))
    except np.linalg.LinAlgError:  # singular
        variances = np.zeros(beta_hat.size)
    usable = np.isfinite(variances).all() and (variances > 0).all()

    return EstimationResult(
        model=model,
        beta_hat=beta_hat,
        log_likelihood=total,
        iterations=int(result.nit),
        converged=converged,
        gradient_norm=grad_norm,
        std_errors=np.sqrt(variances) if usable else None,
    )
