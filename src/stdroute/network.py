"""Stochastic time-dependent network with a scenario-based travel-time distribution.

The network is a directed graph whose link travel times are jointly
distributed, time-indexed random variables. The joint distribution is a
finite list of scenarios: scenario ``r`` fixes the travel time of every
link at every period, and carries a probability ``p_r``. Beyond the last
stochastic period travel times are static, so period lookups clamp to the
final period.

A traveler with full online information observes every realized travel
time up to (and including) the current period. The scenarios still
compatible with what has been seen form the traveler's knowledge state,
here an :class:`EventCollection`. Decisions happen at the end of a link,
so the decision node is a :class:`State` ``(link, arrival time, event
collection)``.

Network file format (JSON):

    {
      "nodes": ["a", "b", "c"],
      "links": [{"id": 0, "from": "a", "to": "a"}, ...],
      "origin_link": 0,
      "destination_link": 2,
      "horizon": 2,
      "support_points": [
        {"probability": 0.5, "travel_times": {"1": [1, 1], "2": [2, 3], ...}},
        ...
      ]
    }

``origin_link`` is a dummy link with zero travel time; the trip starts at
its head node. ``destination_link`` is any link entering the destination
node; every link into that node is absorbing. ``travel_times`` maps each
traversable link id to its per-period times (the origin dummy may be
omitted). Travel times are strictly positive integers, which makes time
strictly increase along any trajectory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import (
    HorizonError,
    NetworkFormatError,
    PoiConsistencyError,
    UnreachableDestinationError,
    ValidationError,
)
from .numerics import is_integer, segment_sums

PROBABILITY_TOL = 1e-12
ATTRIBUTE_CACHE_SIZE = 8  # attribute matrices kept per compiled graph
INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class EventCollection:
    """Set of scenario indices (1-based) compatible with the observed history."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(int(m) for m in self.members)))
        if not canon:
            raise ValidationError("event collection must be non-empty")
        if canon[0] < 1:
            raise ValidationError("scenario indices are 1-based")
        object.__setattr__(self, "members", canon)
        object.__setattr__(self, "_hash", hash((canon,)))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, r: int) -> bool:
        return r in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "EV{%s}" % ",".join(str(m) for m in self.members)


@dataclass(frozen=True)
class State:
    """Decision node: current link, arrival time at its end, and knowledge state.

    The hash is computed once, at construction, and kept: states are
    looked up in dicts far more often than they are built.
    """

    link: int
    time: int
    ev: EventCollection

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.link, self.time, self.ev)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.time, self.link, self.ev.members)

    def label(self) -> str:
        return "(%d,%d,{%s})" % (self.link, self.time, ";".join(str(m) for m in self.ev))

    def __repr__(self) -> str:
        return "State" + self.label()


@dataclass(frozen=True)
class Link:
    id: int
    tail: str
    head: str


@dataclass(frozen=True, eq=False)
class SupportPointSet:
    """Joint discrete distribution of all link travel times over all periods.

    ``travel_times`` has shape (R, K, m): scenario, period, link column.
    Columns follow ``link_ids`` (every traversable link, ascending id; the
    origin dummy is excluded because it is never traversed). Scenario
    indices are 1-based everywhere in the public API.
    """

    link_ids: tuple[int, ...]
    travel_times: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.travel_times)
        probs = np.asarray(self.probabilities, dtype=float)
        if times.ndim != 3:
            raise ValidationError("travel_times must have shape (R, K, m)")
        if not np.issubdtype(times.dtype, np.integer):
            if not np.all(np.isfinite(times) & (times == np.floor(times))):
                raise ValidationError("travel times must be positive integers")
            times = times.astype(np.int64)
        if times.shape[2] != len(self.link_ids):
            raise ValidationError("travel_times columns do not match link_ids")
        if times.shape[0] != probs.shape[0]:
            raise ValidationError("probabilities do not match the number of support points")
        if np.any(times < 1):
            raise ValidationError("travel times must be >= 1 (zero or negative time found)")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("support point probabilities must be finite numbers")
        if np.any(probs <= 0):
            raise ValidationError("support point probabilities must be strictly positive")
        total = probs.sum()
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValidationError(f"support point probabilities sum to {total!r}, expected 1")
        times = times.copy()
        probs = probs.copy()
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "travel_times", times)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_columns", {a: i for i, a in enumerate(self.link_ids)})
        object.__setattr__(self, "_partitions", {})
        object.__setattr__(self, "_transitions", {})
        object.__setattr__(self, "_graphs", {})

    @property
    def size(self) -> int:
        """Number of support points R."""
        return self.travel_times.shape[0]

    @property
    def horizon(self) -> int:
        """Number of stochastic periods K."""
        return self.travel_times.shape[1]

    def column(self, link_id: int) -> int:
        try:
            return self._columns[link_id]
        except KeyError:
            raise ValidationError(f"link {link_id} has no travel-time distribution") from None

    def time_at(self, scenario: int, t: int, link_id: int) -> int:
        """Travel time of a link in one scenario, clamping to the static tail."""
        period = min(t, self.horizon - 1)
        return int(self.travel_times[scenario - 1, period, self.column(link_id)])

    def mass(self, members: Iterable[int]) -> float:
        return float(sum(self.probabilities[r - 1] for r in members))


def event_collections_at(spp: SupportPointSet, t: int) -> tuple[EventCollection, ...]:
    """Partition of scenarios by equality of all realized travel times up to time ``t``.

    Two scenarios share a class when their full per-link travel-time
    vectors agree at every period 0..min(t, K-1). The partition at t+1
    refines (or equals) the one at t, and it is cached per clamped period.
    """
    if t < 0:
        raise ValidationError("time period must be non-negative")
    period = min(t, spp.horizon - 1)
    cache: dict[int, tuple[EventCollection, ...]] = spp._partitions
    if period not in cache:
        groups: dict[bytes, list[int]] = {}
        for r in range(1, spp.size + 1):
            key = spp.travel_times[r - 1, : period + 1, :].tobytes()
            groups.setdefault(key, []).append(r)
        classes = sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])
        cache[period] = tuple(EventCollection(c) for c in classes)
    return cache[period]


def _transitions(spp: SupportPointSet, ev: EventCollection, t: int) -> tuple:
    """The classes at time ``t`` that meet ``ev``, in partition order; cached per (set, period).

    Each is ``(class index, transition probability, (class, travel time of
    each link column at t, mass))``: the members of a class agree on them.
    """
    key = (ev.members, min(t, spp.horizon - 1))
    if key not in spp._transitions:
        classes, members, times = event_collections_at(spp, t), set(ev.members), spp.travel_times[:, key[1]]
        spp._transitions[key] = tuple(
            (c, transition_prob(spp, cls, ev), (cls, times[cls.members[0] - 1].tolist(), spp.mass(cls)))
            for c, cls in enumerate(classes)
            if not members.isdisjoint(cls.members)
        )
    return spp._transitions[key]


def transition_prob(spp: SupportPointSet, ev_next: EventCollection, ev: EventCollection) -> float:
    """Probability of moving to knowledge state ``ev_next`` from ``ev``.

    Ratio of scenario mass in the intersection to the mass of ``ev``;
    disjoint collections give 0.
    """
    common = set(ev_next.members) & set(ev.members)
    if not common:
        return 0.0
    return spp.mass(common) / spp.mass(ev.members)


@dataclass(frozen=True, eq=False)
class StdNetwork:
    """Directed link graph with a dummy origin link and an absorbing destination node."""

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    origin_link: int
    destination_link: int
    horizon: int

    def __post_init__(self) -> None:
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise ValidationError("link identifiers must be unique")
        node_set = set(self.nodes)
        for l in self.links:
            if l.tail not in node_set or l.head not in node_set:
                raise ValidationError(f"link {l.id} references unknown node {l.tail!r} or {l.head!r}")
        by_id = {l.id: l for l in self.links}
        if self.origin_link not in by_id:
            raise ValidationError(f"origin link {self.origin_link} is not a network link")
        if self.destination_link not in by_id:
            raise ValidationError(f"destination link {self.destination_link} is not a network link")
        if self.horizon < 1:
            raise ValidationError("horizon must be at least 1 period")
        object.__setattr__(self, "_by_id", by_id)
        dest_node = by_id[self.destination_link].head
        for l in self.links:
            if l.tail == dest_node:
                raise ValidationError(
                    f"destination node {dest_node!r} must be absorbing but link {l.id} leaves it"
                )
        if by_id[self.origin_link].head == dest_node:
            raise ValidationError("origin link may not end at the destination node")

    @cached_property
    def destination_node(self) -> str:
        return self._by_id[self.destination_link].head

    @cached_property
    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """Outgoing links per link: those whose tail is the link's head node, ascending id.

        The dummy origin link only places the traveler at its head node;
        it can never be chosen, so it appears in no adjacency list.
        """
        out: dict[str, list[int]] = {n: [] for n in self.nodes}
        for l in self.links:
            if l.id != self.origin_link:
                out[l.tail].append(l.id)
        return {l.id: tuple(sorted(out[l.head])) for l in self.links}

    def link(self, link_id: int) -> Link:
        try:
            return self._by_id[link_id]
        except KeyError:
            raise ValidationError(f"unknown link {link_id}") from None

    def outgoing(self, link_id: int) -> tuple[int, ...]:
        try:
            return self.adjacency[link_id]
        except KeyError:
            raise ValidationError(f"unknown link {link_id}") from None

    def is_destination(self, link_id: int) -> bool:
        return self.link(link_id).head == self.destination_node

    def trip_horizon(self, spp: SupportPointSet) -> int:
        """Upper bound on the duration of a trip that visits no link twice.

        The sum, over the traversable links, of each link's longest time
        in any scenario and period: a decision state later than its
        departure time plus this bound lies on a cycle.
        """
        return sum(spp.travel_times.max(axis=(0, 1)).tolist())


def travel_time(net: StdNetwork, spp: SupportPointSet, a: int, state: State) -> int:
    """Realized travel time of outgoing link ``a`` at ``state``.

    Deterministic under full online information: all scenarios in the
    state's knowledge set must agree, otherwise the state was built
    outside the canonical partition.
    """
    if a not in net.outgoing(state.link):
        raise ValidationError(f"link {a} is not an outgoing link of link {state.link}")
    times = {spp.time_at(r, state.time, a) for r in state.ev}
    if len(times) > 1:
        raise PoiConsistencyError(
            f"scenarios {state.ev} disagree on the time of link {a} at t={state.time}: {sorted(times)}"
        )
    return times.pop()


def travel_time_attributes(net: StdNetwork, spp: SupportPointSet, a: int, state: State) -> tuple[float, ...]:
    """Default single attribute: the realized travel time of the chosen link."""
    return (float(travel_time(net, spp, a, state)),)


def initial_state(net: StdNetwork, spp: SupportPointSet, t0: int = 0) -> State:
    """Departure state at the end of the origin dummy link.

    Requires a single knowledge class at the departure period (travel
    times at period ``t0`` identical across scenarios), as any split
    would make the departure knowledge state ambiguous.
    """
    classes = event_collections_at(spp, t0)
    if len(classes) != 1:
        raise ValidationError(
            "travel times differ across scenarios at the departure period; "
            "the departure knowledge state is ambiguous"
        )
    return State(net.origin_link, t0, classes[0])


@dataclass(frozen=True, eq=False)
class DecisionGraph:
    """All states reachable from an initial state, with per-link successor lists."""

    initial: State
    states: tuple[State, ...]
    terminal: frozenset[State]
    choices: Mapping[State, Mapping[int, tuple[tuple[State, float], ...]]]

    def decision_states(self) -> tuple[State, ...]:
        return tuple(s for s in self.states if s not in self.terminal)


def decision_graph(net: StdNetwork, spp: SupportPointSet, initial: State) -> DecisionGraph:
    """The cached :func:`compile_graph` from ``initial`` as State-level mappings, in ``sort_key`` order."""
    graph = compile_graph(net, spp, initial)
    states, probs, edge_index = graph.states, graph.edge_prob.tolist(), graph.edge_index
    choices = {
        states[i]: {a: tuple((states[k], probs[edge_index[i, k]]) for k in targets) for a, targets in succ}
        for i, succ in enumerate(graph.successors)
        if succ
    }
    terminal = frozenset(s for s in states if s not in choices)
    return DecisionGraph(graph.initial, tuple(sorted(states, key=lambda s: s.sort_key)), terminal, choices)


class Layer(NamedTuple):
    """The decision states that share one arrival time, with their state-actions and edges."""

    states: slice
    actions: slice
    edges: slice


@dataclass(frozen=True, eq=False)
class CompiledGraph:
    """A decision graph as flat arrays, for vectorized backward sweeps.

    States are sorted by time, so every time layer is one contiguous
    slice; within a layer the decision states come first. State ``i``
    owns the state-actions ``action_ptr[i]:action_ptr[i+1]`` (one per
    outgoing link, ascending id), and state-action ``j`` owns the edges
    ``edge_ptr[j]:edge_ptr[j+1]`` (one per next knowledge state, in
    partition order) with their transition probabilities. ``action_owner``,
    ``first_action`` and ``edge_owner`` hold positions relative to the
    start of the owner's layer, so a sweep only slices. ``action_time``
    holds each state-action's travel time and ``reach`` each state's
    w(s) = mass(ev_s) / mass(ev_0), the product of the transition
    probabilities on any path to it. The initial state is state 0.
    """

    network: StdNetwork
    support_points: SupportPointSet
    states: tuple[State, ...]
    index: Mapping[State, int]
    layers: tuple[Layer, ...]
    action_ptr: np.ndarray
    action_link: np.ndarray
    action_time: np.ndarray
    action_owner: np.ndarray
    first_action: np.ndarray
    edge_ptr: np.ndarray
    edge_target: np.ndarray
    edge_prob: np.ndarray
    edge_owner: np.ndarray
    reach: np.ndarray
    _attributes: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def initial(self) -> State:
        return self.states[0]

    @cached_property
    def terminal(self) -> np.ndarray:
        """Whether each state is at the destination (has no state-actions)."""
        return self.action_ptr[1:] == self.action_ptr[:-1]

    @cached_property
    def action_state(self) -> np.ndarray:
        """Graph index of the state owning each state-action."""
        return np.repeat(np.arange(len(self.states)), np.diff(self.action_ptr))

    @cached_property
    def edge_action(self) -> np.ndarray:
        """State-action owning each edge."""
        return np.repeat(np.arange(len(self.action_link)), np.diff(self.edge_ptr))

    @cached_property
    def action_lists(self) -> tuple[list[int], list[int]]:
        """``action_ptr`` and ``action_link`` as lists, for scalar reads."""
        return self.action_ptr.tolist(), self.action_link.tolist()

    @cached_property
    def successors(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per state, ``(link, successor state indices)`` per state-action, for scalar walks."""
        ptr, links = self.action_lists
        edge_ptr, targets = self.edge_ptr.tolist(), self.edge_target.tolist()
        return tuple(
            tuple((links[j], tuple(targets[edge_ptr[j]:edge_ptr[j + 1]])) for j in range(lo, hi))
            for lo, hi in zip(ptr, ptr[1:])
        )

    @cached_property
    def log_edge_prob(self) -> np.ndarray:
        """Log of each edge's transition probability, by ``math.log`` as a scalar walk takes it."""
        return np.array([math.log(p) for p in self.edge_prob.tolist()])

    @cached_property
    def label_rank(self) -> np.ndarray:
        """Each state's position among the sorted state labels, counted from 1; 0 for state 0.

        The initial state starts every sequence and never recurs, so a
        row of state indices uses 0 as padding, ranked below every state.
        """
        labels = [s.label() for s in self.states]
        rank = np.empty(len(labels), dtype=np.intp)
        rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(1, len(labels) + 1)
        rank[0] = 0
        return rank

    @cached_property
    def edge_index(self) -> Mapping[tuple[int, int], int]:
        """Edge of each ``(state, next state)`` pair of graph indices."""
        sources = self.action_state[self.edge_action].tolist()
        return dict(zip(zip(sources, self.edge_target.tolist()), range(len(sources))))

    def action(self, i: int, a: int) -> int:
        """State-action of link ``a`` at state ``i``."""
        lo, hi = self.action_ptr[i], self.action_ptr[i + 1]
        links = self.action_link[lo:hi].tolist()
        if a not in links:
            raise ValidationError(f"link {a} is not an outgoing link of link {self.states[i].link}")
        return int(lo) + links.index(a)

    def attribute_matrix(self, extractor) -> np.ndarray:
        """``X[action, k]``: the extractor's attributes of every state-action.

        Built once per extractor and cached (the last few extractors are
        kept), so extractors must be pure functions of their arguments.
        :func:`travel_time_attributes` is read from ``action_time``.
        """
        X = self._attributes.get(extractor)
        if X is None:
            if extractor is travel_time_attributes:
                X = self.action_time.astype(float).reshape(-1, 1)
            else:
                net, spp, states = self.network, self.support_points, self.states
                rows = [
                    extractor(net, spp, a, states[i])
                    for i, a in zip(self.action_state.tolist(), self.action_link.tolist())
                ]
                X = np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.zeros((0, 0))
            if len(self._attributes) >= ATTRIBUTE_CACHE_SIZE:
                del self._attributes[next(iter(self._attributes))]
            self._attributes[extractor] = X
        return X

    def sweep(self, utilities: np.ndarray, reduce) -> tuple[np.ndarray, np.ndarray]:
        """One backward pass over the time layers, latest first.

        Per state-action ``q = utility + expected value of the next
        states``; per decision state ``value = reduce(q of the layer's
        state-actions, layer)``. Destination states are worth 0. Returns
        the values per state and ``q`` per state-action.

        ``utilities`` may have trailing batch axes, shape ``(actions, ...)``:
        every batch column is swept as it would be alone, and ``reduce``
        receives and returns arrays with the same trailing axes.
        """
        batch = utilities.shape[1:]
        prob = self.edge_prob.reshape(-1, *(1,) * len(batch))
        values = np.zeros((len(self.states), *batch))
        q = np.empty(utilities.shape)
        for layer in reversed(self.layers):
            a, e = layer.actions, layer.edges
            weighted = prob[e] * values[self.edge_target[e]]
            # summed in edge order, as a plain sum over successors would be
            q[a] = utilities[a] + segment_sums(self.edge_owner[e], weighted, a.stop - a.start)
            values[layer.states] = reduce(q[a], layer)
        return values, q


def compile_graph(net: StdNetwork, spp: SupportPointSet, initial: State) -> CompiledGraph:
    """The decision graph from ``initial`` as arrays, cached on ``spp`` next to its partitions.

    A knowledge state is a partition class, so states expand as keys
    ``(link, time, class)`` sharing their class's travel times and
    successor lists. The initial state (class -1) may be any set whose
    scenarios agree on its links, but not at the destination or before
    time 0. Raises HorizonError for a decision state later than the
    initial time plus the trip horizon, UnreachableDestinationError at a
    dead end.
    """
    if net.is_destination(initial.link):
        raise ValidationError(
            f"a state sequence needs at least a departure and an arrival; {initial} is at the destination"
        )
    if initial.time < 0:
        raise ValidationError("time period must be non-negative")
    if initial.ev.members[-1] > spp.size:
        raise ValidationError(
            f"scenario {initial.ev.members[-1]} is not one of the {spp.size} support points"
        )
    key = (net, initial)
    graph = spp._graphs.get(key)
    if graph is None:
        graph = spp._graphs[key] = _compile(net, spp, initial)
    return graph


def _compile(net: StdNetwork, spp: SupportPointSet, initial: State) -> CompiledGraph:
    t_max, adjacency = initial.time + net.trip_horizon(spp), net.adjacency
    destination = {l.id for l in net.links if l.head == net.destination_node}
    root = (initial.link, initial.time, -1)
    seen = {root: (initial.ev, None, spp.mass(initial.ev))}  # per key: knowledge set, times, mass
    expanded, stack = {}, [root]
    while stack:  # depth first, so an error names the state the State-level walk met first
        key = stack.pop()
        (link, t, _), (ev, row, _) = key, seen[key]
        if link in destination:
            continue
        if t > t_max:
            raise HorizonError(
                f"state {State(link, t, ev)} exceeds the trip horizon {t_max} without reaching the destination"
            )
        if not adjacency[link]:
            raise UnreachableDestinationError(f"state {State(link, t, ev)} has no outgoing links")
        expanded[key] = actions = []
        for a in adjacency[link]:
            tau = travel_time(net, spp, a, initial) if row is None else row[spp.column(a)]
            succ = _transitions(spp, ev, t + tau)
            actions.append((a, tau, succ))
            for k, _, data in succ:
                if (a, t + tau, k) not in seen:
                    seen[a, t + tau, k] = data
                    stack.append((a, t + tau, k))

    # by time, decision states first, then by link and knowledge set
    keys = sorted(seen, key=lambda k: (k[1], k[0] in destination, k[0], k[2]))
    index = {key: i for i, key in enumerate(keys)}
    action_ptr, links, times, owner, first = [0], [], [], [], []
    edge_ptr, targets, probs, edge_owner = [0], [], [], []
    layers = {}  # per time layer: its decision states, state-actions and edges, by first state
    for i, (_, t, _) in enumerate(keys):
        if i == 0 or t > keys[i - 1][1]:
            lo, a0, e0 = i, len(links), len(targets)
        first.append(len(links) - a0)
        for a, tau, succ in expanded.get(keys[i], ()):
            links.append(a)
            times.append(tau)
            owner.append(i - lo)
            for k, p, _ in succ:
                targets.append(index[a, t + tau, k])
                probs.append(p)
                edge_owner.append(len(links) - 1 - a0)
            edge_ptr.append(len(targets))
        action_ptr.append(len(links))
        if keys[i] in expanded:
            layers[lo] = Layer(slice(lo, i + 1), slice(a0, len(links)), slice(e0, len(targets)))

    states = tuple(State(link, t, seen[link, t, c][0]) if c >= 0 else initial for link, t, c in keys)
    mass = [seen[key][2] for key in keys]
    return CompiledGraph(
        network=net,
        support_points=spp,
        states=states,
        index={s: i for i, s in enumerate(states)},
        layers=tuple(layers.values()),
        action_ptr=np.array(action_ptr, dtype=np.intp),
        action_link=np.array(links, dtype=np.intp),
        action_time=np.array(times, dtype=np.int64),
        action_owner=np.array(owner, dtype=np.intp),
        first_action=np.array(first, dtype=np.intp),
        edge_ptr=np.array(edge_ptr, dtype=np.intp),
        edge_target=np.array(targets, dtype=np.intp),
        edge_prob=np.array(probs, dtype=float),
        edge_owner=np.array(edge_owner, dtype=np.intp),
        reach=np.array(mass) / mass[0],
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise NetworkFormatError(message)


def load_network(text: str) -> tuple[StdNetwork, SupportPointSet]:
    """Parse and validate a network document (see the module docstring for the format)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None

    _require(isinstance(doc, dict), "top level must be an object")
    for key in ("nodes", "links", "origin_link", "destination_link", "horizon", "support_points"):
        _require(key in doc, f"missing required key {key!r}")

    nodes = doc["nodes"]
    _require(
        isinstance(nodes, list) and all(isinstance(n, str) for n in nodes),
        "'nodes' must be a list of strings",
    )

    links = []
    _require(isinstance(doc["links"], list), "'links' must be a list")
    for i, entry in enumerate(doc["links"]):
        _require(isinstance(entry, dict), f"links[{i}] must be an object")
        for key in ("id", "from", "to"):
            _require(key in entry, f"links[{i}] is missing {key!r}")
        _require(
            is_integer(entry["id"]) and abs(entry["id"]) <= INT64_MAX,
            f"links[{i}].id must be an integer of magnitude below 2**63",
        )
        for key in ("from", "to"):
            _require(isinstance(entry[key], str), f"links[{i}].{key} must be a node name")
        links.append(Link(id=entry["id"], tail=entry["from"], head=entry["to"]))
    links.sort(key=lambda l: l.id)

    _require(is_integer(doc["origin_link"]), "'origin_link' must be a link id")
    _require(is_integer(doc["destination_link"]), "'destination_link' must be a link id")
    _require(
        is_integer(doc["horizon"]) and doc["horizon"] >= 1,
        "'horizon' must be a positive integer",
    )

    net = StdNetwork(
        nodes=tuple(nodes),
        links=tuple(links),
        origin_link=doc["origin_link"],
        destination_link=doc["destination_link"],
        horizon=doc["horizon"],
    )

    traversable = tuple(sorted(l.id for l in links if l.id != net.origin_link))
    points = doc["support_points"]
    _require(isinstance(points, list) and points, "'support_points' must be a non-empty list")
    k = net.horizon
    # rows per scenario and link, checked before any array is sized by the horizon
    rows = [[[]] * len(traversable) for _ in points]
    probs = np.zeros(len(points), dtype=float)
    col = {a: i for i, a in enumerate(traversable)}
    for r, entry in enumerate(points):
        _require(isinstance(entry, dict), f"support_points[{r}] must be an object")
        _require("probability" in entry, f"support_points[{r}] is missing 'probability'")
        _require("travel_times" in entry, f"support_points[{r}] is missing 'travel_times'")
        p = entry["probability"]
        _require(
            isinstance(p, float) or (is_integer(p) and abs(p) <= INT64_MAX),
            f"support_points[{r}].probability must be a number",
        )
        probs[r] = p
        table = entry["travel_times"]
        _require(isinstance(table, dict), f"support_points[{r}].travel_times must be a mapping")
        seen_links = set()
        for raw_id, row in table.items():
            try:
                link_id = int(raw_id)
            except ValueError:
                raise NetworkFormatError(
                    f"support_points[{r}].travel_times key {raw_id!r} is not a link id"
                ) from None
            _require(
                link_id not in seen_links,
                f"support_points[{r}].travel_times names link {link_id} twice",
            )
            seen_links.add(link_id)
            if link_id == net.origin_link:
                continue  # dummy origin has zero time and is never traversed
            _require(
                link_id in col,
                f"support_points[{r}].travel_times references unknown link {link_id}",
            )
            _require(
                isinstance(row, list) and len(row) == k,
                f"support_points[{r}].travel_times[{link_id}] must list {k} periods",
            )
            for t, value in enumerate(row):
                _require(
                    is_integer(value) and abs(value) <= INT64_MAX,
                    f"support_points[{r}].travel_times[{link_id}][{t}] must be an integer "
                    "of magnitude below 2**63",
                )
            rows[r][col[link_id]] = row
        missing = set(traversable) - seen_links
        _require(
            not missing,
            f"support_points[{r}].travel_times is missing links {sorted(missing)}",
        )

    times = np.array(rows, dtype=np.int64).reshape(len(points), len(traversable), k)
    spp = SupportPointSet(
        link_ids=traversable, travel_times=times.transpose(0, 2, 1), probabilities=probs
    )
    return net, spp


def load_network_file(path) -> tuple[StdNetwork, SupportPointSet]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_network(fh.read())


def bundled_network_text(name: str = "two_route.json") -> str:
    """Text of a network document shipped with the package."""
    return resources.files("stdroute").joinpath(f"data/{name}").read_text(encoding="utf-8")


def load_bundled_network(name: str = "two_route.json") -> tuple[StdNetwork, SupportPointSet]:
    return load_network(bundled_network_text(name))
