"""Routing policies: adaptive state-to-link decision rules and state sequences."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PolicyExplosionError, ValidationError
from .network import (
    CompiledGraph,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    event_collections_at,
    travel_time,
)
from .utility import LinkUtilitySpec, ValueFunction

DEFAULT_POLICY_CAP = 10**6


@dataclass(frozen=True)
class StateSequence:
    """Observed trajectory: states from a departure state to the destination."""

    states: tuple[State, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.states,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def initial_state(self) -> State:
        return self.states[0]

    @property
    def final_state(self) -> State:
        return self.states[-1]

    @property
    def path(self) -> tuple[int, ...]:
        """Traversed links, excluding the dummy link the trip starts on."""
        return tuple(s.link for s in self.states[1:])

    def label(self) -> str:
        return ">".join(s.label() for s in self.states)

    def validate(self, net: StdNetwork, spp: SupportPointSet) -> None:
        """Check that every transition is feasible and the trip ends at the destination."""
        if len(self.states) < 2:
            raise ValidationError("a state sequence needs at least a departure and an arrival")
        first = self.states[0]
        if first.ev not in event_collections_at(spp, first.time):
            raise ValidationError(f"initial knowledge state {first.ev} is not a partition class")
        for i in range(len(self.states) - 1):
            cur, nxt = self.states[i], self.states[i + 1]
            if nxt.link not in net.outgoing(cur.link):
                raise ValidationError(
                    f"step {i}: link {nxt.link} is not an outgoing link of link {cur.link}"
                )
            tau = travel_time(net, spp, nxt.link, cur)
            if nxt.time != cur.time + tau:
                raise ValidationError(
                    f"step {i}: arrival time {nxt.time} does not match {cur.time} + {tau}"
                )
            if nxt.ev not in event_collections_at(spp, nxt.time):
                raise ValidationError(f"step {i}: knowledge state {nxt.ev} is not a partition class")
            if not set(nxt.ev.members) & set(cur.ev.members):
                raise ValidationError(f"step {i}: knowledge state {nxt.ev} is incompatible with {cur.ev}")
        if not net.is_destination(self.final_state.link):
            raise ValidationError("sequence does not end at the destination")


@dataclass(frozen=True, eq=False)
class PolicyChoiceSet:
    """Ordered routing policies sharing one initial state, as rows of its compiled graph.

    ``rows[k]`` holds the state-actions policy k takes, one per decision
    state of its tree, in the walk order of the tree (:func:`_walk_tree`).
    """

    graph: CompiledGraph
    rows: tuple[tuple[int, ...], ...]

    @property
    def network(self) -> StdNetwork:
        return self.graph.network

    @property
    def support_points(self) -> SupportPointSet:
        return self.graph.support_points

    @property
    def initial_state(self) -> State:
        return self.graph.initial

    def __len__(self) -> int:
        return len(self.rows)


def _backward_counts(graph: CompiledGraph, branch) -> list[int]:
    """Exact counts per state from one backward pass over the compiled graph.

    A destination state counts 1; a decision state sums, over its
    outgoing links, ``branch`` of the counts of the next states.
    """
    counts = [1] * len(graph.states)
    (action_ptr, _), (edge_ptr, target) = graph.action_lists, graph.edge_lists
    for i in range(len(counts) - 1, -1, -1):
        nexts = [target[edge_ptr[j]:edge_ptr[j + 1]] for j in range(action_ptr[i], action_ptr[i + 1])]
        if nexts:
            counts[i] = sum(branch([counts[k] for k in targets]) for targets in nexts)
    return counts


def enumerate_policies(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    cap: int = DEFAULT_POLICY_CAP,
) -> PolicyChoiceSet:
    """All distinct routing policies from an initial state, deterministically ordered.

    Policies are built as rows of state-actions in one backward pass over
    the compiled graph: a state's row takes an outgoing link, then one row
    of each next knowledge state. Links are taken in ascending id and
    knowledge states in canonical partition order, so the result order is
    reproducible. Raises :class:`PolicyExplosionError` when the count
    would exceed ``cap``, before any policy is listed.
    """
    graph = compile_graph(net, spp, initial)
    count = _backward_counts(graph, math.prod)[0]
    if count > cap:
        raise PolicyExplosionError(f"{count} routing policies exceed the cap of {cap}")
    rows: list[list[tuple[int, ...]] | None] = [[()]] * len(graph.states)
    unread = np.bincount(graph.edge_target, minlength=len(rows)).tolist()  # edges into each state
    (action_ptr, _), (edge_ptr, target) = graph.action_lists, graph.edge_lists
    for i in range(len(rows) - 1, -1, -1):
        nexts = [target[edge_ptr[j]:edge_ptr[j + 1]] for j in range(action_ptr[i], action_ptr[i + 1])]
        if nexts:
            rows[i] = [
                (j, *itertools.chain(*combo))
                for j, targets in enumerate(nexts, action_ptr[i])
                for combo in itertools.product(*(rows[k] for k in targets))
            ]
            for k in itertools.chain(*nexts):  # a state's rows go once its last reader has them
                unread[k] -= 1
                if not unread[k]:
                    rows[k] = None
    return PolicyChoiceSet(graph, tuple(rows[0]))


def _walk_tree(graph: CompiledGraph, choose) -> dict[int, int]:
    """The state-action ``choose(i)`` of each decision state ``i`` of a policy's tree.

    The tree is walked from state 0 depth first, next knowledge states in
    partition order; it never merges, so each state is visited once.
    """
    taken: dict[int, int] = {}
    stack = [0]
    while stack:
        i = stack.pop()
        if not graph.terminal[i]:
            j = taken[i] = choose(i)
            edges = slice(graph.edge_ptr[j], graph.edge_ptr[j + 1])
            stack.extend(reversed(graph.edge_target[edges].tolist()))
    return taken


def optimal_policy(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    utility: LinkUtilitySpec,
) -> tuple[tuple[int, ...], ValueFunction]:
    """Backward induction with a max step: the deterministic-choice optimum.

    Ties are broken toward the lowest link id so the result is
    reproducible. Returns the policy as a row of the compiled graph's
    state-actions, one per decision state of its tree, in the walk order
    that :attr:`PolicyChoiceSet.rows` uses, plus the max-based value
    table over all reachable states, whose choice probabilities put all
    mass on the optimal link. The table is the zero-scale limit of the
    logit, so its scale is 0.
    """
    graph = compile_graph(net, spp, initial)
    first = graph.first_action
    values, q = graph.sweep(
        utility.utilities(graph), lambda q, layer: np.maximum.reduceat(q, first[layer.states])
    )
    # the first state-action attaining each maximum has the lowest link id
    decision = np.flatnonzero(~graph.terminal)
    top = np.flatnonzero(q == values[graph.action_state])
    best = top[np.searchsorted(top, graph.action_ptr[decision])]
    choice = np.zeros(len(q))
    choice[best] = 1.0
    taken = _walk_tree(graph, dict(zip(decision.tolist(), best.tolist())).__getitem__)
    vf = ValueFunction(
        utility=utility,
        graph=graph,
        scale=np.zeros(len(graph.states)),
        state_values=values,
        action_values=q,
        choice_probs=choice,
        log_choice_probs=np.where(choice > 0, 0.0, -np.inf),
    )
    return tuple(taken.values()), vf


class StepTable(NamedTuple):
    """Steps of sequences in a compiled graph, flat: sequence after sequence, in walk order.

    Step k is the state-action ``actions[k]`` and the edge ``edges[k]`` of
    sequence ``rows[k]``; sequence r's steps start at ``starts[r]``. Every
    sequence has at least one step.
    """

    rows: np.ndarray
    starts: np.ndarray
    actions: np.ndarray
    edges: np.ndarray


def edge_steps(graph: CompiledGraph, rows: list[list[int]]) -> StepTable:
    """The step table of sequences given as lists of the graph's edges, one list per sequence."""
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    edges = np.array(list(itertools.chain(*rows)), dtype=np.intp)
    owner = np.repeat(np.arange(len(rows)), lengths)
    return StepTable(owner, np.cumsum(lengths) - lengths, graph.edge_action[edges], edges)


class SequenceTable(NamedTuple):
    """Every state sequence of a compiled graph, in walk order, as rows of steps, with its link path.

    ``paths`` holds the distinct traversed link paths in ascending order
    and ``path_index[r]`` the position of sequence r's path among them.
    """

    graph: CompiledGraph
    steps: StepTable
    paths: tuple[tuple[int, ...], ...]
    path_index: np.ndarray

    @property
    def sequences(self) -> tuple[StateSequence, ...]:
        return tuple(map(StateSequence, self.state_rows(self.graph.states)))

    def state_rows(self, per_state):
        """Each sequence as the tuple of its states' ``per_state`` entries, initial state first."""
        entries = np.fromiter(per_state, object)[self.graph.edge_target[self.steps.edges]].tolist()
        bounds = [*self.steps.starts.tolist(), len(entries)]
        return ((per_state[0], *entries[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def path_sums(self, per_sequence: np.ndarray) -> np.ndarray:
        """Per path, the sum of its sequences' values, added in sequence order."""
        return np.bincount(self.path_index, per_sequence, len(self.paths))


def sequence_table(graph: CompiledGraph, cap: int = DEFAULT_POLICY_CAP) -> SequenceTable:
    """Every state sequence of the graph, with its steps and link path.

    The sequences are counted first, so more than ``cap`` raise
    :class:`PolicyExplosionError` before any is listed. The table is
    built once and held on the graph; a later call checks its ``cap``
    against the held table's count.
    """
    table = graph.held.get("sequence_table")
    count = _backward_counts(graph, sum)[0] if table is None else len(table.path_index)
    if count > cap:
        raise PolicyExplosionError(f"{count} state sequences exceed the cap of {cap}")
    if table is None:
        table = graph.held["sequence_table"] = _enumerate_sequences(graph)
        for array in (*table.steps, table.path_index):  # shared by every later caller
            array.setflags(write=False)
    return table


def _enumerate_sequences(graph: CompiledGraph) -> SequenceTable:
    """Walk every sequence from state 0 depth first, links and next states in graph order."""
    (action_ptr, _), (edge_ptr, target) = graph.action_lists, graph.edge_lists
    rows: list[list[int]] = []
    stack = [(0, [])]  # (state, edges so far): a loop, so no recursion limit bounds a trip's length
    while stack:
        i, edges = stack.pop()
        if action_ptr[i] == action_ptr[i + 1]:
            rows.append(edges)
        else:  # the state's edges go on last first, so that its first edge is walked first
            out = range(edge_ptr[action_ptr[i]], edge_ptr[action_ptr[i + 1]])
            stack.extend((target[e], edges + [e]) for e in reversed(out))
    link = graph.action_link[graph.edge_action].tolist()  # of each edge
    paths = [tuple(map(link.__getitem__, row)) for row in rows]
    distinct = sorted(set(paths))
    position = {path: k for k, path in enumerate(distinct)}
    steps = edge_steps(graph, rows)
    path_index = np.array([position[path] for path in paths], dtype=np.intp)
    return SequenceTable(graph=graph, steps=steps, paths=tuple(distinct), path_index=path_index)


def enumerate_sequences(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    cap: int = DEFAULT_POLICY_CAP,
) -> tuple[StateSequence, ...]:
    """Every feasible state sequence from the initial state to the destination."""
    return sequence_table(compile_graph(net, spp, initial), cap).sequences
