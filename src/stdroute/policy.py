"""Routing policies: adaptive state-to-link decision rules and state sequences."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
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
    def links(self) -> tuple[int, ...]:
        return tuple(s.link for s in self.states)

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


@dataclass(frozen=True)
class RoutingPolicy:
    """Mapping from decision states to next links.

    The domain is exactly the set of states reachable from the initial
    state under the policy's own decisions; every induced leaf is at the
    destination. Two policies are equal when their decision maps are.
    """

    initial_state: State
    decisions: tuple[tuple[State, int], ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.decisions, key=lambda item: item[0].sort_key))
        object.__setattr__(self, "decisions", canon)

    @classmethod
    def from_map(cls, initial: State, mapping: dict[State, int]) -> "RoutingPolicy":
        return cls(initial_state=initial, decisions=tuple(mapping.items()))

    @cached_property
    def decision_map(self) -> dict[State, int]:
        return dict(self.decisions)

    def next_link(self, state: State) -> int:
        try:
            return self.decision_map[state]
        except KeyError:
            raise ValidationError(f"policy has no decision for state {state}") from None


@dataclass(frozen=True, eq=False)
class PolicyChoiceSet:
    """Ordered routing policies sharing one initial state."""

    network: StdNetwork
    support_points: SupportPointSet
    initial_state: State
    policies: tuple[RoutingPolicy, ...]

    def __len__(self) -> int:
        return len(self.policies)

    def index_of(self, policy: RoutingPolicy) -> int:
        try:
            return self.policies.index(policy)
        except ValueError:
            raise ValidationError("policy is not a member of the choice set") from None


def _backward_counts(graph: CompiledGraph, branch) -> list[int]:
    """Exact counts per state from one backward pass over the compiled graph.

    A destination state counts 1; a decision state sums, over its
    outgoing links, ``branch`` of the counts of the next states.
    """
    counts = [1] * len(graph.states)
    successors = graph.successors
    for i in range(len(counts) - 1, -1, -1):
        if successors[i]:
            counts[i] = sum(branch([counts[j] for j in targets]) for _, targets in successors[i])
    return counts


def enumerate_policies(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    cap: int = DEFAULT_POLICY_CAP,
) -> PolicyChoiceSet:
    """All distinct routing policies from an initial state, deterministically ordered.

    Policies are built recursively: choose an outgoing link, then combine
    one sub-policy per possible next knowledge state. Links are explored
    in ascending id and knowledge states in canonical partition order, so
    the result order is reproducible. Raises
    :class:`PolicyExplosionError` when the count would exceed ``cap``.
    """
    graph = compile_graph(net, spp, initial)
    count = _backward_counts(graph, math.prod)[0]
    if count > cap:
        raise PolicyExplosionError(f"{count} routing policies exceed the cap of {cap}")
    states, successors = graph.states, graph.successors
    memo: dict[int, list[dict[State, int]]] = {}

    def options(i: int) -> list[dict[State, int]]:
        if not successors[i]:
            return [{}]
        if i in memo:
            return memo[i]
        result = []
        for a, targets in successors[i]:
            for combo in itertools.product(*(options(j) for j in targets)):
                merged: dict[State, int] = {states[i]: a}
                for sub in combo:
                    merged.update(sub)
                result.append(merged)
        memo[i] = result
        return result

    policies = tuple(RoutingPolicy.from_map(initial, m) for m in options(0))
    return PolicyChoiceSet(
        network=net, support_points=spp, initial_state=initial, policies=policies
    )


def policy_expected_utility(
    net: StdNetwork,
    spp: SupportPointSet,
    policy: RoutingPolicy,
    utility: LinkUtilitySpec,
) -> float:
    """Sum of w(s) * u(s, policy(s)) over the decision states s of the policy's state tree.

    The tree never merges, since its branches hold disjoint knowledge
    sets, so each of its states is reached with probability w(s), the
    compiled graph's ``reach``; this equals the leaf-probability-weighted
    sum of the utilities accumulated along each leaf's sequence.
    """
    graph = compile_graph(net, spp, policy.initial_state)
    return _tree_utility(graph, utility.utilities(graph), policy)


def _tree_utility(graph: CompiledGraph, utilities: np.ndarray, policy: RoutingPolicy) -> float:
    """The policy's expected utility from the utility of every state-action of its graph."""
    states = graph.states
    taken = _walk_tree(graph, lambda i: graph.action(i, policy.next_link(states[i])))
    return float(graph.reach[list(taken)] @ utilities[list(taken.values())])


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


def contains(policy: RoutingPolicy, seq: StateSequence) -> bool:
    """Whether the policy reproduces the sequence's link choice at every decision state."""
    if seq.initial_state != policy.initial_state:
        raise ValidationError("sequence and policy have different initial states")
    decisions = policy.decision_map
    for i in range(len(seq.states) - 1):
        if decisions.get(seq.states[i]) != seq.states[i + 1].link:
            return False
    return True


def optimal_policy(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    utility: LinkUtilitySpec,
) -> tuple[RoutingPolicy, ValueFunction]:
    """Backward induction with a max step: the deterministic-choice optimum.

    Ties are broken toward the lowest link id so the result is
    reproducible. Returns the policy restricted to states it actually
    visits, plus the max-based value table over all reachable states,
    whose choice probabilities put all mass on the optimal link. The
    table is the zero-scale limit of the logit, so its scale is 0.
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
    links = graph.action_link.tolist()
    policy = RoutingPolicy.from_map(initial, {graph.states[i]: links[j] for i, j in taken.items()})
    vf = ValueFunction(
        utility=utility,
        graph=graph,
        scale=np.zeros(len(graph.states)),
        state_values=values,
        action_values=q,
        choice_probs=choice,
        log_choice_probs=np.where(choice > 0, 0.0, -np.inf),
    )
    return policy, vf


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
    """Every state sequence of a compiled graph, in walk order, with its steps and link path.

    ``paths`` holds the distinct traversed link paths in ascending order
    and ``path_index[r]`` the position of sequence r's path among them.
    """

    sequences: tuple[StateSequence, ...]
    steps: StepTable
    paths: tuple[tuple[int, ...], ...]
    path_index: np.ndarray

    def path_sums(self, per_sequence: np.ndarray) -> np.ndarray:
        """Per path, the sum of its sequences' values, added in sequence order."""
        return np.bincount(self.path_index, per_sequence, len(self.paths))


def sequence_table(graph: CompiledGraph, cap: int = DEFAULT_POLICY_CAP) -> SequenceTable:
    """Every state sequence of the graph, with its steps and link path.

    The sequences are counted first, so more than ``cap`` raise
    :class:`PolicyExplosionError` before any is listed. A caller that
    scores one graph more than once holds the table itself.
    """
    count = _backward_counts(graph, sum)[0]
    if count > cap:
        raise PolicyExplosionError(f"{count} state sequences exceed the cap of {cap}")
    return _enumerate_sequences(graph)


def _enumerate_sequences(graph: CompiledGraph) -> SequenceTable:
    """Walk every sequence from state 0 depth first, links and next states in graph order."""
    action_ptr, edge_ptr = graph.action_ptr.tolist(), graph.edge_ptr.tolist()
    target = graph.edge_target.tolist()
    rows: list[list[int]] = []

    def walk(i: int, edges: list[int]) -> None:
        if action_ptr[i] == action_ptr[i + 1]:
            rows.append(edges)
            return
        for j in range(action_ptr[i], action_ptr[i + 1]):
            for e in range(edge_ptr[j], edge_ptr[j + 1]):
                walk(target[e], edges + [e])

    walk(0, [])
    states = graph.states
    sequences = tuple(
        StateSequence((states[0], *(states[target[e]] for e in row))) for row in rows
    )
    paths = [seq.path for seq in sequences]
    distinct = sorted(set(paths))
    position = {path: k for k, path in enumerate(distinct)}
    steps = edge_steps(graph, rows)
    path_index = np.array([position[path] for path in paths], dtype=np.intp)
    return SequenceTable(
        sequences=sequences, steps=steps, paths=tuple(distinct), path_index=path_index
    )


def enumerate_sequences(
    net: StdNetwork,
    spp: SupportPointSet,
    initial: State,
    cap: int = DEFAULT_POLICY_CAP,
) -> tuple[StateSequence, ...]:
    """Every feasible state sequence from the initial state to the destination."""
    return sequence_table(compile_graph(net, spp, initial), cap).sequences
