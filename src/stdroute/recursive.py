"""Link-level logit model: log-sum value recursion, choice probabilities, likelihoods.

At every decision state the traveler picks an outgoing link by a
multinomial logit over (instantaneous utility + expected downstream
value), where the downstream value is the expectation of the solved value
function over the possible next knowledge states. Because travel times
are strictly positive, time orders the state space and one backward pass
over decreasing time solves the value system exactly. The pass runs over
the compiled decision graph, and every later query reads its arrays.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .network import (
    CompiledGraph,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    initial_state as default_initial_state,
)
from .numerics import as_rng, check_sample_size, segment_bins, segment_sums
from .policy import (
    DEFAULT_POLICY_CAP,
    StateSequence,
    StepTable,
    edge_steps,
    sequence_table,
)
from .utility import LinkUtilitySpec, ValueFunction


def solve_value_functions(
    net: StdNetwork,
    spp: SupportPointSet,
    utility: LinkUtilitySpec,
    initial: State | None = None,
) -> ValueFunction:
    """Solve the expected-maximum-utility table over all states reachable from ``initial``.

    The log-sum sweep of :func:`solve_log_sum` at the scale mu in every
    state.
    """
    graph = compile_graph(net, spp, initial or default_initial_state(net, spp))
    return solve_log_sum(graph, utility, np.full(len(graph.states), utility.mu))


def solve_log_sum(
    graph: CompiledGraph, utility: LinkUtilitySpec, scale: np.ndarray
) -> ValueFunction:
    """Log-sum values and logit choice probabilities at a logit scale per state.

    Each decision state's value is its scale times the shifted
    log-sum-exp of (utility + expected downstream value) / scale over its
    outgoing links; destination states are worth 0. The choice
    probabilities are the softmax terms of the same sums.

    ``scale`` may have trailing batch axes, shape ``(states, ...)``: one
    sweep then solves every column at the same utilities, each exactly
    as it would be alone, and every array of the result has the same
    trailing axes. Finite utilities that give a non-finite value raise
    ``ValidationError`` naming the first such column's scale at the
    initial state, which is mu in both models (w(s0) = 1).
    """
    owner, first, state = graph.action_owner, graph.first_action, graph.action_state
    batch = scale.shape[1:]
    bins = segment_bins(owner, batch)
    action_scale = scale[state]
    exps = np.empty((len(graph.action_link), *batch))
    sums = np.ones(scale.shape)
    log_sums = np.zeros(scale.shape)

    def log_sum(q: np.ndarray, layer) -> np.ndarray:
        a, d = layer.actions, layer.states
        x = q / action_scale[a]
        shift = np.maximum.reduceat(x, first[d])
        exps[a] = e = np.exp(x - shift[owner[a]])
        sums[d] = s = segment_sums(bins[a], e, d.stop - d.start)
        log_sums[d] = ls = shift + np.log(s)
        return scale[d] * ls

    u = utility.utilities(graph)
    # from finite utilities a non-finite value is the error raised below, not a warning, and
    # a log choice probability of -inf is the log of a probability that underflowed to 0
    checked = np.isfinite(u).all()
    if batch:  # every column sweeps the same utilities
        u = u.repeat(math.prod(batch)).reshape(len(u), *batch)
    with np.errstate(all="ignore") if checked else contextlib.nullcontext():
        values, q = graph.sweep(u, log_sum)
        log_choice_probs = q / action_scale - log_sums[state]
    # a NaN or infinite value anywhere reaches the initial state (index 0) as NaN or infinity
    finite = np.isfinite(values[0])
    if not finite.all() and checked:
        mu = float(np.extract(~finite, scale[0])[0])
        raise ValidationError(f"the values are not finite at logit scale mu={mu!r}")
    return ValueFunction(
        utility=utility,
        graph=graph,
        scale=scale,
        state_values=values,
        action_values=q,
        choice_probs=exps / sums[state],
        log_choice_probs=log_choice_probs,
    )


def value_gradients(vf: ValueFunction) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the solved values in beta: ``dV[state, k]`` and ``dq[action, k]``.

    A log-sum value's derivative is the choice-probability-weighted mean of
    its choice values' derivatives, and a choice value's is its attribute
    plus the expected derivative of the next values: one more sweep, with
    the coefficients as its batch and no linear solve. The scales do not
    depend on beta.
    """
    graph = vf.graph
    X = graph.attribute_matrix(vf.utility.attributes)
    bins, probs = segment_bins(graph.action_owner, X.shape[1:]), vf.choice_probs[:, None]

    def expectation(dq: np.ndarray, layer) -> np.ndarray:
        a, d = layer.actions, layer.states
        return segment_sums(bins[a], probs[a] * dq, d.stop - d.start)

    return graph.sweep(X, expectation)


def value_hessians(
    vf: ValueFunction, dV: np.ndarray, dq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Second derivatives of the solved values in beta: ``d2V[state, k, l]`` and ``d2q[action, k, l]``.

    Utilities are linear in beta, so a choice value's second derivative
    is the expected second derivative of the next values. A log-sum
    value's is the choice-probability-weighted mean of its choice
    values' second derivatives plus the covariance of their first
    derivatives over the choice, ``(Σ p dq dqᵀ - dV dVᵀ) / scale``,
    computed for every state before the sweep. One more sweep, with a
    (K, K) batch and zero utilities; ``dV`` and ``dq`` are
    :func:`value_gradients` of the same solve.
    """
    graph = vf.graph
    state, probs = graph.action_state, vf.choice_probs[:, None, None]
    batch = (dq.shape[1],) * 2
    outer = probs * dq[:, :, None] * dq[:, None, :]
    spread = segment_sums(segment_bins(state, batch), outer, len(graph.states))
    covariance = (spread - dV[:, :, None] * dV[:, None, :]) / vf.scale[:, None, None]
    bins = segment_bins(graph.action_owner, batch)

    def expectation(d2q: np.ndarray, layer) -> np.ndarray:
        a, d = layer.actions, layer.states
        return segment_sums(bins[a], probs[a] * d2q, d.stop - d.start) + covariance[d]

    return graph.sweep(np.zeros((len(state), *batch)), expectation)


def choice_distribution(vf: ValueFunction, state: State) -> dict[int, float]:
    """Logit probabilities over the outgoing links of a state; sums to 1."""
    ptr, links = vf.graph.action_lists
    try:
        i = vf.graph.index[state]
    except KeyError:
        raise ValidationError(f"no value stored for state {state}") from None
    lo, hi = ptr[i], ptr[i + 1]
    if lo == hi:
        raise ValidationError(f"state {state} has no outgoing links")
    return dict(zip(links[lo:hi], vf.choice_prob_list[lo:hi]))


def step_table(graph: CompiledGraph, sequences) -> StepTable:
    """Find every step of each sequence in the compiled graph.

    A sequence is a walk of the graph from its initial state, whose
    knowledge set is a partition class, to the destination. One that is
    not is checked by :meth:`StateSequence.validate`, which names the
    infeasible step; a feasible one that the graph does not contain, or
    that starts at another of its states than the initial one, is
    rejected too.
    """
    index, edge_index = graph.index, graph.edge_index
    rows = []
    for seq in sequences:
        path = [index.get(s) for s in seq.states]
        edges = [edge_index.get(pair) for pair in zip(path, path[1:])]
        if len(path) < 2 or path[0] != 0 or None in edges or not graph.terminal[path[-1]]:
            seq.validate(graph.network, graph.support_points)
            missing = [s for s, i in zip(seq.states, path) if i is None]
            if missing:
                raise ValidationError(f"state {missing[0]} is not reachable from {graph.initial}")
            raise ValidationError(f"sequence starts at {seq.states[0]}, not at {graph.initial}")
        rows.append(edges)
    return edge_steps(graph, rows)


def sequence_log_likelihoods(vf: ValueFunction, steps: StepTable) -> np.ndarray:
    """Log likelihood of each sequence of a step table: log choice plus log transition terms.

    The terms are added left to right in walk order, as a scalar walk
    adds them. A batch solve gives one column per batch column.
    """
    terms = _walk_terms(vf.log_choice_probs, vf.graph.log_edge_prob, steps)
    return segment_sums(segment_bins(steps.rows.repeat(2), terms.shape[1:]), terms, len(steps.starts))


def sequence_likelihoods(vf: ValueFunction, steps: StepTable) -> np.ndarray:
    """Likelihood of each sequence of a step table, its terms multiplied left to right in walk order."""
    terms = _walk_terms(vf.choice_probs, vf.graph.edge_prob, steps)
    return np.multiply.reduceat(terms, 2 * steps.starts)


def _walk_terms(per_action, per_edge, steps: StepTable) -> np.ndarray:
    """Each step's choice term, then its transition term; batch columns share the transitions."""
    terms = np.empty((2 * len(steps.actions), *per_action.shape[1:]))
    terms[0::2] = per_action[steps.actions]
    terms[1::2] = per_edge[steps.edges].reshape(-1, *(1,) * (per_action.ndim - 1))
    return terms


def sequence_log_likelihood(vf: ValueFunction, seq: StateSequence) -> float:
    """Log of the sequence likelihood: sum of log choice and log transition terms."""
    vf.require_unbatched()
    return float(sequence_log_likelihoods(vf, step_table(vf.graph, [seq]))[0])


def sequence_likelihood(vf: ValueFunction, seq: StateSequence) -> float:
    """Probability of observing a full state sequence.

    Product over steps of (link choice probability) times (knowledge
    transition probability). The choice term embeds an expectation of the
    value function over all possible next knowledge states, not just the
    observed one, so adjacent values do not cancel.
    """
    vf.require_unbatched()
    return float(sequence_likelihoods(vf, step_table(vf.graph, [seq]))[0])


def sequence_probabilities(
    vf: ValueFunction, cap: int = DEFAULT_POLICY_CAP
) -> dict[StateSequence, float]:
    """Likelihood of every feasible sequence from the solved initial state, in walk order."""
    vf.require_unbatched()
    table = sequence_table(vf.graph, cap)
    return dict(zip(table.sequences, sequence_likelihoods(vf, table.steps).tolist()))


def path_probabilities(
    vf: ValueFunction, cap: int = DEFAULT_POLICY_CAP
) -> dict[tuple[int, ...], float]:
    """Sequence likelihoods summed by traversed link path, paths in ascending order."""
    vf.require_unbatched()
    table = sequence_table(vf.graph, cap)
    return dict(zip(table.paths, table.path_sums(sequence_likelihoods(vf, table.steps)).tolist()))


def sample_sequence_counts(vf: ValueFunction, n: int, seed=None) -> Mapping[StateSequence, int]:
    """Frequencies of ``n`` independent sampled trajectories, in ascending sequence-label order.

    The counts of n independent trips are multinomial over the
    sequences, and they are drawn by splitting them down the tree of
    trip prefixes into conditional binomials (Devroye 1986). A state's
    edge e (a link choice times a knowledge transition, probability
    p_e) takes Binomial(left, p_e / tail_e) of the trips at the state
    that no earlier edge took, where tail_e is the mass of the state's
    edges from e to its last, summed right to left. The state's last
    edge of positive probability takes what is left, so a forced step
    draws nothing and an edge of probability 0 takes no trip.

    Draw order, so that a seed reproduces the draws exactly: step by
    step over the live prefixes; within a step, edge offsets in
    ascending order; at each offset, one draw per prefix that has trips
    left, in prefix order. A step's new prefixes are ordered by parent,
    then by offset. A step draws one binomial per live prefix and per
    positive edge before its state's last one, with no term in n, in one
    ``rng.binomial`` call per edge offset at which a prefix draws; the
    rest of the step is a fixed number of array passes over its (prefix,
    edge) pairs, and the space used follows the distinct prefixes and their
    edges. The rows of states are rebuilt from parent pointers in one
    pass back over the steps. The result is a :class:`SampledCounts`,
    which builds the sequences on the first key read.
    """
    check_sample_size(n)
    vf.require_unbatched()
    if not np.isfinite(vf.choice_probs).all():
        raise ValidationError("cannot sample: a choice probability of the solve is not finite")
    rng = as_rng(seed)
    graph = vf.graph
    # state i owns the edges start[i]:start[i + 1]; each edge's tail is summed right to left,
    # over the reversed edges of all the states of one width at a time
    start = graph.edge_ptr[graph.action_ptr]
    widths = np.diff(start)
    probs = vf.choice_probs[graph.edge_action] * graph.edge_prob
    tail = np.empty_like(probs)
    for w in np.flatnonzero(np.bincount(widths)):
        edges = start[:-1][widths == w, None] + np.arange(w - 1, -1, -1)
        tail[edges] = np.add.accumulate(probs[edges], axis=1)
    # a tail holds its own edge, so a rounded share is at most 1
    share = np.divide(probs, tail, out=np.zeros_like(probs), where=probs > 0)
    positive = np.flatnonzero(probs > 0)
    last = positive[np.searchsorted(positive, start[1:]) - 1]
    draws = probs > 0
    draws[last] = False

    # the live prefixes in prefix order: each one's state, trips and index among the new prefixes
    # of its step; per step, the new prefixes' parents (as such indices), states and trips
    cur, left, steps, ended = np.zeros(1, dtype=np.intp), np.array([n], dtype=np.int64), [], 0
    live = cur
    while cur.size:
        # the step's (prefix, edge) pairs by prefix, then by offset; the drawing ones by offset
        base, w = start[cur], widths[cur]
        first = np.cumsum(w) - w
        prefix = np.repeat(np.arange(cur.size), w)
        offset = np.arange(prefix.size) - first[prefix]
        edge = base[prefix] + offset
        drawn = np.flatnonzero(draws[edge])
        drawn = drawn[np.argsort(offset[drawn], kind="stable")]
        who, p, take = prefix[drawn], share[edge[drawn]], np.zeros(prefix.size, dtype=np.int64)
        # a prefix with no trips left draws 0 and consumes no random number
        bounds = np.cumsum(np.bincount(offset[drawn])).tolist()
        for lo, hi in zip([0, *bounds], bounds):
            if hi > lo:
                at = who[lo:hi]
                take[drawn[lo:hi]] = got = rng.binomial(left[at], p[lo:hi])
                left[at] -= got
        take[first + last[cur] - base] = left
        kids = np.flatnonzero(take)
        state, count = graph.edge_target[edge[kids]], take[kids]
        steps.append((live[prefix[kids]], state, count))
        live = np.flatnonzero(~graph.terminal[state])
        cur, left, ended = state[live], count[live], ended + state.size - live.size

    # a trip ends at a terminal state; the rows of states after state 0 are rebuilt from the
    # parent pointers in one pass back over the steps, the trips that end last first, and 0 (the
    # initial state, never revisited) pads them after arrival
    rows = np.zeros((len(steps), ended), dtype=np.intp)
    at, counts = np.zeros(0, dtype=np.intp), []
    while steps:
        up, state, count = steps.pop()
        end = np.flatnonzero(graph.terminal[state])
        counts.append(count[end])
        at = np.concatenate((at, end))
        rows[len(steps), : at.size] = state[at]
        at = up[at]
    # no label is a prefix of another, so ranks order the rows as labels order the sequences;
    # the ranks of `per` steps are packed into one key
    bits = len(graph.states).bit_length()
    per, keys = 62 // bits, []
    for k in range(0, len(rows), per):
        ranks = graph.label_rank[rows[k : k + per]]
        ranks <<= bits * np.arange(len(ranks) - 1, -1, -1)[:, None]
        keys.append(ranks.sum(axis=0))
    order = np.lexsort(keys[::-1])
    rows = rows.T[order]
    lengths = np.count_nonzero(rows, axis=1)
    return SampledCounts(graph.states, rows, lengths, tuple(np.concatenate(counts)[order].tolist()))


class SampledCounts(Mapping):
    """Sampled trips and their counts, read-only, in ascending sequence-label order.

    Keeps the sampler's rows of state indices, so ``len`` and
    ``values()`` (the counts, a tuple in key order) build no sequence;
    the first read of a key builds every ``StateSequence`` once.
    """

    def __init__(
        self, states: tuple[State, ...], rows: np.ndarray, lengths: np.ndarray, counts: tuple[int, ...]
    ):
        self._states, self._rows, self._lengths, self._counts = states, rows, lengths, counts

    @cached_property
    def _dict(self) -> dict[StateSequence, int]:
        # one gather of the states, each row led by the initial state 0, which also pads it
        states = np.empty(len(self._states), dtype=object)
        states[:] = self._states
        rows = states[np.pad(self._rows, ((0, 0), (1, 0)))].tolist()
        return {
            StateSequence(tuple(row[: length + 1])): count
            for row, length, count in zip(rows, self._lengths.tolist(), self._counts)
        }

    def __len__(self) -> int:
        return len(self._counts)

    def values(self) -> tuple[int, ...]:
        return self._counts

    def __getitem__(self, seq: StateSequence) -> int:
        return self._dict[seq]

    def __iter__(self):
        return iter(self._dict)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dict!r})"
