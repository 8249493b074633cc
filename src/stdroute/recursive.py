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
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .network import (
    CompiledGraph,
    State,
    StdNetwork,
    SupportPointSet,
    compile_graph,
    event_collections_at,
    initial_state as default_initial_state,
)
from .numerics import as_rng, check_sample_size, segment_sums
from .policy import (
    DEFAULT_POLICY_CAP,
    SequenceTable,
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
    action_scale = scale[state]
    exps = np.empty((len(graph.action_link), *batch))
    sums = np.ones(scale.shape)
    log_sums = np.zeros(scale.shape)

    def log_sum(q: np.ndarray, layer) -> np.ndarray:
        a, d = layer.actions, layer.states
        x = q / action_scale[a]
        shift = np.maximum.reduceat(x, first[d])
        exps[a] = np.exp(x - shift[owner[a]])
        sums[d] = segment_sums(owner[a], exps[a], d.stop - d.start)
        log_sums[d] = shift + np.log(sums[d])
        return scale[d] * log_sums[d]

    u = utility.utilities(graph)
    if batch:  # every column sweeps the same utilities
        u = u.repeat(math.prod(batch)).reshape(len(u), *batch)
    # from finite utilities a non-finite value is the error raised below, not a warning
    checked = np.isfinite(u).all()
    with np.errstate(all="ignore") if checked else contextlib.nullcontext():
        values, q = graph.sweep(u, log_sum)
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
        log_choice_probs=q / action_scale - log_sums[state],
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
    owner, probs = graph.action_owner, vf.choice_probs[:, None]

    def expectation(dq: np.ndarray, layer) -> np.ndarray:
        a, d = layer.actions, layer.states
        return segment_sums(owner[a], probs[a] * dq, d.stop - d.start)

    return graph.sweep(graph.attribute_matrix(vf.utility.attributes), expectation)


def choice_distribution(vf: ValueFunction, state: State) -> dict[int, float]:
    """Logit probabilities over the outgoing links of a state; sums to 1."""
    ptr, links = vf.graph.action_lists
    i = vf.state_index(state)
    lo, hi = ptr[i], ptr[i + 1]
    if lo == hi:
        raise ValidationError(f"state {state} has no outgoing links")
    return dict(zip(links[lo:hi], vf.choice_prob_list[lo:hi]))


def link_choice_prob(vf: ValueFunction, state: State, a: int) -> float:
    """Probability of choosing outgoing link ``a`` at ``state``."""
    vf.require_unbatched()
    return float(vf.choice_probs[vf.graph.action(vf.state_index(state), a)])


def step_table(graph: CompiledGraph, sequences) -> StepTable:
    """Find every step of each sequence in the compiled graph.

    A sequence is a walk of the graph from its initial state, whose
    knowledge set is a partition class, to the destination. One that is
    not is checked by :meth:`StateSequence.validate`, which names the
    infeasible step; a feasible one that the graph does not contain, or
    that starts at another of its states than the initial one, is
    rejected too.
    """
    index, edge_index, spp = graph.index, graph.edge_index, graph.support_points
    start = 0 if graph.initial.ev in event_collections_at(spp, graph.initial.time) else None
    rows = []
    for seq in sequences:
        path = [index.get(s) for s in seq.states]
        edges = [edge_index.get(pair) for pair in zip(path, path[1:])]
        if len(path) < 2 or path[0] != start or None in edges or not graph.terminal[path[-1]]:
            seq.validate(graph.network, spp)
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
    return segment_sums(steps.rows.repeat(2), terms, len(steps.starts))


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


def sequence_likelihood_value_form(vf: ValueFunction, seq: StateSequence) -> float:
    """Same likelihood written with the current state's value in the denominator.

    exp((utility + expected downstream value - state value) / scale) per
    step, at the state's scale; equal to :func:`sequence_likelihood`
    because each value is the log-sum of its own choice exponents. A max
    table (:func:`~stdroute.policy.optimal_policy`, scale 0) has no such
    form and is rejected.
    """
    vf.require_unbatched()
    graph = vf.graph
    steps = step_table(graph, [seq])
    prob = 1.0
    for j, e in zip(steps.actions.tolist(), steps.edges.tolist()):
        i = graph.action_state[j]
        scale = vf.scale[i]
        if not scale > 0:
            raise ValidationError(
                "the value form needs a positive logit scale; a max table has none"
            )
        prob *= math.exp(vf.action_values[j] / scale - vf.state_values[i] / scale)
        prob *= float(graph.edge_prob[e])
    return prob


def sequence_probabilities(
    vf: ValueFunction, cap: int = DEFAULT_POLICY_CAP
) -> dict[StateSequence, float]:
    """Likelihood of every feasible sequence from the solved initial state, in walk order."""
    table, probs = _table_likelihoods(vf, cap)
    return dict(zip(table.sequences, probs.tolist()))


def path_probabilities(
    vf: ValueFunction, cap: int = DEFAULT_POLICY_CAP
) -> dict[tuple[int, ...], float]:
    """Sequence likelihoods summed by traversed link path, paths in ascending order."""
    table, probs = _table_likelihoods(vf, cap)
    return dict(zip(table.paths, table.path_sums(probs).tolist()))


def _table_likelihoods(vf: ValueFunction, cap: int) -> tuple[SequenceTable, np.ndarray]:
    """The solved graph's sequence table and the likelihood of each of its sequences."""
    vf.require_unbatched()
    table = sequence_table(vf.graph, cap)
    return table, sequence_likelihoods(vf, table.steps)


def sample_sequence_counts(vf: ValueFunction, n: int, seed=None) -> dict[StateSequence, int]:
    """Frequencies of ``n`` independent sampled trajectories, in ascending sequence-label order.

    Vectorized over the live walkers, kept in walker order: at each step
    every one draws one uniform and inverts it against its own state's
    cumulative probabilities of the combined (link choice x knowledge
    transition) edges, so a seed reproduces the draws exactly. The
    inversion is a bisection over the walker's own edges, so a step costs
    O(live walkers * log of the step's widest span). Each walk is kept
    only as a key: its chosen edges' offsets in their segments, which fix
    the walk from the initial state, packed into 64-bit words, so the
    walks take n words per 64 bits of offsets and the distinct trips are
    found by one sort of the keys. Each distinct trip is walked again
    from its key and returned as one sequence with its count.
    """
    check_sample_size(n)
    vf.require_unbatched()
    if not np.isfinite(vf.choice_probs).all():
        raise ValidationError("cannot sample: a choice probability of the solve is not finite")
    rng = as_rng(seed)
    graph = vf.graph
    # the cumulative probabilities of each state's edges, laid out as the edges are:
    # state i owns the segment start[i]:start[i + 1], summed left to right as np.cumsum sums
    start = graph.edge_ptr[graph.action_ptr]
    widths = np.diff(start)
    probs = vf.choice_probs[graph.edge_action] * graph.edge_prob
    cum = probs.copy()
    wide = np.arange(len(widths))
    for k in range(1, int(widths.max())):
        wide = wide[widths[wide] > k]
        at = start[wide] + k
        cum[at] += cum[at - 1]
    # each state's last edge of positive probability, whose entry is raised above every
    # uniform, so the bisection never moves past it
    positive = np.flatnonzero(probs > 0)
    last = positive[np.searchsorted(positive, start[1:]) - 1]
    cum[last[~graph.terminal]] = np.inf

    # the live walkers' states and key words, in walker order. Each step writes every
    # live walker's edge offset into its key, the earliest step in the highest bits
    # (``fields`` holds each step's word, shift and width); a walk that ends moves its
    # key to the next free slot of ``keys``
    cur = np.zeros(n, dtype=np.intp)
    words, keys = [np.zeros(n, dtype=np.uint64)], [np.zeros(n, dtype=np.uint64)]
    free, fields, done = 64, [], 0
    while cur.size:
        u = rng.random(cur.size)
        # the edge's offset in the segment is the count of entries <= u before the last
        # edge of positive probability: a segment never decreases, so bisection finds
        # the same count, and no edge of probability 0 is chosen
        base, hi = start[cur], last[cur]
        bits = int((hi - base).max()).bit_length()
        if fields:
            lo = base
            for _ in range(bits):
                mid = (lo + hi) >> 1
                up = u >= cum[mid]
                lo = np.where(up, mid + 1, lo)
                hi = np.where(up, hi, mid)
        else:  # every walker departs from state 0
            lo = base + np.searchsorted(cum[start[0] : last[0]], u, side="right")
        if bits > free:
            words.append(np.zeros(cur.size, dtype=np.uint64))
            keys.append(np.zeros(n, dtype=np.uint64))
            free = 64
        free -= bits
        fields.append((len(keys) - 1, free, bits))
        if bits:
            words[-1] |= (lo - base).astype(np.uint64) << np.uint64(free)
        cur = graph.edge_target[lo]
        on = ~graph.terminal[cur]
        if not on.all():
            end = ~on
            stop = done + np.count_nonzero(end)
            for key, word in zip(keys, words):
                key[done:stop] = word[end]
            words, cur, done = [word[on] for word in words], cur[on], stop

    # equal keys are equal walks: the offsets fix a walk from state 0, so a walk that has
    # ended differs from a live one at a step both took
    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    keys = np.array([key[order] for key in keys])
    starts = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    distinct, counts = keys[:, starts], np.diff(np.r_[starts, n])

    # each distinct walk's row of visited states, walked again from its key;
    # 0 (the initial state, never revisited) after arrival
    rows = np.zeros((len(starts), len(fields)), dtype=np.min_scalar_type(len(graph.states)))
    live, cur = np.arange(len(starts)), np.zeros(len(starts), dtype=np.intp)
    for t, (word, shift, bits) in enumerate(fields):
        offset = distinct[word, live] >> np.uint64(shift) & np.uint64((1 << bits) - 1)
        rows[live, t] = cur = graph.edge_target[start[cur] + offset.astype(np.intp)]
        on = ~graph.terminal[cur]
        live, cur = live[on], cur[on]
    # no label is a prefix of another, so ranks order the rows as labels order the sequences
    order = np.lexsort(graph.label_rank[rows].T[::-1])
    lengths = np.count_nonzero(rows, axis=1)
    states = graph.states
    # the rows hold state 0 only as padding: it leads every sequence
    return {
        StateSequence(itemgetter(0, *row[:length])(states)): count
        for row, length, count in zip(
            rows[order].tolist(), lengths[order].tolist(), counts[order].tolist()
        )
    }
