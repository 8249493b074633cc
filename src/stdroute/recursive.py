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

import math

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
    values, q = graph.sweep(u, log_sum)
    # a NaN or infinite value anywhere reaches the initial state (index 0) as NaN or infinity
    finite = np.isfinite(values[0])
    if not finite.all() and np.isfinite(u).all():
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
    return float(sequence_log_likelihoods(vf, step_table(vf.graph, [seq]))[0])


def sequence_likelihood(vf: ValueFunction, seq: StateSequence) -> float:
    """Probability of observing a full state sequence.

    Product over steps of (link choice probability) times (knowledge
    transition probability). The choice term embeds an expectation of the
    value function over all possible next knowledge states, not just the
    observed one, so adjacent values do not cancel.
    """
    return float(sequence_likelihoods(vf, step_table(vf.graph, [seq]))[0])


def sequence_likelihood_value_form(vf: ValueFunction, seq: StateSequence) -> float:
    """Same likelihood written with the current state's value in the denominator.

    exp((utility + expected downstream value - state value) / scale) per
    step, at the state's scale; equal to :func:`sequence_likelihood`
    because each value is the log-sum of its own choice exponents. A max
    table (:func:`~stdroute.policy.optimal_policy`, scale 0) has no such
    form and is rejected.
    """
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
    table = sequence_table(vf.graph, cap)
    return table, sequence_likelihoods(vf, table.steps)


def sample_sequence_counts(vf: ValueFunction, n: int, seed=None) -> dict[StateSequence, int]:
    """Frequencies of ``n`` independent sampled trajectories, in ascending sequence-label order.

    Vectorized over walkers: at each step every walker draws one uniform
    and inverts it against its own state's cumulative probabilities of
    the combined (link choice x knowledge transition) edges, so a seed
    reproduces the draws exactly. The inversion is a bisection over the
    walker's own edges: a step costs O(walkers * log width), and the
    walks, rows of state indices, take O(n * steps) memory. Identical
    rows are returned as one sequence with its count.
    """
    check_sample_size(n)
    if not np.isfinite(vf.choice_probs).all():
        raise ValidationError("cannot sample: a choice probability of the solve is not finite")
    rng = as_rng(seed)
    graph = vf.graph
    # the cumulative probabilities of each state's edges, laid out as the edges are:
    # state i owns the segment start[i]:start[i + 1]
    start = graph.edge_ptr[graph.action_ptr]
    widths = np.diff(start)
    used = np.arange(widths.max()) < widths[:, None]
    probs = vf.choice_probs[graph.edge_action] * graph.edge_prob
    cum = np.zeros(used.shape)
    cum[used] = probs
    cum = np.cumsum(cum, axis=1)[used]
    # each state's last edge of positive probability
    positive = np.flatnonzero(probs > 0)
    last = positive[np.searchsorted(positive, start[1:]) - 1]

    # walks are rows of visited state indices; 0 (the initial state, never
    # revisited) marks the steps after arrival
    cur = np.zeros(n, dtype=np.intp)
    alive = np.ones(n, dtype=bool)
    columns = []
    while alive.any():
        rows = cur[alive]
        u = rng.random(rows.size)
        # the edge's offset in the segment is the count of entries <= u before the
        # last edge of positive probability: a segment never decreases, so
        # bisection finds the same count, and no edge of probability 0 is chosen
        lo, hi = start[rows], last[rows]
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            up = (mid < hi) & (u >= cum[mid])
            lo = np.where(up, mid + 1, lo)
            hi = np.where(up, hi, mid)
        chosen = graph.edge_target[lo]
        column = np.zeros(n, dtype=np.min_scalar_type(len(graph.states)))
        column[alive] = chosen
        columns.append(column)
        cur[alive] = chosen
        alive[alive] = ~graph.terminal[chosen]

    walks = np.stack(columns, axis=1)
    first, counts = _distinct_rows(walks)
    # no label is a prefix of another, so ranks order the rows as labels order the sequences
    order = np.lexsort(graph.label_rank[walks[first]].T[::-1])
    states = graph.states
    return {
        StateSequence((states[0],) + tuple(states[i] for i in walk if i)): count
        for walk, count in zip(walks[first[order]].tolist(), counts[order].tolist())
    }


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one occurrence of each distinct row of an unsigned matrix, and its count.

    Rows are packed into 64-bit words first, so the sort compares whole
    words rather than single entries.
    """
    per_word = 8 // rows.itemsize
    words = max(1, -(-rows.shape[1] // per_word))
    packed = np.zeros((len(rows), words * per_word), dtype=rows.dtype)
    packed[:, : rows.shape[1]] = rows
    packed = packed.view(np.uint64)
    order = np.lexsort(packed.T)
    packed = packed[order]
    starts = np.flatnonzero(np.r_[True, (packed[1:] != packed[:-1]).any(axis=1)])
    return order[starts], np.diff(np.r_[starts, len(rows)])
