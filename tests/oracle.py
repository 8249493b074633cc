"""Slow reference implementations: the State-level graph, the recursive model over dicts, scalar scoring.

Expands the decision graph state by state over ``State`` objects, with
``successor_states`` rebuilding the knowledge classes from scenario sets
at every step, and lays it out as arrays, as a check on the compile in
index space; walks the expanded graph calling the attribute extractor
once per link, as a check on the compiled-graph sweep; walks each
routing policy's state tree to its leaves, as a check on the policy
utility read from the compiled graph's reach; scores an observation
set one sequence and one step at a time, as a check on the batched
likelihood, and sums each sequence's score one step at a time, as a
check on the scores read from the flat step table; checks each observed
sequence step by step, as a check on validation by the step table;
lists and scores every state sequence anew on each call, as a check on
the sequence table a compiled graph keeps; draws and marginalizes the non-recursive model as the paper
states it, a routing policy chosen at the origin and executed in one
scenario, as a check on sampling the solved model link by link;
compares each uniform with a whole padded row of cumulative
probabilities and sorts the distinct walks by label string, as a check
on the bisection sampler and its rank order; and differentiates the log likelihood by central differences, as
a check on the exact scores and their standard errors.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from stdroute import (
    CompiledGraph,
    DecisionGraph,
    EquivalenceReport,
    HorizonError,
    LinkUtilitySpec,
    State,
    StateSequence,
    StdRouteError,
    UnreachableDestinationError,
    ValidationError,
    event_collections_at,
    initial_state,
    policy_choice_probs,
    solve_value_functions,
    solve_value_functions_nr,
    transition_prob,
    travel_time,
    travel_time_attributes,
)
from stdroute.network import Layer
from stdroute.numerics import as_rng, check_sample_size, softmax
from stdroute.recursive import value_gradients


def logsumexp(values):
    """log(sum(exp(v))) computed with a max shift so tiny scale parameters do not overflow."""
    arr = np.asarray(values, dtype=float)
    m = arr.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(arr - m).sum()))


def log_softmax(values):
    arr = np.asarray(values, dtype=float)
    return arr - logsumexp(arr)


def successor_states(net, spp, state, a):
    """Possible next states after taking link ``a``, with their probabilities.

    One successor per knowledge class at the arrival time that intersects
    the current knowledge set; probabilities sum to 1.
    """
    t_next = state.time + travel_time(net, spp, a, state)
    current = set(state.ev.members)
    result = []
    for ev_next in event_collections_at(spp, t_next):
        if current & set(ev_next.members):
            result.append((State(a, t_next, ev_next), transition_prob(spp, ev_next, state.ev)))
    return result


def decision_graph(net, spp, initial):
    """Expand the reachable state space under every possible choice, one ``State`` at a time.

    Raises HorizonError past the trip horizon and
    UnreachableDestinationError at dead-end states.
    """
    t_max = initial.time + net.trip_horizon(spp)
    seen = {initial: None}
    terminal = set()
    choices = {}
    stack = [initial]
    while stack:
        state = stack.pop()
        if net.is_destination(state.link):
            terminal.add(state)
            continue
        if state.time > t_max:
            raise HorizonError(
                f"state {state} exceeds the trip horizon {t_max} without reaching the destination"
            )
        outgoing = net.outgoing(state.link)
        if not outgoing:
            raise UnreachableDestinationError(f"state {state} has no outgoing links")
        per_link = {}
        for a in outgoing:
            succ = tuple(successor_states(net, spp, state, a))
            per_link[a] = succ
            for nxt, _ in succ:
                if nxt not in seen:
                    seen[nxt] = None
                    stack.append(nxt)
        choices[state] = per_link
    states = tuple(sorted(seen, key=lambda s: s.sort_key))
    return DecisionGraph(
        initial=initial, states=states, terminal=frozenset(terminal), choices=choices
    )


def compile_expansion(net, spp, graph):
    """An expanded graph as a ``CompiledGraph``, with travel times and reach taken state by state."""
    states = sorted(graph.states, key=lambda s: (s.time, s in graph.terminal))
    index = {s: i for i, s in enumerate(states)}
    action_ptr, links, times, owner, first = [0], [], [], [], []
    edge_ptr, targets, probs, edge_owner = [0], [], [], []
    layers = []
    for _, group in itertools.groupby(range(len(states)), key=lambda i: states[i].time):
        layer = list(group)
        lo, a0, e0 = layer[0], len(links), len(targets)
        for i in layer:
            first.append(len(links) - a0)
            for a, succ in graph.choices.get(states[i], {}).items():
                links.append(a)
                times.append(travel_time(net, spp, a, states[i]))
                owner.append(i - lo)
                for nxt, p in succ:
                    targets.append(index[nxt])
                    probs.append(p)
                    edge_owner.append(len(links) - 1 - a0)
                edge_ptr.append(len(targets))
            action_ptr.append(len(links))
        decisions = sum(1 for i in layer if states[i] not in graph.terminal)
        if decisions:
            layers.append(
                Layer(slice(lo, lo + decisions), slice(a0, len(links)), slice(e0, len(targets)))
            )

    def ints(values):
        return np.array(values, dtype=np.intp)

    mass = np.array([spp.mass(s.ev.members) for s in states])
    return CompiledGraph(
        network=net,
        support_points=spp,
        states=tuple(states),
        index=index,
        layers=tuple(layers),
        action_ptr=ints(action_ptr),
        action_link=ints(links),
        action_time=np.array(times, dtype=np.int64),
        action_owner=ints(owner),
        first_action=ints(first),
        edge_ptr=ints(edge_ptr),
        edge_target=ints(targets),
        edge_prob=np.array(probs, dtype=float),
        edge_owner=ints(edge_owner),
        reach=mass / mass[0],
    )


def compile_graph(net, spp, initial):
    """The State-level expansion from ``initial``, laid out as arrays."""
    return compile_expansion(net, spp, decision_graph(net, spp, initial))


ARRAYS = (
    "action_ptr",
    "action_link",
    "action_time",
    "action_owner",
    "first_action",
    "edge_ptr",
    "edge_target",
    "edge_prob",
    "edge_owner",
    "reach",
)


def _same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def graph_mismatches(graph, reference):
    """The parts in which two compiled graphs differ, every array compared bit for bit.

    The travel-time attribute matrix of ``graph`` is compared with the
    reference's taken by one ``travel_time_attributes`` call per state-action.
    """
    names = ("states", "index", "layers")
    diff = [name for name in names if getattr(graph, name) != getattr(reference, name)]
    diff += [name for name in ARRAYS if not _same_array(getattr(graph, name), getattr(reference, name))]
    per_call = reference.attribute_matrix(lambda *args: travel_time_attributes(*args))
    if not _same_array(graph.attribute_matrix(travel_time_attributes), per_call):
        diff.append("travel-time attributes")
    return diff


def link_utility(utility, net, spp, a, state):
    """Deterministic utility of link ``a`` at ``state``: one extractor call and a dot product with beta."""
    attrs = utility.attributes(net, spp, a, state)
    if len(attrs) != len(utility.beta):
        raise ValidationError(
            f"attribute vector has {len(attrs)} entries but beta has {len(utility.beta)}"
        )
    return sum(b * v for b, v in zip(utility.beta, attrs))


def expected_downstream(vf, a, state):
    """Expectation of the solved value over the possible next knowledge states after link ``a``."""
    net, spp = vf.network, vf.support_points
    return sum(p * vf[nxt] for nxt, p in successor_states(net, spp, state, a))


def policy_outcomes(net, spp, policy):
    """Leaves of a policy's state tree, walked with ``successor_states`` from the initial state."""
    leaves = []

    def walk(prefix, prob):
        state = prefix[-1]
        if net.is_destination(state.link):
            leaves.append((StateSequence(prefix), prob))
            return
        for nxt, p in successor_states(net, spp, state, policy.next_link(state)):
            walk(prefix + (nxt,), prob * p)

    walk((policy.initial_state,), 1.0)
    return tuple(leaves)


def policy_expected_utility(net, spp, policy, utility):
    """Leaf-probability-weighted utility accumulated along each leaf sequence of the policy's tree."""
    total = 0.0
    for seq, prob in policy_outcomes(net, spp, policy):
        accumulated = sum(
            link_utility(utility, net, spp, nxt.link, cur)
            for cur, nxt in zip(seq.states, seq.states[1:])
        )
        total += prob * accumulated
    return total


def solve_values(net, spp, utility, initial):
    """Log-sum value of every reachable state, one state at a time in decreasing time."""
    graph = decision_graph(net, spp, initial)
    values = {}
    for state in sorted(graph.states, key=lambda s: s.sort_key, reverse=True):
        if state in graph.terminal:
            values[state] = 0.0
            continue
        exponents = []
        for a in sorted(graph.choices[state]):
            downstream = sum(p * values[nxt] for nxt, p in graph.choices[state][a])
            exponents.append((link_utility(utility, net, spp, a, state) + downstream) / utility.mu)
        values[state] = utility.mu * logsumexp(exponents)
    return values


def _exponents(net, spp, utility, values, state):
    links = net.outgoing(state.link)
    exponents = [
        (
            link_utility(utility, net, spp, a, state)
            + sum(p * values[nxt] for nxt, p in successor_states(net, spp, state, a))
        )
        / utility.mu
        for a in links
    ]
    return links, exponents


def choice_distribution(net, spp, utility, values, state):
    links, exponents = _exponents(net, spp, utility, values, state)
    return {a: float(p) for a, p in zip(links, softmax(exponents))}


def sequence_log_likelihood(net, spp, utility, values, seq):
    seq.validate(net, spp)
    total = 0.0
    for cur, nxt in zip(seq.states, seq.states[1:]):
        links, exponents = _exponents(net, spp, utility, values, cur)
        total += float(log_softmax(exponents)[links.index(nxt.link)])
        total += math.log(transition_prob(spp, nxt.ev, cur.ev))
    return total


def scalar_validate(obs, net, spp):
    """Check each distinct sequence with ``StateSequence.validate``, in order of first appearance.

    A failure names the sequence's first observation.
    """
    first = {}
    for i, seq in enumerate(obs.observations):
        first.setdefault(seq, i)
    for seq, i in first.items():
        try:
            seq.validate(net, spp)
        except ValidationError as exc:
            raise ValidationError(f"observation {i}: {exc}") from None


def log_likelihood(model, net, spp, obs, beta, mu):
    """Sum over distinct sequences, in order of first appearance, of count times the log term.

    Each term adds the log choice and log transition probabilities of one
    step after another, read from the solved arrays by scalar lookups.
    """
    solve = solve_value_functions if model == "recursive" else solve_value_functions_nr
    utility = LinkUtilitySpec(beta=tuple(beta), mu=mu)
    counts = {}
    for seq in obs.observations:
        counts[seq] = counts.get(seq, 0) + 1
    solved = {}
    total = 0.0
    for seq, count in counts.items():
        s0 = seq.initial_state
        if s0 not in solved:
            solved[s0] = solve(net, spp, utility, initial=s0)
        vf = solved[s0]
        graph = vf.graph
        term = 0.0
        for cur, nxt in zip(seq.states, seq.states[1:]):
            i, k = graph.index[cur], graph.index[nxt]
            term += float(vf.log_choice_probs[graph.action(i, nxt.link)])
            term += math.log(graph.edge_prob[graph.edge_index[(i, k)]])
        total += count * term
    return total


def sequence_score(vf, seq):
    """A sequence's score: ``(dq - dV(s)) / scale(s)`` per step, added left to right.

    ``dV`` and ``dq`` are the value derivatives of :func:`value_gradients`,
    read by scalar lookups at each step's state and chosen link.
    """
    graph = vf.graph
    dV, dq = value_gradients(vf)
    score = [0.0] * dV.shape[1]
    for cur, nxt in zip(seq.states, seq.states[1:]):
        i = graph.index[cur]
        j = graph.action(i, nxt.link)
        for k in range(len(score)):
            score[k] += float((dq[j, k] - dV[i, k]) / vf.scale[i])
    return score


def enumerate_sequences(graph):
    """Every state sequence of a compiled graph, by a depth-first walk over its successors."""
    states, successors = graph.states, graph.successors
    sequences = []

    def walk(prefix):
        if not successors[prefix[-1]]:
            sequences.append(StateSequence(tuple(states[i] for i in prefix)))
            return
        for _, targets in successors[prefix[-1]]:
            for j in targets:
                walk(prefix + (j,))

    walk((0,))
    return sequences


def sequence_probabilities(vf):
    """Likelihood of every sequence, one step at a time: choice term, then transition term."""
    graph = vf.graph
    probs = {}
    for seq in enumerate_sequences(graph):
        prob = 1.0
        for cur, nxt in zip(seq.states, seq.states[1:]):
            i, k = graph.index[cur], graph.index[nxt]
            prob *= float(vf.choice_probs[graph.action(i, nxt.link)])
            prob *= float(graph.edge_prob[graph.edge_index[(i, k)]])
        probs[seq] = prob
    return probs


def path_probabilities(vf):
    """Sequence likelihoods summed by link path in sequence order, paths in ascending order."""
    totals = {}
    for seq, prob in sequence_probabilities(vf).items():
        totals[seq.path] = totals.get(seq.path, 0.0) + prob
    return dict(sorted(totals.items()))


def equivalence_report(net, spp, utility=None, mus=(1.0, 0.1, 0.01, 1e-4)):
    """The model comparison with every sequence listed and scored again for each solve."""
    utility = utility or LinkUtilitySpec()
    s0 = initial_state(net, spp)
    rec_paths = path_probabilities(solve_value_functions(net, spp, utility, initial=s0))
    nr_paths = path_probabilities(solve_value_functions_nr(net, spp, utility, initial=s0))
    path_diff = max(
        abs(rec_paths.get(path, 0.0) - nr_paths.get(path, 0.0))
        for path in set(rec_paths) | set(nr_paths)
    )
    if spp.size == 1 and path_diff > 1e-10:
        raise StdRouteError(f"single-scenario network: paths differ by {path_diff!r}")
    divergences = []
    for mu in mus:
        scaled = utility.with_mu(mu)
        rec = sequence_probabilities(solve_value_functions(net, spp, scaled, initial=s0))
        nr = sequence_probabilities(solve_value_functions_nr(net, spp, scaled, initial=s0))
        divergences.append(max(abs(rec[seq] - nr[seq]) for seq in rec))
    return EquivalenceReport(
        support_count=spp.size,
        deterministic=spp.size == 1,
        path_probability_max_diff=float(path_diff),
        mus=tuple(mus),
        sequence_divergences=tuple(float(d) for d in divergences),
        divergence_monotone=all(
            divergences[i + 1] <= divergences[i] + 1e-15 for i in range(len(divergences) - 1)
        ),
    )


def rollout_policy(net, spp, policy, scenario):
    """Trajectory produced by a policy when nature plays one fixed scenario."""
    state = policy.initial_state
    if scenario not in state.ev:
        raise ValidationError(f"scenario {scenario} is incompatible with {state.ev}")
    states = [state]
    while not net.is_destination(state.link):
        a = policy.next_link(state)
        nxt = [s for s, _ in successor_states(net, spp, state, a) if scenario in s.ev]
        state = nxt[0]
        states.append(state)
    return StateSequence(tuple(states))


def _scenario_probs(cs):
    spp = cs.support_points
    scenarios = list(cs.initial_state.ev)
    probs = np.array([spp.probabilities[r - 1] for r in scenarios])
    return scenarios, probs / probs.sum()


def policy_scenario_probabilities(cs, utility):
    """Non-recursive sequence probabilities: the sum over (policy, scenario) pairs whose rollout it is."""
    scenarios, scenario_probs = _scenario_probs(cs)
    totals = {}
    for prob, policy in zip(policy_choice_probs(cs, utility), cs.policies):
        for r, q in zip(scenarios, scenario_probs):
            seq = rollout_policy(cs.network, cs.support_points, policy, r)
            totals[seq] = totals.get(seq, 0.0) + float(prob * q)
    return totals


def policy_scenario_counts(cs, utility, n, seed=None):
    """Frequencies of ``n`` non-recursive trips, each a policy drawn at the origin and rolled out.

    Drawing a policy and a full scenario is equivalent to drawing the
    knowledge transitions step by step, so the ``n`` trips are one
    multinomial draw over (policy, scenario) pairs.
    """
    check_sample_size(n)
    rng = as_rng(seed)
    probs = policy_choice_probs(cs, utility)
    scenarios, scenario_probs = _scenario_probs(cs)
    joint = np.outer(probs, scenario_probs).ravel()
    joint = joint / joint.sum()
    draws = rng.multinomial(n, joint).reshape(len(cs.policies), len(scenarios))
    result = {}
    for i, policy in enumerate(cs.policies):
        for j, r in enumerate(scenarios):
            count = int(draws[i, j])
            if count == 0:
                continue
            seq = rollout_policy(cs.network, cs.support_points, policy, r)
            result[seq] = result.get(seq, 0) + count
    return dict(sorted(result.items(), key=lambda item: item[0].label()))


def dense_sequence_counts(vf, n, seed=None):
    """Frequencies of ``n`` trips, drawn as ``sample_sequence_counts`` draws them, in label order.

    Each step compares every live walker's uniform with the whole padded
    cumulative row of its state's edges, as wide as the widest live
    state, up to the row's last edge of positive probability, and the
    distinct walks are sorted by their label strings.
    """
    check_sample_size(n)
    rng = as_rng(seed)
    graph = vf.graph
    first_edge = graph.edge_ptr[graph.action_ptr]
    widths = np.diff(first_edge)
    used = np.arange(widths.max()) < widths[:, None]
    probs = np.zeros(used.shape)
    probs[used] = vf.choice_probs[graph.edge_action] * graph.edge_prob
    cum = np.cumsum(probs, axis=1)
    # from each row's last edge of positive probability on, no uniform reaches the entry
    columns = np.arange(used.shape[1])
    last = np.where(probs > 0, columns, -1).max(axis=1)
    cum[columns >= last[:, None]] = 1.0 + 1e-12
    nxt = np.zeros(used.shape, dtype=np.intp)
    nxt[used] = graph.edge_target

    cur = np.zeros(n, dtype=np.intp)
    alive = ~graph.terminal[cur]
    columns = []
    while alive.any():
        rows = cur[alive]
        u = rng.random(rows.size)
        width = widths[rows].max()
        chosen = nxt[rows, (u[:, None] >= cum[rows, :width]).sum(axis=1)]
        column = np.zeros(n, dtype=np.intp)
        column[alive] = chosen
        columns.append(column)
        cur[alive] = chosen
        alive[alive] = ~graph.terminal[chosen]

    walks = np.stack(columns, axis=1)
    rows = walks.view(np.dtype((np.void, walks.itemsize * walks.shape[1]))).ravel()
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    states = graph.states
    result = []
    for walk, count in zip(walks[first].tolist(), counts.tolist()):
        path = [0] + [i for i in walk if i]
        seq = StateSequence(tuple(states[i] for i in path))
        result.append((seq.label(), seq, count))
    result.sort(key=lambda item: item[0])
    return {seq: count for _, seq, count in result}


def finite_difference_gradient(f, x, rel_step=1e-6):
    """Central-difference gradient with a step relative to each coordinate's magnitude."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        up = x.copy()
        down = x.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2.0 * h)
    return grad


def hessian_std_errors(f, x, rel_step=1e-4):
    """Standard errors from the inverse of the nested central-difference Hessian of ``-f``.

    ``f`` is a log likelihood; the result is None unless the inverse has
    a positive, finite diagonal.
    """
    x = np.asarray(x, dtype=float)
    hessian = np.empty((x.size, x.size))
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        up = x.copy()
        down = x.copy()
        up[j] += h
        down[j] -= h
        grad_up = finite_difference_gradient(f, up, rel_step)
        grad_down = finite_difference_gradient(f, down, rel_step)
        hessian[j] = -(grad_up - grad_down) / (2.0 * h)
    hessian = 0.5 * (hessian + hessian.T)
    try:
        covariance = np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(covariance)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        return None
    return np.sqrt(diag)
