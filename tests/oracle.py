"""Slow reference implementations: the State-level graph, the recursive model over dicts, scalar scoring.

Expands the decision graph state by state over ``State`` objects, with
``successor_states`` rebuilding the knowledge classes from scenario sets
at every step, and lays it out as arrays, as a check on the compile in
index space (by height level, as the compile does, or by arrival time,
as a check that the schedule of the sweep changes no bit); walks the
expanded graph calling the attribute extractor once per link, as a
check on the compiled-graph sweep; lists every routing policy by
merging one decision dict per sub-policy, as a check on the rows of
state-actions the choice set keeps and on their order; reads a
policy as a ``{State: link}`` dict of its decisions, to check a row's
containment of a sequence and a sequence's probability given a policy
against the rows' state-actions; walks each routing policy's state tree
to its leaves, as a check on the policy utility read from the compiled
graph's reach; scores an observation
set one sequence and one step at a time, as a check on the batched
likelihood, and sums each sequence's score one step at a time, as a
check on the scores read from the flat step table; writes a sequence's
likelihood with each state's value in the denominator, as a check on
the log-sum identity behind the choice probabilities; checks each observed
sequence step by step, as a check on validation by the step table;
lists and scores every state sequence anew on each call, as a check on
the sequence table a compiled graph keeps; solves the two models of a
two-route scenario one at a time and reads each junction state's route
choice one call at a time, as a check on the batch solve behind the
pipeline ratios; draws and marginalizes the non-recursive model as the paper
states it, a routing policy chosen at the origin and executed in one
scenario, as a check on sampling the solved model link by link;
splits the trip counts down the prefix tree one scalar binomial at a
time and sorts the sequences by label string, as a check on the
vectorized splitter and its rank order; and differentiates the log
likelihood by central differences, as a check on the exact scores and
their standard errors; maximizes it by scipy's BFGS, as a check on
the damped Newton fit; and renders the command line's policy and choice
tables from ``{State: link}`` policy dicts and the ``State``-keyed value
dict, as a check on the tables written from the compiled graph's indices.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
from scipy.optimize import minimize

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
    build_two_route_network,
    compile_graph,
    enumerate_policies,
    event_collections_at,
    initial_state,
    policy_choice_probs,
    policy_utilities,
    solve_value_functions,
    solve_value_functions_nr,
    transition_prob,
    travel_time,
    travel_time_attributes,
)
from stdroute import estimation, recursive
from stdroute.comparison import LINK_APPROACH, LINK_ROUTE2, LINK_ROUTE3, ModelRatios, RouteRatios
from stdroute.network import Layer
from stdroute.numerics import as_rng, check_sample_size, softmax
from stdroute.policy import sequence_table
from stdroute.recursive import sequence_likelihoods, step_table, value_gradients


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


def heights(graph):
    """The most steps from each state of an expanded graph to the destination, by recursion."""
    memo = {}

    def height(state):
        if state not in memo:
            succ = [nxt for per_link in graph.choices.get(state, {}).values() for nxt, _ in per_link]
            memo[state] = 1 + max(map(height, succ)) if succ else 0
        return memo[state]

    return {s: height(s) for s in graph.states}


def compile_expansion(net, spp, graph, by_time=False):
    """An expanded graph as a ``CompiledGraph``, with travel times and reach taken state by state.

    Laid out by height level, as ``compile_graph`` does; with ``by_time``,
    by arrival time instead, one layer per time with its decision states
    first: another valid schedule of the same backward sweep.
    """
    if by_time:
        level = lambda s: s.time
        states = sorted(graph.states, key=lambda s: (s.time, s in graph.terminal))
    else:
        level = heights(graph).__getitem__
        states = sorted(graph.states, key=level, reverse=True)
    index = {s: i for i, s in enumerate(states)}
    action_ptr, links, times, action_state, owner, first = [0], [], [], [], [], []
    edge_ptr, targets, probs, edge_owner = [0], [], [], []
    layers = []
    for _, group in itertools.groupby(range(len(states)), key=lambda i: level(states[i])):
        layer = list(group)
        lo, a0, e0 = layer[0], len(links), len(targets)
        for i in layer:
            first.append(len(links) - a0)
            for a, succ in graph.choices.get(states[i], {}).items():
                links.append(a)
                times.append(travel_time(net, spp, a, states[i]))
                action_state.append(i)
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
        action_state=ints(action_state),
        action_owner=ints(owner),
        first_action=ints(first),
        edge_ptr=ints(edge_ptr),
        edge_target=ints(targets),
        edge_prob=np.array(probs, dtype=float),
        edge_owner=ints(edge_owner),
        reach=mass / mass[0],
    )


def compile_graph(net, spp, initial, by_time=False):
    """The State-level expansion from ``initial``, laid out as arrays (see ``compile_expansion``)."""
    return compile_expansion(net, spp, decision_graph(net, spp, initial), by_time)


ARRAYS = (
    "action_ptr",
    "action_link",
    "action_time",
    "action_state",
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


def merged_policies(net, spp, initial):
    """Every routing policy from ``initial``, each a dict merged from one dict per sub-policy.

    Walks the State-level expansion: links in ascending id, then one
    sub-policy per next knowledge state in the order ``successor_states``
    gives them, the partition order.
    """
    graph = decision_graph(net, spp, initial)
    memo = {}

    def options(state):
        if state in graph.terminal:
            return [{}]
        if state not in memo:
            memo[state] = []
            for a in sorted(graph.choices[state]):
                nexts = [nxt for nxt, _ in graph.choices[state][a]]
                for combo in itertools.product(*map(options, nexts)):
                    merged = {state: a}
                    for sub in combo:
                        merged.update(sub)
                    memo[state].append(merged)
        return memo[state]

    return tuple(options(initial))


def row_policy(graph, row):
    """A row of a compiled graph's state-actions as a ``{State: link}`` dict of its decisions."""
    states, owner, links = graph.states, graph.action_state.tolist(), graph.action_link.tolist()
    return {states[owner[j]]: links[j] for j in row}


def policy_maps(cs):
    """Every policy of a choice set as a ``{State: link}`` dict, in choice-set order."""
    return tuple(row_policy(cs.graph, row) for row in cs.rows)


def contains(policy, seq):
    """Whether a ``{State: link}`` policy takes the sequence's link at each of its decision states."""
    return all(policy.get(cur) == nxt.link for cur, nxt in zip(seq.states, seq.states[1:]))


def sequence_prob_given_policy(seq, policy, spp):
    """Probability of observing the sequence when a ``{State: link}`` policy is executed.

    Zero unless the policy contains the sequence; otherwise the chain of
    knowledge transitions collapses to the probability of the final
    knowledge state given the initial one.
    """
    if not contains(policy, seq):
        return 0.0
    return transition_prob(spp, seq.final_state.ev, seq.initial_state.ev)


def policy_outcomes(net, spp, initial, policy):
    """Leaves of a ``{State: link}`` policy's state tree, walked with ``successor_states`` from ``initial``."""
    leaves = []

    def walk(prefix, prob):
        state = prefix[-1]
        if net.is_destination(state.link):
            leaves.append((StateSequence(prefix), prob))
            return
        for nxt, p in successor_states(net, spp, state, policy[state]):
            walk(prefix + (nxt,), prob * p)

    walk((initial,), 1.0)
    return tuple(leaves)


def policy_expected_utility(net, spp, initial, policy, utility):
    """Leaf-probability-weighted utility accumulated along each leaf sequence of the policy's tree."""
    total = 0.0
    for seq, prob in policy_outcomes(net, spp, initial, policy):
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
    """Every state sequence of a compiled graph, by a recursive walk over the ``State``-level expansion.

    Links are taken in ascending id and next states in partition order,
    the order of the compiled graph's edges.
    """
    expanded = decision_graph(graph.network, graph.support_points, graph.initial)
    sequences = []

    def walk(prefix):
        if prefix[-1] in expanded.terminal:
            sequences.append(StateSequence(prefix))
            return
        for successors in expanded.choices[prefix[-1]].values():
            for nxt, _ in successors:
                walk(prefix + (nxt,))

    walk((graph.initial,))
    return sequences


def sequence_likelihood_value_form(vf, seq):
    """A sequence's likelihood written with the current state's value in the denominator.

    exp((utility + expected downstream value - state value) / scale) per
    step, at the state's scale; equal to ``sequence_likelihood`` because
    each value is the log-sum of its own choice exponents. A max table
    (``optimal_policy``, scale 0) has no such form and is rejected.
    """
    vf.require_unbatched()
    graph = vf.graph
    steps = step_table(graph, [seq])
    prob = 1.0
    for j, e in zip(steps.actions.tolist(), steps.edges.tolist()):
        i = graph.action_state[j]
        scale = vf.scale[i]
        if not scale > 0:
            raise ValidationError("the value form needs a positive logit scale; a max table has none")
        prob *= math.exp(vf.action_values[j] / scale - vf.state_values[i] / scale)
        prob *= float(graph.edge_prob[e])
    return prob


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


def pipeline_ratios(s):
    """A scenario's two-route ratios from one solve per model, read at each junction state in turn."""
    build = build_two_route_network(s)
    net, spp, s0 = build.network, build.support_points, build.initial_state
    junctions = [state for state, _ in successor_states(net, spp, s0, LINK_APPROACH)]
    ratios = []
    for solve in (solve_value_functions, solve_value_functions_nr):
        vf = solve(net, spp, build.utility, initial=s0)
        dists = (recursive.choice_distribution(vf, state) for state in junctions)
        (r2_1, r3_1), (r2_2, r3_2) = ((d[LINK_ROUTE2], d[LINK_ROUTE3]) for d in dists)
        m2 = s.p * r2_1 + (1.0 - s.p) * r2_2
        m3 = s.p * r3_1 + (1.0 - s.p) * r3_2
        ratios.append(RouteRatios(r2_1 / r3_1, r2_2 / r3_2, m2 / m3))
    return ModelRatios(*ratios)


def rollout_policy(net, spp, initial, policy, scenario):
    """Trajectory produced by a ``{State: link}`` policy from ``initial`` when nature plays one fixed scenario."""
    state = initial
    if scenario not in state.ev:
        raise ValidationError(f"scenario {scenario} is incompatible with {state.ev}")
    states = [state]
    while not net.is_destination(state.link):
        a = policy[state]
        nxt = [s for s, _ in successor_states(net, spp, state, a) if scenario in s.ev]
        state = nxt[0]
        states.append(state)
    return StateSequence(tuple(states))


def _scenario_probs(cs):
    spp = cs.support_points
    scenarios = list(cs.initial_state.ev)
    probs = np.array([spp.probabilities[r - 1] for r in scenarios])
    return scenarios, probs / probs.sum()


def policy_choice_prob(cs, row, utility):
    """One policy row's origin logit probability, read from the whole choice set's."""
    return float(policy_choice_probs(cs, utility)[cs.rows.index(row)])


def policy_scenario_probabilities(cs, utility):
    """Non-recursive sequence probabilities: the sum over (policy, scenario) pairs whose rollout it is."""
    scenarios, scenario_probs = _scenario_probs(cs)
    totals = {}
    for prob, policy in zip(policy_choice_probs(cs, utility), policy_maps(cs)):
        for r, q in zip(scenarios, scenario_probs):
            seq = rollout_policy(cs.network, cs.support_points, cs.initial_state, policy, r)
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
    draws = rng.multinomial(n, joint).reshape(len(cs), len(scenarios))
    result = {}
    for i, policy in enumerate(policy_maps(cs)):
        for j, r in enumerate(scenarios):
            count = int(draws[i, j])
            if count == 0:
                continue
            seq = rollout_policy(cs.network, cs.support_points, cs.initial_state, policy, r)
            result[seq] = result.get(seq, 0) + count
    return dict(sorted(result.items(), key=lambda item: item[0].label()))


def split_sequence_counts(vf, n, seed=None):
    """Frequencies of ``n`` trips, drawn as ``sample_sequence_counts`` draws them, in label order.

    A scalar walk down the prefix tree: at each step, for each edge
    offset in ascending order and each live prefix in order, a prefix
    with trips left draws a binomial share of them for each positive
    edge before its state's last, which takes the rest. The sequences
    are sorted by their label strings.
    """
    check_sample_size(n)
    rng = as_rng(seed)
    graph = vf.graph
    ptr = graph.edge_ptr[graph.action_ptr].tolist()
    probs = (vf.choice_probs[graph.edge_action] * graph.edge_prob).tolist()
    targets, terminal = graph.edge_target.tolist(), graph.terminal.tolist()
    share, last = [0.0] * len(probs), [0] * (len(ptr) - 1)
    for i in range(len(ptr) - 1):
        tail = 0.0
        for e in reversed(range(ptr[i], ptr[i + 1])):
            tail = probs[e] + tail
            if probs[e] > 0:
                share[e] = probs[e] / tail
                last[i] = max(last[i], e)

    prefixes, ended = [((0,), n)], []
    while prefixes:
        left = [count for _, count in prefixes]
        children = [[] for _ in prefixes]
        for k in range(max(ptr[path[-1] + 1] - ptr[path[-1]] for path, _ in prefixes)):
            for p, (path, _) in enumerate(prefixes):
                e = ptr[path[-1]] + k
                if e > last[path[-1]] or left[p] == 0 or probs[e] == 0:
                    continue
                take = left[p] if e == last[path[-1]] else int(rng.binomial(left[p], share[e]))
                left[p] -= take
                if take:
                    children[p].append((path + (targets[e],), take))
        prefixes = []
        for path, count in (child for family in children for child in family):
            (ended if terminal[path[-1]] else prefixes).append((path, count))

    states = graph.states
    result = [(StateSequence(tuple(states[i] for i in path)), count) for path, count in ended]
    result.sort(key=lambda item: item[0].label())
    return dict(result)


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


def bfgs_fit(model, net, spp, obs, beta0, mu=1.0, attributes=travel_time_attributes):
    """Maximize the log likelihood by scipy's BFGS on the exact score, as ``fit`` once did.

    Returns the coefficients and the log likelihood there.
    """
    counts, trips = obs._groups.counts, len(obs)

    def objective(beta):
        total, scores, _ = estimation._score(model, net, spp, obs, beta, mu, attributes, scores=True)
        return -total / trips, -(counts @ scores) / trips

    result = minimize(
        objective,
        np.asarray(beta0, dtype=float),
        jac=True,
        method="BFGS",
        options={"gtol": estimation.GRADIENT_TOL, "maxiter": estimation.MAX_ITERATIONS},
    )
    return result.x, -result.fun * trips


def _csv_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _fmt(value):
    return format(value, ".10g")


def _decision_text(state, a):
    return [str(state.link), str(state.time), ";".join(map(str, state.ev.members)), str(a)]


def policy_csv(net, spp):
    """``enumerate-policies``' CSV: each policy's decisions sorted by ``State.sort_key``, one row each."""
    cs = enumerate_policies(net, spp, initial_state(net, spp))
    rows = [
        [str(i), *_decision_text(state, a)]
        for i, policy in enumerate(policy_maps(cs))
        for state, a in sorted(policy.items(), key=lambda item: item[0].sort_key)
    ]
    return _csv_text(["policy", "link", "time", "ev", "next_link"], rows)


def predict_csvs(net, spp, utility, model):
    """``predict``'s CSV per table name, for model recursive, nonrecursive or both."""
    s0 = initial_state(net, spp)
    models = ("recursive", "nonrecursive") if model == "both" else (model,)
    table = sequence_table(compile_graph(net, spp, s0))
    tables, columns = {}, []
    if "recursive" in models:
        vf = solve_value_functions(net, spp, utility, initial=s0)
        rows = [
            [*_decision_text(state, a), _fmt(prob)]
            for state in sorted(vf.values, key=lambda s: s.sort_key)
            if not net.is_destination(state.link)
            for a, prob in recursive.choice_distribution(vf, state).items()
        ]
        tables["choices"] = _csv_text(["link", "time", "ev", "next_link", "probability"], rows)
        columns.append(sequence_likelihoods(vf, table.steps))
    if "nonrecursive" in models:
        vf = solve_value_functions_nr(net, spp, utility, initial=s0)
        columns.append(sequence_likelihoods(vf, table.steps))
        cs = enumerate_policies(net, spp, s0)
        utilities, probs = policy_utilities(cs, utility), policy_choice_probs(cs, utility)
        rows = [[str(i), _fmt(float(u)), _fmt(float(p))] for i, (u, p) in enumerate(zip(utilities, probs))]
        tables["policy_probs"] = _csv_text(["policy", "expected_utility", "probability"], rows)
    rows = [
        [str(i), seq.label(), "-".join(map(str, seq.path)), *map(_fmt, probs)]
        for i, (seq, *probs) in enumerate(zip(table.sequences, *(c.tolist() for c in columns)))
    ]
    tables["sequences"] = _csv_text(["sequence", "states", "path", *models], rows)
    totals = zip(*(table.path_sums(c).tolist() for c in columns))
    rows = [["-".join(map(str, path)), *map(_fmt, t)] for path, t in zip(table.paths, totals)]
    tables["paths"] = _csv_text(["path", *models], rows)
    return tables
