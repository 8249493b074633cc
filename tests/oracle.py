"""Slow reference implementations: the recursive model over per-State dicts, and scalar scoring.

Walks the expanded decision graph state by state, calling
``successor_states`` and ``LinkUtilitySpec.value`` directly, as a check on
the compiled-graph sweep; and scores an observation set one sequence and
one step at a time, as a check on the batched likelihood.
"""

from __future__ import annotations

import math

from stdroute import (
    LinkUtilitySpec,
    decision_graph,
    solve_value_functions,
    solve_value_functions_nr,
    successor_states,
    transition_prob,
)
from stdroute.numerics import log_softmax, logsumexp, softmax


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
            exponents.append((utility.value(net, spp, a, state) + downstream) / utility.mu)
        values[state] = utility.mu * logsumexp(exponents)
    return values


def _exponents(net, spp, utility, values, state):
    links = net.outgoing(state.link)
    exponents = [
        (
            utility.value(net, spp, a, state)
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
