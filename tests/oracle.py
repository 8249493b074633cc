"""Slow reference implementation of the recursive model over per-State dicts.

Walks the expanded decision graph state by state, calling
``successor_states`` and ``LinkUtilitySpec.value`` directly, as a check on
the compiled-graph sweep.
"""

from __future__ import annotations

import math

from stdroute import decision_graph, successor_states, transition_prob
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
