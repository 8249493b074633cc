"""Per-layer metrics of one traced pass: one set-up, one operation and the final step.

Every ``*_s`` metric is self time: the time inside that layer's calls not
covered by another traced call beneath it. ``estimation.optimizer_s`` is
the whole span around ``minimize`` and ``estimation.post_s`` is ``fit``
minus that span. Sizes are read from the package's public
``decision_graph`` and checked against the benchmark's own count. Every
workload reports every metric; a layer it does not use reads 0.
"""

from __future__ import annotations

import gen
import stdroute as sr

def policy_count(graph) -> int:
    """Exact number of routing policies from the graph's initial state (one backward sweep)."""
    counts = {}
    for state in reversed(graph.states):
        if state in graph.terminal:
            counts[state] = 1
            continue
        total = 0
        for successors in graph.choices[state].values():
            branch = 1
            for nxt, _ in successors:
                branch *= counts[nxt]
            total += branch
        counts[state] = total
    return counts[graph.initial]


def graph_size(net, spp, s0) -> dict:
    graph = sr.decision_graph(net, spp, s0)
    return {
        "states": len(graph.states),
        "state_actions": sum(len(c) for c in graph.choices.values()),
        "edges": sum(len(s) for c in graph.choices.values() for s in c.values()),
        "classes_last_period": len(sr.event_collections_at(spp, net.horizon - 1)),
        "policies": policy_count(graph),
    }


def sizes(items, checks) -> dict:
    """Size counts summed over the workload's networks, cross-checked with gen.state_space."""
    total = dict.fromkeys(("states", "state_actions", "edges", "classes_last_period", "policies"), 0)
    mismatches = 0
    for text, net, spp, s0 in items:
        size = graph_size(net, spp, s0)
        own = gen.state_space(text)
        mismatches += any(size[k] != own[k] for k in own)
        for k in total:
            total[k] += size[k]
    checks.check(mismatches == 0, f"decision_graph size differs from the own count on {mismatches} networks")
    return total


def layer_metrics(tracer, wl, inputs, checks, overhead: float, units: dict[str, str]) -> dict:
    """Every metric named in ``units`` (the per-layer list of BENCHMARK.json), with its unit."""
    t = tracer
    size = sizes(wl.networks(inputs), checks)
    loglik_evals = t.calls("estimation.loglik")
    utilities_calls = t.calls("nonrecursive.utilities")
    result = getattr(wl, "result", None)  # the fit of fit workloads
    values = {
        "network.load_s": t.self_time("network.load"),
        "network.graph_calls": t.calls("network.graph"),
        "network.graph_s": t.self_time("network.graph"),
        "network.states": size["states"],
        "network.state_actions": size["state_actions"],
        "network.edges": size["edges"],
        "network.classes_last_period": size["classes_last_period"],
        "network.successor_calls": t.calls("network.successor"),
        "network.successor_s": t.self_time("network.successor"),
        "utility.value_calls": t.calls("utility.value"),
        "utility.value_s": t.self_time("utility.value"),
        "recursive.solve_calls": t.calls("recursive.solve"),
        "recursive.solve_s": t.self_time("recursive.solve"),
        "recursive.choice_table_s": t.self_time("recursive.choice_table"),
        "recursive.sample_s": t.self_time("recursive.sample"),
        "recursive.seq_loglik_calls": t.calls("recursive.seq_loglik"),
        "recursive.seq_loglik_s": t.self_time("recursive.seq_loglik"),
        "policy.count": float(size["policies"]),
        "policy.enumerate_s": t.self_time("policy.enumerate"),
        "policy.sequences_s": t.self_time("policy.sequences"),
        "policy.expected_utility_calls": t.calls("policy.expected_utility"),
        "policy.expected_utility_s": t.self_time("policy.expected_utility"),
        "nonrecursive.utilities_calls": utilities_calls,
        "nonrecursive.utilities_s": t.self_time("nonrecursive.utilities"),
        "nonrecursive.utilities_useful_ratio": (
            loglik_evals / utilities_calls if utilities_calls else 0.0
        ),
        "nonrecursive.seq_loglik_s": t.self_time("nonrecursive.seq_loglik"),
        "nonrecursive.sample_s": t.self_time("nonrecursive.sample"),
        "estimation.loglik_evals": loglik_evals,
        "estimation.loglik_s": t.self_time("estimation.loglik"),
        "estimation.iterations": result.iterations if result else 0,
        "estimation.solves_per_loglik": (
            t.calls_under("recursive.solve", "estimation.loglik") / loglik_evals
            if loglik_evals else 0.0
        ),
        "estimation.optimizer_s": t.busy("estimation.optimizer"),
        "estimation.post_s": t.busy("estimation.fit") - t.busy("estimation.optimizer"),
        "estimation.gradient_norm": result.gradient_norm if result else 0.0,
        "estimation.converged": int(result.converged) if result else 0,
        "comparison.build_s": t.self_time("comparison.build"),
        "comparison.pipeline_s": t.self_time("comparison.pipeline"),
        "comparison.closed_form_s": t.self_time("comparison.closed_form"),
        "comparison.equivalence_s": t.self_time("comparison.equivalence"),
    }
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
