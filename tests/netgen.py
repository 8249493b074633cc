"""Random small-network generator for property and oracle tests.

``random_network`` draws layered networks (origin node, one or two
middle nodes, destination) with forward links only, so the destination
is reachable from every state and every policy terminates;
``cyclic_network`` allows cycles and dead ends, for the expansion's
errors; ``chain_network`` is one long chain of links, for walks deeper
than Python's recursion limit. Travel times at the departure period are identical across
scenarios, keeping the departure knowledge state unambiguous.
``bench_module`` imports a module of the benchmark harness, for tests
on the benchmark's own networks.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np

from stdroute import Link, StdNetwork, SupportPointSet

BENCH = Path(__file__).resolve().parent.parent / "bench"


def random_network(
    rng: np.random.Generator,
    max_links: int = 6,
    max_support: int = 3,
    max_horizon: int = 3,
    support_count: int | None = None,
) -> tuple[StdNetwork, SupportPointSet]:
    n_mid = int(rng.integers(1, 3))
    nodes = ["o"] + [f"m{i}" for i in range(1, n_mid + 1)] + ["z"]

    # spine guarantees reachability; extras add parallel and skip links
    required = [("o", "m1"), ("m1", "z")]
    if n_mid == 2:
        required.append(("m2", "z"))
    optional = [("o", "z"), ("o", "m1"), ("m1", "z")]
    if n_mid == 2:
        optional += [("o", "m2"), ("m1", "m2"), ("m2", "z"), ("m1", "z")]

    # traversable links, dummy excluded
    budget = int(rng.integers(len(required), max(max_links, len(required) + 1)))
    pairs = list(required)
    extras = list(optional)
    rng.shuffle(extras)
    for pair in extras:
        if len(pairs) >= budget:
            break
        pairs.append(pair)

    links = [Link(0, "o", "o")]
    links += [Link(i + 1, tail, head) for i, (tail, head) in enumerate(pairs)]

    net = StdNetwork(
        nodes=tuple(nodes),
        links=tuple(links),
        origin_link=0,
        destination_link=next(l.id for l in links if l.head == "z"),
        horizon=int(rng.integers(2, max_horizon + 1)),
    )

    r = support_count if support_count is not None else int(rng.integers(1, max_support + 1))
    m = len(pairs)
    for _ in range(50):
        times = rng.integers(1, 4, size=(r, net.horizon, m))
        times[:, 0, :] = times[0, 0, :]  # common departure period
        if r == 1 or len({times[i].tobytes() for i in range(r)}) == r:
            break
    else:
        raise AssertionError("could not draw distinct support points")

    probs = rng.random(r) + 0.2
    probs = probs / probs.sum()
    spp = SupportPointSet(
        link_ids=tuple(l.id for l in links if l.id != 0),
        travel_times=times,
        probabilities=probs,
    )
    return net, spp


def cyclic_network(rng: np.random.Generator, max_links: int = 7) -> tuple[StdNetwork, SupportPointSet]:
    """A network with random links among four nodes and the destination: cycles and dead ends allowed.

    Expanding it may run past the trip horizon or reach a node with no
    outgoing link; it is for checking which error an expansion raises.
    """
    nodes = ["o", "a", "b", "c", "z"]
    tails = rng.choice(4, size=int(rng.integers(2, max_links + 1)))
    pairs = [(nodes[t], nodes[int(rng.choice([h for h in range(1, 5) if h != t]))]) for t in tails]
    pairs.append((nodes[int(rng.integers(0, 4))], "z"))
    links = [Link(0, "o", "o")] + [Link(i + 1, tail, head) for i, (tail, head) in enumerate(pairs)]
    net = StdNetwork(
        nodes=tuple(nodes),
        links=tuple(links),
        origin_link=0,
        destination_link=len(pairs),
        horizon=int(rng.integers(1, 4)),
    )
    r = int(rng.integers(1, 4))
    times = rng.integers(1, 4, size=(r, net.horizon, len(pairs)))
    times[:, 0, :] = times[0, 0, :]  # common departure period
    probs = rng.random(r) + 0.2
    spp = SupportPointSet(
        link_ids=tuple(range(1, len(pairs) + 1)), travel_times=times, probabilities=probs / probs.sum()
    )
    return net, spp


def chain_network(n: int) -> tuple[StdNetwork, SupportPointSet]:
    """A chain of ``n`` links, link i from node i-1 to node i, each taking one period in one scenario.

    It has one policy and one sequence, of ``n`` steps: a network far
    deeper than Python's recursion limit.
    """
    nodes = tuple(f"n{i}" for i in range(n + 1))
    links = (Link(0, "n0", "n0"),) + tuple(Link(i, nodes[i - 1], nodes[i]) for i in range(1, n + 1))
    net = StdNetwork(nodes=nodes, links=links, origin_link=0, destination_link=n, horizon=1)
    times = np.ones((1, 1, n), dtype=np.int64)
    spp = SupportPointSet(link_ids=tuple(range(1, n + 1)), travel_times=times, probabilities=np.ones(1))
    return net, spp


def network_text(net: StdNetwork, spp: SupportPointSet) -> str:
    """A network as a JSON document that ``load_network`` reads back."""
    points = [
        {
            "probability": float(p),
            "travel_times": {
                str(a): spp.travel_times[r, :, j].tolist() for j, a in enumerate(spp.link_ids)
            },
        }
        for r, p in enumerate(spp.probabilities)
    ]
    return json.dumps(
        {
            "nodes": list(net.nodes),
            "links": [{"id": l.id, "from": l.tail, "to": l.head} for l in net.links],
            "origin_link": net.origin_link,
            "destination_link": net.destination_link,
            "horizon": net.horizon,
            "support_points": points,
        }
    )


def bench_module(name):
    """A module of the benchmark harness, imported from its directory."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
