"""Seeded input generators for the benchmark.

Every generator is a pure function of its seed and size arguments and
returns network documents as JSON text (the format ``load_network``
reads), so the same seed gives byte-identical inputs. Nothing here
imports the package under test.
"""

from __future__ import annotations

import json

import numpy as np

TIME_CHOICES = (1, 2, 3)


def _support_points(rng, link_ids, r, k):
    """R distinct scenarios over K periods, identical at the departure period."""
    m = len(link_ids)
    for _ in range(100):
        times = rng.choice(TIME_CHOICES, size=(r, k, m))
        times[:, 0, :] = times[0, 0, :]
        if len({times[i].tobytes() for i in range(r)}) == r:
            break
    else:
        raise RuntimeError("could not draw distinct scenarios")
    weights = rng.integers(1, 10, size=r)
    probs = weights / weights.sum()
    return [
        {
            "probability": float(probs[s]),
            "travel_times": {str(a): [int(v) for v in times[s, :, c]] for c, a in enumerate(link_ids)},
        }
        for s in range(r)
    ]


def _document(nodes, pairs, destination_node, k, points):
    links = [{"id": 0, "from": nodes[0], "to": nodes[0]}]
    links += [{"id": i + 1, "from": tail, "to": head} for i, (tail, head) in enumerate(pairs)]
    destination = next(l["id"] for l in links if l["to"] == destination_node)
    doc = {
        "nodes": list(nodes),
        "links": links,
        "origin_link": 0,
        "destination_link": destination,
        "horizon": k,
        "support_points": points,
    }
    return json.dumps(doc, sort_keys=True)


def grid_network(seed: int | list[int], n: int, r: int, k: int) -> str:
    """n x n grid with right and down links from the top-left to the bottom-right node.

    R scenarios and K periods; every link time is drawn from {1, 2, 3}
    and is common to all scenarios at the departure period.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}_{j}" for i in range(n) for j in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                pairs.append((f"n{i}_{j}", f"n{i}_{j + 1}"))
            if i + 1 < n:
                pairs.append((f"n{i}_{j}", f"n{i + 1}_{j}"))
    link_ids = list(range(1, len(pairs) + 1))
    points = _support_points(rng, link_ids, r, k)
    return _document(nodes, pairs, nodes[-1], k, points)


def layered_network(rng: np.random.Generator, n_mid: int, budget: int, r: int, k: int) -> str:
    """Small layered network: origin, n_mid middle nodes, destination, forward links only.

    A spine of required links keeps the destination reachable from every
    node; randomly chosen optional parallel and skip links are added until
    there are ``budget`` traversable links.
    """
    nodes = ["o"] + [f"m{i}" for i in range(1, n_mid + 1)] + ["z"]
    required = [("o", "m1"), ("m1", "z")]
    optional = [("o", "z"), ("o", "m1"), ("m1", "z")]
    if n_mid == 2:
        required.append(("m2", "z"))
        optional += [("o", "m2"), ("m1", "m2"), ("m2", "z"), ("m1", "z")]
    pairs = required + [optional[i] for i in rng.permutation(len(optional))[: budget - len(required)]]
    points = _support_points(rng, list(range(1, len(pairs) + 1)), r, k)
    return _document(nodes, pairs, "z", k, points)


# (middle nodes, traversable links, scenarios R, periods K): every class of
# network with at most 6 links (the origin dummy included), 3 scenarios and
# 3 periods.
LAYERED_CLASSES = tuple(
    (n_mid, budget, r, k)
    for n_mid, budgets in ((1, (2, 3, 4, 5)), (2, (3, 4, 5)))
    for budget in budgets
    for r in (1, 2, 3)
    for k in (2, 3)
)


def layered_networks(seed: int, count: int) -> list[str]:
    """``count`` layered networks, cycling through LAYERED_CLASSES.

    Every seed draws the same number of networks of each class, so the
    total work varies little from seed to seed; links, travel times and
    probabilities are random within a class.
    """
    rng = np.random.default_rng(seed)
    return [
        layered_network(rng, *LAYERED_CLASSES[j % len(LAYERED_CLASSES)]) for j in range(count)
    ]


def two_route_grid(seed: int, nx=11, ny=10, n_p=5, a=2.0, b=2.0):
    """Seeded two-route scenario grid: nx offsets x, ny offsets y, n_p state probabilities.

    Offsets are distinct non-zero multiples of 0.1 in [-1.9, 5.0] (so
    every route time stays positive and scales to an integer), each axis
    holding both signs; probabilities are distinct multiples of 0.005 in
    [0.05, 0.95]. Returns (a, b, x, y, p) tuples in grid order.
    """
    rng = np.random.default_rng(seed)
    steps = [s for s in range(-19, 51) if s != 0]
    negative = [s for s in steps if s < 0]
    positive = [s for s in steps if s > 0]

    def offsets(count):
        n_neg = int(rng.integers(2, count - 1))
        picked = list(rng.choice(negative, n_neg, replace=False))
        picked += list(rng.choice(positive, count - n_neg, replace=False))
        return sorted(round(int(s) / 10, 1) for s in picked)

    xs, ys = offsets(nx), offsets(ny)
    ps = sorted(round(int(q) / 200, 3) for q in rng.choice(range(10, 191), n_p, replace=False))
    return [(a, b, x, y, p) for x in xs for y in ys for p in ps]


def state_space(text: str) -> dict[str, int]:
    """Size of the reachable decision-state space, counted independently of the package.

    A state is (link, arrival time, knowledge class); the knowledge class
    at time t groups scenarios whose travel times agree on every link up
    to period min(t, K-1). Returns the counts of states, decision
    state-actions, successor edges and knowledge classes at the last period.
    """
    doc = json.loads(text)
    k = doc["horizon"]
    origin = doc["origin_link"]
    heads = {l["id"]: l["to"] for l in doc["links"]}
    destination = heads[doc["destination_link"]]
    outgoing: dict[str, list[int]] = {}
    for l in doc["links"]:
        if l["id"] != origin:
            outgoing.setdefault(l["from"], []).append(l["id"])
    link_ids = sorted(a for ids in outgoing.values() for a in ids)
    col = {a: c for c, a in enumerate(link_ids)}
    points = doc["support_points"]
    times = np.array(
        [[[p["travel_times"][str(a)][t] for a in link_ids] for t in range(k)] for p in points]
    )
    partitions = []
    for period in range(k):
        groups: dict[bytes, list[int]] = {}
        for r in range(len(points)):
            groups.setdefault(times[r, : period + 1].tobytes(), []).append(r)
        partitions.append([frozenset(g) for g in groups.values()])

    start = (origin, 0, partitions[0][0])
    seen = {start}
    stack = [start]
    state_actions = edges = 0
    while stack:
        link, t, ev = stack.pop()
        if heads[link] == destination:
            continue
        some = next(iter(ev))
        for a in outgoing.get(heads[link], ()):
            state_actions += 1
            t_next = t + int(times[some, min(t, k - 1), col[a]])
            for ev_next in partitions[min(t_next, k - 1)]:
                if ev_next & ev:
                    edges += 1
                    nxt = (a, t_next, ev_next)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
    return {
        "states": len(seen),
        "state_actions": state_actions,
        "edges": edges,
        "classes_last_period": len(partitions[-1]),
    }
