"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from netgen import random_network
from oracle import policy_maps, policy_scenario_counts, rollout_policy
from stdroute import (
    EventCollection,
    LinkUtilitySpec,
    ObservationSet,
    State,
    TwoRouteScenario,
    choice_distribution,
    closed_form_ratios,
    enumerate_policies,
    enumerate_sequences,
    fit,
    initial_state,
    load_bundled_network,
    path_probabilities,
    pipeline_ratios,
    policy_choice_probs,
    policy_utilities,
    sample_sequence_counts,
    scenario_grid,
    sequence_probabilities,
    solve_value_functions,
    solve_value_functions_nr,
)
from stdroute.recursive import step_table

V1 = State(1, 1, EventCollection((1,)))
V2 = State(1, 1, EventCollection((2,)))


def check(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def branch_key(seq):
    return (seq.states[1].ev.members[0], seq.states[2].link)


@pytest.fixture(scope="module")
def model():
    net, spp = load_bundled_network()
    s0 = initial_state(net, spp)
    utility = LinkUtilitySpec()
    vf = solve_value_functions(net, spp, utility)
    cs = enumerate_policies(net, spp, s0)
    return net, spp, s0, utility, vf, cs


def test_reference_table_reproduction(model):
    net, spp, s0, utility, _, _ = model
    start = time.perf_counter()
    vf = solve_value_functions(net, spp, utility)
    rec = {branch_key(q): p for q, p in sequence_probabilities(vf).items()}
    nr_vf = solve_value_functions_nr(net, spp, utility, initial=s0)
    nr = {branch_key(q): p for q, p in sequence_probabilities(nr_vf).items()}
    nr_paths = path_probabilities(nr_vf)
    elapsed = time.perf_counter() - start

    expected_rec = {(1, 2): 0.1345, (2, 2): 0.25, (1, 3): 0.3655, (2, 3): 0.25}
    expected_nr = {(1, 2): 0.1888, (2, 2): 0.25, (1, 3): 0.3112, (2, 3): 0.25}
    worst = max(
        max(abs(rec[k] - expected_rec[k]) for k in expected_rec),
        max(abs(nr[k] - expected_nr[k]) for k in expected_nr),
        abs(nr_paths[(1, 2)] - 0.4388),
        abs(nr_paths[(1, 3)] - 0.5612),
    )
    check(
        "sequence and path likelihood table (both models, 5e-5)",
        worst <= 5e-5 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.3f}s",
    )


def test_state_level_closed_forms(model):
    _, _, s0, _, vf, _ = model
    errs = [
        abs(choice_distribution(vf, V1)[2] - 1 / (1 + math.e)),
        abs(choice_distribution(vf, V2)[2] - 0.5),
        abs(choice_distribution(vf, s0)[1] - 1.0),
    ]
    check("junction and departure choice probabilities (1e-12)", max(errs) <= 1e-12,
          f"max deviation {max(errs):.2e}")


def test_policy_expected_travel_times(model):
    net, spp, _, utility, _, cs = model
    values = policy_utilities(cs, utility).tolist()
    expected = [-3.5, -3.5, -3.0, -3.0]
    worst = max(abs(v - e) for v, e in zip(values, expected))
    check("policy expected travel times 3.5/3.5/3/3 (1e-12)", worst <= 1e-12,
          f"max deviation {worst:.2e}")


def test_two_route_formula_agreement():
    start = time.perf_counter()
    grid = scenario_grid()
    worst = 0.0
    for scenario in grid:
        closed = closed_form_ratios(scenario)
        numeric = pipeline_ratios(scenario)
        worst = max(
            worst,
            max(
                abs(c - n)
                for c, n in zip(
                    (*closed.recursive, *closed.nonrecursive),
                    (*numeric.recursive, *numeric.nonrecursive),
                )
            ),
        )
    elapsed = time.perf_counter() - start
    check(
        f"closed-form vs pipeline ratios on {len(grid)} scenarios (1e-10)",
        len(grid) >= 500 and worst <= 1e-10 and elapsed < 10.0,
        f"max diff {worst:.2e}, {elapsed:.2f}s",
    )


def margin(ratio: float) -> float:
    return (ratio - 1.0) / (ratio + 1.0)


def test_dominance_margin_ordering():
    violations = 0
    cases = 0
    values = [0.1, 0.4, 0.9, 1.6, 2.5, 3.7, 5.0]
    p_values = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
    for x in values:
        for y in values:
            for p in p_values:
                cases += 1
                closed = closed_form_ratios(TwoRouteScenario(a=2, b=2, x=x, y=y, p=p))
                rec = margin(closed.recursive.marginal)
                nr = margin(closed.nonrecursive.marginal)
                if not (rec > nr > 0):
                    violations += 1
                # mirrored case: both offsets negative, route 3 dominates
                mirrored = closed_form_ratios(
                    TwoRouteScenario(a=2 + x, b=2 + y, x=-x, y=-y, p=p)
                )
                rec_m = margin(mirrored.recursive.marginal)
                nr_m = margin(mirrored.nonrecursive.marginal)
                if not (rec_m < nr_m < 0):
                    violations += 1

    witnesses = set()
    for x in np.linspace(0.1, 3, 12):
        for y in np.linspace(-1.5, -0.1, 12):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                s = TwoRouteScenario(a=2, b=2, x=float(x), y=float(y), p=p)
                rec = abs(margin(closed_form_ratios(s).recursive.marginal))
                nr = abs(margin(closed_form_ratios(s).nonrecursive.marginal))
                if rec > nr + 1e-12:
                    witnesses.add("recursive_more_extreme")
                elif nr > rec + 1e-12:
                    witnesses.add("nonrecursive_more_extreme")

    check(
        "dominant-case margin ordering and nondominated witnesses",
        violations == 0 and witnesses == {"recursive_more_extreme", "nonrecursive_more_extreme"},
        f"{2 * cases} dominant cases, 0 violations required, witnesses {sorted(witnesses)}",
    )


def test_deterministic_network_equivalence():
    rng = np.random.default_rng(2024)
    utility = LinkUtilitySpec()
    worst = 0.0
    for _ in range(20):
        net, spp = random_network(rng, max_links=8, support_count=1)
        s0 = initial_state(net, spp)
        vf = solve_value_functions(net, spp, utility, initial=s0)
        rec = path_probabilities(vf)
        nr = path_probabilities(solve_value_functions_nr(net, spp, utility, initial=s0))
        assert set(rec) == set(nr)
        worst = max(worst, max(abs(rec[k] - nr[k]) for k in rec))
    check(
        "single-scenario networks: per-path equality over 20 draws (1e-10)",
        worst <= 1e-10,
        f"max diff {worst:.2e}",
    )


def test_deterministic_choice_limit(model):
    net, spp, s0, utility, _, cs = model
    utilities = policy_utilities(cs, utility)
    best = utilities.max()
    optimal_rows = [set(row) for row, value in zip(cs.rows, utilities) if value >= best - 1e-12]

    def in_optimal_set(seq):
        taken = set(step_table(cs.graph, [seq]).actions.tolist())
        return any(taken <= row for row in optimal_rows)

    tiny = utility.with_mu(1e-4)
    vf_tiny = solve_value_functions(net, spp, tiny)
    rec_mass = sum(
        p
        for seq, p in sequence_probabilities(vf_tiny).items()
        if in_optimal_set(seq)
    )
    nr_mass = sum(
        p
        for seq, p in sequence_probabilities(solve_value_functions_nr(net, spp, tiny)).items()
        if in_optimal_set(seq)
    )

    divergences = []
    for mu in (1.0, 0.1, 0.01, 1e-4):
        scaled = utility.with_mu(mu)
        vf_mu = solve_value_functions(net, spp, scaled)
        rec = sequence_probabilities(vf_mu)
        nr = sequence_probabilities(solve_value_functions_nr(net, spp, scaled))
        divergences.append(max(abs(rec[q] - nr[q]) for q in rec))
    monotone = all(
        divergences[i + 1] <= divergences[i] + 1e-15 for i in range(len(divergences) - 1)
    )
    check(
        "vanishing-scale limit: optimal-policy mass and shrinking divergence",
        rec_mass >= 0.999 and nr_mass >= 0.999 and monotone and divergences[-1] < 1e-9,
        f"masses {rec_mass:.6f}/{nr_mass:.6f}, divergences "
        + "/".join(f"{d:.2e}" for d in divergences),
    )


def test_small_network_oracles():
    rng = np.random.default_rng(3)
    utility = LinkUtilitySpec()
    worst_total = 0.0
    worst_marginalization = 0.0
    worst_z = 0.0
    networks = 0
    for i in range(10):
        net, spp = random_network(rng, max_links=6, max_support=3, max_horizon=3)
        networks += 1
        s0 = initial_state(net, spp)
        vf = solve_value_functions(net, spp, utility, initial=s0)
        cs = enumerate_policies(net, spp, s0)
        rec = sequence_probabilities(vf)
        nr = sequence_probabilities(solve_value_functions_nr(net, spp, utility, initial=s0))

        worst_total = max(
            worst_total, abs(sum(rec.values()) - 1.0), abs(sum(nr.values()) - 1.0)
        )

        probs = policy_choice_probs(cs, utility)
        start_mass = spp.mass(s0.ev.members)
        for seq, modeled in nr.items():
            brute = sum(
                prob * spp.probabilities[r - 1] / start_mass
                for prob, policy in zip(probs, policy_maps(cs))
                for r in s0.ev
                if rollout_policy(net, spp, s0, policy, r) == seq
            )
            worst_marginalization = max(worst_marginalization, abs(brute - modeled))

        n = 10**6
        counts = sample_sequence_counts(vf, n, seed=2 + 100 * i)
        for seq, p in rec.items():
            sigma = math.sqrt(p * (1 - p) / n)
            freq = counts.get(seq, 0) / n
            if sigma == 0.0:
                assert freq == p
                continue
            worst_z = max(worst_z, abs(freq - p) / sigma)

    check(
        "random-network oracles: totals, marginalization, rollout frequencies",
        networks >= 10
        and worst_total <= 1e-10
        and worst_marginalization <= 1e-12
        and worst_z <= 3.0,
        f"total dev {worst_total:.2e}, marginalization dev {worst_marginalization:.2e}, "
        f"max |z| {worst_z:.2f} at 1e6 samples",
    )


def test_estimation_recovery(model):
    net, spp, s0, utility, vf, cs = model
    start = time.perf_counter()

    rec_counts = sample_sequence_counts(vf, 10**6, seed=1)
    rec_fit = fit(
        "recursive", net, spp, ObservationSet.from_counts(rec_counts), beta0=[-0.5]
    )

    # the paper's data process: a policy drawn at the origin, rolled out in a drawn scenario
    nr_counts = policy_scenario_counts(cs, utility, 10**6, seed=1)
    nr_fit = fit(
        "nonrecursive", net, spp, ObservationSet.from_counts(nr_counts), beta0=[-0.5]
    )
    elapsed = time.perf_counter() - start

    ok = (
        abs(rec_fit.beta_hat[0] + 1.0) <= 0.05
        and abs(nr_fit.beta_hat[0] + 1.0) <= 0.05
        and rec_fit.converged
        and nr_fit.converged
        and rec_fit.gradient_norm < 1e-6
        and nr_fit.gradient_norm < 1e-6
        and elapsed < 60.0
    )
    check(
        "coefficient recovery from 1e6 simulated trips (both models, +-0.05)",
        ok,
        f"recursive {rec_fit.beta_hat[0]:.4f}, nonrecursive {nr_fit.beta_hat[0]:.4f}, "
        f"gradients {rec_fit.gradient_norm:.1e}/{nr_fit.gradient_norm:.1e}, {elapsed:.1f}s",
    )
