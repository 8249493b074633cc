"""Command-line interface: validate, enumerate-policies, predict, simulate, estimate, compare, sweep.

Each command takes only the options it reads; ``sweep`` needs no network file.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import asdict

from .comparison import (
    RouteRatios,
    TwoRouteScenario,
    closed_form_ratios,
    dominance_class,
    equivalence_report,
    extremeness_check,
    pipeline_ratios,
)
from .errors import PolicyExplosionError, StdRouteError
from .estimation import ObservationSet, fit
from .network import compile_graph, initial_state, load_network_file
from .nonrecursive import (
    policy_choice_probs,
    policy_utilities,
    solve_value_functions_nr,
)
from .policy import enumerate_policies, sequence_table
from .recursive import (
    choice_distribution,
    sample_sequence_counts,
    sequence_likelihoods,
    sequence_probabilities,
    solve_value_functions,
)
from .utility import LinkUtilitySpec


def _fmt(value: float) -> str:
    return format(value, ".10g")


def _ev_text(ev) -> str:
    return ";".join(str(m) for m in ev.members)


def _path_text(path) -> str:
    return "-".join(str(a) for a in path)


def _write_csv(out, header, rows) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit(args, tables: dict[str, tuple[list[str], list[list[str]]]]) -> None:
    """Write one CSV per table, either to prefixed files or to stdout sections."""
    if args.output:
        for name, (header, rows) in tables.items():
            path = f"{args.output}_{name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(fh, header, rows)
            print(f"wrote {path}")
    else:
        for name, (header, rows) in tables.items():
            print(f"# {name}")
            buffer = io.StringIO()
            _write_csv(buffer, header, rows)
            sys.stdout.write(buffer.getvalue())


def _utility_from_args(args) -> LinkUtilitySpec:
    if not all(map(math.isfinite, (args.beta, args.mu))):
        raise StdRouteError("--beta and --mu must be finite")
    return LinkUtilitySpec(beta=(args.beta,), mu=args.mu)


def cmd_validate(args) -> int:
    net, spp = load_network_file(args.network)
    s0 = initial_state(net, spp)
    graph = compile_graph(net, spp, s0)
    print(f"nodes: {len(net.nodes)}")
    print(f"links: {len(net.links)}")
    print(f"stochastic periods: {net.horizon}")
    print(f"support points: {spp.size}")
    print(f"trip horizon bound: {net.trip_horizon(spp)}")
    print(f"reachable states: {len(graph.states)}")
    print("ok")
    return 0


def cmd_enumerate_policies(args) -> int:
    net, spp = load_network_file(args.network)
    s0 = initial_state(net, spp)
    cs = enumerate_policies(net, spp, s0, cap=args.cap_policies)
    rows = []
    for i, policy in enumerate(cs.policies):
        for state, next_link in policy.decisions:
            rows.append([str(i), str(state.link), str(state.time), _ev_text(state.ev), str(next_link)])
    _emit(args, {"policies": (["policy", "link", "time", "ev", "next_link"], rows)})
    return 0


def cmd_predict(args) -> int:
    net, spp = load_network_file(args.network)
    s0 = initial_state(net, spp)
    utility = _utility_from_args(args)
    models = ("recursive", "nonrecursive") if args.model == "both" else (args.model,)
    tables: dict[str, tuple[list[str], list[list[str]]]] = {}
    table = sequence_table(compile_graph(net, spp, s0), cap=args.cap_policies)
    columns = []

    if "recursive" in models:
        vf = solve_value_functions(net, spp, utility, initial=s0)
        rows = []
        for state in sorted(vf.values, key=lambda s: s.sort_key):
            if net.is_destination(state.link):
                continue
            for a, prob in choice_distribution(vf, state).items():
                rows.append([str(state.link), str(state.time), _ev_text(state.ev), str(a), _fmt(prob)])
        tables["choices"] = (["link", "time", "ev", "next_link", "probability"], rows)
        columns.append(sequence_likelihoods(vf, table.steps))

    if "nonrecursive" in models:
        vf = solve_value_functions_nr(net, spp, utility, initial=s0)
        columns.append(sequence_likelihoods(vf, table.steps))
        try:
            cs = enumerate_policies(net, spp, s0, cap=args.cap_policies)
        except PolicyExplosionError as exc:
            # the policy count is taken before any policy is listed
            print(f"skipped table policy_probs: {exc}", file=sys.stderr)
        else:
            utilities = policy_utilities(cs, utility)
            probs = policy_choice_probs(cs, utility)
            rows = [
                [str(i), _fmt(float(utilities[i])), _fmt(float(probs[i]))]
                for i in range(len(cs.policies))
            ]
            tables["policy_probs"] = (["policy", "expected_utility", "probability"], rows)

    seq_rows = [
        [str(i), seq.label(), _path_text(seq.path), *map(_fmt, probs)]
        for i, (seq, *probs) in enumerate(zip(table.sequences, *(c.tolist() for c in columns)))
    ]
    tables["sequences"] = (["sequence", "states", "path", *models], seq_rows)
    path_columns = [table.path_sums(c).tolist() for c in columns]
    path_rows = [
        [_path_text(path), *map(_fmt, totals)] for path, *totals in zip(table.paths, *path_columns)
    ]
    tables["paths"] = (["path", *models], path_rows)

    _emit(args, tables)
    return 0


def cmd_simulate(args) -> int:
    net, spp = load_network_file(args.network)
    s0 = initial_state(net, spp)
    solve = solve_value_functions if args.model == "recursive" else solve_value_functions_nr
    vf = solve(net, spp, _utility_from_args(args), initial=s0)
    counts = sample_sequence_counts(vf, args.samples, seed=args.seed)
    probs = sequence_probabilities(vf, cap=args.cap_policies)
    rows = []
    for seq in sorted(probs, key=lambda s: s.label()):
        count = counts.get(seq, 0)
        frequency = _fmt(count / args.samples)
        rows.append([seq.label(), _path_text(seq.path), str(count), frequency, _fmt(probs[seq])])
    _emit(args, {"frequencies": (["states", "path", "count", "frequency", "probability"], rows)})
    return 0


def cmd_estimate(args) -> int:
    utility = _utility_from_args(args)
    net, spp = load_network_file(args.network)
    with open(args.observations, "r", encoding="utf-8") as fh:
        obs = ObservationSet.from_json(fh.read(), net, spp)
    result = fit(args.model, net, spp, obs, beta0=utility.beta, mu=utility.mu)
    print(f"model:          {result.model}")
    print(f"observations:   {len(obs)}")
    print(f"beta_hat:       {[float(_fmt(b)) for b in result.beta_hat]}")
    print(f"log_likelihood: {_fmt(result.log_likelihood)}")
    print(f"iterations:     {result.iterations}")
    print(f"converged:      {result.converged}")
    print(f"gradient_norm:  {_fmt(result.gradient_norm)}")
    if result.std_errors is not None:
        print(f"std_errors:     {[float(_fmt(se)) for se in result.std_errors]}")
    if args.output:
        document = asdict(result)
        document["beta_hat"] = [float(b) for b in result.beta_hat]
        if result.std_errors is not None:
            document["std_errors"] = [float(se) for se in result.std_errors]
        path = f"{args.output}_estimate.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
        print(f"wrote {path}")
    return 0


def _parse_grid(text: str, name: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise StdRouteError(f"--{name} expects lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise StdRouteError(f"--{name} bounds and step must be finite")
    if step <= 0:
        raise StdRouteError(f"--{name} step must be positive")
    if lo > hi:
        raise StdRouteError(f"--{name} is empty: lo {_fmt(lo)} exceeds hi {_fmt(hi)}")
    values = []
    value = lo
    while value <= hi + 1e-9:
        values.append(round(value, 12))
        value += step
    return values


def cmd_sweep(args) -> int:
    rows = []
    grids = [_parse_grid(getattr(args, f"{n}_grid"), f"{n}-grid") for n in "xyp"]
    for x, y, p in itertools.product(*grids):
        scenario = TwoRouteScenario(a=args.a, b=args.b, x=x, y=y, p=p)
        ratios = closed_form_ratios(scenario)
        closed = (*ratios.recursive, *ratios.nonrecursive)
        row = [_fmt(x), _fmt(y), _fmt(p), dominance_class(scenario)]
        row += [extremeness_check(scenario), *map(_fmt, closed)]
        if args.pipeline:
            numeric = pipeline_ratios(scenario)
            piped = (*numeric.recursive, *numeric.nonrecursive)
            row.append(_fmt(max(abs(c - n) for c, n in zip(closed, piped))))
        rows.append(row)
    header = ["x", "y", "p", "dominance", "extremeness"]
    header += [f"{m}_ratio_{f}" for m in ("rec", "nr") for f in RouteRatios._fields]
    if args.pipeline:
        header.append("max_pipeline_diff")
    _emit(args, {"sweep": (header, rows)})
    return 0


def cmd_compare(args) -> int:
    net, spp = load_network_file(args.network)
    report = equivalence_report(net, spp, _utility_from_args(args))
    print(f"support points: {report.support_count}")
    print(f"deterministic network: {report.deterministic}")
    print(f"max path probability difference: {_fmt(report.path_probability_max_diff)}")
    for mu, divergence in zip(report.mus, report.sequence_divergences):
        print(f"mu={_fmt(mu)}: max sequence divergence {_fmt(divergence)}")
    print(f"divergence monotone: {report.divergence_monotone}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--mu", type=float, default=1.0, help="logit scale parameter")
    scale.add_argument("--beta", type=float, default=-1.0, help="travel-time coefficient")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cap-policies", type=int, default=10**6, help="enumeration explosion guard")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output file prefix (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="stdroute",
        description="Routing-policy choice models on stochastic time-dependent networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a network file")
    p.add_argument("network")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate-policies", parents=[cap, output], help="list all routing policies")
    p.add_argument("network")
    p.set_defaults(func=cmd_enumerate_policies)

    p = sub.add_parser(
        "predict",
        parents=[scale, cap, output],
        help="choice probabilities and sequence/path likelihoods",
    )
    p.add_argument("network")
    p.add_argument("--model", choices=("recursive", "nonrecursive", "both"), default="both")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", parents=[scale, cap, output], help="sample trajectories")
    p.add_argument("network")
    p.add_argument("--model", choices=("recursive", "nonrecursive"), default="recursive")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[scale, output], help="fit coefficients to observations")
    p.add_argument("network")
    p.add_argument("observations")
    p.add_argument("--model", choices=("recursive", "nonrecursive"), default="recursive")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", parents=[scale], help="model equivalence report")
    p.add_argument("network")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", parents=[output], help="two-route parameter sweep")
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--x-grid", default="-1.8:5:0.68")
    p.add_argument("--y-grid", default="-1.8:5:0.68")
    p.add_argument("--p-grid", default="0.05:0.95:0.225")
    p.add_argument(
        "--pipeline",
        action="store_true",
        help="cross-check closed forms against the full models",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StdRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
