import argparse
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from netgen import network_text, random_network
from stdroute import bundled_network_text, enumerate_policies, enumerate_sequences, initial_state
from stdroute import StdRouteError
from stdroute.cli import _parse_grid, build_parser, main


@pytest.fixture()
def network_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(bundled_network_text())
    return str(path)


@pytest.fixture()
def observation_file(tmp_path):
    from stdroute import LinkUtilitySpec, ObservationSet, load_bundled_network
    from stdroute import sample_sequence_counts, solve_value_functions

    net, spp = load_bundled_network()
    vf = solve_value_functions(net, spp, LinkUtilitySpec())
    path = tmp_path / "obs.json"
    path.write_text(ObservationSet.from_counts(sample_sequence_counts(vf, 50, seed=3)).to_json())
    return str(path)


MODELS = ("recursive", "nonrecursive")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "enumerate-policies" in capsys.readouterr().out

    def test_unknown_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestValidate:
    def test_ok(self, network_file, capsys):
        assert main(["validate", network_file]) == 0
        out = capsys.readouterr().out
        assert "support points: 2" in out
        assert "ok" in out

    def test_invariant_violation_names_the_problem(self, tmp_path, capsys):
        doc = json.loads(bundled_network_text())
        doc["support_points"][0]["probability"] = 0.6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "sum" in capsys.readouterr().err

    def test_reports_the_trip_horizon_bound(self, network_file, capsys):
        assert main(["validate", network_file]) == 0
        assert "trip horizon bound: 7\n" in capsys.readouterr().out

    def test_a_long_first_period_time_is_not_past_the_horizon(self, tmp_path, capsys):
        # a -> b -> c -> d: link 1 takes 100 periods at departure, then 1
        times = {"1": [100, 1], "2": [1, 1], "3": [1, 1]}
        doc = {
            "nodes": ["a", "b", "c", "d"],
            "links": [
                {"id": 0, "from": "a", "to": "a"},
                {"id": 1, "from": "a", "to": "b"},
                {"id": 2, "from": "b", "to": "c"},
                {"id": 3, "from": "c", "to": "d"},
            ],
            "origin_link": 0,
            "destination_link": 3,
            "horizon": 2,
            "support_points": [{"probability": 1.0, "travel_times": times}],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trip horizon bound: 102\n" in out and "reachable states: 4\n" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "nope.json"]) == 1
        assert "i/o error" in capsys.readouterr().err


class TestEnumeratePolicies:
    def test_four_policies(self, network_file, tmp_path):
        prefix = str(tmp_path / "out")
        assert main(["enumerate-policies", network_file, "--output", prefix]) == 0
        rows = read_csv(f"{prefix}_policies.csv")
        assert {row["policy"] for row in rows} == {"0", "1", "2", "3"}
        junctions = [r for r in rows if r["policy"] == "1" and r["link"] == "1"]
        assert {(r["ev"], r["next_link"]) for r in junctions} == {("1", "2"), ("2", "3")}


class TestPredict:
    def test_reproduces_the_reference_table(self, network_file, tmp_path):
        prefix = str(tmp_path / "pred")
        assert main(["predict", network_file, "--model", "both", "--output", prefix]) == 0
        rows = read_csv(f"{prefix}_sequences.csv")
        expected = {
            ("1", "2"): (0.1345, 0.1888),
            ("2", "2"): (0.25, 0.25),
            ("1", "3"): (0.3655, 0.3112),
            ("2", "3"): (0.25, 0.25),
        }
        assert len(rows) == 4
        for row in rows:
            branch = row["states"].split("{")[2][0]
            key = (branch, row["path"][-1])
            rec, nr = expected[key]
            assert float(row["recursive"]) == pytest.approx(rec, abs=5e-5)
            assert float(row["nonrecursive"]) == pytest.approx(nr, abs=5e-5)
        paths = {r["path"]: r for r in read_csv(f"{prefix}_paths.csv")}
        assert float(paths["1-2"]["nonrecursive"]) == pytest.approx(0.4388, abs=5e-5)
        assert float(paths["1-3"]["nonrecursive"]) == pytest.approx(0.5612, abs=5e-5)

    def test_byte_identical_reruns(self, network_file, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        main(["predict", network_file, "--output", str(first)])
        main(["predict", network_file, "--output", str(second)])
        for name in ("choices", "policy_probs", "sequences", "paths"):
            a = Path(f"{first}_{name}.csv").read_bytes()
            b = Path(f"{second}_{name}.csv").read_bytes()
            assert a == b

    def test_stdout_mode(self, network_file, capsys):
        assert main(["predict", network_file, "--model", "recursive"]) == 0
        out = capsys.readouterr().out
        assert "# choices" in out and "# sequences" in out


class TestSimulate:
    def test_deterministic_given_seed(self, network_file, tmp_path):
        one = str(tmp_path / "one")
        two = str(tmp_path / "two")
        args = ["simulate", network_file, "--samples", "5000", "--seed", "11"]
        assert main(args + ["--output", one]) == 0
        assert main(args + ["--output", two]) == 0
        assert (
            Path(f"{one}_frequencies.csv").read_bytes()
            == Path(f"{two}_frequencies.csv").read_bytes()
        )
        rows = read_csv(f"{one}_frequencies.csv")
        assert sum(int(r["count"]) for r in rows) == 5000
        for row in rows:
            assert abs(float(row["frequency"]) - float(row["probability"])) < 0.03

    def test_nonrecursive_model(self, network_file, tmp_path):
        prefix = str(tmp_path / "nr")
        assert (
            main(
                [
                    "simulate",
                    network_file,
                    "--model",
                    "nonrecursive",
                    "--samples",
                    "2000",
                    "--output",
                    prefix,
                ]
            )
            == 0
        )
        rows = read_csv(f"{prefix}_frequencies.csv")
        assert sum(int(r["count"]) for r in rows) == 2000


class TestBeyondThePolicyCap:
    """The non-recursive commands on a network with more routing policies than the cap."""

    @pytest.fixture()
    def capped(self, tmp_path):
        rng = np.random.default_rng(5)
        while True:
            net, spp = random_network(rng)
            s0 = initial_state(net, spp)
            sequences = len(enumerate_sequences(net, spp, s0))
            if len(enumerate_policies(net, spp, s0)) > sequences:
                break
        path = tmp_path / "net.json"
        path.write_text(network_text(net, spp))
        return str(path), f"--cap-policies={sequences}"

    def test_simulate(self, capped, capsys):
        path, cap = capped
        assert main(["simulate", path, "--model", "nonrecursive", "--samples", "500", cap]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert sum(int(r["count"]) for r in rows) == 500
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", ["nonrecursive", "both"])
    def test_predict_skips_the_policy_table(self, capped, capsys, model):
        path, cap = capped
        assert main(["predict", path, "--model", model, cap]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("skipped table policy_probs: ")
        assert captured.err.count("\n") == 1
        assert "# policy_probs" not in captured.out
        assert "# sequences" in captured.out and "# paths" in captured.out


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command", ["predict", "simulate", "compare"])
    @pytest.mark.parametrize("option", [["--beta", "nan"], ["--beta", "inf"], ["--mu", "inf"]])
    def test_rejected_before_the_command_runs(self, network_file, capsys, command, option):
        assert main([command, network_file, *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--beta and --mu must be finite" in captured.err

    @pytest.mark.parametrize("option", [["--beta", "nan"], ["--mu", "inf"]])
    def test_estimate_rejects_before_reading_the_observations(self, network_file, capsys, option):
        assert main(["estimate", network_file, "no-such-file.json", *option]) == 1
        assert "--beta and --mu must be finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "command, model",
        [
            *((c, m) for c in ("predict", "simulate", "estimate") for m in MODELS),
            ("compare", None),
        ],
    )
    def test_a_scale_whose_values_are_not_finite(
        self, network_file, observation_file, capsys, command, model
    ):
        args = [command, network_file, *([observation_file] if command == "estimate" else [])]
        args += ["--model", model] if model else []
        assert main([*args, "--mu", "1e-310"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the values are not finite at logit scale mu=1e-310\n" in captured.err

    @pytest.mark.parametrize("command", ["predict", "simulate", "compare"])
    @pytest.mark.parametrize("beta", ["1e308", "-1e308"])
    def test_finite_coefficients_whose_utilities_overflow(self, network_file, capsys, command, beta):
        assert main([command, network_file, f"--beta={beta}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the link utilities are not finite at beta=[{float(beta)!r}]\n"

    def test_a_non_finite_entry_of_several(self, network_file, capsys):
        # the command line's only attribute is travel time, so --beta is one number
        with pytest.raises(SystemExit) as exc:
            main(["predict", network_file, "--beta=-1,nan"])
        assert exc.value.code == 2
        assert "--beta: invalid float value" in capsys.readouterr().err


class TestEstimate:
    def test_fit_from_observation_file(self, network_file, tmp_path, capsys):
        from stdroute import (
            LinkUtilitySpec,
            ObservationSet,
            load_bundled_network,
            sample_sequence_counts,
            solve_value_functions,
        )

        net, spp = load_bundled_network()
        vf = solve_value_functions(net, spp, LinkUtilitySpec())
        obs = ObservationSet.from_counts(sample_sequence_counts(vf, 500, seed=13))
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(obs.to_json())
        prefix = str(tmp_path / "est")
        code = main(
            ["estimate", network_file, str(obs_path), "--model", "recursive", "--output", prefix]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "beta_hat" in out
        document = json.loads(Path(f"{prefix}_estimate.json").read_text())
        assert document["converged"] is True
        assert abs(document["beta_hat"][0] + 1.0) < 0.4

    def test_nonrecursive_model(self, network_file, tmp_path, capsys):
        from stdroute import (
            LinkUtilitySpec,
            ObservationSet,
            enumerate_policies,
            initial_state,
            load_bundled_network,
            sample_sequence_counts_nr,
        )

        net, spp = load_bundled_network()
        cs = enumerate_policies(net, spp, initial_state(net, spp))
        counts = sample_sequence_counts_nr(cs, LinkUtilitySpec(), 500, seed=13)
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(ObservationSet.from_counts(counts).to_json())
        assert main(["estimate", network_file, str(obs_path), "--model", "nonrecursive"]) == 0
        assert "converged:      True" in capsys.readouterr().out


class TestCompare:
    def test_equivalence_report(self, network_file, capsys):
        assert main(["compare", network_file]) == 0
        out = capsys.readouterr().out
        assert "divergence monotone: True" in out

    def test_sweep_csv(self, tmp_path):
        prefix = str(tmp_path / "sweep")
        code = main(
            [
                "sweep",
                "--x-grid=-1:2:1",
                "--y-grid=-1:2:1",
                "--p-grid=0.25:0.75:0.25",
                "--output",
                prefix,
            ]
        )
        assert code == 0
        rows = read_csv(f"{prefix}_sweep.csv")
        assert len(rows) == 4 * 4 * 3
        verdicts = {row["extremeness"] for row in rows}
        assert "recursive_more_extreme" in verdicts
        dominances = {row["dominance"] for row in rows}
        assert {"equal", "route2_dominant", "route3_dominant", "nondominated"} <= dominances
        center = next(r for r in rows if r["x"] == "1" and r["y"] == "1" and r["p"] == "0.5")
        assert float(center["rec_ratio_state1"]) == pytest.approx(math.e, rel=1e-9)

    def test_sweep_with_pipeline_check(self, tmp_path):
        prefix = str(tmp_path / "sweep")
        code = main(
            [
                "sweep",
                "--x-grid",
                "0.5:1.5:0.5",
                "--y-grid",
                "0.5:0.5:1",
                "--p-grid",
                "0.5:0.5:1",
                "--pipeline",
                "--output",
                prefix,
            ]
        )
        assert code == 0
        rows = read_csv(f"{prefix}_sweep.csv")
        assert all(float(row["max_pipeline_diff"]) < 1e-10 for row in rows)

    @pytest.mark.parametrize("text", ["0:inf:1", "nan:1:0.5", "-inf:1:1", "0:1:inf", "0:1:nan"])
    def test_non_finite_grid_rejected(self, text):
        with pytest.raises(StdRouteError, match="--x-grid bounds and step must be finite"):
            _parse_grid(text, "x-grid")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:1", "--x-grid expects lo:hi:step"),
            ("0:1:0.5:2", "--x-grid expects lo:hi:step"),
            ("0:1:a", "--x-grid expects lo:hi:step"),
            ("0:1:0", "--x-grid step must be positive"),
            ("0:1:-1", "--x-grid step must be positive"),
            ("2:1:1", "--x-grid is empty: lo 2 exceeds hi 1"),
        ],
    )
    def test_malformed_grid_rejected(self, text, message):
        with pytest.raises(StdRouteError, match=re.escape(message)):
            _parse_grid(text, "x-grid")

    def test_an_empty_grid_writes_nothing(self, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        assert main(["sweep", "--p-grid=0.9:0.1:0.1", "--output", str(prefix)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --p-grid is empty: lo 0.9 exceeds hi 0.1\n"
        assert not Path(f"{prefix}_sweep.csv").exists()

    def test_missing_network_without_sweep(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare"])
        assert exc.value.code == 2
        assert "network" in capsys.readouterr().err


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def subparsers():
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(command):
    """The destinations of a command's optional arguments, ``--help`` aside."""
    return [
        action.dest
        for action in subparsers()[command]._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


class TestEveryOptionIsRead:
    """Each command takes exactly the options it reads."""

    @pytest.fixture()
    def arguments(self, network_file, observation_file):
        return {
            "validate": [network_file],
            "enumerate-policies": [network_file],
            "predict": [network_file],
            "simulate": [network_file, "--samples", "100"],
            "estimate": [network_file, observation_file],
            "compare": [network_file],
            "sweep": ["--x-grid=1:1:1", "--y-grid=1:1:1", "--p-grid=0.5:0.5:1"],
        }

    def test_the_commands(self, arguments):
        assert set(arguments) == set(subparsers())

    @pytest.mark.parametrize("command", sorted(subparsers()))
    def test_every_option_is_read(self, command, arguments, monkeypatch, capsys):
        parse_args = argparse.ArgumentParser.parse_args
        parsed = []

        def recording_parse_args(parser, args=None, namespace=None):
            parsed.append(RecordingNamespace(**vars(parse_args(parser, args, namespace))))
            return parsed[-1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
        assert main([command, *arguments[command]]) == 0
        assert [dest for dest in options(command) if dest not in parsed[0]._read] == []

    def test_option_count(self):
        assert {command: len(options(command)) for command in subparsers()} == {
            "validate": 0,
            "enumerate-policies": 2,
            "predict": 5,
            "simulate": 7,
            "estimate": 4,
            "compare": 2,
            "sweep": 7,
        }

    @pytest.mark.parametrize(
        "command, option",
        [
            *(("validate", o) for o in ("--seed", "--mu", "--beta", "--cap-policies", "--output")),
            *(("enumerate-policies", o) for o in ("--seed", "--mu", "--beta")),
            ("predict", "--seed"),
            ("estimate", "--seed"),
            ("estimate", "--cap-policies"),
            *(("compare", o) for o in ("--seed", "--cap-policies", "--output", "--a", "--x-grid")),
            ("compare", "--sweep"),
            ("compare", "--pipeline"),
            *(("sweep", o) for o in ("--seed", "--mu", "--beta", "--cap-policies")),
        ],
    )
    def test_an_option_the_command_does_not_read_is_a_usage_error(
        self, command, option, arguments, capsys
    ):
        value = [] if option in ("--sweep", "--pipeline") else ["1"]
        with pytest.raises(SystemExit) as exc:
            main([command, *arguments[command], option, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
