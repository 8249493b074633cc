import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netgen import bench_module, chain_network, network_text, random_network
import oracle
import stdroute
from stdroute import LinkUtilitySpec, load_network
from stdroute import bundled_network_text, enumerate_policies, enumerate_sequences, initial_state
from stdroute import StdRouteError
from stdroute.cli import CSV_BLOCK_ROWS, _parse_grid, _write_csv, build_parser, main


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


class TestUnreadableInput:
    """A file the parser cannot read ends in one error line, not a traceback."""

    def error(self, capsys, args):
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
        return err

    def test_a_network_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff\xfe")
        message = f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"
        assert self.error(capsys, ["validate", str(path)]) == message

    def test_an_observation_file_that_is_not_utf8(self, network_file, tmp_path, capsys):
        path = tmp_path / "obs.json"
        path.write_bytes(b'[{"states": "\xe9"}]')
        message = f"error: {path} is not UTF-8 text: invalid continuation byte at byte 13\n"
        assert self.error(capsys, ["estimate", network_file, str(path)]) == message

    @pytest.mark.parametrize(
        "text", ["[" * 200_000, '{"nodes": ' + "1" * 5000 + "}"], ids=["nested", "long-integer"]
    )
    def test_a_document_the_parser_gives_up_on(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        self.error(capsys, ["validate", str(path)])


class TestDeepNetwork:
    def test_every_command_runs_on_a_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(network_text(*chain_network(2000)))
        for command in ("validate", "enumerate-policies", "predict", "simulate", "compare"):
            assert main([command, str(path)]) == 0, command
        assert "Traceback" not in capsys.readouterr().err


class TestEnumeratePolicies:
    def test_four_policies(self, network_file, tmp_path):
        prefix = str(tmp_path / "out")
        assert main(["enumerate-policies", network_file, "--output", prefix]) == 0
        rows = read_csv(f"{prefix}_policies.csv")
        assert {row["policy"] for row in rows} == {"0", "1", "2", "3"}
        junctions = [r for r in rows if r["policy"] == "1" and r["link"] == "1"]
        assert {(r["ev"], r["next_link"]) for r in junctions} == {("1", "2"), ("2", "3")}


class CountingSink(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1])
    def test_rows_are_written_in_blocks(self, n):
        header, rows = ["k", "text", "value"], [(k, f"a,{k}", 0.5 * k) for k in range(n)]
        sink, expected = CountingSink(), io.StringIO()
        _write_csv(sink, header, (row for row in rows))
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert sink.getvalue() == expected.getvalue()
        assert sink.writes <= -(-n // CSV_BLOCK_ROWS) + 1


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


def object_path_network(kind: str, k: int) -> str:
    """The bundled network, a ``netgen`` network, or a 3x3 benchmark grid: a grid's height
    order of states is not their time order."""
    if kind == "bundled":
        return bundled_network_text()
    if kind == "netgen":
        return network_text(*random_network(np.random.default_rng([72, k])))
    return bench_module("gen").grid_network([k], 3, 3, 3)


class TestAgainstTheObjectPath:
    """The tables written from the graph's indices are those rendered from policies and State dicts."""

    @pytest.mark.parametrize(
        "kind, k", [("bundled", 0), *(("netgen", k) for k in range(1, 21)), *(("grid", k) for k in range(3))]
    )
    def test_byte_identical(self, kind, k, tmp_path, capsys):
        text = object_path_network(kind, k)
        net, spp = load_network(text)
        path = tmp_path / "net.json"
        path.write_text(text)
        expected = {("enumerate-policies",): {"policies": oracle.policy_csv(net, spp)}}
        for model in ("recursive", "nonrecursive", "both"):
            expected["predict", "--model", model] = oracle.predict_csvs(net, spp, LinkUtilitySpec(), model)
        for (command, *options), tables in expected.items():
            prefix = str(tmp_path / "out")
            assert main([command, str(path), *options, "--output", prefix]) == 0
            for name, csv_text in tables.items():
                assert Path(f"{prefix}_{name}.csv").read_text() == csv_text
            capsys.readouterr()
            assert main([command, str(path), *options]) == 0
            assert capsys.readouterr().out == "".join(f"# {n}\n{t}" for n, t in tables.items())


GOLDEN_FREQUENCIES = {
    "recursive": """\
states,path,count,frequency,probability
"(0,0,{1;2})>(1,1,{1})>(2,4,{1})",1-2,139,0.139,0.1344707107
"(0,0,{1;2})>(1,1,{1})>(3,3,{1})",1-3,357,0.357,0.3655292893
"(0,0,{1;2})>(1,1,{2})>(2,3,{2})",1-2,245,0.245,0.25
"(0,0,{1;2})>(1,1,{2})>(3,3,{2})",1-3,259,0.259,0.25
""",
    "nonrecursive": """\
states,path,count,frequency,probability
"(0,0,{1;2})>(1,1,{1})>(2,4,{1})",1-2,191,0.191,0.1887703344
"(0,0,{1;2})>(1,1,{1})>(3,3,{1})",1-3,305,0.305,0.3112296656
"(0,0,{1;2})>(1,1,{2})>(2,3,{2})",1-2,245,0.245,0.25
"(0,0,{1;2})>(1,1,{2})>(3,3,{2})",1-3,259,0.259,0.25
""",
}


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

    @pytest.mark.parametrize("model", MODELS)
    def test_frequencies_for_a_fixed_seed(self, network_file, tmp_path, model):
        prefix = str(tmp_path / model)
        args = ["simulate", network_file, "--model", model, "--samples", "1000", "--seed", "3"]
        assert main([*args, "--output", prefix]) == 0
        assert Path(f"{prefix}_frequencies.csv").read_text() == GOLDEN_FREQUENCIES[model]

    def test_a_negative_seed_is_an_error(self, network_file, capsys):
        assert main(["simulate", network_file, "--seed", "-1", "--samples", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid random seed -1: ")
        assert len(captured.err.splitlines()) == 1


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
        assert captured.err == "error: the values are not finite at logit scale mu=1e-310\n"

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

    @pytest.mark.parametrize(
        "states, message",
        [
            ([{"link": 0, "time": 0, "ev_members": []}] * 2, "event collection must be non-empty"),
            ([{"link": 0, "time": 0, "ev_members": [0]}] * 2, "scenario indices are 1-based"),
            ([{"link": 0, "time": 0}, {"link": 77, "time": 1}], "link 77 has no travel-time distribution"),
        ],
    )
    def test_a_bad_state_names_its_record(self, network_file, tmp_path, capsys, states, message):
        obs_path = tmp_path / "obs.json"
        obs_path.write_text(json.dumps([{"states": states}]))
        assert main(["estimate", network_file, str(obs_path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: record 0: {message}\n")


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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--x-grid=800:801:1"], "the closed-form ratio exp(x) overflows at x=800.0"),
            (["--a", "inf", "--pipeline"], "a must be a finite number, got inf"),
            (["--b", "nan"], "b must be a finite number, got nan"),
            (
                ["--a", "1e300", "--pipeline"],
                "x=-1.8 vanishes in floating point: a + x equals a=1e+300",
            ),
            (
                ["--b", "1e18", "--y-grid=1:1:1", "--pipeline"],
                "y=1.0 vanishes in floating point: b + y equals b=1e+18",
            ),
        ],
    )
    def test_sweep_values_that_overflow_are_errors(self, args, message, capsys):
        assert main(["sweep", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_sweep_help_names_the_grid_forms(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for option in ("--x-grid=-1.8:5:0.68", "--y-grid=-1.8:5:0.68", "--p-grid=0.05:0.95:0.225"):
            default = option.split("=")[1]
            assert f"start:stop:step, default {default}; write it with =, as in {option}," in text
        # the = form takes a negative start
        assert main(["sweep", "--x-grid=-1:1:1", "--y-grid=1:1:1", "--p-grid=0.5:0.5:1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 3

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

    def test_a_grid_step_that_cannot_advance_is_an_error(self):
        # 1e17 + 1 == 1e17: a grid that never advances must fail, not run for ever
        src = str(Path(stdroute.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        grids = ["--x-grid=1e17:1e17:1", "--y-grid=1:1:1", "--p-grid=0.5:0.5:1"]
        run = subprocess.run(
            [sys.executable, "-m", "stdroute", "sweep", *grids],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: --x-grid step 1 does not advance from 1e+17\n"

    @pytest.mark.parametrize("pipeline", [[], ["--pipeline"]], ids=["closed-form", "pipeline"])
    def test_a_grid_below_any_absolute_tolerance_keeps_its_value(self, capsys, pipeline):
        grids = ["--x-grid=1e-13:1e-13:1e-13", "--y-grid=1:1:1", "--p-grid=0.5:0.5:0.5"]
        assert main(["sweep", *grids, *pipeline]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 1 and rows[0].startswith("1e-13,1,0.5,route2_dominant,")

    def test_grid_points_are_the_decimals_written(self):
        assert _parse_grid("-1.8:5:0.68", "x-grid") == [
            -1.8, -1.12, -0.44, 0.24, 0.92, 1.6, 2.28, 2.96, 3.64, 4.32, 5.0
        ]
        assert _parse_grid("0.05:0.95:0.225", "p-grid") == [0.05, 0.275, 0.5, 0.725, 0.95]
        # -0.3 + 0.1 + 0.1 + 0.1 is 5.55e-17 in floating point; the grid's point is an exact 0.0
        values = _parse_grid("-0.3:0.3:0.1", "x-grid")
        assert values == [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]
        assert math.copysign(1.0, values[3]) == 1.0

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
