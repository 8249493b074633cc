"""The benchmark harness runs against the package and its checks pass.

A traced run also checks the sizes read from the public ``decision_graph``
against the benchmark's own count of the state space, so a view that
drifts from what the benchmark reads fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize(
    "workload, trace",
    [("nr-fit", "1"), ("rec-fit", "0"), ("small-nets", "0"), ("rec-predict", "0")],
)
def test_one_short_run_passes_its_checks(workload, trace):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace]
    run = subprocess.run(
        [sys.executable, str(RUN), *args], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
