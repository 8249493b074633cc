"""The README's library quick start runs and prints what its comments say; the public names resolve."""

import ast
from pathlib import Path

import pytest

import stdroute

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The code block of the README's "Library quick start" section."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_its_path_probabilities_hold():
    code = quick_start()
    namespace = {}
    exec(compile(code, "README quick start", "exec"), namespace)
    # a line whose comment is a dict literal prints that dict, to the digits shown
    checked = []
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        if comment.strip().startswith("{"):
            expected = ast.literal_eval(comment.strip())
            assert eval(expression, namespace) == pytest.approx(expected, abs=5e-5), line
            checked.append(expected)
    assert checked == [{(1, 2): 0.3845, (1, 3): 0.6155}, {(1, 2): 0.4388, (1, 3): 0.5612}]


def test_every_public_name_resolves():
    missing = [name for name in stdroute.__all__ if not hasattr(stdroute, name)]
    assert missing == []
    assert len(set(stdroute.__all__)) == len(stdroute.__all__)
