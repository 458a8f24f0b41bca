"""Format of the benchmark's result line.

The benchmark runs from a copy of ``bench/`` and ``src/`` in a temporary
directory, so the documents it writes stay out of the source tree.  The
cheapest workload covers both sections of ``BENCHMARK.json``; one traced
search round checks that the search layer's metrics are still measured.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload, trace", [
    pytest.param("evaluate-one-off", 0, id="0-end_to_end"),
    pytest.param("evaluate-one-off", 1, id="1-per_layer"),
    pytest.param("search-qubit", 1, id="search-qubit-1-per_layer"),
])
def test_result_line(workload, trace, tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[SECTIONS[trace]]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if workload.startswith("search"):
        assert result["metrics"]["search.objective_calls"]["value"] > 0
        assert result["metrics"]["search.ascent_calls"]["value"] > 0
