"""Quick tests of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_quick.py -q

Each test runs ``perfbench/run.py`` as its own process, as the full
benchmark does, with the fewest rounds (two) of tiny inputs, and requires
its checks to pass.  About 45 seconds on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
# The two fixed fault cases of ``underdetermined`` fail in every round of
# its six tiny cases.
EXPECTED_FAILED_SHARE = {"underdetermined": Fraction(2, 6)}


def run(workload, trace=0, seed=5, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_workload_tiny(workload):
    proc = run(workload)
    result = result_of(proc)
    assert result["correct"], proc.stderr
    share = Fraction(result["failed"], result["attempted"])
    assert share == EXPECTED_FAILED_SHARE.get(workload, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", ["convergence-3d-concentrated", "underdetermined"])
def test_traced_counts_repeat(workload):
    first, second = result_of(run(workload, trace=1)), result_of(run(workload, trace=1))
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        if m["unit"] in ("count", "1"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]]


def test_refuses_without_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(NAMES[0], cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
