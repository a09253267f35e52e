"""Tests of the benchmark itself, on tiny configs of every workload.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Counts that depend only on the configs, never on the seed or the clock.
EXACT = (
    "ensemble.particle_steps",
    "linmodel.streams",
    "linmodel.normals",
    "riccati.integrate_dre_steps",
    "riccati.solve_are_calls",
)


def _spec(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _measure(workload, seed, trace):
    return bench.measure(workload, seed, seconds=0, trace=trace, tiny=True, log=lambda line: None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_exact_counts(workload):
    first = _measure(workload, 1, trace=True)
    second = _measure(workload, 2, trace=True)
    got = {name: unit for name, (_, unit) in first["metrics"].items()}
    assert got == _spec("per_layer")
    assert first["attempted"] > 0
    for name in EXACT:
        assert first["metrics"][name][0] == second["metrics"][name][0], name
    assert first["metrics"]["linmodel.normals"][0] > 0
    assert first["metrics"]["riccati.solve_are_calls"][0] > 0


def test_untraced_run_emits_every_end_to_end_metric():
    report = _measure("meanfield", 1, trace=False)
    got = {name: unit for name, (_, unit) in report["metrics"].items()}
    assert got == _spec("end_to_end")
    assert all(value > 0 for value, _ in report["metrics"].values())
