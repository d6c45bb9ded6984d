"""Self-tests of the benchmark, on small inputs.

Run from the root of a source checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from hostspeed import NOMINAL_S, scale_factors  # noqa: E402
from ledger import latency_summary  # noqa: E402

E2E_UNITS, LAYER_UNITS = run.declared_metrics()
OUT = HERE / "out" / "selftest"
MODELLED = ("msv.modelled_k40_s", "p7viterbi.modelled_k40_s",
            "forward.padding_frac")


def small_run(workload: str, trace: bool, seed: int = 5, **kwargs) -> dict:
    return run.run(workload, seed, 1.0, trace, scale="small", out_dir=OUT,
                   **kwargs)


def assert_metrics(result: dict, units: dict) -> None:
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", sorted(run.SPEC["workloads"]))
def test_small_runs_report_every_metric(workload):
    untraced = small_run(workload, trace=False)["result"]
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert_metrics(untraced, E2E_UNITS)
    for name in E2E_UNITS:
        assert untraced["metrics"][name]["value"] > 0, name

    first = small_run(workload, trace=True)["result"]
    assert first["correct"] and first["failed"] == 0
    assert_metrics(first, LAYER_UNITS)
    # the second clock is a pure function of the seeded inputs
    again = small_run(workload, trace=True)["result"]
    for name in MODELLED:
        assert first["metrics"][name] == again["metrics"][name], name
    assert first["metrics"]["msv.modelled_k40_s"]["value"] > 0


def test_workload_record_matches_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(
        run.SPEC["workloads"])
    mapped = {m for layer in run.SPEC["layers"].values()
              for m in layer["metrics"]}
    assert mapped == set(LAYER_UNITS)
    for layer in run.SPEC["layers"].values():
        for workload, metrics in layer["moves"].items():
            assert workload in run.SPEC["workloads"]
            assert set(metrics) <= set(E2E_UNITS)


def test_wrong_reference_counts_as_failure():
    dropped = []

    def drop_a_hit(outcome):
        if not outcome.hits:
            return outcome
        key = sorted(outcome.hits)[0]
        dropped.append(key)
        hits = {k: v for k, v in outcome.hits.items() if k != key}
        return dataclasses.replace(outcome, hits=hits)

    report = small_run("pfam_scan", trace=False,
                       corrupt_reference=drop_a_hit)
    assert dropped, "no operation had a hit to drop"
    assert report["result"]["failed"] == len(dropped)
    assert not report["result"]["correct"]
    assert report["failed_frac"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = latency_summary([float(i) for i in range(1, 41)])
    assert lat["tail"] == {"percentile": 75.0, "value": 30.0, "beyond": 10}
    assert lat["p50"] == 20.5
    few = latency_summary([3.0, 1.0, 2.0])
    assert few["tail"] == {"percentile": 100.0, "value": 3.0, "beyond": 0}


def test_scale_factors_use_the_median_of_neighbouring_probes():
    probes = [1.0] * 6 + [9.0] + [1.0] * 5 + [2.0] * 12
    factors = scale_factors(probes)
    assert factors[6] == NOMINAL_S / 1.0  # one slow probe is outvoted
    assert factors[-1] == NOMINAL_S / 2.0


def test_fails_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "envnr_service",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
