"""Smoke test of the benchmark itself, with one-second runs.

Run from the root of a checkout (not part of the package's test suite):

    python -m pytest benchmarks/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import expect  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    return p.returncode, p.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    rc, out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    result = json.loads(out.splitlines()[-1])
    assert rc == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_every_layer_metric_documented():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers["layers"])
    assert [w["name"] for w in BENCH["workloads"]] == list(layers["workloads"])


def test_corrupted_expectation_is_a_counted_failure(monkeypatch, capsys):
    monkeypatch.setattr(expect, "BOUND_TOL", -1.0)
    rc = run.main(["--workload", "certify-cold", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == 1       # the one `bound` process of the round
    assert result["attempted"] >= 4 + run.SETUPS


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = _bench("--workload", "grid-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert '"metrics"' not in out


def test_tail_percentile():
    assert run.tail([1.0]) == (1.0, 100.0, 1)
    assert run.tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (4.0, 80.0, 5)
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, 90.0, 100)


@pytest.mark.parametrize("change, expected", [
    ([0.80, 0.81, 0.79, 0.80], "better"),
    ([1.30, 1.31, 1.29, 1.30], "worse"),
    ([1.01, 0.99, 1.00, 1.02], "unchanged"),
])
def test_compare_verdicts(change, expected):
    parent = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(parent, change, "lower", 0.1) == expected


def test_compare_unresolved_when_spread_exceeds_bound():
    parent = [1.0, 1.5, 0.7, 1.3]
    assert compare.verdict(parent, [1.0, 1.4, 0.8, 1.2], "lower", 0.1) == "unresolved"
