"""Self-test of the benchmark harness on the 7x11 demo key; runs in seconds.

    python3 -m pytest perfbench/test_perfbench.py

Each workload shape runs untraced and traced on derive_crt(7, 11, 43) with
its sizes cut down, at the default seed and at one other. Every metric that
BENCHMARK.json names must come out with its unit, and no unit may fail.
"""

from __future__ import annotations

import copy
import json
import os
import shutil

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC = run._load_spec()
WORKLOADS = run._import_workloads()

DEMO = {
    "order1-exhaustive": {"campaign_flags": ["--r-bits", "5", "--exhaustive-threshold", "64",
                                             "--samples", "8"]},
    "orderN-sampled": {"orders": [2, 3], "plan_limit": 300},
    "replay-probe": {"message": 2, "values_per_site": 3},
}


def _params(name: str) -> dict:
    params = copy.deepcopy(SPEC["workloads"][name]["params"])
    params["key"] = {"derive_crt": [7, 11, 43]}
    params.update(DEMO[name])
    return params


@pytest.fixture
def workdir():
    d = run.OUT / f"selftest-{os.getpid()}"
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _check(metrics: dict, tally, wanted: list[dict]) -> None:
    assert tally.attempted >= 1 and tally.failed == 0
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert isinstance(value, (int, float)), m["name"]


def test_workload_names_agree():
    assert [w["name"] for w in BENCH["workloads"]] == list(SPEC["workloads"])
    assert set(WORKLOADS.WORKLOADS) == set(SPEC["workloads"])


@pytest.mark.parametrize("seed", [SPEC["default_seed"], 7])
@pytest.mark.parametrize("name", list(SPEC["workloads"]))
def test_untraced_run_emits_every_end_to_end_metric(name, seed, workdir):
    metrics, tally = run.measure(WORKLOADS, name, _params(name), seed, SPEC["default_seed"],
                                 None, 0.0, workdir, setup_reps=1)
    _check(metrics, tally, BENCH["end_to_end"])
    assert metrics["wall_s"][0] > 0 and metrics["plans_per_s"][0] > 0


@pytest.mark.parametrize("name", list(SPEC["workloads"]))
def test_traced_run_emits_every_layer_metric(name, workdir):
    metrics, tally = run.trace_run(WORKLOADS, name, _params(name), 7, SPEC["default_seed"],
                                   None, workdir)
    _check(metrics, tally, BENCH["per_layer"])
    assert metrics["circuit.execute.faulted_calls"][0] > 0
    assert metrics["bench.residue_s"][0] >= 0
    assert set(metrics) <= set(SPEC["layers"])


def test_a_wrong_output_counts_as_failed(workdir):
    wl = WORKLOADS.WORKLOADS["orderN-sampled"](
        _params("orderN-sampled"), 7, workdir, SPEC["default_seed"])
    label, fn = next(iter(wl.units()))
    rep, text = fn()
    rep.baselines[wl.message] += 1
    _plans, bad = wl.check(label, (rep, text), None)
    assert bad
