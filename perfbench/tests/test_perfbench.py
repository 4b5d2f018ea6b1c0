"""Tests of the benchmark's own code on tiny instances of its workloads."""
from __future__ import annotations

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from hybridfleet import experiment  # noqa: E402
from perfbench import runner, tracer, workloads  # noqa: E402


class TinyPlanStress(workloads.PlanStress):
    rows = cols = 4
    n_sets = 1
    per_set = 5
    medical = 2
    drones = 2


class TinyNetsim(workloads.NetsimDense):
    rows = cols = 4
    per_set = 3
    drones = 2


class TinySweep(workloads.SweepDefault):
    n_sets = 1


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_of_nested_spans_partition_the_wall_time():
    # harness.pass [0,10] > hybrid.plan [1,6] > routing.dijkstra [2,3]
    #                     > simcore.simulate [7,9]
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 6, 7, 9, 10]))
    root = t.begin("harness.pass", "pass0")
    plan = t.begin("hybrid.plan")
    dij = t.begin("routing.dijkstra")
    t.end(dij)
    t.end(plan)
    sim = t.begin("simcore.simulate")
    t.end(sim)
    t.end(root)

    assert tracer.self_times(t.spans) == [3, 4, 1, 2]
    m = t.layer_metrics(["pass0"])
    assert m["trace.wall_s"] == 10
    assert (m["harness.self_s"], m["hybrid.plan_s"], m["routing.dijkstra_s"],
            m["simcore.simulate_s"]) == (3, 4, 1, 2)
    assert sum(m[k] for k in tracer.SELF_TIME_KEYS) == m["trace.wall_s"]
    assert m["hybrid.plans"] == 1 and m["hybrid.plan_p50_ms"] == 5000


def test_spans_must_close_in_order():
    t = tracer.Tracer(clock=FakeClock(range(10)))
    outer = t.begin("harness.pass", "pass0")
    t.begin("hybrid.plan")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile(19) == 50.0
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(999) == 90.0
    assert tracer.tail_percentile(1000) == 99.0
    assert tracer.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert tracer.percentile([], 90.0) == 0.0


def test_hash_gate_catches_a_one_byte_change(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_bytes(b"drones,prioritized\n0,1\n")
    good = workloads.Op("sweep", digests={"summary.csv": workloads.sha256_file(str(path))})
    refs = {"sweep-default": {"3": {"sweep": dict(good.digests)}}}
    workloads.check_references("sweep-default", 3, [good], refs)
    assert good.error is None

    path.write_bytes(b"drones,prioritized\n0,2\n")
    bad = workloads.Op("sweep", digests={"summary.csv": workloads.sha256_file(str(path))})
    workloads.check_references("sweep-default", 3, [bad], refs)
    assert "summary.csv" in bad.error

    unknown = workloads.Op("sweep", digests=dict(good.digests))
    workloads.check_references("sweep-default", 4, [unknown], refs)
    assert "no reference" in unknown.error


@pytest.mark.parametrize("wl", [TinySweep(), TinyPlanStress(), TinyNetsim()],
                         ids=lambda w: w.name)
def test_workload_inputs_are_deterministic_per_seed(wl):
    _, first = wl.setup(3)
    _, again = wl.setup(3)
    _, other = wl.setup(4)
    assert first == again
    assert first != other


def test_passes_repeat_outputs_and_counters(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = TinyPlanStress()
    items = [(1, wl.setup(1)[0])] * 2
    records = runner.measure(wl, items, 0.0)
    assert len(records) == 2
    first, second = ([op.digests for op in r.result.ops] for r in records)
    assert first == second and all(first)

    t = tracer.Tracer()
    traced = runner.measure(wl, items, 0.0, tracer=t)
    # at least two traced passes, all on the first instance
    assert [r.traced for r in traced] == [False, True, False, True]
    assert {r.instance for r in traced} == {1}
    assert t.counts["pass1"] == t.counts["pass3"] and t.counts["pass1"]["hybrid.rebuilds"] > 0
    assert runner.counter_drift(t, traced) == []
    t.counts["pass3"]["hybrid.rebuilds"] += 1
    assert runner.counter_drift(t, traced) == [
        "pass 3: work counters differ from traced pass 1"]
    # uninstall restored every rebound function
    assert not hasattr(experiment.run_one, "__wrapped__")
    assert not hasattr(experiment.plan_hybrid, "__wrapped__")
    attempted, failed, _ = runner.tally(records + traced, [], 0)
    assert (attempted, failed) == (12, 0)


def test_a_traced_function_that_no_longer_exists_is_reported(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (("scenario", "gone", "scenario.gone"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["scenario.gone"]


def test_injected_failure_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = TinyPlanStress()
    state, _ = wl.setup(1)
    real_run_one = experiment.run_one

    def flaky_run_one(cfg, sc, dset, drones, prioritized):
        if prioritized:
            raise RuntimeError("injected")
        return real_run_one(cfg, sc, dset, drones, prioritized)

    monkeypatch.setattr(experiment, "run_one", flaky_run_one)
    records = runner.measure(wl, [(1, state)], 0.0)
    attempted, failed, errors = runner.tally(records, [], 0)
    assert attempted == 2 * len(records)
    assert failed == len(records)
    assert all("injected" in e for e in errors)


def test_netsim_pass_counts_beacons(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = TinyNetsim()
    state, _ = wl.setup(2)
    result = wl.run_pass(state, str(tmp_path))
    assert [op.name for op in result.ops] == list(tracer.MAC_MODELS)
    assert all(op.error is None and len(op.digests) == 2 for op in result.ops)
    assert result.units > 0


def test_benchmark_json_declares_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(
        tracer.Tracer().layer_metrics([])) | {"trace.overhead_s", "experiment.bytes_written"}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "units_per_s", "peak_rss_mb"}
