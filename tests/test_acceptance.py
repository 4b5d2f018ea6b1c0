"""Acceptance suite: one test per acceptance criterion.

Each test prints an `ACCEPTANCE <n> [PASS|FAIL]` line with the measured
quantities before asserting, so a full `pytest -s tests/test_acceptance.py`
doubles as the verification report.

Criterion 4 asserts that the centralized median beacon latency lies above
both decentralized (CSMA and SPS) medians on a default trace, and that on an
ideal channel, where beacons are lost to collisions only, PDR
sps >= csma >= 0.99. It reports, without asserting, each model's
default-channel PDR and p95 latency against the link requirements (0.99 PDR
target, 50 ms command-and-control bound); the default 8x8 world misses the
PDR target (see README, "Acceptance suite").
"""
import csv
import itertools
import math
import time

import numpy as np
import pytest

from hybridfleet.experiment import (ExperimentConfig, build_scenario, build_sets,
                                    run_experiment, run_one, run_sweep)
from hybridfleet.hybrid import check_plan, plan_hybrid
from hybridfleet.jobs import ipd_distribution, ks_statistic
from hybridfleet.metrics import summarize_sweep
from hybridfleet.netmodel import (CC_LATENCY_BOUND_MS, PDR_TARGET, ChannelConfig, Csma, Sps,
                                  default_models, model_seed, run_cam_traffic)
from hybridfleet.rng import generator
from hybridfleet.routing import tsp_exact, tsp_heuristic
from hybridfleet.simcore import simulate

from conftest import random_world

DEFAULT = ExperimentConfig()


@pytest.fixture(scope="module")
def default_world():
    scenario = build_scenario(DEFAULT)
    dsets = build_sets(DEFAULT, scenario)
    return scenario, dsets


@pytest.fixture(scope="module")
def default_sweep(default_world):
    sweep, failures = run_sweep(DEFAULT)
    assert not failures
    return summarize_sweep(sweep)


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_acceptance_1_prioritization_benefit(default_world):
    """Truck-only medical waiting: prioritized mean <= 60% of unprioritized."""
    scenario, dsets = default_world
    t0 = time.perf_counter()
    means = {True: [], False: []}
    for dset in dsets:
        for prio in (False, True):
            _, trace, waits = run_one(DEFAULT, scenario, dset, 0, prio)
            means[prio].append(float(np.mean(waits["medical"])))
    elapsed = time.perf_counter() - t0
    ratio = float(np.mean(means[True])) / float(np.mean(means[False]))
    ok = ratio <= 0.60 and elapsed < 60.0
    _report(1, ok, f"prioritized/unprioritized medical mean = {ratio:.3f} "
                   f"(bound 0.60); runtime {elapsed:.1f} s (bound 60 s)")
    assert ratio <= 0.60
    assert elapsed < 60.0


def _excess_series(summary):
    by = {(r["drones"], r["prioritized"], r["category"]): r["mean_s"]
          for r in summary.rows}
    return [by[(k, True, "standard")] / by[(k, False, "standard")] - 1.0
            for k in sorted(DEFAULT.drone_counts)]


def test_acceptance_2_standard_penalty_compensated(default_sweep):
    """Prioritization's standard-delivery penalty shrinks as drones join."""
    excess = _excess_series(default_sweep)
    steps_ok = all(b <= a + 0.05 for a, b in zip(excess, excess[1:]))
    ok = excess[0] > 0 and steps_ok and excess[-1] <= 0.10
    _report(2, ok, "standard-mean excess over unprioritized baseline by drone "
                   f"count: {[f'{e:+.3f}' for e in excess]} "
                   "(start > 0, steps <= +0.05, final <= 0.10)")
    assert excess[0] > 0
    assert steps_ok
    assert excess[-1] <= 0.10


def test_acceptance_3_capacity_trend(default_sweep):
    """20-minute delivery capacity never drops as the fleet grows
    (one inversion of <= 2 percentage points tolerated)."""
    by = {(r["drones"], r["prioritized"], r["category"]): r["capacity_20min"]
          for r in default_sweep.rows}
    all_ok = True
    details = []
    for prio in (False, True):
        caps = [by[(k, prio, "all")] for k in sorted(DEFAULT.drone_counts)]
        inversions = [(a - b) for a, b in zip(caps, caps[1:]) if b < a]
        ok = len(inversions) <= 1 and all(v <= 0.02 for v in inversions)
        all_ok &= ok
        details.append(f"prio={int(prio)}: {[f'{c:.3f}' for c in caps]}")
        assert len(inversions) <= 1, f"capacity inversions {inversions} (prio={prio})"
        assert all(v <= 0.02 for v in inversions), f"inversion too large (prio={prio})"
    _report(3, all_ok, "capacity_at(20 min) by drone count; " + "; ".join(details))


def test_acceptance_4_network_ordering(default_world):
    """Centralized median latency above both decentralized medians over a
    default trace, and PDR sps >= csma >= 0.99 on an ideal channel, where
    only collisions lose beacons. Each model's default-channel PDR and p95
    latency are reported against the link requirements, not asserted."""
    scenario, dsets = default_world
    _, trace, _ = run_one(DEFAULT, scenario, dsets[DEFAULT.net_trace_set],
                          max(DEFAULT.drone_counts), DEFAULT.net_trace_prioritized)

    def run(mac, channel):
        return run_cam_traffic(trace, scenario, mac, channel,
                               seed=model_seed(DEFAULT.base_seed, mac.name))

    channel = ChannelConfig(**DEFAULT.channel)
    ideal = ChannelConfig(**{**DEFAULT.channel, "loss_threshold_db": math.inf})
    stats = {mac.name: run(mac, channel) for mac in default_models()}
    ideal_pdr = {mac.name: run(mac, ideal).pdr for mac in (Csma(), Sps())}
    med = {name: float(np.median(s.latencies_ms)) for name, s in stats.items()}
    problems = []
    for name in ("csma", "sps"):
        if not med["centralized"] > med[name]:
            problems.append(f"median latency centralized ({med['centralized']:.3f} ms) "
                            f"not > {name} ({med[name]:.3f} ms)")
    if not ideal_pdr["sps"] >= ideal_pdr["csma"]:
        problems.append(f"ideal-channel PDR sps ({ideal_pdr['sps']:.4f}) "
                        f"not >= csma ({ideal_pdr['csma']:.4f})")
    if not ideal_pdr["csma"] >= 0.99:
        problems.append(f"ideal-channel PDR csma ({ideal_pdr['csma']:.4f}) not >= 0.99")
    p95 = {name: s.latency_percentile(95) for name, s in stats.items()}
    profile = "; ".join(
        f"{name} PDR {s.pdr:.4f} (0.99 target {'met' if s.pdr >= PDR_TARGET else 'missed'}), "
        f"p95 {p95[name]:.3f} ms (50 ms bound "
        f"{'met' if p95[name] <= CC_LATENCY_BOUND_MS else 'exceeded'})"
        for name, s in stats.items())
    _report(4, not problems,
            f"medians ms: centralized {med['centralized']:.3f} / csma "
            f"{med['csma']:.3f} / sps {med['sps']:.3f}; ideal-channel PDR: sps "
            f"{ideal_pdr['sps']:.4f} / csma {ideal_pdr['csma']:.4f}; default channel "
            f"against the link requirements (reported): {profile}")
    assert not problems, "; ".join(problems)


def _enumerate_tsp(matrix, closed):
    n = matrix.shape[0]
    best_cost = math.inf
    best_order = None
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        cost = sum(matrix[order[i], order[i + 1]] for i in range(n - 1))
        if closed:
            cost += matrix[order[-1], order[0]]
        if cost < best_cost:
            best_cost = cost
            best_order = list(order)
    return best_order, best_cost


def test_acceptance_5_tsp_oracle_equivalence():
    """tsp_exact matches factorial enumeration on 200 instances (n <= 8);
    the heuristic stays within 10% of optimal on average."""
    t0 = time.perf_counter()
    rng = generator(0x7E57, 5)
    ratios = []
    for case in range(200):
        n = 4 + case % 5  # sizes 4..8
        closed = bool(case % 2)
        m = rng.integers(1, 1000, (n, n)).astype(float)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        order, cost = tsp_exact(m, closed)
        oracle_order, oracle_cost = _enumerate_tsp(m, closed)
        assert cost == oracle_cost, f"case {case}: cost {cost} != {oracle_cost}"
        assert order == oracle_order, f"case {case}: order mismatch"
        _, h_cost = tsp_heuristic(m, closed)
        ratios.append(h_cost / oracle_cost)
    elapsed = time.perf_counter() - t0
    mean_ratio = float(np.mean(ratios))
    ok = mean_ratio <= 1.10 and elapsed < 30.0
    _report(5, ok, f"200/200 exact matches; heuristic mean ratio {mean_ratio:.4f} "
                   f"(bound 1.10); runtime {elapsed:.1f} s (bound 30 s)")
    assert mean_ratio <= 1.10
    assert elapsed < 30.0


def test_acceptance_6_planner_simulator_agreement():
    """|planned - simulated| completion <= 1e-6 s per job, 100 random plans."""
    worst = 0.0
    for case in range(100):
        sc, dset, fleet, prioritize = random_world(case)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        trace = simulate(sc, plan, fleet)
        for j, t in plan.completion.items():
            worst = max(worst, abs(trace.completion[j] - t))
    ok = worst <= 1e-6
    _report(6, ok, f"max |planned - simulated| completion = {worst:.2e} s "
                   "over 100 plans (bound 1e-6)")
    assert worst <= 1e-6


def test_acceptance_7_plan_feasibility_suite():
    """1,000 random instances produce plans with zero invariant violations."""
    violations = []
    for case in range(1000):
        sc, dset, fleet, prioritize = random_world(case)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        problems = check_plan(plan, sc, dset, fleet)
        if problems:
            violations.append((case, problems))
    _report(7, not violations,
            f"{1000 - len(violations)}/1000 instances clean "
            f"(violations: {violations[:3]})")
    assert not violations


def test_acceptance_8_spatial_distribution(default_world):
    """Aggregated delivery-target IPD tracks the buildings' IPD (KS <= 0.1)."""
    scenario, dsets = default_world
    targets = [j.target for dset in dsets for j in dset.jobs]
    access_points = [b.access_point for b in scenario.buildings]
    ks = ks_statistic(ipd_distribution(targets), ipd_distribution(access_points))
    ok = ks <= 0.1
    _report(8, ok, f"KS(delivery IPD, building IPD) = {ks:.4f} over "
                   f"{len(dsets)} sets ({len(targets)} targets, "
                   f"{len(access_points)} buildings; bound 0.1)")
    assert ks <= 0.1


def test_acceptance_9_sweep_determinism(tmp_path):
    """The full default sweep repeated with one base seed is byte-identical."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    cfg1 = ExperimentConfig(out_dir=str(out1))
    cfg2 = ExperimentConfig(out_dir=str(out2))
    assert run_experiment(cfg1) == 0
    assert run_experiment(cfg2) == 0
    with open(out1 / "summary.csv", encoding="utf-8", newline="") as f:
        configs = {(r["drones"], r["prioritized"]) for r in csv.DictReader(f)}
    assert configs == {(str(d), p) for d in range(6) for p in "01"}  # drone counts x flags
    same_summary = (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    same_caps = (out1 / "capacity_curves.csv").read_bytes() == \
        (out2 / "capacity_curves.csv").read_bytes()
    same_net = (out1 / "net_summary.csv").read_bytes() == \
        (out2 / "net_summary.csv").read_bytes()
    ok = same_summary and same_caps and same_net
    _report(9, ok, f"summary identical: {same_summary}; capacity curves "
                   f"identical: {same_caps}; net summary identical: {same_net}")
    assert same_summary and same_caps and same_net
