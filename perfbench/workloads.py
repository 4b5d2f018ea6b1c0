"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload pushes most of its work through a different layer:

* ``sweep-default`` runs ``experiment.run_experiment`` on the shipped
  ``ExperimentConfig`` with fewer delivery sets and no net phase. It is what
  users run, with orchestration and file output.
* ``plan-stress`` runs plan -> simulate (``experiment.run_one``) on 40-job
  sets with 8 drones on a 16x16 grid, without netsim. Planner rebuilds and
  candidate scans dominate it; netmodel and LOS work does not touch it.
* ``netsim-dense`` plans one 8-drone trace during set-up and evaluates it with
  ``netmodel.run_cam_traffic`` under all three MAC models. LOS tests dominate
  it; planner work does not touch its timed body.

A run cycles its passes through the workload's ``cycle`` instances chosen by
the seed, so its medians average over several inputs rather than one: the
cost of one input differs from another's by up to twofold, mostly through
LOS geometry. ``references.json`` holds the SHA-256 of every output of all
``CATALOGUE`` instances, so every seed is checked for byte identity against
recorded outputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from hybridfleet import experiment, hybrid, jobs, netmodel, scenario

CATALOGUE = 40                     # instances with recorded reference digests
COMPLETION_GAP_S = 1e-6


def instances(seed: int, cycle: int) -> list[int]:
    """The ``cycle`` instances a run with this seed goes through, in order."""
    base = seed % (CATALOGUE // cycle) * cycle
    return list(range(base, base + cycle))


@dataclass
class Op:
    """Outcome of one operation: its timed seconds, output digests, error."""
    name: str
    seconds: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None


@dataclass
class Pass:
    ops: list[Op]
    units: int                 # work units completed (plans or beacons)

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _world_digest(sc, dsets) -> str:
    return sha256_json([scenario.scenario_to_dict(sc), jobs.sets_to_dict(dsets)])


def _timed(op: Op, fn, *args):
    """Run fn(*args) into op.seconds; an exception becomes op.error."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        op.seconds = time.perf_counter() - t0


def _plan_problems(plan, trace, sc, dset, fleet) -> list[str]:
    """Plan invariants plus planner/simulator completion agreement."""
    problems = hybrid.check_plan(plan, sc, dset, fleet)
    if set(plan.completion) != set(trace.completion):
        problems.append("planner and simulator complete different jobs")
    else:
        gap = max((abs(plan.completion[j] - trace.completion[j]) for j in plan.completion),
                  default=0.0)
        if gap > COMPLETION_GAP_S:
            problems.append(f"planner/simulator completion gap {gap:.3g} s")
    return problems


class SweepDefault:
    """The shipped sweep config without its net phase, seeded by the
    instance, with fewer sets."""
    name = "sweep-default"
    unit = "plans"
    cycle = 6
    n_sets = 20
    files = ("summary.csv", "capacity_curves.csv")

    def setup(self, instance: int):
        # net_models=[]: the net phase evaluates a single trace whose LOS cost
        # differs up to 2.4-fold between seeds, which made this workload's
        # time spread 27 % across seeds. netsim-dense measures that phase.
        cfg = experiment.ExperimentConfig(n_sets=self.n_sets, net_models=[],
                                          base_seed=instance, workers=1)
        cfg.validate()
        return cfg, sha256_json(dataclasses.asdict(cfg))

    def run_pass(self, cfg, out_dir: str) -> Pass:
        # A fresh out_dir per pass also keys experiment's world cache afresh,
        # so every pass pays world generation as a user's single sweep does.
        run_cfg = dataclasses.replace(cfg, out_dir=out_dir)
        op = Op("sweep")
        status = _timed(op, experiment.run_experiment, run_cfg)
        if op.error is None and status != 0:
            op.error = f"run_experiment returned status {status}"
        if op.error is None:
            op.digests = {f: sha256_file(os.path.join(out_dir, f)) for f in self.files}
        return Pass([op], cfg.n_sets * len(cfg.configs()))


class PlanStress:
    """Plan -> simulate on large sets with 8 drones, priority off and on."""
    name = "plan-stress"
    unit = "plans"
    cycle = 5
    rows = cols = 16
    n_sets = 5
    per_set = 40
    medical = 13
    drones = 8

    def setup(self, instance: int):
        cfg = experiment.ExperimentConfig(
            grid_rows=self.rows, grid_cols=self.cols, n_sets=self.n_sets,
            per_set=self.per_set, medical_per_set=self.medical,
            drone_counts=[self.drones], net_models=[], base_seed=instance, workers=1)
        cfg.validate()
        sc = experiment.build_scenario(cfg)
        dsets = experiment.build_sets(cfg, sc)
        return (cfg, sc, dsets), _world_digest(sc, dsets)

    def run_pass(self, state, out_dir: str) -> Pass:
        cfg, sc, dsets = state
        fleet = cfg.fleet_for(self.drones)
        ops = []
        for i, dset in enumerate(dsets):
            for prio in (False, True):
                op = Op(f"set{i}-{'prio' if prio else 'plain'}")
                ops.append(op)
                out = _timed(op, experiment.run_one, cfg, sc, dset, self.drones, prio)
                if out is None:
                    continue
                plan, trace, _ = out
                problems = _plan_problems(plan, trace, sc, dset, fleet)
                if problems:
                    op.error = "; ".join(problems)
                    continue
                path = os.path.join(out_dir, f"{op.name}.plan.json")
                hybrid.save_plan(plan, path, fleet)
                op.digests = {
                    "plan": sha256_file(path),
                    "completion": sha256_json(
                        {str(j): repr(t) for j, t in sorted(trace.completion.items())}),
                }
        return Pass(ops, len(ops))


class NetsimDense:
    """Three MAC models over dense 8-drone traces planned in set-up.

    The traces come from one fixed pool of ``cycle`` delivery sets; an
    instance picks its trace (instance mod cycle) and uses its own id as the
    MAC and channel seed. The pool is fixed because the cost per beacon of
    two traces differs up to twofold (LOS early exits depend on the flight
    paths), and a run has time for only about four traces: with a new pool
    per seed, beacons_per_s spread 30 % between seeds.
    """
    name = "netsim-dense"
    unit = "beacons"
    cycle = 4
    rows = cols = 10
    per_set = 9
    drones = 8
    pool_seed = 7

    def setup(self, instance: int):
        cfg = experiment.ExperimentConfig(
            grid_rows=self.rows, grid_cols=self.cols, n_sets=self.cycle,
            per_set=self.per_set, medical_per_set=self.per_set // 3,
            drone_counts=[self.drones], base_seed=self.pool_seed, workers=1)
        cfg.validate()
        sc = experiment.build_scenario(cfg)
        dset = experiment.build_sets(cfg, sc)[instance % self.cycle]
        plan, trace, _ = experiment.run_one(cfg, sc, dset, self.drones, True)
        problems = _plan_problems(plan, trace, sc, dset, cfg.fleet_for(self.drones))
        if problems:
            raise RuntimeError("set-up plan is invalid: " + "; ".join(problems))
        return (sc, trace, instance), sha256_json(
            [_world_digest(sc, [dset]), instance])

    def run_pass(self, state, out_dir: str) -> Pass:
        sc, trace, seed = state
        channel = netmodel.ChannelConfig()
        ops = []
        beacons = 0
        for mac in netmodel.default_models():
            op = Op(mac.name)
            ops.append(op)
            stats = _timed(op, netmodel.run_cam_traffic, trace, sc, mac, channel, 100.0,
                           190, seed)
            if stats is None:
                continue
            if stats.sent == 0:
                op.error = "no beacons sent"
                continue
            beacons += stats.sent
            results = os.path.join(out_dir, f"net_results_{mac.name}.csv")
            summary = os.path.join(out_dir, f"net_summary_{mac.name}.csv")
            netmodel.write_net_results_csv([stats], results)
            netmodel.write_net_summary_csv([stats], summary)
            op.digests = {"net_results": sha256_file(results),
                          "net_summary": sha256_file(summary)}
        return Pass(ops, beacons)


WORKLOADS = {w.name: w for w in (SweepDefault(), PlanStress(), NetsimDense())}


def check_references(workload: str, instance: int, ops: list[Op], refs: dict) -> None:
    """Mark every op whose digests differ from the recorded reference failed."""
    expected = refs.get(workload, {}).get(str(instance))
    for op in ops:
        if op.error is not None:
            continue
        if expected is None or op.name not in expected:
            op.error = f"no reference digests for {workload} instance {instance} op {op.name}"
        elif expected[op.name] != op.digests:
            bad = sorted(k for k in set(expected[op.name]) | set(op.digests)
                         if expected[op.name].get(k) != op.digests.get(k))
            op.error = f"output differs from reference: {', '.join(bad)}"
