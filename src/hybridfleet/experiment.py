"""End-to-end experiment orchestration: plan, score, aggregate, evaluate.

A sweep runs every (delivery set, drone count, prioritized) combination,
aggregates waiting-time statistics from the checked plans' completion
times, and simulates one selected run to evaluate the fleet links on its
trace. Planning and simulation are deterministic, so every run is
reproducible from the world alone, which the base seed generates; the
manifest written next to the results echoes the fully resolved
configuration.
"""
from __future__ import annotations

import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from . import __version__, fields
from .errors import ConfigError, ParameterError, ParseError
from .hybrid import (FleetConfig, check_drone_count, check_new_plan, plan_hybrid,
                     plan_hybrid_counts, read_fleet)
from .jobs import check_buildings, check_set_sizes, generate_delivery_sets, save_sets
from .metrics import (summarize_sweep, waiting_stats, write_capacity_curves_csv,
                      write_summary_csv)
from .netmodel import MODELS, ChannelConfig, check_model_names, evaluate_links
from .rng import mix
from .routing import check_exact_size, largest_tour
from .scenario import check_grid, generate_grid_scenario, load_scenario, save_scenario
from .simcore import completion_times, save_trace, simulate

# seed stream tags
_STREAM_SCENARIO = 0
_STREAM_JOBS = 1


@dataclass
class ExperimentConfig:
    scenario_path: str | None = None
    grid_rows: int = 8
    grid_cols: int = 8
    grid_spacing: float = 100.0
    buildings_per_cell: int = 2
    n_sets: int = 50
    per_set: int = 15
    medical_per_set: int = 5
    drone_counts: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4, 5])
    prioritize_flags: list[bool] = field(default_factory=lambda: [False, True])
    net_models: list[str] = field(default_factory=lambda: list(MODELS))
    net_trace_set: int = 0
    net_trace_drones: int | None = None      # default: max of drone_counts
    net_trace_prioritized: bool = True
    base_seed: int = 42
    out_dir: str = "out"
    workers: int = 1
    solver: str = "heuristic"
    fleet: dict = field(default_factory=dict)  # FleetConfig overrides sans drone_count
    channel: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        if isinstance(data, dict) and isinstance(data.get("config"), dict):
            data = data["config"]  # accept a manifest as a config source
        cfg = cls(**fields.obj(data, "config", cls.__dataclass_fields__))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ConfigError for a bad field, by the owning layer's check where there is one."""
        try:
            for name, read in _FIELD_READERS.items():  # JSON gives any value any type
                read(getattr(self, name), name)
            if self.n_sets < 1:
                raise ConfigError(f"n_sets must be >= 1, got {self.n_sets}")
            # each (count, flag) is one sweep run, planned once
            for name in ("drone_counts", "prioritize_flags"):
                values = getattr(self, name)
                if not values or len(set(values)) < len(values):
                    raise ConfigError(f"{name} must be non-empty and must not repeat a value, "
                                      f"got {values}")
            check_model_names(self.net_models)
            if self.solver not in ("exact", "heuristic"):
                raise ConfigError(f"unknown solver {self.solver!r}")
            if self.workers < 1:
                raise ConfigError("workers must be >= 1")
            if self.net_models and not 0 <= self.net_trace_set < self.n_sets:
                raise ConfigError(f"net_trace_set {self.net_trace_set} out of range "
                                  f"(0..{self.n_sets - 1})")
            if "drone_count" in self.fleet:
                raise ConfigError("fleet overrides cannot set drone_count; use drone_counts")
            check_grid(self.grid_rows, self.grid_cols, self.grid_spacing,
                       self.buildings_per_cell)
            if not self.scenario_path:  # build_scenario generates the world
                check_buildings((self.grid_rows - 1) * (self.grid_cols - 1)
                                * self.buildings_per_cell)
            check_set_sizes(self.per_set, self.medical_per_set)
            for i, count in enumerate(self.drone_counts):
                check_drone_count(count, f"drone_counts[{i}]")
            if self.net_trace_drones is not None:
                check_drone_count(self.net_trace_drones, "net_trace_drones")
            if self.solver == "exact":
                check_exact_size(max(largest_tour(self.per_set, self.medical_per_set, p)
                                     for p in self.prioritize_flags))
        except (ParseError, ParameterError) as exc:
            raise ConfigError(str(exc)) from exc

    def fleet_for(self, drone_count: int) -> FleetConfig:
        return FleetConfig(drone_count=drone_count, **self.fleet)

    def configs(self) -> list[tuple[int, bool]]:
        """Deterministic enumeration of (drone_count, prioritized) pairs."""
        return [(d, p) for d in sorted(self.drone_counts)
                for p in sorted(self.prioritize_flags)]


_FIELD_READERS = {
    "scenario_path": fields.nullable(fields.string),
    **dict.fromkeys(("grid_rows", "grid_cols", "buildings_per_cell", "n_sets", "per_set",
                     "medical_per_set", "net_trace_set", "base_seed", "workers"),
                    fields.integer),
    "grid_spacing": fields.number,
    "drone_counts": fields.list_of(fields.integer),
    "prioritize_flags": fields.list_of(fields.boolean),
    "net_models": fields.list_of(fields.string),
    "net_trace_drones": fields.nullable(fields.integer),
    "net_trace_prioritized": fields.boolean,
    **dict.fromkeys(("out_dir", "solver"), fields.string),
    "fleet": read_fleet,
    # numbers, not finite ones: an infinite loss threshold is the ideal channel
    "channel": fields.record(ChannelConfig, fields.number, check=ChannelConfig.validate),
}


def build_scenario(cfg: ExperimentConfig):
    if cfg.scenario_path:
        return load_scenario(cfg.scenario_path)
    return generate_grid_scenario(cfg.grid_rows, cfg.grid_cols, cfg.grid_spacing,
                                  cfg.buildings_per_cell,
                                  mix(cfg.base_seed, _STREAM_SCENARIO))


def build_sets(cfg: ExperimentConfig, scenario):
    return generate_delivery_sets(scenario, cfg.n_sets, cfg.per_set,
                                  cfg.medical_per_set,
                                  mix(cfg.base_seed, _STREAM_JOBS))


# worker-side cache so parallel executors build the world once per process
_WORLD_CACHE: dict[str, tuple] = {}


def _config_json(cfg: ExperimentConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True)


def _world(cfg_json: str):
    cached = _WORLD_CACHE.get(cfg_json)
    if cached is None:
        cfg = ExperimentConfig.from_dict(json.loads(cfg_json))
        scenario = build_scenario(cfg)
        dsets = build_sets(cfg, scenario)
        cached = (cfg, scenario, dsets)
        _WORLD_CACHE.clear()
        _WORLD_CACHE[cfg_json] = cached
    return cached


def run_one(cfg: ExperimentConfig, scenario, dset, drone_count: int,
            prioritized: bool):
    """plan -> check -> simulate -> waiting stats for one configuration of one
    set; returns (plan, trace, waits). A plan that breaks an invariant raises
    PlanConsistencyError. The sweep scores its runs as ``_run_set`` does,
    from the same completion times without the trace."""
    fleet = cfg.fleet_for(drone_count)
    plan = plan_hybrid(scenario, dset, fleet, prioritized, cfg.solver)
    check_new_plan(plan, scenario, dset, fleet)
    trace = simulate(scenario, plan, fleet)
    return plan, trace, waiting_stats(trace.completion, dset)


def _run_set(cfg_json: str, set_idx: int):
    """Every run of one set, with the waits run_one would give, keyed
    (drones, prioritized, set index), and its failures: one greedy
    run per priority flag plans every drone count, and each checked plan is
    scored from ``completion_times``, the simulator's completion arithmetic
    without the events and trajectories that no sweep output reads."""
    cfg, scenario, dsets = _world(cfg_json)
    dset = dsets[set_idx]
    counts = sorted(cfg.drone_counts)
    planned = {}
    for prio in sorted(cfg.prioritize_flags):
        try:
            planned[prio] = plan_hybrid_counts(scenario, dset, cfg.fleet_for(counts[-1]),
                                               counts, prio, cfg.solver)
        except Exception as exc:  # the shared part failed every count of the flag
            planned[prio] = dict.fromkeys(counts, exc)
    runs = {}
    failures = []
    for drones, prio in cfg.configs():
        result = planned[prio][drones]
        if not isinstance(result, Exception):
            try:
                fleet = cfg.fleet_for(drones)
                check_new_plan(result, scenario, dset, fleet)
                runs[(drones, prio, set_idx)] = waiting_stats(
                    completion_times(scenario, result, fleet), dset)
                continue
            except Exception as exc:  # isolate failures per run
                result = exc
        failures.append({
            "set": set_idx, "drones": drones, "prioritized": prio,
            "error": f"{type(result).__name__}: {result}",
            "trace": "".join(traceback.format_exception(result, limit=5)),
        })
    return runs, failures


def run_sweep(cfg: ExperimentConfig) -> tuple[dict, list[dict]]:
    """All (set, drone count, prioritized) runs: their waits, keyed (drones,
    prioritized, set index), and their failures; deterministic merge order."""
    cfg_json = _config_json(cfg)
    set_indices = list(range(cfg.n_sets))
    # cfg.workers is an upper bound: the pool may start a process for every
    # set it queues while none is idle, and processes beyond one per set or
    # per CPU gain nothing
    workers = min(cfg.workers, cfg.n_sets, os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_set(cfg_json, i) for i in set_indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_set, [cfg_json] * len(set_indices),
                                  set_indices))
    sweep = {}
    failures: list[dict] = []
    for runs, fails in results:
        sweep.update(runs)
        failures.extend(fails)
    return sweep, failures


def _check_out_dir(path: str) -> None:
    """Raise ConfigError unless path is a writable directory or could be
    made one: its nearest existing ancestor must be a writable directory.
    Creates nothing."""
    target = os.path.abspath(path)
    p = target
    while not os.path.exists(p):
        p = os.path.dirname(p)
    if not os.path.isdir(p):
        raise ConfigError(f"cannot write outputs to {path}: {p} is not a directory")
    if not os.access(p, os.W_OK | os.X_OK):
        what = "directory" if p == target else "parent directory"
        raise ConfigError(f"cannot write outputs to {path}: {what} {p} is not writable")


def run_experiment(cfg: ExperimentConfig) -> int:
    """Full pipeline; writes artifacts into cfg.out_dir. Returns exit status
    (0 ok, 1 when any run failed). The sweep and its summary run before
    cfg.out_dir is created, so a summary that raises (a completion past the
    capacity curve's horizon) leaves no files behind; an out_dir that cannot
    be written fails before the sweep."""
    _check_out_dir(cfg.out_dir)
    # the sweep's own runs (workers=1) and the net phase share this world and
    # its routing cache
    _, scenario, dsets = _world(_config_json(cfg))
    sweep, failures = run_sweep(cfg)
    summary = summarize_sweep(sweep) if sweep else None

    os.makedirs(cfg.out_dir, exist_ok=True)
    save_scenario(scenario, os.path.join(cfg.out_dir, "scenario.json"))
    save_sets(dsets, os.path.join(cfg.out_dir, "jobs.json"))
    if summary is not None:
        write_summary_csv(summary, os.path.join(cfg.out_dir, "summary.csv"))
        write_capacity_curves_csv(summary,
                                  os.path.join(cfg.out_dir, "capacity_curves.csv"))

    net_report_lines: list[str] = []
    net_error = None
    if cfg.net_models:
        try:
            net_report_lines = _run_net(cfg, scenario, dsets)
        except Exception as exc:
            net_error = f"{type(exc).__name__}: {exc}"

    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "failures": failures,
        "net_error": net_error,
        "requirement_checks": net_report_lines,
    }
    fields.write_json(manifest, os.path.join(cfg.out_dir, "manifest.json"),
                      sort_keys=True, indent=1)
    return 1 if (failures or net_error) else 0


def _run_net(cfg: ExperimentConfig, scenario, dsets) -> list[str]:
    drones = cfg.net_trace_drones
    if drones is None:
        drones = max(cfg.drone_counts)
    _, trace, _ = run_one(cfg, scenario, dsets[cfg.net_trace_set], drones,
                          cfg.net_trace_prioritized)
    save_trace(trace, os.path.join(cfg.out_dir, "net_trace.csv"))
    return evaluate_links(trace, scenario, cfg.net_models, ChannelConfig(**cfg.channel),
                          cfg.base_seed, cfg.out_dir)
