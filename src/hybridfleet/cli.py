"""Command-line interface.

Subcommands: scenario gen|validate, jobs gen, plan, simulate, netsim, sweep,
report. Batch-oriented: outputs are files. Exit codes: 0 success, 1 run
failure, 2 configuration/input error (a bad file, config value or flag).
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import get_args

import numpy as np

from . import __version__, fields
from .errors import ConfigError, HybridFleetError, InvariantViolation, ParameterError, ParseError
from .experiment import ExperimentConfig, run_experiment
from .hybrid import (FleetConfig, check_new_plan, check_plan, first_problem, load_plan,
                     plan_hybrid, save_plan)
from .jobs import generate_delivery_sets, load_sets, save_sets
from .metrics import SUMMARY_COLUMNS, waiting_stats
from .netmodel import MODELS, NET_SUMMARY_COLUMNS, ChannelConfig, evaluate_links
from .routing import Solver
from .scenario import generate_grid_scenario, load_scenario, save_scenario
from .simcore import load_trace, save_trace, simulate


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hybridfleet",
                                description="hybrid truck-drone delivery toolkit")
    p.add_argument("--version", action="version", version=__version__)
    defaults = ExperimentConfig()  # the world and set sizes a sweep uses
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="generate or validate scenario files")
    scsub = sc.add_subparsers(dest="subcommand", required=True)
    gen = scsub.add_parser("gen", help="generate a grid scenario")
    gen.add_argument("--rows", type=int, default=defaults.grid_rows)
    gen.add_argument("--cols", type=int, default=defaults.grid_cols)
    gen.add_argument("--spacing", type=float, default=defaults.grid_spacing, help="meters")
    gen.add_argument("--buildings-per-cell", type=int, default=defaults.buildings_per_cell)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    val = scsub.add_parser("validate", help="check a scenario file's invariants")
    val.add_argument("path")

    jb = sub.add_parser("jobs", help="generate delivery sets")
    jbsub = jb.add_subparsers(dest="subcommand", required=True)
    jgen = jbsub.add_parser("gen")
    jgen.add_argument("--scenario", required=True)
    jgen.add_argument("--sets", type=int, default=defaults.n_sets)
    jgen.add_argument("--per-set", type=int, default=defaults.per_set)
    jgen.add_argument("--medical", type=int, default=defaults.medical_per_set)
    jgen.add_argument("--seed", type=int, default=0)
    jgen.add_argument("--out", required=True)

    pl = sub.add_parser("plan", help="plan one delivery set")
    pl.add_argument("--scenario", required=True)
    pl.add_argument("--jobs", required=True)
    pl.add_argument("--set-index", type=int, default=0)
    pl.add_argument("--drones", type=int, default=0)
    pl.add_argument("--prioritize", action=argparse.BooleanOptionalAction, default=True)
    pl.add_argument("--solver", choices=get_args(Solver), default=defaults.solver)
    pl.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="execute a plan into an event trace")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--plan", required=True)
    sim.add_argument("--jobs", help="delivery-set file for completion stats")
    sim.add_argument("--set-index", type=int, default=0)
    sim.add_argument("--drones", type=int, help="fleet size if the plan lacks one")
    sim.add_argument("--out", required=True, help="trace CSV path")

    net = sub.add_parser("netsim", help="evaluate fleet links over a trace")
    net.add_argument("--scenario", required=True)
    net.add_argument("--trace", required=True)
    net.add_argument("--models", default=",".join(MODELS))
    net.add_argument("--seed", type=int, default=0)
    net.add_argument("--out", required=True, help="output directory")

    sw = sub.add_parser("sweep", help="run the full experiment sweep")
    sw.add_argument("--config", help="JSON config (or a previous manifest)")
    sw.add_argument("--seed", type=int, help="base seed override")
    sw.add_argument("--out", help="output directory override")
    sw.add_argument("--workers", type=int)
    sw.add_argument("--sets", type=int)
    sw.add_argument("--drones", help="comma-separated drone counts, e.g. 0,1,2")
    sw.add_argument("--scenario", help="scenario file instead of the grid generator")
    sw.add_argument("--prioritize", choices=["both", "on", "off"])

    rp = sub.add_parser("report", help="print a summary of sweep outputs")
    rp.add_argument("--in", dest="in_dir", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ParameterError, ParseError, InvariantViolation,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HybridFleetError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "scenario":
        if args.subcommand == "gen":
            sc = generate_grid_scenario(args.rows, args.cols, args.spacing,
                                        args.buildings_per_cell, args.seed)
            save_scenario(sc, args.out)
            print(f"wrote {args.out}: {len(sc.graph.nodes)} nodes, "
                  f"{len(sc.graph.edges)} edges, {len(sc.buildings)} buildings")
            return 0
        sc = load_scenario(args.path)  # runs validate_scenario
        print(f"{args.path}: valid ({len(sc.graph.nodes)} nodes, "
              f"{len(sc.buildings)} buildings)")
        return 0

    if args.command == "jobs":
        sc = load_scenario(args.scenario)
        sets = generate_delivery_sets(sc, args.sets, args.per_set, args.medical,
                                      args.seed)
        save_sets(sets, args.out)
        print(f"wrote {args.out}: {len(sets)} sets x {args.per_set} jobs")
        return 0

    if args.command == "plan":
        sc = load_scenario(args.scenario)
        sets = load_sets(args.jobs, sc)
        dset = _pick_set(sets, args.set_index)
        fleet = FleetConfig(drone_count=args.drones)
        plan = plan_hybrid(sc, dset, fleet, args.prioritize, args.solver)
        check_new_plan(plan, sc, dset, fleet)
        save_plan(plan, args.out, fleet)
        print(f"wrote {args.out}: {len(plan.stop_positions)} truck stops, "
              f"{len(plan.sorties)} sorties, objective {plan.objective:.1f} s")
        return 0

    if args.command == "simulate":
        sc = load_scenario(args.scenario)
        plan, fleet = load_plan(args.plan)
        if fleet is None:
            if args.drones is None:
                raise ConfigError("plan file lacks a fleet; pass --drones")
            fleet = FleetConfig(drone_count=args.drones)
        dset = None
        if args.jobs:
            dset = _pick_set(load_sets(args.jobs, sc), args.set_index)
        problems = check_plan(plan, sc, dset, fleet)
        if problems:  # the plan file does not fit the scenario, fleet or set
            fit = "" if dset is None else f" does not fit set {args.set_index} of {args.jobs}"
            raise ParseError(f"{args.plan}{fit}: {first_problem(problems)}")
        trace = simulate(sc, plan, fleet)
        save_trace(trace, args.out)
        msg = f"wrote {args.out}: {len(trace.events)} events, ends {trace.end_time:.1f} s"
        if dset is not None:
            means = {k: f"{np.mean(v):.0f}s"
                     for k, v in waiting_stats(trace.completion, dset).items()}
            msg += f", mean waits {means}"
        print(msg)
        return 0

    if args.command == "netsim":
        sc = load_scenario(args.scenario)
        trace = load_trace(args.trace)
        wanted = [m.strip() for m in args.models.split(",") if m.strip()]
        for line in evaluate_links(trace, sc, wanted, ChannelConfig(), args.seed, args.out):
            print(line)
        print(f"wrote {args.out}/net_results.csv and net_summary.csv")
        return 0

    if args.command == "sweep":
        cfg = _sweep_config(args)
        status = run_experiment(cfg)
        print(f"sweep finished with status {status}; outputs in {cfg.out_dir}")
        return status

    return _report(args.in_dir)  # argparse admits no other command


def _pick_set(sets, index: int):
    if not sets:
        raise ConfigError("the jobs file holds no sets")
    if not 0 <= index < len(sets):
        raise ConfigError(f"set index {index} out of range (0..{len(sets) - 1})")
    return sets[index]


def _sweep_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_dict(fields.read_json(args.config) if args.config else {})
    # flags win over the config file
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.workers is not None:
        cfg.workers = args.workers
    if args.sets is not None:
        cfg.n_sets = args.sets
    if args.drones is not None:
        try:
            cfg.drone_counts = [int(d) for d in args.drones.split(",") if d != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --drones value {args.drones!r}") from exc
    if args.scenario is not None:
        cfg.scenario_path = args.scenario
    if args.prioritize is not None:
        cfg.prioritize_flags = {"both": [False, True], "on": [True],
                                "off": [False]}[args.prioritize]
    cfg.validate()
    return cfg


def _report(in_dir: str) -> int:
    summary_path = os.path.join(in_dir, "summary.csv")
    rows = fields.read_csv(summary_path, SUMMARY_COLUMNS)
    print(f"{'drones':>6} {'prio':>5} {'category':>9} {'mean_s':>9} "
          f"{'median_s':>9} {'cap@20min':>9}")
    for i, r in enumerate(rows, 1):
        mean_s, median_s, capacity = (fields.csv_number(summary_path, i, r, c)
                                      for c in ("mean_s", "median_s", "capacity_20min"))
        print(f"{r['drones']:>6} {r['prioritized']:>5} {r['category']:>9} "
              f"{mean_s:>9.1f} {median_s:>9.1f} {capacity:>9.3f}")
    net_path = os.path.join(in_dir, "net_summary.csv")
    if os.path.exists(net_path):
        print()
        for i, r in enumerate(fields.read_csv(net_path, NET_SUMMARY_COLUMNS), 1):
            pdr = fields.csv_number(net_path, i, r, "pdr")
            # the latency cells are empty when no beacon arrived
            p50, p95 = (f"{fields.csv_number(net_path, i, r, c):.3f}" if r[c] else "-"
                        for c in ("lat_p50_ms", "lat_p95_ms"))
            print(f"net {r['model']:>12}: sent {r['sent']:>6} "
                  f"pdr {pdr:.4f} p50 {p50} ms p95 {p95} ms")
    manifest_path = os.path.join(in_dir, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = fields.obj(fields.read_json(manifest_path), "manifest")
        for line in fields.get(manifest, "requirement_checks", "manifest",
                               fields.list_of(fields.string), []):
            print(line)
        fails = fields.get(manifest, "failures", "manifest", fields.array, [])
        if fails:
            print(f"{len(fails)} failed runs (see manifest.json)")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
