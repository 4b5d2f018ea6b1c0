import csv
import json
import shutil
from dataclasses import replace

import pytest

from hybridfleet import cli, experiment
from hybridfleet.cli import main
from hybridfleet.scenario import MAX_BUILDINGS, MAX_NODES

from conftest import deadline


def run(*argv):
    return main([str(a) for a in argv])


def configs_in_summary(out):
    """The (drones, prioritized) configurations that summary.csv reports."""
    with open(out / "summary.csv", encoding="utf-8", newline="") as f:
        return sorted({(int(r["drones"]), int(r["prioritized"])) for r in csv.DictReader(f)})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert run("scenario", "gen", "--rows", 4, "--cols", 4, "--spacing", 100,
               "--buildings-per-cell", 2, "--seed", 9, "--out", d / "scen.json") == 0
    assert run("jobs", "gen", "--scenario", d / "scen.json", "--sets", 2,
               "--per-set", 6, "--medical", 2, "--seed", 4,
               "--out", d / "jobs.json") == 0
    assert run("jobs", "gen", "--scenario", d / "scen.json", "--sets", 1,
               "--per-set", 15, "--medical", 5, "--seed", 4, "--out", d / "jobs15.json") == 0
    assert run("plan", "--scenario", d / "scen.json", "--jobs", d / "jobs.json",
               "--out", d / "plan0.json") == 0
    (d / "no_sets.json").write_text("[]")
    return d


def test_scenario_validate_good(workdir):
    assert run("scenario", "validate", workdir / "scen.json") == 0


def test_scenario_validate_bad_file(workdir, capsys):
    data = json.loads((workdir / "scen.json").read_text())
    data["nodes"].append({"id": 999, "x": 9e3, "y": 9e3})
    bad = workdir / "bad_scen.json"
    bad.write_text(json.dumps(data))
    assert run("scenario", "validate", bad) == 2
    assert "graph not connected" in capsys.readouterr().err


def test_plan_simulate_netsim_chain(workdir):
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs",
               workdir / "jobs.json", "--set-index", 0, "--drones", 2,
               "--out", workdir / "plan.json") == 0
    plan = json.loads((workdir / "plan.json").read_text())
    assert {"truck", "sorties", "completion"} <= set(plan)
    assert {"stops", "node_path", "timetable"} <= set(plan["truck"])
    assert run("simulate", "--scenario", workdir / "scen.json", "--plan",
               workdir / "plan.json", "--jobs", workdir / "jobs.json",
               "--out", workdir / "trace.csv") == 0
    header = (workdir / "trace.csv").read_text().splitlines()[0]
    assert header == "time_s,kind,vehicle,job,node,x,y,z"
    assert run("netsim", "--scenario", workdir / "scen.json", "--trace",
               workdir / "trace.csv", "--seed", 7, "--out", workdir / "net") == 0
    assert (workdir / "net" / "net_summary.csv").exists()
    assert (workdir / "net" / "net_results.csv").exists()


def test_plan_without_prioritize_flag(workdir):
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs",
               workdir / "jobs.json", "--no-prioritize", "--drones", 0,
               "--out", workdir / "plan0.json") == 0


def test_sweep_and_manifest_rerun_byte_identical(workdir):
    out1 = workdir / "sweep1"
    out2 = workdir / "sweep2"
    assert run("sweep", "--out", out1, "--sets", 2, "--drones", "0,2",
               "--seed", 123) == 0
    assert run("sweep", "--config", out1 / "manifest.json", "--out", out2) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "capacity_curves.csv").read_bytes() == \
        (out2 / "capacity_curves.csv").read_bytes()
    assert (out1 / "net_summary.csv").read_bytes() == \
        (out2 / "net_summary.csv").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert configs_in_summary(out1) == [(0, 0), (0, 1), (2, 0), (2, 1)]


def test_sweep_respects_flag_overrides_over_config(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sets": 5, "drone_counts": [0],
                               "grid_rows": 3, "grid_cols": 3,
                               "prioritize_flags": [True]}))
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--sets", 1, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_sets"] == 1      # flag won
    assert manifest["config"]["grid_rows"] == 3   # config kept


def test_report_prints_table(workdir, capsys):
    assert run("report", "--in", workdir / "sweep1") == 0
    out = capsys.readouterr().out
    assert "drones" in out and "medical" in out
    assert "net " in out


def test_config_error_exit_code(workdir, capsys):
    assert run("sweep", "--drones", "zero", "--out", workdir / "x") == 2
    # more drones than the planner keeps state for: rejected before any run
    assert run("sweep", "--drones", "1,2000", "--out", workdir / "x") == 2
    assert ("drone_counts[1] must be an integer >= 0 and <= 1000, got 2000"
            in capsys.readouterr().err)
    assert not (workdir / "x").exists()
    assert run("sweep", "--sets", 0, "--out", workdir / "x") == 2
    missing = workdir / "does_not_exist.json"
    assert run("scenario", "validate", missing) == 2


# one set of 4 jobs and no net phase: a sweep that runs in well under a second
_ONE_SMALL_SET = {"n_sets": 1, "per_set": 4, "medical_per_set": 1, "drone_counts": [0, 1],
                  "net_models": []}


@pytest.mark.parametrize("config,message", [
    # the ids keep the names these cases had before the messages took the
    # "<path>: must be <kind>, got <value>" form, or the wording of the check
    # that owns the bound
    pytest.param({"n_sets": "2"}, "n_sets: must be an integer, got '2'",
                 id="config0-n_sets must be an integer"),
    pytest.param({"n_sets": True}, "n_sets: must be an integer, got True",
                 id="config1-n_sets must be an integer"),
    pytest.param({"drone_counts": "0,1"}, "drone_counts: must be a list, got '0,1'",
                 id="config2-drone_counts must be a list of integers"),
    pytest.param({"prioritize_flags": [1]}, "prioritize_flags[0]: must be true or false",
                 id="config3-prioritize_flags must be a list of booleans"),
    pytest.param({"net_models": [["csma"]]}, "net_models[0]: must be a string",
                 id="config4-net_models must be a list of strings"),
    pytest.param({"grid_spacing": "NaN"}, "grid_spacing: must be a number, got 'NaN'",
                 id="config5-grid_spacing must be a number"),
    pytest.param({"grid_spacing": float("nan")},
                 "error: spacing must be positive and finite, got nan",
                 id="config6-grid_spacing must be positive and finite"),
    ({"buildings_per_cell": -1}, "buildings_per_cell must be >= 0"),
    ({"net_trace_set": 2, "n_sets": 2}, "net_trace_set 2 out of range"),
    pytest.param({"net_trace_drones": -1},
                 "net_trace_drones must be an integer >= 0 and <= 1000, got -1",
                 id="config9-net_trace_drones must be >= 0"),
    ({"fleet": {"drone_speed": -5}}, "fleet.drone_speed must be positive"),
    pytest.param({"fleet": {"drone_speed": "fast"}},
                 "fleet.drone_speed: must be a finite number, got 'fast'",
                 id="config11-fleet.drone_speed must be a finite number"),
    ({"fleet": {"drone_count": 2}}, "cannot set drone_count"),
    ({"channel": {"logistic_width_db": 0}}, "logistic width must be positive"),
    pytest.param([1, 2], "config: must be an object, got [1, 2]",
                 id="config14-config must be a JSON object"),
    ({"net_models": ["bogus"]}, "unknown net model 'bogus'"),
    pytest.param({"net_trace_drones": 2000},
                 "net_trace_drones must be an integer >= 0 and <= 1000, got 2000",
                 id="config16-net_trace_drones must be >= 0 and <= 1000"),
    pytest.param({"drone_counts": [0, 1001]},
                 "drone_counts[1] must be an integer >= 0 and <= 1000, got 1001",
                 id="config17-drone_counts must be non-empty, each >= 0 and <= 1000"),
    pytest.param({"grid_spacing": 1.0},
                 "error: spacing must be above 10.0 m (twice the 5.0 m building margin) "
                 "when cells hold buildings, got 1.0",
                 id="grid_spacing-below-the-building-margins"),
    pytest.param({"grid_spacing": 10.0},
                 "error: spacing must be above 10.0 m (twice the 5.0 m building margin) "
                 "when cells hold buildings, got 10.0",
                 id="grid_spacing-at-the-building-margins"),
    # spacings whose world the coordinates cannot hold: rejected before it is built
    pytest.param({"grid_spacing": 10.000000000000002},
                 "error: spacing must leave buildings at least 8.34e-06 m wide (2**-23 of the "
                 "8x8 grid's extent), got 10.000000000000002",
                 id="grid_spacing-buildings-too-narrow-for-the-coordinates"),
    pytest.param({"grid_spacing": 1e300},
                 "error: spacing must keep the 8x8 grid within 4194304 m across, got 1e+300",
                 id="grid_spacing-1e300"),
    pytest.param({"grid_spacing": 1e308},
                 "error: spacing must keep the 8x8 grid within 4194304 m across, got 1e+308",
                 id="grid_spacing-1e308"),
    pytest.param({"solver": "exact", "n_sets": 2, "per_set": 15, "net_models": []},
                 "exact solver limited to 12 stops, got 16", id="exact-solver-unprioritized"),
    pytest.param({"solver": "exact", "per_set": 25, "medical_per_set": 5,
                  "prioritize_flags": [True]},
                 "exact solver limited to 12 stops, got 21", id="exact-solver-prioritized"),
    pytest.param({"solver": "exact", "per_set": 12, "medical_per_set": 0,
                  "prioritize_flags": [True]},
                 "exact solver limited to 12 stops, got 13", id="exact-solver-no-medical"),
    pytest.param({"channel": {"carrier_sense_m": -800}},
                 "carrier_sense_m must be positive, got -800", id="negative-carrier-sense"),
    pytest.param({"channel": {"carrier_sense_m": 0}},
                 "carrier_sense_m must be positive, got 0", id="zero-carrier-sense"),
    # a config is valid only when every field is: the grid fields too when a
    # scenario file replaces the generated world
    pytest.param({**_ONE_SMALL_SET, "scenario_path": "{d}/scen.json", "grid_rows": 1},
                 "grid needs rows >= 2 and cols >= 2, got 1x8", id="scenario-file-one-row"),
    pytest.param({**_ONE_SMALL_SET, "scenario_path": "{d}/scen.json", "grid_spacing": 5.0},
                 "spacing must be above 10.0 m", id="scenario-file-spacing-below-the-margins"),
    # the world-size bound, just above it: rejected before anything is built
    pytest.param({"grid_rows": MAX_NODES // 100 + 1, "grid_cols": 100, "buildings_per_cell": 0},
                 f"a {MAX_NODES // 100 + 1}x100 grid with 0 buildings per cell exceeds "
                 f"{MAX_NODES} nodes", id="grid-above-the-node-bound"),
    pytest.param({**_ONE_SMALL_SET, "grid_rows": 2, "grid_cols": 2,
                  "buildings_per_cell": MAX_BUILDINGS + 1},
                 f"exceeds {MAX_NODES} nodes or {MAX_BUILDINGS} buildings",
                 id="grid-above-the-building-bound"),
    # a generated world without buildings has nothing to deliver to: rejected
    # before the world is built
    pytest.param({**_ONE_SMALL_SET, "buildings_per_cell": 0},
                 "jobs need at least one building to deliver to, got 0",
                 id="generated-world-without-buildings"),
])
def test_bad_config_values_exit_2(workdir, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config).replace("{d}", str(workdir)))
    assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_TINY_SWEEP = {"grid_rows": 3, "grid_cols": 3, "n_sets": 2, "per_set": 4,
               "medical_per_set": 1, "drone_counts": [0, 1]}


def test_huge_carrier_sense_range_runs_the_net_phase(tmp_path, capsys):
    # the range is squared as cs * cs, which gives inf where ** 2 overflowed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_TINY_SWEEP, "channel": {"carrier_sense_m": 1e308}}))
    assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["net_error"] is None
    assert (tmp_path / "o" / "net_summary.csv").exists()


def test_slow_truck_sweep_exit_2_before_the_capacity_curve(tmp_path, capsys):
    # a truck at 1e-9 m/s completes after ~5e11 s: a curve of one point per
    # minute up to there would exhaust memory
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_TINY_SWEEP, "net_models": [],
                               "fleet": {"truck_speed": 1e-9}}))
    assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "past the capacity curve's horizon of 604800.0 s" in err
    assert "Traceback" not in err
    # the summary runs before anything is written, so --out is never created
    assert not (tmp_path / "o").exists()


def test_truck_at_3e_6_mps_sweep_ends_and_exits_2(tmp_path, capsys):
    # travel times near 1e8 s: 2-opt's move deltas carry more rounding than
    # its eps, and moves that tie kept it sweeping forever
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fleet": {"truck_speed": 3e-6}}))
    with deadline(30):
        assert run("sweep", "--config", cfg, "--sets", 1, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "past the capacity curve's horizon of 604800.0 s" in err
    assert "Traceback" not in err


def test_plan_on_roads_at_3e_6_mps_ends(workdir, tmp_path):
    data = json.loads((workdir / "scen.json").read_text())
    for edge in data["edges"]:
        edge["speed_mps"] = 3e-6
    (tmp_path / "slow.json").write_text(json.dumps(data))
    with deadline(30):
        assert run("plan", "--scenario", tmp_path / "slow.json", "--jobs",
                   workdir / "jobs15.json", "--out", tmp_path / "plan.json") == 0


@pytest.mark.parametrize("out", ["f", "f/o"])
def test_sweep_out_under_a_regular_file_exits_2_before_the_sweep(tmp_path, capsys,
                                                                  monkeypatch, out):
    (tmp_path / "f").write_text("")
    monkeypatch.setattr(experiment, "run_sweep", lambda cfg: pytest.fail("sweep ran"))
    assert run("sweep", "--sets", 1, "--out", tmp_path / out) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'f'} is not a directory" in err
    assert "Traceback" not in err


def test_exact_solver_config_counts_the_prioritized_subtours():
    # a prioritized set of 15 with 5 medical solves tours of 6 and 11 stops
    cfg = experiment.ExperimentConfig.from_dict({"solver": "exact", "per_set": 15,
                                                 "medical_per_set": 5,
                                                 "prioritize_flags": [True]})
    assert cfg.solver == "exact"


def test_nonfinite_spacing_exit_2(tmp_path, capsys):
    for spacing in ("nan", "inf"):
        assert run("scenario", "gen", "--spacing", spacing, "--out", tmp_path / "s.json") == 2
        assert f"spacing must be positive and finite, got {spacing}" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_plan_repeated_job_id_exit_2(workdir, capsys):
    data = json.loads((workdir / "jobs.json").read_text())
    data[0]["jobs"][1]["id"] = data[0]["jobs"][0]["id"]
    bad = workdir / "dup_jobs.json"
    bad.write_text(json.dumps(data))
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", bad,
               "--drones", 1, "--out", workdir / "dup_plan.json") == 2
    assert "repeated job id" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda p: p.update(fleet={"bogus": 1}), "bogus", id="unknown-fleet-key"),
    pytest.param(lambda p: p["fleet"].update(drone_count="2"),
                 "plan.fleet.drone_count: must be an integer, got '2'",
                 id="string-drone-count"),
    pytest.param(lambda p: p["fleet"].update(drone_count=1.5),
                 "plan.fleet.drone_count: must be an integer, got 1.5",
                 id="fractional-drone-count"),
    pytest.param(lambda p: p["fleet"].update(drone_speed=-5), "drone_speed must be positive",
                 id="negative-speed"),
    pytest.param(lambda p: p["fleet"].update(drone_speed=float("nan")),
                 "plan.fleet.drone_speed: must be a finite number, got nan", id="nan-speed"),
    pytest.param(lambda p: p.update(fleet=None), "plan.fleet: must be an object, got None",
                 id="null-fleet"),
    pytest.param(lambda p: p["truck"].update(timetable=[]), "timetable has 0 rows",
                 id="empty-timetable"),
    pytest.param(lambda p: p["truck"].update(node_path=[], timetable=[]),
                 "timetable has 0 rows", id="empty-path"),
    pytest.param(lambda p: p["truck"]["timetable"].__setitem__(0, [0.0]),
                 "plan.truck.timetable[0]: must be a list of length 2, got [0.0]",
                 id="short-timetable-row"),
    pytest.param(lambda p: p["truck"]["node_path"].__setitem__(-1, 999),
                 "path node 999 not in scenario graph", id="path-node-off-graph"),
    pytest.param(lambda p: p["truck"]["stops"][0].update(path_index=-1),
                 "outside path", id="stop-index-outside-path"),
    pytest.param(lambda p: p["truck"]["node_path"].__setitem__(1, 15),
                 "is not a road edge", id="path-step-off-road"),
    pytest.param(lambda p: p["sorties"][0].update(drone_id=5),
                 "uses drone 5 outside fleet of 1", id="sortie-drone-outside-fleet"),
    pytest.param(lambda p: p["sorties"][0].update(launch_node=999),
                 "references nodes off the truck path", id="sortie-node-off-path"),
    pytest.param(lambda p: [s.pop(k) for s in p["sorties"] for k in ("target_x", "target_y")],
                 "plan.sorties[0]: missing field 'target_x'", id="sortie-without-target"),
])
def test_simulate_bad_plan_file_exit_2(workdir, tmp_path, capsys, edit, message):
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", workdir / "jobs.json",
               "--drones", 1, "--out", tmp_path / "plan.json") == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    edit(plan)
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert run("simulate", "--scenario", workdir / "scen.json", "--plan", tmp_path / "plan.json",
               "--out", tmp_path / "trace.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.fixture(scope="module")
def chain(workdir):
    """A one-drone plan of set 0 and its trace, next to the workdir's inputs."""
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", workdir / "jobs.json",
               "--drones", 1, "--out", workdir / "chain_plan.json") == 0
    assert run("simulate", "--scenario", workdir / "scen.json", "--plan",
               workdir / "chain_plan.json", "--out", workdir / "chain_trace.csv") == 0
    return workdir


def test_netsim_unknown_model_exit_2_before_any_output(chain, tmp_path, capsys):
    out = tmp_path / "net"
    assert run("netsim", "--scenario", chain / "scen.json", "--trace", chain / "chain_trace.csv",
               "--models", "centralized,bogus", "--out", out) == 2
    assert "unknown net model 'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("models,message", [
    ("csma,csma", "net models must not repeat a name, got ['csma', 'csma']"),
    ("", "need at least one net model"),
], ids=["repeated", "empty"])
def test_netsim_bad_model_list_exit_2_before_any_output(chain, tmp_path, capsys, models,
                                                        message):
    out = tmp_path / "net"
    assert run("netsim", "--scenario", chain / "scen.json", "--trace", chain / "chain_trace.csv",
               "--models", models, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda rows: rows[-1].update(time_s="nan"),
                 "row {n}: time and position must be finite", id="nan-time"),
    pytest.param(lambda rows: rows[1].update(x="inf"),
                 "row 2: time and position must be finite", id="inf-x"),
    pytest.param(lambda rows: rows.append(rows.pop(0)),
                 "row {n}: time 0.0 s is before the previous row's ", id="first-row-last"),
])
def test_netsim_bad_trace_rows_exit_2(chain, tmp_path, capsys, edit, message):
    """A trace row with a non-finite time or position, or a time before the
    previous row's, ends in exit 2 naming the row, before any output."""
    with open(chain / "chain_trace.csv", newline="") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames, list(reader)
    assert rows[0]["time_s"] == "0.0" and rows[0]["kind"] == "drone_launch"
    edit(rows)
    trace = tmp_path / "trace.csv"
    with open(trace, "w", newline="") as f:
        writer = csv.DictWriter(f, header)
        writer.writeheader()
        writer.writerows(rows)
    shutil.copy(chain / _SIDECAR, tmp_path / "trace.csv.traj.json")
    out = tmp_path / "net"
    capsys.readouterr()
    assert run("netsim", "--scenario", chain / "scen.json", "--trace", trace, "--out", out) == 2
    assert f"{trace}: " + message.format(n=len(rows)) in capsys.readouterr().err
    assert not out.exists()


def _netsim_lines(out, capsys, *argv):
    """netsim's requirement lines on stdout, without its closing 'wrote' line."""
    capsys.readouterr()
    assert run("netsim", *argv, "--out", out) == 0
    *lines, wrote = capsys.readouterr().out.splitlines()
    assert wrote == f"wrote {out}/net_results.csv and net_summary.csv"
    return lines


def test_netsim_on_a_sweep_trace_matches_the_sweep(tmp_path, capsys):
    sweep = tmp_path / "sweep"
    assert run("sweep", "--out", sweep, "--sets", 1, "--drones", 2, "--prioritize", "on",
               "--seed", 11) == 0
    lines = _netsim_lines(tmp_path / "net", capsys, "--scenario", sweep / "scenario.json",
                          "--trace", sweep / "net_trace.csv", "--seed", 11)
    for name in ("net_results.csv", "net_summary.csv"):
        assert (tmp_path / "net" / name).read_bytes() == (sweep / name).read_bytes()
    manifest = json.loads((sweep / "manifest.json").read_text())
    assert lines == manifest["requirement_checks"]
    assert len(lines) == 3 * 3


def test_trace_without_airborne_drones_reports_no_traffic(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_rows": 4, "grid_cols": 4, "per_set": 4,
                               "medical_per_set": 1, "drone_counts": [0, 1],
                               "net_trace_drones": 0}))
    sweep = tmp_path / "sweep"
    assert run("sweep", "--config", cfg, "--sets", 1, "--out", sweep) == 0
    expected = [f"[{m}] no CAM traffic in the trace" for m in ("centralized", "csma", "sps")]
    assert json.loads((sweep / "manifest.json").read_text())["requirement_checks"] == expected
    assert _netsim_lines(tmp_path / "net", capsys, "--scenario", sweep / "scenario.json",
                         "--trace", sweep / "net_trace.csv") == expected


def test_simulate_plan_without_fleet_needs_drones(chain, tmp_path, capsys):
    """A plan file without a fleet simulates only with --drones, and then as
    with the fleet it had."""
    data = json.loads((chain / "chain_plan.json").read_text())
    drones = data.pop("fleet")["drone_count"]
    bare = tmp_path / "plan.json"
    bare.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("simulate", "--scenario", chain / "scen.json", "--plan", bare,
               "--out", tmp_path / "trace.csv") == 2
    assert "plan file lacks a fleet; pass --drones" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bare]
    assert run("simulate", "--scenario", chain / "scen.json", "--plan", bare,
               "--drones", drones, "--out", tmp_path / "trace.csv") == 0
    for name in ("trace.csv", "trace.csv.traj.json"):
        assert (tmp_path / name).read_bytes() == (chain / f"chain_{name}").read_bytes()


def test_simulate_with_another_set_exit_2(chain, tmp_path, capsys):
    # the plan was made for set 0; set 1 has the same job ids at other targets
    capsys.readouterr()
    assert run("simulate", "--scenario", chain / "scen.json", "--plan",
               chain / "chain_plan.json", "--jobs", chain / "jobs.json", "--set-index", 1,
               "--out", tmp_path / "trace.csv") == 2
    err = capsys.readouterr().err
    assert "chain_plan.json does not fit set 1 of" in err
    assert ": job 0: " in err
    assert not (tmp_path / "trace.csv").exists()


def _medical_ids(workdir):
    return {j["id"] for j in json.loads((workdir / "jobs.json").read_text())[0]["jobs"]
            if j["category"] == "medical"}


def test_prioritized_plan_serving_a_standard_stop_first_exit_2(workdir, tmp_path, capsys):
    """A plain plan, relabelled prioritized with its medical stops listed
    first: the check follows the path, not the listing."""
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", workdir / "jobs.json",
               "--no-prioritize", "--out", tmp_path / "plan.json") == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    medical = _medical_ids(workdir)
    stops = plan["truck"]["stops"]
    on_path = [s["job"] in medical for s in sorted(stops, key=lambda s: s["path_index"])]
    assert on_path != sorted(on_path, reverse=True)  # a standard stop comes first
    plan["truck"]["stops"] = sorted(stops, key=lambda s: s["job"] not in medical)
    plan["prioritized"] = True
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert run("simulate", "--scenario", workdir / "scen.json", "--plan", tmp_path / "plan.json",
               "--jobs", workdir / "jobs.json", "--out", tmp_path / "trace.csv") == 2
    assert "medical truck stop after a standard one" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_prioritized_plan_listed_out_of_path_order_passes(workdir, tmp_path):
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", workdir / "jobs.json",
               "--prioritize", "--drones", 1, "--out", tmp_path / "plan.json") == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["prioritized"] and len(plan["truck"]["stops"]) > 1
    plan["truck"]["stops"].reverse()
    (tmp_path / "reversed.json").write_text(json.dumps(plan))
    for name in ("plan", "reversed"):
        assert run("simulate", "--scenario", workdir / "scen.json", "--plan",
                   tmp_path / f"{name}.json", "--jobs", workdir / "jobs.json",
                   "--out", tmp_path / f"{name}.csv") == 0
    for suffix in (".csv", ".csv.traj.json"):
        assert (tmp_path / f"reversed{suffix}").read_bytes() == \
            (tmp_path / f"plan{suffix}").read_bytes()


def test_plan_breaking_an_invariant_exit_1(workdir, tmp_path, monkeypatch, capsys):
    real = cli.plan_hybrid

    def drop_a_stop(*args):
        plan = real(*args)
        plan.truck_stops.pop()
        return plan

    monkeypatch.setattr(cli, "plan_hybrid", drop_a_stop)
    capsys.readouterr()
    assert run("plan", "--scenario", workdir / "scen.json", "--jobs", workdir / "jobs.json",
               "--drones", 1, "--out", tmp_path / "plan.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: new plan breaks an invariant: served jobs ")
    assert not (tmp_path / "plan.json").exists()


_SIDECAR = "chain_trace.csv.traj.json"


def _put(path, key, value):
    def edit(data):
        for k in path:
            data = data[k]
        data[key] = value
    return edit


def _cut(trajectory, n):
    """Keep a sidecar trajectory's first n samples."""
    for axis in "txyz":
        del trajectory[axis][n:]


def _slow_parallel_edges(scenario):
    scenario["edges"] += [dict(e, speed_mps=e["speed_mps"] / 2) for e in scenario["edges"]]


def _second_stop_at_first_position(plan):
    plan["truck"]["stops"][1]["path_index"] = plan["truck"]["stops"][0]["path_index"]


def _first_sortie_later(key, dt, completion):
    def edit(plan):
        sortie = plan["sorties"][0]
        sortie[key] += dt
        if completion:
            plan["completion"][str(sortie["job_id"])] += dt
    return edit


@pytest.mark.parametrize("drones,name,edit,with_jobs,message", [
    pytest.param(1, "plan.json", _put(["fleet"], "truck_speed", 4.0), True,
                 "truck timetable at path position ", id="edited-truck-speed"),
    pytest.param(1, "scen.json", _slow_parallel_edges, True, "parallel edges: ",
                 id="half-speed-parallel-edges"),
    pytest.param(0, "plan.json", _second_stop_at_first_position, False,
                 "stop at path position ", id="two-stops-at-one-position"),
    pytest.param(1, "plan.json", _first_sortie_later("deliver_time", 5.0, True), True,
                 "job 0: sortie is not the planner's flight ", id="sortie-delivered-5s-later"),
    pytest.param(1, "plan.json", _first_sortie_later("rendezvous_time", 1e-7, False), False,
                 "job 0: sortie is not the planner's flight ", id="sortie-rejoins-1e-7s-later"),
])
def test_simulate_plan_off_its_timetable_exit_2(workdir, tmp_path, capsys, drones, name, edit,
                                                with_jobs, message):
    """A plan whose truck times do not follow from the road, the fleet and its
    stops, or whose sortie is not the planner's flight, is not simulated."""
    for f in ("scen.json", "jobs.json"):
        shutil.copy(workdir / f, tmp_path / f)
    assert run("plan", "--scenario", tmp_path / "scen.json", "--jobs", tmp_path / "jobs.json",
               "--drones", drones, "--out", tmp_path / "plan.json") == 0
    data = json.loads((tmp_path / name).read_text())
    edit(data)
    (tmp_path / name).write_text(json.dumps(data))
    jobs = ["--jobs", tmp_path / "jobs.json"] if with_jobs else []
    capsys.readouterr()
    assert run("simulate", "--scenario", tmp_path / "scen.json", "--plan",
               tmp_path / "plan.json", *jobs, "--out", tmp_path / "trace.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("name,edit,message", [
    pytest.param("scen.json", _put(["nodes", 0], "id", "x"),
                 "scenario.nodes[0].id: must be an integer, got 'x'", id="node-id-string"),
    pytest.param("scen.json", _put(["nodes", 0], "id", 0.7),
                 "scenario.nodes[0].id: must be an integer, got 0.7", id="node-id-fraction"),
    pytest.param("scen.json", _put(["buildings", 0, "footprint"], 0, [1.0, 2.0, 3.0]),
                 "scenario.buildings[0].footprint[0]: must be a list of length 2",
                 id="footprint-vertex-3d"),
    pytest.param("scen.json", _put([], "base_station", 30),
                 "scenario.base_station: must be a list of length 3, got 30",
                 id="numeric-base-station"),
    pytest.param("scen.json", _put(["buildings"], 0, None),
                 "scenario.buildings[0]: must be an object, got None", id="null-building"),
    pytest.param("scen.json", _put([], "edges", None),
                 "scenario.edges: must be a list, got None", id="null-edges"),
    pytest.param("scen.json", _put([], "nodes", {}),
                 "scenario.nodes: must be a list, got {}", id="nodes-object"),
    pytest.param("scen.json", _put([], "depot", 0.9),
                 "scenario.depot: must be an integer, got 0.9", id="fractional-depot"),
    pytest.param("scen.json", _put(["buildings", 0], "height_m", "10"),
                 "scenario.buildings[0].height_m: must be a number, got '10'",
                 id="string-height"),
    pytest.param("jobs.json", _put([0, "jobs", 0], "building", 3.5),
                 "sets[0].jobs[0].building: must be an integer, got 3.5",
                 id="fractional-building"),
    pytest.param("jobs.json", _put([0, "jobs", 0], "building", True),
                 "sets[0].jobs[0].building: must be an integer, got True", id="bool-building"),
    pytest.param("chain_plan.json", _put(["truck", "node_path"], 0, 0.5),
                 "plan.truck.node_path[0]: must be an integer, got 0.5",
                 id="fractional-path-node"),
    pytest.param("chain_plan.json", _put(["truck", "timetable", 0], 0, float("nan")),
                 "plan.truck.timetable[0][0]: must be a finite number, got nan",
                 id="nan-timetable"),
    pytest.param("chain_plan.json", _put([], "prioritized", "false"),
                 "plan.prioritized: must be true or false, got 'false'",
                 id="string-prioritized"),
    pytest.param("chain_plan.json", _put([], "completion", []),
                 "plan.completion: must be an object, got []", id="completion-list"),
    pytest.param(_SIDECAR, "{not json", f"{_SIDECAR}: line 1 col 2", id="sidecar-not-json"),
    pytest.param(_SIDECAR, lambda d: d.pop("completion"),
                 "sidecar: missing field 'completion'", id="sidecar-no-completion"),
    pytest.param(_SIDECAR, lambda d: d["trajectories"]["truck"]["x"].pop(),
                 "sidecar.trajectories.truck: t, x, y and z must be non-empty and of one "
                 "length", id="sidecar-ragged"),
    pytest.param(_SIDECAR, lambda d: d["trajectories"]["truck"]["t"].reverse(),
                 "sidecar.trajectories.truck.t: must be strictly increasing",
                 id="sidecar-reversed-t"),
    pytest.param(_SIDECAR, lambda d: d["trajectories"].pop("truck"),
                 "sidecar.trajectories: missing vehicle 'truck'", id="sidecar-no-truck"),
    pytest.param(_SIDECAR, lambda d: d.update(trajectories={"truck": d["trajectories"]["truck"]}),
                 "sidecar.trajectories: missing vehicle 'drone0'", id="sidecar-no-drone"),
    pytest.param(_SIDECAR, lambda d: _cut(d["trajectories"]["truck"], 2),
                 "sidecar.trajectories.truck.t: ends at ", id="sidecar-short-truck"),
    pytest.param(_SIDECAR, lambda d: _cut(d["trajectories"]["drone0"], 2),
                 "sidecar.trajectories.drone0.t: ends at ", id="sidecar-short-drone"),
])
def test_malformed_input_file_exit_2(chain, tmp_path, capsys, name, edit, message):
    """A malformed file ends in exit 2 with an error naming the path of the bad value."""
    for f in ("scen.json", "jobs.json", "chain_plan.json", "chain_trace.csv", _SIDECAR):
        shutil.copy(chain / f, tmp_path / f)
    path = tmp_path / name
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
    scen = tmp_path / "scen.json"
    command = {
        "scen.json": ["scenario", "validate", path],
        "jobs.json": ["plan", "--scenario", scen, "--jobs", path, "--drones", 1,
                      "--out", tmp_path / "out.json"],
        "chain_plan.json": ["simulate", "--scenario", scen, "--plan", path,
                            "--out", tmp_path / "out.csv"],
        _SIDECAR: ["netsim", "--scenario", scen, "--trace", tmp_path / "chain_trace.csv",
                   "--out", tmp_path / "net"],
    }[name]
    capsys.readouterr()
    assert run(*command) == 2
    assert message in capsys.readouterr().err
    assert not any((tmp_path / out).exists() for out in ("out.json", "out.csv", "net"))


_SUMMARY = ("drones,prioritized,category,mean_s,median_s,capacity_20min\n"
            "0,0,medical,600.0,590.0,0.9\n")


@pytest.mark.parametrize("files,message", [
    pytest.param({"manifest.json": "{"}, "manifest.json: line 1 col 2", id="manifest-not-json"),
    pytest.param({"manifest.json": "[]"}, "manifest: must be an object, got []",
                 id="manifest-list"),
    pytest.param({"summary.csv": _SUMMARY.replace(",capacity_20min", "")},
                 "summary.csv: missing column 'capacity_20min'", id="summary-missing-column"),
    pytest.param({"summary.csv": _SUMMARY.replace("600.0", "x")},
                 "summary.csv: row 1, column 'mean_s': must be a number, got 'x'",
                 id="summary-mean-not-a-number"),
    pytest.param({"net_summary.csv": "model,sent,delivered,pdr,lat_p50_ms,lat_p95_ms\n"
                                     "csma,10,9,0.9,,\nsps,10,9,0.9,1.5,high\n"},
                 "net_summary.csv: row 2, column 'lat_p95_ms': must be a number, got 'high'",
                 id="net-summary-latency-not-a-number"),
])
def test_report_bad_input_exit_2(tmp_path, capsys, files, message):
    (tmp_path / "summary.csv").write_text(_SUMMARY)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run("report", "--in", tmp_path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["plan", "--scenario", "{d}/scen.json", "--jobs", "{d}/jobs.json",
                  "--drones", -1, "--out", "{t}/plan.json"],
                 "drone_count must be an integer >= 0", id="plan-negative-drones"),
    pytest.param(["plan", "--scenario", "{d}/scen.json", "--jobs", "{d}/jobs.json",
                  "--drones", 1001, "--out", "{t}/plan.json"],
                 "drone_count must be an integer >= 0 and <= 1000", id="plan-too-many-drones"),
    pytest.param(["plan", "--scenario", "{d}/scen.json", "--jobs", "{d}/jobs15.json",
                  "--no-prioritize", "--solver", "exact", "--out", "{t}/plan.json"],
                 "exact solver limited to 12 stops, got 16", id="plan-exact-solver-too-many-stops"),
    pytest.param(["jobs", "gen", "--scenario", "{d}/scen.json", "--medical", 5,
                  "--per-set", 3, "--out", "{t}/jobs.json"],
                 "medical_per_set must be >= 0 and <= per_set 3, got 5",
                 id="jobs-medical-above-per-set"),
    pytest.param(["scenario", "gen", "--rows", 1, "--out", "{t}/scen.json"],
                 "grid needs rows >= 2", id="scenario-one-row"),
    pytest.param(["jobs", "gen", "--scenario", "{d}/scen.json", "--medical", -1,
                  "--out", "{t}/jobs.json"],
                 "medical_per_set must be >= 0 and <= per_set 15, got -1",
                 id="jobs-negative-medical"),
    pytest.param(["scenario", "gen", "--spacing", 5, "--out", "{t}/scen.json"],
                 "spacing must be above 10.0 m", id="scenario-spacing-below-the-building-margins"),
    pytest.param(["scenario", "gen", "--spacing", 10, "--out", "{t}/scen.json"],
                 "spacing must be above 10.0 m", id="scenario-spacing-at-the-building-margins"),
    # spacings whose world the coordinates cannot hold: rejected before it is built
    pytest.param(["scenario", "gen", "--spacing", 10.000000000000002, "--out", "{t}/scen.json"],
                 "spacing must leave buildings at least 8.34e-06 m wide (2**-23 of the 8x8 "
                 "grid's extent), got 10.000000000000002",
                 id="scenario-spacing-buildings-too-narrow-for-the-coordinates"),
    pytest.param(["scenario", "gen", "--spacing", 1e300, "--out", "{t}/scen.json"],
                 "spacing must keep the 8x8 grid within 4194304 m across, got 1e+300",
                 id="scenario-spacing-1e300"),
    pytest.param(["scenario", "gen", "--spacing", 1e308, "--out", "{t}/scen.json"],
                 "spacing must keep the 8x8 grid within 4194304 m across, got 1e+308",
                 id="scenario-spacing-1e308"),
    pytest.param(["plan", "--scenario", "{d}/scen.json", "--jobs", "{d}/no_sets.json",
                  "--out", "{t}/plan.json"],
                 "error: the jobs file holds no sets", id="plan-jobs-file-without-sets"),
    pytest.param(["simulate", "--scenario", "{d}/scen.json", "--plan", "{d}/plan0.json",
                  "--jobs", "{d}/no_sets.json", "--out", "{t}/trace.csv"],
                 "error: the jobs file holds no sets", id="simulate-jobs-file-without-sets"),
    # the world-size bound, just above it: rejected before anything is built
    pytest.param(["scenario", "gen", "--rows", MAX_NODES // 100 + 1, "--cols", 100,
                  "--buildings-per-cell", 0, "--out", "{t}/scen.json"],
                 f"exceeds {MAX_NODES} nodes", id="scenario-above-the-node-bound"),
    pytest.param(["scenario", "gen", "--rows", 2, "--cols", 2,
                  "--buildings-per-cell", MAX_BUILDINGS + 1, "--out", "{t}/scen.json"],
                 f"{MAX_BUILDINGS} buildings", id="scenario-above-the-building-bound"),
])
def test_flag_precondition_exit_2(workdir, tmp_path, capsys, argv, message):
    argv = [str(a).format(d=workdir, t=tmp_path) for a in argv]
    assert run(*argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_builds_the_world_once(tmp_path, monkeypatch):
    """The sweep's runs and the net phase plan on the world that was saved."""
    from hybridfleet import experiment
    calls = []
    real = experiment.generate_grid_scenario

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiment, "generate_grid_scenario", counting)
    monkeypatch.setattr(experiment, "_WORLD_CACHE", {})
    cfg = experiment.ExperimentConfig(grid_rows=4, grid_cols=4, n_sets=2, per_set=4,
                                      medical_per_set=1, drone_counts=[0, 1],
                                      net_models=["csma"], out_dir=str(tmp_path / "o"))
    assert experiment.run_experiment(cfg) == 0
    assert len(calls) == 1
    assert (tmp_path / "o" / "net_results.csv").exists()


def test_bad_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 2


def test_sweep_single_truck_only_run(tmp_path):
    out = tmp_path / "single"
    assert run("sweep", "--out", out, "--sets", 1, "--drones", "0",
               "--prioritize", "off", "--seed", 3) == 0
    assert configs_in_summary(out) == [(0, 0)]


def test_partial_failure_isolation(tmp_path, monkeypatch):
    # the exact solver handles the prioritized subproblems (6 and 11 stops)
    # but rejects the unprioritized 16-stop tour, so half the runs fail; the
    # config check would reject the sweep, so it is bypassed to fail at run time
    monkeypatch.setattr(experiment, "largest_tour", lambda *args: 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sets": 2, "per_set": 15, "medical_per_set": 5,
                               "drone_counts": [0], "solver": "exact",
                               "prioritize_flags": [False, True]}))
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out", out) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["failures"]) == 2   # the unprioritized run of each set
    assert all("exact solver" in f["error"] for f in manifest["failures"])
    # surviving runs still produced a complete summary
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("drones,")
    assert len(rows) == 1 + 3  # one surviving config x three categories


def test_failed_schedule_fails_every_drone_count_that_shares_it(tmp_path, monkeypatch):
    # one greedy run plans all drone counts of a (set, priority) pair; the
    # exact solver's limit stops its shared schedule, so each count fails
    # (with the config check that would reject the sweep bypassed)
    monkeypatch.setattr(experiment, "largest_tour", lambda *args: 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sets": 2, "per_set": 15, "medical_per_set": 5,
                               "drone_counts": [0, 1, 2], "solver": "exact",
                               "prioritize_flags": [False, True]}))
    out = tmp_path / "out"
    assert run("sweep", "--config", cfg, "--out", out) == 1
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [(f["set"], f["drones"], f["prioritized"]) for f in failures] == [
        (s, d, False) for s in (0, 1) for d in (0, 1, 2)]
    assert all("exact solver" in f["error"] and "Traceback" in f["trace"] for f in failures)
    assert configs_in_summary(out) == [(0, 1), (1, 1), (2, 1)]


@pytest.mark.parametrize("argv,config,message", [
    (["--drones", "1,1"], None,
     "drone_counts must be non-empty and must not repeat a value, got [1, 1]"),
    ([], {"prioritize_flags": [True, True]},
     "prioritize_flags must be non-empty and must not repeat a value, got [True, True]"),
    ([], {"net_models": ["csma", "csma"]},
     "net models must not repeat a name, got ['csma', 'csma']"),
], ids=["drones", "prioritize_flags", "net_models"])
def test_repeated_sweep_value_exit_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", tmp_path / "cfg.json"]
    assert run("sweep", "--sets", 1, "--seed", 3, *argv, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_run_breaking_an_invariant_fails_alone(tmp_path, monkeypatch):
    from hybridfleet import experiment
    real = experiment.plan_hybrid_counts
    shifted = []

    def shift_a_target(*args):
        plans = real(*args)
        for plan in plans.values():
            if plan.sorties and not shifted:
                plan.sorties[0].target_x += 1.0
                shifted.append(True)
        return plans

    monkeypatch.setattr(experiment, "plan_hybrid_counts", shift_a_target)
    out = tmp_path / "o"
    cfg = experiment.ExperimentConfig(grid_rows=4, grid_cols=4, n_sets=2, per_set=4,
                                      medical_per_set=1, drone_counts=[0, 1], net_models=[],
                                      out_dir=str(out))
    assert experiment.run_experiment(cfg) == 1
    [failure] = json.loads((out / "manifest.json").read_text())["failures"]
    assert (failure["set"], failure["drones"], failure["prioritized"]) == (0, 1, False)
    assert failure["error"].startswith("PlanConsistencyError: new plan breaks an invariant: job ")
    assert "sortie target" in failure["error"]
    # set 1 still fills every config's rows
    assert len((out / "summary.csv").read_text().splitlines()) == 1 + 4 * 3


def test_parallel_workers_match_serial(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "par"
    assert run("sweep", "--out", a, "--sets", 2, "--drones", "0,1",
               "--seed", 5, "--workers", 1) == 0
    assert run("sweep", "--out", b, "--sets", 2, "--drones", "0,1",
               "--seed", 5, "--workers", 2) == 0
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records each pool's size and runs
    the tasks in this process, so no test starts a pool of that size."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers,n_sets,cpus,pool", [
    (64, 3, 4, 3),       # no more processes than sets
    (64, 10, 4, 4),      # nor than CPUs
    (2, 10, 4, 2),       # nor than asked for
    (64, 10, None, None),  # an unknown CPU count runs in-process
    (5, 1, 4, None),     # so does a single set
])
def test_sweep_pool_is_capped(tmp_path, monkeypatch, workers, n_sets, cpus, pool):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    cfg = experiment.ExperimentConfig(grid_rows=4, grid_cols=4, n_sets=n_sets, per_set=4,
                                      medical_per_set=1, drone_counts=[0, 1], net_models=[],
                                      base_seed=3, out_dir=str(tmp_path / "out"),
                                      workers=workers)
    assert experiment.run_experiment(cfg) == 0
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["workers"] == workers
    serial = experiment.run_sweep(replace(cfg, workers=1))[0]
    assert experiment.run_sweep(cfg)[0] == serial
