import collections
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hybridfleet import experiment, hybrid, kernels
from hybridfleet.errors import ParameterError
from hybridfleet.hybrid import (_NO_LAUNCH, FleetConfig, HybridPlan, Sortie, TruckTimetable,
                                _candidate_bounds, _PlanContext, check_plan, load_plan,
                                plan_hybrid, plan_hybrid_counts, plan_to_dict, save_plan)
from hybridfleet.jobs import Category, DeliveryJob, DeliverySet, generate_delivery_sets
from hybridfleet.routing import job_nodes, plain_schedule, priority_schedule
from hybridfleet.scenario import Edge, Point, RoadGraph, Scenario, generate_grid_scenario

from conftest import fly, job_at, line_scenario, line_timetable, random_world, truck_dijkstra
from test_golden_plans import GOLDEN, plan_digest, _world as golden_world
from test_kernels import _oracle_build_timetable


def sortie_oracle(node_xs, truck_speed, target, drone_speed, service):
    """Brute-force earliest feasible rendezvous on the x-axis road."""
    for x in node_xs[1:]:
        out = math.hypot(target[0], target[1]) / drone_speed
        back = math.hypot(x - target[0], target[1]) / drone_speed
        t_arr = out + service + back
        t_truck = x / truck_speed
        if t_arr <= t_truck:
            return x, max(t_arr, t_truck)
    return None


def test_compute_sortie_derived_example():
    sc = line_scenario(11, 100.0, 10.0)
    tt = line_timetable(sc, truck_speed=10.0)
    fleet = FleetConfig(drone_count=1, truck_speed=10.0, drone_speed=20.0,
                        drone_service=0.0, drone_endurance=1e9)
    status, sortie = fly(sc, tt, 0, job_at(0.0, 300.0), fleet)
    oracle = sortie_oracle([i * 100 for i in range(11)], 10.0, (0.0, 300.0), 20.0, 0.0)
    assert oracle == (400, 40.0)
    assert status == kernels.SORTIE_OK
    assert sortie.launch_time == 0.0
    assert sortie.rendezvous_node == 4  # node at x = 400
    assert sortie.rendezvous_time == 40.0
    assert sortie.hover_wait == 0.0
    assert sortie.leg_out_m == pytest.approx(300.0)
    assert sortie.leg_back_m == pytest.approx(500.0)


def test_compute_sortie_endurance_exceeded():
    sc = line_scenario(11, 100.0, 10.0)
    tt = line_timetable(sc, truck_speed=10.0)
    fleet = FleetConfig(drone_count=1, truck_speed=10.0, drone_speed=20.0,
                        drone_service=0.0, drone_endurance=30.0)
    assert fly(sc, tt, 0, job_at(0.0, 300.0), fleet) == (kernels.SORTIE_ENDURANCE, None)


def test_compute_sortie_no_rendezvous_node():
    sc = line_scenario(2, 100.0, 10.0)  # two-node road
    tt = line_timetable(sc, truck_speed=100.0)  # truck outruns the drone
    fleet = FleetConfig(drone_count=1, truck_speed=100.0, drone_speed=1.0,
                        drone_service=0.0, drone_endurance=1e9)
    assert fly(sc, tt, 0, job_at(0.0, 300.0), fleet) == (kernels.SORTIE_NO_NODE, None)


def test_compute_sortie_target_on_path_node():
    sc = line_scenario(11, 100.0, 10.0)
    tt = line_timetable(sc, truck_speed=10.0)
    fleet = FleetConfig(drone_count=1, truck_speed=10.0, drone_speed=20.0,
                        drone_service=0.0, drone_endurance=1e9)
    status, sortie = fly(sc, tt, 0, job_at(0.0, 0.0), fleet)
    assert status == kernels.SORTIE_OK
    assert sortie.rendezvous_node > 0
    assert sortie.hover_wait >= 0.0


def test_compute_sortie_launch_precondition():
    sc = line_scenario(5, 100.0, 10.0)
    tt = line_timetable(sc, truck_speed=10.0)
    fleet = FleetConfig(drone_count=1)
    # a launch from the last node, and a drone free only after the truck's pass
    assert fly(sc, tt, 4, job_at(0, 0), fleet) == (_NO_LAUNCH, None)
    assert fly(sc, tt, 0, job_at(0, 0), fleet, free_at=1e6) == (_NO_LAUNCH, None)


def test_plan_zero_drones_is_pure_truck_tour():
    sc = generate_grid_scenario(5, 5, 100.0, 2, seed=19)
    dset = generate_delivery_sets(sc, 1, 8, 2, seed=6)[0]
    fleet = FleetConfig(drone_count=0)
    plan = plan_hybrid(sc, dset, fleet, prioritize=False)
    assert plan.sorties == []
    assert plan.truck_stops == plain_schedule(sc, dset, job_nodes(sc, dset), fleet.truck_speed)
    tt = plan.timetable
    for j, pos in plan.stop_positions.items():
        assert plan.completion[j] == pytest.approx(tt.depart[pos])


def test_plan_offloads_far_job_and_improves():
    # branch node 5 forces a 600 m truck detour for job 1; a drone serves it
    nodes = {i: Point(i * 100.0, 0.0) for i in range(5)}
    nodes[5] = Point(200.0, 300.0)
    edges = [Edge(i, i + 1, 100.0, 10.0) for i in range(4)]
    edges.append(Edge(2, 5, 300.0, 10.0))
    sc = Scenario(RoadGraph(nodes, edges), [], depot=0,
                  base_station=Point(200, 0, 30.0))
    dset = DeliverySet(0, [
        DeliveryJob(0, 0, Point(400.0, 0.0), Category.STANDARD),
        DeliveryJob(1, 0, Point(200.0, 300.0), Category.STANDARD),
    ])
    fleet0 = FleetConfig(drone_count=0, truck_speed=10.0)
    fleet1 = FleetConfig(drone_count=1, truck_speed=10.0)
    truck_only = plan_hybrid(sc, dset, fleet0, prioritize=False)
    hybrid = plan_hybrid(sc, dset, fleet1, prioritize=False)
    assert [s.job_id for s in hybrid.sorties] == [1]
    assert hybrid.objective < truck_only.objective - 1e-6


@pytest.mark.parametrize("case", range(60))
def test_plan_invariants_random_instances(case):
    sc, dset, fleet, prioritize = random_world(case)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    assert check_plan(plan, sc, dset, fleet) == []


def test_check_plan_names_jobs_served_away_from_their_target(grid8, grid8_set):
    fleet = FleetConfig(drone_count=2)
    plan = plan_hybrid(grid8, grid8_set, fleet, True)
    sortie = plan.sorties[0]
    sortie.target_x += 1.0
    stop = plan.truck_stops[0]
    nodes = plan.timetable.nodes
    plan.stop_positions[stop] = next(i for i, n in enumerate(nodes)
                                     if n != nodes[plan.stop_positions[stop]])
    problems = check_plan(plan, grid8, grid8_set, fleet)
    # the moved stop also moves the truck's service, so the timetable and the
    # job's completion no longer follow from the stops; the shifted target
    # also changes the sortie the planner flies
    assert sorted(p.split(":")[0] for p in problems if p.startswith("job ")) == sorted(
        [f"job {sortie.job_id}", f"job {sortie.job_id}", f"job {stop}", f"job {stop}"])
    assert any("sortie target" in p for p in problems)
    assert any(p.startswith(f"job {sortie.job_id}: sortie is not the planner's flight ")
               and "deliver_time " in p for p in problems)
    assert any("is not the job's delivery node" in p for p in problems)
    assert any(p.startswith(f"job {stop}: completion ") for p in problems)
    assert [p for p in problems if not p.startswith("job ")] == [
        p for p in problems if p.startswith("truck timetable at path position ")]
    assert len(problems) == 5


def test_check_plan_rejects_inconsistent_plan():
    sc, dset, fleet, _ = random_world(4)
    plan = plan_hybrid(sc, dset, fleet, False)
    plan.timetable.nodes[0] = 10 ** 6  # node not in the graph
    for jobs in (dset, None):
        assert check_plan(plan, sc, jobs, fleet)[0] == "path node 1000000 not in scenario graph"
    plan = plan_hybrid(sc, dset, fleet, False)
    plan.timetable.depart.pop()
    n = len(plan.timetable.nodes)
    assert check_plan(plan, sc, dset, fleet) == [
        f"truck timetable has {n} arrivals and {n - 1} departures for {n} path nodes"]


@pytest.mark.parametrize("case", range(25))
def test_more_drones_never_worse(case):
    sc, dset, fleet, prioritize = random_world(case, max_drones=0)
    prev = None
    for k in range(4):
        fleet.drone_count = k
        obj = plan_hybrid(sc, dset, fleet, prioritize).objective
        if prev is not None:
            assert obj <= prev + 1e-6
        prev = obj


def test_prioritized_truck_stops_keep_medical_first():
    sc = generate_grid_scenario(6, 6, 100.0, 2, seed=29)
    dset = generate_delivery_sets(sc, 1, 15, 5, seed=31)[0]
    medical = {j.id for j in dset.medical()}
    for k in (0, 2, 4):
        plan = plan_hybrid(sc, dset, FleetConfig(drone_count=k), prioritize=True)
        stops = plan.truck_stops
        med_pos = [i for i, j in enumerate(stops) if j in medical]
        std_pos = [i for i, j in enumerate(stops) if j not in medical]
        if med_pos and std_pos:
            assert max(med_pos) < min(std_pos)


def test_plan_timeline_matches_completion():
    sc, dset, fleet, prioritize = random_world(7)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    for j in plan.truck_stops:
        assert plan.completion[j] == plan.timetable.depart[plan.stop_positions[j]]
    for s in plan.sorties:
        assert plan.completion[s.job_id] == pytest.approx(
            s.deliver_time + fleet.drone_service)


def test_every_job_served_exactly_once():
    sc, dset, fleet, _ = random_world(12, max_drones=3)
    fleet.drone_count = 3
    plan = plan_hybrid(sc, dset, fleet, True)
    served = plan.truck_stops + [s.job_id for s in plan.sorties]
    assert sorted(served) == sorted(j.id for j in dset.jobs)


def test_plan_file_round_trip(tmp_path):
    sc, dset, fleet, prioritize = random_world(3, max_drones=3)
    fleet.drone_count = 2
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    path = tmp_path / "plan.json"
    save_plan(plan, path, fleet)
    loaded, loaded_fleet = load_plan(path)
    assert loaded_fleet == fleet
    assert plan_to_dict(loaded, loaded_fleet) == plan_to_dict(plan, fleet)


def test_fleet_validation():
    with pytest.raises(ParameterError):
        plan_hybrid(generate_grid_scenario(2, 2, 50.0, 1, seed=1),
                    DeliverySet(0, []), FleetConfig(drone_count=-1), False)


# ---------------------------------------------------------------------------
# differential test against the planner before prefix-reusing candidate
# builds: a full rebuild per candidate, fresh Dijkstra maps per plan, and the
# scalar timetable recurrence


class _OraclePlanContext:
    def __init__(self, scenario, dset, fleet):
        self.fleet = fleet
        self.geom = scenario.geometry()
        self.nodes_of = job_nodes(scenario, dset)
        self.target_xy = {j.id: (j.target.x, j.target.y) for j in dset.jobs}
        self.depot = scenario.depot
        relevant = {self.depot} | set(self.nodes_of.values())
        self._dist_maps = {n: truck_dijkstra(scenario.graph, fleet.truck_speed, n)
                           for n in relevant}
        adj = scenario.graph.adjacency()
        self._adj_sorted = {u: sorted(vs) for u, vs in adj.items()}
        self._seg_cache = {}

    def _segment(self, u, v):
        key = (u, v)
        cached = self._seg_cache.get(key)
        if cached is not None:
            return cached
        dist_v = self._dist_maps[v]
        path = [u]
        steps = []
        cur = u
        truck_speed = self.fleet.truck_speed
        while cur != v:
            nxt = None
            length = speed = 0.0
            for w, ln, sp in self._adj_sorted[cur]:
                if w in dist_v and dist_v[w] + ln / min(truck_speed, sp) == dist_v[cur]:
                    nxt, length, speed = w, ln, sp
                    break
            if nxt is None:
                for w, ln, sp in self._adj_sorted[cur]:
                    if (w in dist_v and
                            abs(dist_v[w] + ln / min(truck_speed, sp) - dist_v[cur]) <= 1e-9):
                        nxt, length, speed = w, ln, sp
                        break
            steps.append(length / min(truck_speed, speed))
            path.append(nxt)
            cur = nxt
        out = (path, np.array(steps, np.float64))
        self._seg_cache[key] = out
        return out

    def build(self, truck_order, assignments):
        fleet = self.fleet
        path = [self.depot]
        steps = []
        stop_pos = {}
        for j in truck_order:
            v = self.nodes_of[j]
            u = path[-1]
            if v == u:
                path.append(v)
                steps.append(0.0)
            else:
                seg, seg_steps = self._segment(u, v)
                path.extend(seg[1:])
                steps.extend(seg_steps.tolist())
            stop_pos[j] = len(path) - 1
        if path[-1] != self.depot:
            seg, seg_steps = self._segment(path[-1], self.depot)
            path.extend(seg[1:])
            steps.extend(seg_steps.tolist())
        n = len(path)
        services = np.zeros(n, np.float64)
        for pos in stop_pos.values():
            services[pos] = fleet.truck_service
        arrive, depart = _oracle_build_timetable(np.array(steps, np.float64), services)
        path_x = self.geom.node_x[[self.geom.node_index[p] for p in path]]
        path_y = self.geom.node_y[[self.geom.node_index[p] for p in path]]
        completion = {j: float(depart[pos]) for j, pos in stop_pos.items()}
        truck_sum = math.fsum(completion.values())
        sorties = []
        free = {}
        drone_sum = 0.0
        for d in sorted(assignments):
            t_free = 0.0
            for job, lnode in assignments[d]:
                li = -1
                for i in range(n - 1):
                    if path[i] == lnode and depart[i] >= t_free:
                        li = i
                        break
                if li < 0:
                    return None
                tx, ty = self.target_xy[job]
                status, r, t_deliver, t_arr, t_rdv = kernels.sortie_from_launch(
                    path_x, path_y, arrive, depart, li, tx, ty,
                    fleet.drone_speed, fleet.drone_service, fleet.drone_endurance)
                if status != kernels.SORTIE_OK:
                    return None
                t0 = float(depart[li])
                sorties.append(Sortie(
                    d, job, lnode, t0, path[r], float(t_rdv),
                    leg_out_m=(t_deliver - t0) * fleet.drone_speed,
                    leg_back_m=(t_arr - t_deliver - fleet.drone_service) * fleet.drone_speed,
                    hover_wait=float(t_rdv - t_arr), deliver_time=float(t_deliver),
                    target_x=tx, target_y=ty))
                comp = float(t_deliver) + fleet.drone_service
                completion[job] = comp
                drone_sum += comp
                t_free = float(t_rdv) + fleet.turnaround
            free[d] = t_free
        return dict(path=path, path_x=path_x, path_y=path_y,
                    arrive=arrive, depart=depart, stop_pos=stop_pos,
                    completion=completion, sorties=sorties, free=free,
                    total=truck_sum + drone_sum, partial=truck_sum + drone_sum)


def _oracle_plan(scenario, dset, fleet, prioritize, solver="heuristic"):
    # exhaustive on purpose: it scans every (job, drone) with no bound and no
    # de-duplication of equal free times, as the reference for both
    ctx = _OraclePlanContext(scenario, dset, fleet)
    truck_jobs = (priority_schedule if prioritize else plain_schedule)(
        scenario, dset, ctx.nodes_of, fleet.truck_speed, solver)
    assignments = {d: [] for d in range(fleet.drone_count)}
    current = ctx.build(truck_jobs, assignments)
    if fleet.drone_count > 0:
        while True:
            best = None
            for j in sorted(truck_jobs):
                built = ctx.build([x for x in truck_jobs if x != j], assignments)
                if built is None:
                    continue
                tx, ty = ctx.target_xy[j]
                for d in range(fleet.drone_count):
                    li, comp = kernels.best_sortie(
                        built["path_x"], built["path_y"], built["path"],
                        built["arrive"], built["depart"], built["free"][d], tx, ty,
                        fleet.drone_speed, fleet.drone_service, fleet.drone_endurance)
                    if li < 0:
                        continue
                    reduction = current["total"] - (built["partial"] + comp)
                    if reduction > 1e-9 and (best is None or reduction > best[0]):
                        best = (reduction, j, d, built["path"][li])
            if best is None:
                break
            _, j, d, lnode = best
            truck_jobs.remove(j)
            assignments[d].append((j, lnode))
            current = ctx.build(truck_jobs, assignments)
    return HybridPlan(
        truck_stops=list(truck_jobs), stop_positions=dict(current["stop_pos"]),
        timetable=TruckTimetable(list(current["path"]), current["arrive"], current["depart"]),
        sorties=sorted(current["sorties"], key=lambda s: (s.drone_id, s.launch_time)),
        completion=dict(current["completion"]), prioritized=prioritize,
        objective=current["total"], makespan=float(current["arrive"][-1]))


def _assert_same_state(got, want):
    """Two plan states agree: path, stops, every float list bit for bit,
    flights, drone free times and both sums."""
    assert got.path == want.path and got.stop_pos == want.stop_pos
    for name in ("path_x", "path_y", "steps", "services", "arrive", "depart"):
        # the values, bit for bit
        assert (np.array(getattr(got, name), np.float64).tobytes()
                == np.array(getattr(want, name), np.float64).tobytes()), name
    assert got.sorties == want.sorties
    assert [f[1:] for f in got.flights] == [f[1:] for f in want.flights]
    assert (got.free, got.truck_sum, got.drone_sum) == \
        (want.free, want.truck_sum, want.drone_sum)


def _plan_checking_commits(sc, dset, fleet, prioritize, solver="heuristic"):
    """plan_hybrid, with every state it commits checked against a build
    from the depot of the stops and assignments at that step."""
    ctx = _PlanContext(sc, dset, fleet)
    truck_jobs = (priority_schedule if prioritize else plain_schedule)(
        sc, dset, ctx.nodes_of, fleet.truck_speed, solver)
    assignments = {d: [] for d in range(fleet.drone_count)}
    commit = _PlanContext.commit

    def checked(self, built, drone, job, lnode):
        state = commit(self, built, drone, job, lnode)
        truck_jobs.remove(job)
        assignments[drone].append((job, lnode))
        _assert_same_state(state, ctx.assemble(assignments, truck_jobs))
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_PlanContext, "commit", checked)
        plan = plan_hybrid(sc, dset, fleet, prioritize, solver)
    assert plan.truck_stops == truck_jobs  # the commits took exactly the sortie jobs
    return plan


def _assert_plans_identical(sc, dset, fleet, prioritize, solver="heuristic"):
    got = _plan_checking_commits(sc, dset, fleet, prioritize, solver)
    want = _oracle_plan(sc, dset, fleet, prioritize, solver)
    assert json.dumps(plan_to_dict(got, fleet)) == json.dumps(plan_to_dict(want, fleet))
    assert list(got.completion) == list(want.completion)
    return got


@pytest.mark.parametrize("block", range(10))
def test_plans_match_full_rebuild_oracle(block):
    for case in range(100 * block, 100 * block + 100):
        sc, dset, fleet, prioritize = random_world(case)
        _assert_plans_identical(sc, dset, fleet, prioritize)


@pytest.mark.parametrize("case", range(20))
def test_plans_match_full_rebuild_oracle_with_many_jobs_and_drones(case):
    # sizes at which the planner's bound skips most sortie scans
    sc, dset, fleet, prioritize = random_world(case, max_jobs=41, max_drones=8)
    _assert_plans_identical(sc, dset, fleet, prioritize)


def test_bound_skips_at_least_half_the_sortie_scans(monkeypatch):
    cfg = experiment.ExperimentConfig(grid_rows=16, grid_cols=16, n_sets=1, per_set=40,
                                      medical_per_set=13, drone_counts=[8], net_models=[],
                                      base_seed=0)
    sc = experiment.build_scenario(cfg)
    dset = experiment.build_sets(cfg, sc)[0]
    fleet = cfg.fleet_for(8)
    scan = kernels.best_sortie
    calls = []

    def counted(*args):
        calls.append(None)
        return scan(*args)

    monkeypatch.setattr(kernels, "best_sortie", counted)
    got = plan_hybrid(sc, dset, fleet, True)
    planned = len(calls)
    want = _oracle_plan(sc, dset, fleet, True)
    exhaustive = len(calls) - planned
    assert json.dumps(plan_to_dict(got, fleet)) == json.dumps(plan_to_dict(want, fleet))
    assert got.sorties
    assert planned <= exhaustive / 2, (planned, exhaustive)


def test_one_build_from_the_depot_per_plan(monkeypatch, grid8, grid8_set):
    # every other state is a candidate spliced from the current one, or the
    # committed winner, which commit extends without a new timetable
    assemble = _PlanContext.assemble
    fold = kernels.build_timetable
    calls = collections.Counter()

    def counted_assemble(self, assignments, route, base=None, *rest):
        calls["from depot" if base is None else "candidate"] += 1
        return assemble(self, assignments, route, base, *rest)

    def counted_fold(*args):
        calls["timetable"] += 1
        return fold(*args)

    monkeypatch.setattr(_PlanContext, "assemble", counted_assemble)
    monkeypatch.setattr(kernels, "build_timetable", counted_fold)
    for prioritize in (False, True):
        calls.clear()
        plan = plan_hybrid(grid8, grid8_set, FleetConfig(drone_count=3), prioritize)
        assert len(plan.sorties) > 1
        assert calls["from depot"] == 1
        assert calls["timetable"] == calls["candidate"] + 1


def _plan_checking_bounds(sc, dset, fleet, prioritize):
    """Runs plan_hybrid with every candidate of every step built and held to
    the lower bounds _candidate_bounds gave for it; returns the number of
    candidates built."""
    built_count = 0

    def checked(ctx, current, truck_jobs):
        nonlocal built_count
        bounds = _candidate_bounds(ctx, current, truck_jobs)
        assert len(bounds) == len(truck_jobs)
        assignments = {d: [] for d in current.free}
        for s in current.sorties:
            assignments[s.drone_id].append((s.job_id, s.launch_node))
        total, service = current.total, fleet.drone_service
        margin = 1e-9 * (1 + abs(total))
        for k, (truck, drone, free) in enumerate(bounds):
            after = truck_jobs[k + 1:k + 2]
            built = ctx.assemble(assignments, after, current, k, k + 1 if after else None)
            if built is None:
                continue
            built_count += 1
            earliest = min(built.free.values())
            # lower bounds, the drone parts exactly in floats; the truck one
            # within its margin of the truck sum
            assert truck <= built.truck_sum <= truck + 2 * margin
            assert drone <= built.drone_sum
            assert free <= earliest
            # so the bound before the build is at least the one after it
            assert (total - (truck + drone + (free + service))
                    >= total - (built.truck_sum + built.drone_sum + (earliest + service)))
        return bounds

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hybridfleet.hybrid._candidate_bounds", checked)
        plan_hybrid(sc, dset, fleet, prioritize)
    return built_count


@pytest.mark.parametrize("block", range(8))
def test_candidate_bounds_hold_on_every_candidate(block):
    built = 0
    for case in range(50 * block, 50 * block + 50):
        sc, dset, fleet, prioritize = random_world(case, max_jobs=41, max_drones=8)
        built += _plan_checking_bounds(sc, dset, fleet, prioritize)
    assert built > 1000


def test_bounds_skip_a_third_of_the_candidate_builds(monkeypatch):
    cfg = experiment.ExperimentConfig(grid_rows=16, grid_cols=16, n_sets=1, per_set=40,
                                      medical_per_set=13, drone_counts=[8], net_models=[],
                                      base_seed=0)
    sc = experiment.build_scenario(cfg)
    dset = experiment.build_sets(cfg, sc)[0]
    fleet = cfg.fleet_for(8)
    assemble = _PlanContext.assemble
    calls = collections.Counter()

    def counted(self, assignments, route, base=None, *rest):
        calls["candidate" if base is not None else "from depot"] += 1
        return assemble(self, assignments, route, base, *rest)

    monkeypatch.setattr(_PlanContext, "assemble", counted)
    for prioritize in (False, True):
        calls.clear()
        got = plan_hybrid(sc, dset, fleet, prioritize)
        skipping = calls["candidate"]
        with monkeypatch.context() as mp:
            # bounds that never skip: every candidate is built
            mp.setattr("hybridfleet.hybrid._candidate_bounds",
                       lambda ctx, current, truck_jobs: [(-math.inf, 0.0, 0.0)] * len(truck_jobs))
            want = plan_hybrid(sc, dset, fleet, prioritize)
        building = calls["candidate"] - skipping
        assert json.dumps(plan_to_dict(got, fleet)) == json.dumps(plan_to_dict(want, fleet))
        assert got.sorties
        assert skipping <= building * 2 / 3, (skipping, building)


def _splices_match_full_builds(sc, dset, fleet, prioritize):
    """Every candidate the greedy loop splices equals a build from the depot."""
    ctx = _PlanContext(sc, dset, fleet)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    assignments = {d: [] for d in range(fleet.drone_count)}
    for s in plan.sorties:
        assignments[s.drone_id].append((s.job_id, s.launch_node))
    stops = plan.truck_stops
    current = ctx.assemble(assignments, stops)
    for k in range(len(stops)):
        after = stops[k + 1:k + 2]
        spliced = ctx.assemble(assignments, after, current, k, k + 1 if after else None)
        full = ctx.assemble(assignments, stops[:k] + stops[k + 1:])
        assert (spliced is None) == (full is None)
        if full is None:
            continue
        _assert_same_state(spliced, full)
    return plan


def _road(n_nodes, depot=0):
    nodes = {i: Point(i * 100.0, 0.0) for i in range(n_nodes)}
    edges = [Edge(i, i + 1, 100.0, 10.0) for i in range(n_nodes - 1)]
    return Scenario(RoadGraph(nodes, edges), [], depot=depot,
                    base_station=Point(100.0, 0.0, 30.0))


def _jobs(*specs):
    return DeliverySet(0, [DeliveryJob(i, 0, Point(x, y), cat)
                           for i, (x, y, cat) in enumerate(specs)])


S, M = Category.STANDARD, Category.MEDICAL


@pytest.mark.parametrize("drones", [0, 1, 2])
def test_two_jobs_on_one_node(drones):
    sc = _road(8)
    dset = _jobs((500.0, 40.0, S), (500.0, -40.0, S), (700.0, 30.0, S), (200.0, 50.0, S))
    fleet = FleetConfig(drone_count=drones, truck_speed=10.0)
    plan = _assert_plans_identical(sc, dset, fleet, False)
    _splices_match_full_builds(sc, dset, fleet, False)
    if drones == 0:
        path = plan.timetable.nodes
        assert any(a == b for a, b in zip(path, path[1:]))  # the zero step


@pytest.mark.parametrize("drones", [0, 1, 3])
def test_job_on_depot_node(drones):
    sc = _road(8, depot=3)
    dset = _jobs((300.0, 20.0, S), (700.0, 50.0, S), (0.0, 60.0, S), (500.0, -30.0, M))
    fleet = FleetConfig(drone_count=drones, truck_speed=10.0)
    for prioritize in (False, True):
        plan = _assert_plans_identical(sc, dset, fleet, prioritize)
        _splices_match_full_builds(sc, dset, fleet, prioritize)
        if 0 in plan.stop_positions:
            assert plan.timetable.nodes[plan.stop_positions[0]] == 3


def test_remove_last_stop_after_depot_stop():
    # medical job 0 sits on the depot node and is served first; removing the
    # last stop leaves a tour that ends on the depot with no return segment
    sc = _road(8)
    dset = _jobs((0.0, 10.0, M), (600.0, 40.0, S))
    fleet = FleetConfig(drone_count=1, truck_speed=10.0)
    ctx = _PlanContext(sc, dset, fleet)
    assignments = {0: []}
    current = ctx.assemble(assignments, [0, 1])
    spliced = ctx.assemble(assignments, [], current, 1)
    assert spliced.path == [0, 0]
    assert spliced.depart == [0.0, fleet.truck_service]
    _assert_plans_identical(sc, dset, fleet, True)
    _splices_match_full_builds(sc, dset, fleet, True)


def test_eight_drones_with_equal_free_times(grid8, grid8_set):
    fleet = FleetConfig(drone_count=8)
    for prioritize in (False, True):
        plan = _assert_plans_identical(grid8, grid8_set, fleet, prioritize)
        assert plan.sorties
        _splices_match_full_builds(grid8, grid8_set, fleet, prioritize)


@pytest.mark.parametrize("case", range(8))
def test_exact_solver_plans_match_oracle(case):
    sc, dset, fleet, prioritize = random_world(case, max_jobs=11)
    fleet.drone_count = max(fleet.drone_count, 1)
    _assert_plans_identical(sc, dset, fleet, prioritize, "exact")


@pytest.mark.parametrize("case", range(40))
def test_candidate_splices_match_full_builds(case):
    sc, dset, fleet, prioritize = random_world(case, max_drones=4)
    _splices_match_full_builds(sc, dset, fleet, prioritize)


def _full_step(ctx, current, truck_jobs):
    """A greedy step's winner by full evaluation: every candidate built from
    the depot and every drone scanned, the best of (reduction, -job id,
    -drone id) over reductions above 1e-9. Returns (job, drone, launch
    node, reduction), or None when no candidate reduces the total."""
    fleet = ctx.fleet
    assignments = {d: [] for d in current.free}
    for s in current.sorties:
        assignments[s.drone_id].append((s.job_id, s.launch_node))
    best = None
    for j in truck_jobs:
        built = ctx.assemble(assignments, [x for x in truck_jobs if x != j])
        if built is None:
            continue
        tx, ty = ctx.target_xy[j]
        for d in sorted(built.free):
            li, comp = kernels.best_sortie(
                built.path_x, built.path_y, built.path, built.arrive, built.depart,
                built.free[d], tx, ty,
                fleet.drone_speed, fleet.drone_service, fleet.drone_endurance)
            if li < 0:
                continue
            reduction = current.total - (built.truck_sum + built.drone_sum + comp)
            if reduction > 1e-9 and (best is None or (reduction, -j, -d) > best[0]):
                best = ((reduction, -j, -d), built.path[li])
    if best is None:
        return None
    (reduction, j, d), lnode = best
    return -j, -d, lnode, reduction


def _recorded_steps(sc, dset, fleet, prioritize, bounds=_candidate_bounds):
    """plan_hybrid with each greedy step recorded: the context, the state and
    truck jobs it starts from, its pre-build candidate bounds (from
    ``bounds``, which stands in for _candidate_bounds), the jobs of the
    candidates it builds, in build order, and its commit (job, drone,
    launch node), None for the last step."""
    steps = []
    assemble, commit = _PlanContext.assemble, _PlanContext.commit

    def recorded_bounds(ctx, current, truck_jobs):
        out = bounds(ctx, current, truck_jobs)
        steps.append(dict(ctx=ctx, current=current, truck_jobs=list(truck_jobs),
                          bounds=out, built=[], commit=None))
        return out

    def recorded_assemble(self, assignments, route, base=None, keep=0, resume=None):
        if base is not None:
            steps[-1]["built"].append(steps[-1]["truck_jobs"][keep])
        return assemble(self, assignments, route, base, keep, resume)

    def recorded_commit(self, built, drone, job, lnode):
        steps[-1]["commit"] = (job, drone, lnode)
        return commit(self, built, drone, job, lnode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("hybridfleet.hybrid._candidate_bounds", recorded_bounds)
        mp.setattr(_PlanContext, "assemble", recorded_assemble)
        mp.setattr(_PlanContext, "commit", recorded_commit)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
    return plan, steps


def _assert_steps_match_full_evaluation(sc, dset, fleet, prioritize, bounds=_candidate_bounds):
    """Every step commits the full evaluation's (job, drone, launch node),
    and the last step, which commits nothing, has no reducing candidate.
    Returns the recorded steps, each with its full evaluation added."""
    plan, steps = _recorded_steps(sc, dset, fleet, prioritize, bounds)
    assert steps and steps[-1]["commit"] is None
    for step in steps:
        full = step["full"] = _full_step(step["ctx"], step["current"], step["truck_jobs"])
        assert (None if full is None else full[:3]) == step["commit"]
    assert len(plan.sorties) == len(steps) - 1
    return steps


def _assert_built_in_bound_order(steps, service):
    """Each step builds candidates best pre-build bound first, lowest job id
    on equal bounds, and only ones whose bound reaches the step's winning
    reduction (1e-9 in the last step); a bound equal to it only for a job id
    below the winner's."""
    for step in steps:
        total = step["current"].total
        bound_of = {j: total - (truck + drone + (free + service)) for j, (truck, drone, free)
                    in zip(step["truck_jobs"], step["bounds"])}
        built = [(-bound_of[j], j) for j in step["built"]]
        assert built == sorted(built)
        # with no winner, no job id is below -1
        winner, floor = (step["full"][0], step["full"][3]) if step["full"] else (-1, 1e-9)
        for j in step["built"]:
            if j != winner:
                assert bound_of[j] > floor or (bound_of[j] == floor and j < winner), (j, winner)


@pytest.mark.parametrize("block", range(4))
def test_greedy_steps_match_full_evaluation(block):
    for case in range(100 * block, 100 * block + 100):
        sc, dset, fleet, prioritize = random_world(case, max_drones=4)
        fleet.drone_count = max(fleet.drone_count, 1)
        _assert_steps_match_full_evaluation(sc, dset, fleet, prioritize)


@pytest.mark.parametrize("case", range(20))
def test_greedy_steps_match_full_evaluation_with_many_jobs_and_drones(case):
    sc, dset, fleet, prioritize = random_world(case, max_jobs=41, max_drones=8)
    fleet.drone_count = max(fleet.drone_count, 1)
    _assert_steps_match_full_evaluation(sc, dset, fleet, prioritize)


@pytest.mark.parametrize("block", range(4))
def test_candidates_are_built_in_bound_order_down_to_the_winner(block):
    for case in range(50 * block, 50 * block + 50):
        sc, dset, fleet, prioritize = random_world(case, max_jobs=41, max_drones=8)
        fleet.drone_count = max(fleet.drone_count, 1)
        steps = _assert_steps_match_full_evaluation(sc, dset, fleet, prioritize)
        _assert_built_in_bound_order(steps, fleet.drone_service)


def _tie_bounds(variant):
    """_candidate_bounds for the exact-tie world below. "natural" leaves it
    as it is. "higher first" lowers job 1's truck bound by 1 s, so job 1's
    candidate comes first. "lower at the floor" also gives job 0's
    candidate its exact truck and drone sums and earliest free time, which
    makes its bound equal its reduction. All stay lower bounds."""
    def bounds(ctx, current, truck_jobs):
        out = _candidate_bounds(ctx, current, truck_jobs)
        if variant == "natural" or not {0, 1} <= set(truck_jobs):
            return out
        k1, k0 = truck_jobs.index(1), truck_jobs.index(0)
        truck, drone, free = out[k1]
        out[k1] = (truck - 1.0, drone, free)
        if variant == "lower at the floor":
            assignments = {d: [] for d in current.free}
            built = ctx.assemble(assignments, [j for j in truck_jobs if j != 0])
            out[k0] = (built.truck_sum, built.drone_sum, min(built.free.values()))
        return out
    return bounds


@pytest.mark.parametrize("variant", ["natural", "higher first", "lower at the floor"])
def test_exact_tie_goes_to_the_lower_job_id(variant):
    # jobs 0 and 1 deliver to one building at the depot: removing either
    # leaves the same tour, and the drone, free at 0, delivers at the
    # depot's departure at 0, so both candidates reduce the total by the
    # same float, and so does each scan's bound
    sc = _road(4)
    dset = _jobs((0.0, 0.0, S), (0.0, 0.0, S))
    fleet = FleetConfig(drone_count=1, truck_speed=10.0)
    steps = _assert_steps_match_full_evaluation(sc, dset, fleet, False, _tie_bounds(variant))
    first = steps[0]
    ctx, current = first["ctx"], first["current"]
    candidates = {j: ctx.assemble({0: []}, [x for x in first["truck_jobs"] if x != j])
                  for j in (0, 1)}
    _assert_same_state(candidates[0], candidates[1])
    reduction = current.total - (candidates[0].total + fleet.drone_service)
    assert first["full"] == (0, 0, sc.depot, reduction)
    # the scans' bound equals the reduction: the tie reaches every comparison
    assert reduction == current.total - (candidates[0].total + (0.0 + fleet.drone_service))
    assert first["built"] == ([0, 1] if variant == "natural" else [1, 0])
    _assert_built_in_bound_order(steps, fleet.drone_service)


def test_repeated_job_id_rejected():
    sc = _road(4)
    dset = DeliverySet(0, [DeliveryJob(1, 0, Point(100.0, 10.0), S),
                           DeliveryJob(1, 0, Point(300.0, 10.0), S)])
    with pytest.raises(ParameterError, match="repeats a job id"):
        plan_hybrid(sc, dset, FleetConfig(drone_count=1), False)


# ---------------------------------------------------------------------------
# every drone count of a set from one greedy run


def _assert_counts_match_single_plans(sc, dset, fleet, counts, prioritize, solver="heuristic"):
    """plan_hybrid_counts gives, for every count, plan_hybrid's plan and the
    oracle's, field for field; returns its plans by count."""
    plans = plan_hybrid_counts(sc, dset, replace(fleet, drone_count=max(counts)), counts,
                               prioritize, solver)
    assert list(plans) == sorted(counts)
    for c, got in plans.items():
        one = replace(fleet, drone_count=c)
        want = plan_hybrid(sc, dset, one, prioritize, solver)
        assert got == want and list(got.completion) == list(want.completion), c
        oracle = _oracle_plan(sc, dset, one, prioritize, solver)
        assert json.dumps(plan_to_dict(got, one)) == json.dumps(plan_to_dict(oracle, one)), c
    # no two plans share a sortie or a timetable list
    sorties = [id(s) for plan in plans.values() for s in plan.sorties]
    assert len(set(sorties)) == len(sorties)
    assert len({id(plan.timetable.depart) for plan in plans.values()}) == len(plans)
    return plans


_COUNT_LISTS = ([3, 0, 5], [1, 8], [0], [2], [4, 1, 2, 0, 3], [6, 1])


@pytest.mark.parametrize("block", range(8))
def test_all_counts_from_one_run_match_single_plans(block):
    for case in range(50 * block, 50 * block + 50):
        sc, dset, fleet, prioritize = random_world(case)
        _assert_counts_match_single_plans(sc, dset, fleet, _COUNT_LISTS[case % 6], prioritize)


@pytest.mark.parametrize("case", range(8))
def test_all_counts_from_one_run_match_single_plans_with_many_jobs(case):
    sc, dset, fleet, prioritize = random_world(case, max_jobs=41)
    counts = ([3, 0, 5], [1, 8], [4, 1, 2, 0, 3], [6, 1], [8, 2, 5], [7, 0])[case % 6]
    plans = _assert_counts_match_single_plans(sc, dset, fleet, counts, prioritize)
    assert any(plan.sorties for plan in plans.values())


@pytest.mark.parametrize("prioritize", [False, True])
def test_all_counts_from_one_run_on_a_large_world(prioritize):
    cfg = experiment.ExperimentConfig(grid_rows=16, grid_cols=16, n_sets=1, per_set=40,
                                      medical_per_set=13, net_models=[], base_seed=0)
    sc = experiment.build_scenario(cfg)
    dset = experiment.build_sets(cfg, sc)[0]
    plans = plan_hybrid_counts(sc, dset, cfg.fleet_for(8), list(range(9)), prioritize)
    for c, got in plans.items():
        assert got == plan_hybrid(sc, dset, cfg.fleet_for(c), prioritize), c
    assert len({s.drone_id for s in plans[8].sorties}) == 8


@pytest.mark.parametrize("base_seed", sorted({key[0] for key in GOLDEN}))
def test_all_counts_from_one_run_on_golden_sets(base_seed):
    cfg, sc, dsets = golden_world(base_seed)
    for set_index in range(3):
        for prioritize in (False, True):
            plans = _assert_counts_match_single_plans(sc, dsets[set_index], cfg.fleet_for(5),
                                                      list(range(6)), prioritize)
            for c, plan in plans.items():
                want = GOLDEN.get((base_seed, set_index, c, prioritize))
                if want is not None:
                    assert plan_digest(plan, cfg.fleet_for(c)) == want[0]


def test_all_counts_share_one_schedule_and_first_build(monkeypatch, grid8, grid8_set):
    assemble = _PlanContext.assemble
    calls = collections.Counter()

    def counted(self, assignments, route, base=None, *rest):
        calls["from depot" if base is None else "candidate"] += 1
        return assemble(self, assignments, route, base, *rest)

    def counted_schedule(schedule):
        def wrapper(*args):
            calls["schedule"] += 1
            return schedule(*args)
        return wrapper

    monkeypatch.setattr(_PlanContext, "assemble", counted)
    for name in ("plain_schedule", "priority_schedule"):
        monkeypatch.setattr(hybrid, name, counted_schedule(getattr(hybrid, name)))
    for prioritize in (False, True):
        calls.clear()
        plans = plan_hybrid_counts(grid8, grid8_set, FleetConfig(drone_count=5),
                                   list(range(6)), prioritize)
        shared = calls["candidate"]
        assert calls["from depot"] == calls["schedule"] == 1
        for c in range(6):
            plan_hybrid(grid8, grid8_set, FleetConfig(drone_count=c), prioritize)
        assert calls["from depot"] == calls["schedule"] == 7
        # the counts' common opening steps are built once
        assert shared < calls["candidate"] - shared
        assert all(len({s.drone_id for s in plans[c].sorties}) == c for c in range(1, 6))


_COMMIT = _PlanContext.commit


def test_each_count_resumes_from_its_own_plans_state(monkeypatch, grid8, grid8_set):
    # the snapshot a count is finished from is, free times included, the
    # state its own greedy run commits at the same step
    improve = hybrid._improve
    starts = []

    def recorded(ctx, current, truck_jobs, assignments, snapshots):
        starts.append((len(assignments), current))
        return improve(ctx, current, truck_jobs, assignments, snapshots)

    monkeypatch.setattr(hybrid, "_improve", recorded)
    plan_hybrid_counts(grid8, grid8_set, FleetConfig(drone_count=4), [0, 1, 2, 3, 4], False)
    resumed = starts[1:]
    assert [c for c, _ in resumed] == [1, 2, 3]
    for c, start in resumed:
        committed = []

        def kept(self, built, drone, job, lnode):
            committed.append(_COMMIT(self, built, drone, job, lnode))
            return committed[-1]

        with monkeypatch.context() as mp:
            mp.setattr(_PlanContext, "commit", kept)
            plan_hybrid(grid8, grid8_set, FleetConfig(drone_count=c), False)
        assert {s.drone_id for s in start.sorties} == set(range(c)) == set(start.free)
        _assert_same_state(start, committed[len(start.sorties) - 1])


def _failing_commit(monkeypatch, fails):
    """Makes _PlanContext.commit raise where fails(the state's drone count,
    the commits of that count so far) is true."""
    calls = collections.Counter()

    def faulty(self, built, drone, job, lnode):
        calls[len(built.free)] += 1
        if fails(len(built.free), calls[len(built.free)]):
            raise RuntimeError(f"injected in a {len(built.free)}-drone step")
        return _COMMIT(self, built, drone, job, lnode)

    monkeypatch.setattr(_PlanContext, "commit", faulty)


def test_a_failed_step_fails_the_counts_that_share_it(monkeypatch, grid8, grid8_set):
    want = {c: plan_hybrid(grid8, grid8_set, FleetConfig(drone_count=c), False)
            for c in range(4)}
    # a fault in a step of count 2's own tail fails count 2 alone
    _failing_commit(monkeypatch, lambda drones, n: drones == 2)
    plans = plan_hybrid_counts(grid8, grid8_set, FleetConfig(drone_count=3), [0, 1, 2, 3],
                               False)
    assert str(plans[2]) == "injected in a 2-drone step"
    assert {c: p for c, p in plans.items() if c != 2} == {c: want[c] for c in (0, 1, 3)}
    # a fault in the large run's second step, which counts 2 and 3 share
    # and count 1 does not, fails those two
    _failing_commit(monkeypatch, lambda drones, n: drones == 3 and n == 2)
    plans = plan_hybrid_counts(grid8, grid8_set, FleetConfig(drone_count=3), [0, 1, 2, 3],
                               False)
    assert plans[2] is plans[3] and str(plans[3]) == "injected in a 3-drone step"
    assert (plans[0], plans[1]) == (want[0], want[1])
    # plan_hybrid raises its one count's error
    _failing_commit(monkeypatch, lambda drones, n: drones == 3 and n == 2)
    with pytest.raises(RuntimeError, match="injected in a 3-drone step"):
        plan_hybrid(grid8, grid8_set, FleetConfig(drone_count=3), False)


@pytest.mark.parametrize("counts", [[], [1, 1], [-1, 2], [4], [0, 2, 4]])
def test_drone_counts_must_be_distinct_and_within_the_fleet(grid8, grid8_set, counts):
    with pytest.raises(ParameterError, match="must be distinct, each from 0 to the fleet's 3"):
        plan_hybrid_counts(grid8, grid8_set, FleetConfig(drone_count=3), counts, False)
