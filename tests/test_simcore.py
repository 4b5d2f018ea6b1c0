import math
from dataclasses import replace

import numpy as np
import pytest

from hybridfleet import simcore
from hybridfleet.hybrid import FleetConfig, Sortie, check_plan, first_pass, plan_hybrid
from hybridfleet.jobs import DeliverySet
from hybridfleet.netmodel import _interp_positions
from hybridfleet.scenario import generate_grid_scenario
from hybridfleet.simcore import (_KIND_RANK, KIND_DRONE_DELIVER, KIND_DRONE_LAUNCH,
                                 KIND_DRONE_RENDEZVOUS, KIND_TOUR_COMPLETE,
                                 KIND_TRUCK_ARRIVE, KIND_TRUCK_SERVE, DeliveryTrace,
                                 SimEvent, _build_trajectories, _dedupe, _executed,
                                 completion_times, load_trace, save_trace, simulate)

from conftest import (fly, job_at, line_scenario, line_timetable, random_world,
                      sortie_plan)


def two_stop_world():
    """Line road, stops at 600 m and 1000 m, truck 10 m/s, service 60 s."""
    sc = line_scenario(11, 100.0, 10.0)
    dset = DeliverySet(0, [job_at(600.0, 0.0, job_id=0), job_at(1000.0, 0.0, job_id=1)])
    fleet = FleetConfig(drone_count=0, truck_speed=10.0, truck_service=60.0)
    plan = plan_hybrid(sc, dset, fleet, prioritize=False)
    return sc, dset, fleet, plan


def test_truck_only_two_stop_completions():
    sc, dset, fleet, plan = two_stop_world()
    trace = simulate(sc, plan, fleet)
    assert trace.completion[0] == pytest.approx(120.0, abs=1e-9)
    assert trace.completion[1] == pytest.approx(220.0, abs=1e-9)
    serves = [e for e in trace.events if e.kind == KIND_TRUCK_SERVE]
    assert [e.job for e in serves] == [0, 1]


def drone_world(service):
    sc = line_scenario(11, 100.0, 10.0)
    fleet = FleetConfig(drone_count=1, truck_speed=10.0, drone_speed=20.0,
                        drone_service=service, drone_endurance=1e9)
    tt = line_timetable(sc, truck_speed=10.0)
    _, sortie = fly(sc, tt, 0, job_at(0.0, 300.0, job_id=0), fleet)
    plan = sortie_plan(sc, tt, [sortie], fleet)
    return sc, fleet, plan


def test_drone_sortie_event_times_service_zero():
    sc, fleet, plan = drone_world(0.0)
    trace = simulate(sc, plan, fleet)
    by_kind = {e.kind: e for e in trace.events if e.vehicle == "drone0"}
    assert by_kind[KIND_DRONE_LAUNCH].time == 0.0
    assert by_kind[KIND_DRONE_DELIVER].time == pytest.approx(15.0, abs=1e-9)
    assert by_kind[KIND_DRONE_RENDEZVOUS].time == pytest.approx(40.0, abs=1e-9)
    assert by_kind[KIND_DRONE_RENDEZVOUS].node == 4


def test_drone_sortie_event_times_service_thirty():
    sc, fleet, plan = drone_world(30.0)
    trace = simulate(sc, plan, fleet)
    by_kind = {e.kind: e for e in trace.events if e.vehicle == "drone0"}
    assert by_kind[KIND_DRONE_LAUNCH].time == 0.0
    assert by_kind[KIND_DRONE_DELIVER].time == pytest.approx(45.0, abs=1e-9)
    assert trace.completion[0] == pytest.approx(45.0, abs=1e-9)


def test_empty_plan_single_tour_complete_event():
    sc = generate_grid_scenario(3, 3, 100.0, 0, seed=1)
    fleet = FleetConfig(drone_count=0)
    plan = plan_hybrid(sc, DeliverySet(0, []), fleet, prioritize=False)
    assert plan.completion == {}
    trace = simulate(sc, plan, fleet)
    assert [(e.kind, e.time) for e in trace.events] == [(KIND_TOUR_COMPLETE, 0.0)]
    assert trace.completion == {}


def position_at(trace, vehicle, t):
    """The vehicle's position at t, interpolated as the net model does."""
    return tuple(_interp_positions(trace, vehicle, np.array([t]))[0].tolist())


def test_position_at_start_is_depot():
    sc, dset, fleet, plan = two_stop_world()
    trace = simulate(sc, plan, fleet)
    assert position_at(trace, "truck", 0.0) == (0.0, 0.0, 0.0)


def test_position_at_mid_edge():
    sc, dset, fleet, plan = two_stop_world()
    trace = simulate(sc, plan, fleet)
    x, y, z = position_at(trace, "truck", 5.0)  # 100 m edge at 10 m/s
    assert (x, y, z) == (pytest.approx(50.0), 0.0, 0.0)


def test_position_at_hover_is_stationary():
    sc, fleet, plan = drone_world(30.0)
    trace = simulate(sc, plan, fleet)
    rdv = next(e for e in trace.events if e.kind == KIND_DRONE_RENDEZVOUS)
    deliver = next(e for e in trace.events if e.kind == KIND_DRONE_DELIVER)
    back = np.hypot(rdv.x - 0.0, rdv.y - 300.0)
    t_arr = deliver.time + back / fleet.drone_speed
    hover = rdv.time - t_arr
    assert hover > 1.0  # this variant hovers
    p1 = position_at(trace, "drone0", t_arr + 0.25 * hover)
    p2 = position_at(trace, "drone0", t_arr + 0.75 * hover)
    assert p1[:2] == pytest.approx(p2[:2])
    assert p1[:2] == pytest.approx((rdv.x, rdv.y))


def test_trajectories_span_the_trace():
    sc, fleet, plan = drone_world(30.0)
    trace = simulate(sc, plan, fleet)
    assert sorted(trace.trajectories) == ["drone0", "truck"]
    for traj in trace.trajectories.values():
        assert traj.times[0] == 0.0
        assert traj.times[-1] == trace.end_time


def test_events_sorted_and_single_tour_complete():
    for case in range(12):
        sc, dset, fleet, prioritize = random_world(case)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        trace = simulate(sc, plan, fleet)
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        completes = [e for e in trace.events if e.kind == KIND_TOUR_COMPLETE]
        assert len(completes) == 1
        assert trace.events[-1].kind == KIND_TOUR_COMPLETE
        finished = [e.job for e in trace.events
                    if e.kind in (KIND_TRUCK_SERVE, KIND_DRONE_DELIVER)]
        assert sorted(finished) == sorted(j.id for j in dset.jobs)


def test_planner_simulator_agreement_random():
    for case in range(20):
        sc, dset, fleet, prioritize = random_world(case)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        trace = simulate(sc, plan, fleet)
        for j, t_planned in plan.completion.items():
            assert abs(trace.completion[j] - t_planned) <= 1e-6


def test_trace_deterministic_bytes(tmp_path):
    sc, dset, fleet, prioritize = random_world(5)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trace(simulate(sc, plan, fleet), p1)
    save_trace(simulate(sc, plan, fleet), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectories_continuous_and_speed_capped():
    for case in range(10):
        sc, dset, fleet, prioritize = random_world(case)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        trace = simulate(sc, plan, fleet)
        for veh, tr in trace.trajectories.items():
            assert np.all(np.diff(tr.times) > 0)
            dt = np.diff(tr.times)
            speed = np.hypot(np.diff(tr.x), np.diff(tr.y)) / dt
            cap = fleet.truck_speed if veh == "truck" else max(
                fleet.truck_speed, fleet.drone_speed)
            assert np.all(speed <= cap + 1e-6)


def test_drone_aboard_shares_truck_position():
    sc, dset, fleet, _ = random_world(2, max_drones=3)
    fleet.drone_count = 2
    plan = plan_hybrid(sc, dset, fleet, True)
    trace = simulate(sc, plan, fleet)
    windows = trace.airborne_windows()
    for d in range(fleet.drone_count):
        veh = f"drone{d}"
        if veh not in trace.trajectories:
            continue
        flights = windows.get(veh, [])
        probes = [0.0]
        if flights:
            probes.append(max(0.0, flights[0][0] - 1e-3))
        for t in probes:
            if any(lo <= t < hi for lo, hi in flights):
                continue
            assert position_at(trace, veh, t) == pytest.approx(
                position_at(trace, "truck", t))


def test_trace_file_round_trip(tmp_path):
    sc, dset, fleet, prioritize = random_world(8)
    plan = plan_hybrid(sc, dset, fleet, prioritize)
    trace = simulate(sc, plan, fleet)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.completion == trace.completion
    assert [e.kind for e in loaded.events] == [e.kind for e in trace.events]
    assert loaded.events[0].time == trace.events[0].time
    for veh in trace.trajectories:
        np.testing.assert_array_equal(loaded.trajectories[veh].times,
                                      trace.trajectories[veh].times)
    assert loaded.airborne_windows() == trace.airborne_windows()


def _scalar_with_altitude(fl, alt):
    """simcore._with_altitude with one scalar np.interp per frame and axis."""
    t0, te = fl[0][0], fl[-1][0]
    if te <= t0:
        return [(t0, fl[-1][1], fl[-1][2], 0.0)]
    tc = alt / 10.0
    breakpoints = {t0 + tc, te - tc} if 2.0 * tc < te - t0 else {(t0 + te) / 2.0}
    ts, xs, ys = (np.array(c) for c in zip(*fl))
    return [(t, float(np.interp(t, ts, xs)), float(np.interp(t, ts, ys)),
             max(0.0, alt * min(1.0, (t - t0) / tc, (te - t) / tc)))
            for t in sorted(set(ts.tolist()) | breakpoints)]


def _truck_slice(t_t, t_x, t_y, t_lo, t_hi):
    """Truck position frames covering [t_lo, t_hi], z = 0."""
    if t_hi < t_lo:
        t_hi = t_lo
    frames = [(t_lo, float(np.interp(t_lo, t_t, t_x)), float(np.interp(t_lo, t_t, t_y)), 0.0)]
    for i in range(len(t_t)):
        if t_lo < t_t[i] < t_hi:
            frames.append((float(t_t[i]), float(t_x[i]), float(t_y[i]), 0.0))
    frames.append((t_hi, float(np.interp(t_hi, t_t, t_x)), float(np.interp(t_hi, t_t, t_y)), 0.0))
    return frames


def _interpolated_trajectories(truck_frames, sortie_frames, fleet, tour_end):
    """Oracle: trajectories with the truck's position at each end of a drone's
    ride aboard interpolated over the truck's frames, and the truck's frames
    extended to the tour's end."""
    tf = _dedupe([f[:3] for f in truck_frames])
    if tf[-1][0] < tour_end:
        tf.append((tour_end, tf[-1][1], tf[-1][2]))
    t_t, t_x, t_y = (np.array(c) for c in zip(*tf))
    out = {"truck": (t_t, t_x, t_y, np.zeros(len(tf)))}
    for d, flights in sortie_frames.items():
        frames = []
        t_cursor = 0.0
        for fl in flights:
            frames += _truck_slice(t_t, t_x, t_y, t_cursor, fl[0][0])
            frames += _scalar_with_altitude(_dedupe(fl), fleet.drone_altitude)
            t_cursor = fl[-1][0]
        frames += _truck_slice(t_t, t_x, t_y, t_cursor, tour_end)
        out[f"drone{d}"] = tuple(np.array(c) for c in zip(*_dedupe(frames)))
    return out


def test_trajectories_match_interpolating_oracle(monkeypatch):
    """Trajectories taken from the plan's frames are bit-equal to those
    interpolated over the truck's path, with and without drone service and
    with stops at the node the truck is on."""
    frames = {}
    build = simcore._build_trajectories

    def spy(truck_frames, sortie_frames, fleet):
        frames["args"] = (truck_frames, sortie_frames, fleet)
        return build(truck_frames, sortie_frames, fleet)

    monkeypatch.setattr(simcore, "_build_trajectories", spy)
    repeated_stop_node = flights = 0
    for case in range(80):
        for drone_service in (None, 0.0):
            sc, dset, fleet, prioritize = random_world(case, max_jobs=15, max_drones=5)
            if drone_service is not None:
                fleet.drone_service = drone_service
            plan = plan_hybrid(sc, dset, fleet, prioritize)
            trace = simulate(sc, plan, fleet)
            want = _interpolated_trajectories(*frames["args"], plan.timetable.depart[-1])
            assert sorted(trace.trajectories) == sorted(want)
            for veh, tr in trace.trajectories.items():
                for got, expect in zip((tr.times, tr.x, tr.y, tr.z), want[veh]):
                    assert got.tobytes() == expect.tobytes(), (case, drone_service, veh)
            nodes = plan.timetable.nodes
            repeated_stop_node += any(nodes[p] == nodes[p - 1]
                                      for p in plan.stop_positions.values() if p > 0)
            flights += len(plan.sorties)
    assert repeated_stop_node > 0 and flights > 0


def test_completion_pass_equals_the_simulators_completions():
    """completion_times gives simulate's completions, keys and values with
    ==, on checked plans with several sorties per drone and hover waits."""
    repeat_flights = hovers = 0
    for case in range(150):
        sc, dset, fleet, prioritize = random_world(case, max_jobs=15, max_drones=4)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        assert check_plan(plan, sc, dset, fleet) == [], case
        assert completion_times(sc, plan, fleet) == simulate(sc, plan, fleet).completion, case
        drones = [s.drone_id for s in plan.sorties]
        repeat_flights += len(drones) > len(set(drones))
        hovers += any(s.hover_wait > 0 for s in plan.sorties)
    assert repeat_flights > 10 and hovers > 10


def test_executed_launches_where_the_planner_launches():
    """Each executed flight launches at the planner's pass: the first over its
    launch node, short of the path's end, that departs once the drone is free
    (at 0, then one turnaround after each rendezvous), computed here without
    the planner's or the simulator's code."""
    later_pass = 0
    for case in range(150):
        sc, dset, fleet, prioritize = random_world(case, max_jobs=15, max_drones=4)
        plan = plan_hybrid(sc, dset, fleet, prioritize)
        assert check_plan(plan, sc, dset, fleet) == [], case
        nodes, depart = plan.timetable.nodes, plan.timetable.depart
        free = {}
        for s, li, _ in _executed(sc, plan, fleet)[1]:  # in (drone, launch time) order
            t_free = free.get(s.drone_id, 0.0)
            passes = [i for i in range(len(nodes) - 1) if nodes[i] == s.launch_node]
            assert li == next(i for i in passes if depart[i] >= t_free), case
            # an earlier pass over the node departs before the drone is free
            later_pass += passes[0] < li
            free[s.drone_id] = s.rendezvous_time + fleet.turnaround
    assert later_pass > 0


def _position_loop_simulate(scenario, plan, fleet):
    """The simulator as one pass over the truck's path positions, which
    emitted every vehicle's events at the positions where they happen: kept
    as the reference for the loop per vehicle."""
    npos = scenario.graph.nodes
    nodes = plan.timetable.nodes
    arrive = plan.timetable.arrive
    depart = plan.timetable.depart
    job_at_pos = {pos: j for j, pos in plan.stop_positions.items()}
    completion, flights = _executed(scenario, plan, fleet)

    # (sortie, rendezvous position, deliver time) by launch position: the
    # rendezvous is the first pass over its node after the launch that
    # departs at or after the rendezvous time
    launch_at: dict[int, list[tuple[Sortie, int, float]]] = {}
    for s, li, t_deliver in flights:
        r = first_pass(nodes, depart, s.rendezvous_node, s.rendezvous_time,
                       li + 1, len(nodes))
        launch_at.setdefault(li, []).append((s, r, t_deliver))
    rendezvous_at: dict[int, list[tuple[int, float, Sortie]]] = {}

    raw_events: list[tuple] = []
    truck_frames: list[tuple[float, float, float, float]] = []  # (t, x, y, z)
    sortie_frames: dict[int, list[list[tuple]]] = {d: [] for d in range(fleet.drone_count)}

    def emit(time, kind, vehicle, job, node, x, y, z):
        raw_events.append((time, _KIND_RANK[kind], vehicle, len(raw_events),
                           kind, job, node, x, y, z))

    # At each path position: the truck arrives, the drones due there rejoin
    # it, it serves its stop and departs, and drones launch as it departs.
    # The final sort by (time, kind rank, vehicle, emission index) orders
    # events across positions.
    for pos, node in enumerate(nodes):
        p = npos[node]
        t = arrive[pos]
        truck_frames.append((t, p.x, p.y, 0.0))
        if pos > 0:
            emit(t, KIND_TRUCK_ARRIVE, "truck", None, node, p.x, p.y, 0.0)
        for d, t_rdv, s in rendezvous_at.pop(pos, []):
            emit(t_rdv, KIND_DRONE_RENDEZVOUS, f"drone{d}", s.job_id, node, p.x, p.y, 0.0)
        t = depart[pos]
        if pos in job_at_pos:
            emit(t, KIND_TRUCK_SERVE, "truck", job_at_pos[pos], node, p.x, p.y, 0.0)
            truck_frames.append((t, p.x, p.y, 0.0))
        if pos + 1 == len(nodes):
            emit(t, KIND_TOUR_COMPLETE, "truck", None, node, p.x, p.y, 0.0)
            break
        for s, r, t_deliver in launch_at.get(pos, []):
            d = s.drone_id
            txy = (s.target_x, s.target_y)
            t_complete = completion[s.job_id]
            emit(t, KIND_DRONE_LAUNCH, f"drone{d}", s.job_id, node, p.x, p.y, 0.0)
            emit(t_complete, KIND_DRONE_DELIVER, f"drone{d}", s.job_id, None,
                 txy[0], txy[1], fleet.drone_altitude)
            rp = npos[s.rendezvous_node]
            back_d = math.hypot(rp.x - txy[0], rp.y - txy[1])
            t_arr = t_complete + back_d / fleet.drone_speed
            t_rdv = arrive[r] if arrive[r] > t_arr else t_arr
            rendezvous_at.setdefault(r, []).append((d, t_rdv, s))
            sortie_frames[d].append([
                (t, p.x, p.y), (t_deliver, txy[0], txy[1]),
                (t_complete, txy[0], txy[1]), (t_arr, rp.x, rp.y), (t_rdv, rp.x, rp.y)])

    events = [SimEvent(e[0], e[4], e[2], e[5], e[6], e[7], e[8], e[9])
              for e in sorted(raw_events)]
    if not (plan.stop_positions or plan.sorties):
        events = [ev for ev in events if ev.kind == KIND_TOUR_COMPLETE]

    trajectories = _build_trajectories(truck_frames, sortie_frames, fleet)
    return DeliveryTrace(events, completion, trajectories)


def test_loop_per_vehicle_equals_the_position_loop():
    """simulate's events, completions and trajectories are field-identical
    to the position loop's, with the fleet as drawn and with zero truck or
    drone service, which gives one vehicle several events at one time."""
    same_time = 0
    for case in range(400):
        sc, dset, drawn, prioritize = random_world(case, max_jobs=15, max_drones=5)
        for fleet in (drawn, replace(drawn, truck_service=0.0),
                      replace(drawn, drone_service=0.0)):
            plan = plan_hybrid(sc, dset, fleet, prioritize)
            got = simulate(sc, plan, fleet)
            want = _position_loop_simulate(sc, plan, fleet)
            # repr round-trips every float, so -0.0 and 0.0 differ too
            assert repr(got.events) == repr(want.events), case
            assert repr(got.completion) == repr(want.completion), case
            assert sorted(got.trajectories) == sorted(want.trajectories), case
            for veh, tr in got.trajectories.items():
                ref = want.trajectories[veh]
                for a, b in zip((tr.times, tr.x, tr.y, tr.z), (ref.times, ref.x, ref.y, ref.z)):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (case, veh)
            keys = [(e.time, e.vehicle) for e in got.events]
            same_time += len(keys) > len(set(keys))
    assert same_time > 100
