"""Deterministic execution of a hybrid plan.

The execution follows a plan that ``hybrid.check_plan`` has proven: the
truck follows the plan's timetable, bit-equal to the planner's fold over
the road's edge times and the truck service at the stops, and each drone
launches and rejoins the truck at the path positions of its sortie, which
equals the planner's ``_fly`` for its launch node and target. Only the
drones' flight seconds are recomputed, from the sorties' targets, the road
nodes and the fleet configuration, so completion-time agreement with the
planner cross-checks them. ``completion_times`` gives a run's completions
alone, by the same arithmetic, for callers that read no trace. One loop over
the truck's path positions emits the truck's events, and one over the executed
flights each drone's; a final sort orders them all. A single run is
sequential; separate runs share only immutable inputs.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import ParseError
from .hybrid import FleetConfig, HybridPlan, Sortie, first_pass
from .scenario import Scenario

_CLIMB_RATE_MPS = 10.0  # vertical transition rate for trajectory altitude ramps

KIND_TRUCK_ARRIVE = "truck_arrive"
KIND_TRUCK_SERVE = "truck_serve"
KIND_DRONE_LAUNCH = "drone_launch"
KIND_DRONE_DELIVER = "drone_deliver"
KIND_DRONE_RENDEZVOUS = "drone_rendezvous"
KIND_TOUR_COMPLETE = "tour_complete"

_KIND_RANK = {
    KIND_TRUCK_ARRIVE: 0,
    KIND_DRONE_RENDEZVOUS: 1,
    KIND_TRUCK_SERVE: 2,
    KIND_DRONE_LAUNCH: 3,
    KIND_DRONE_DELIVER: 4,
    KIND_TOUR_COMPLETE: 9,
}


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: str
    vehicle: str
    job: int | None
    node: int | None
    x: float
    y: float
    z: float


@dataclass
class Trajectory:
    """Piecewise-linear position over time."""
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


@dataclass
class DeliveryTrace:
    events: list[SimEvent]
    completion: dict[int, float]
    trajectories: dict[str, Trajectory]

    @property
    def end_time(self) -> float:
        return self.events[-1].time if self.events else 0.0

    def airborne_windows(self) -> dict[str, list[tuple[float, float]]]:
        """vehicle -> [(launch, rendezvous)] intervals, from the event log."""
        out: dict[str, list[tuple[float, float]]] = {}
        open_at: dict[str, float] = {}
        for ev in self.events:
            if ev.kind == KIND_DRONE_LAUNCH:
                open_at[ev.vehicle] = ev.time
            elif ev.kind == KIND_DRONE_RENDEZVOUS and ev.vehicle in open_at:
                out.setdefault(ev.vehicle, []).append((open_at.pop(ev.vehicle), ev.time))
        return out


def completion_times(scenario: Scenario, plan: HybridPlan,
                     fleet: FleetConfig) -> dict[int, float]:
    """Job id -> completion time of a plan that ``hybrid.check_plan``
    accepts, as ``simulate`` gives it, without building its trace."""
    return _executed(scenario, plan, fleet)[0]


def _executed(scenario: Scenario, plan: HybridPlan, fleet: FleetConfig):
    """The completion times, and (sortie, launch position, deliver time) per
    sortie in (drone, launch time) order: the simulator's one completion
    arithmetic.

    A truck job completes at its stop's departure. A sortie launches at the
    first pass over its launch node that departs once its drone is free (at
    0, then one turnaround after each rendezvous), delivers its outbound
    leg's ``math.hypot`` meters later at drone speed, and completes drone
    service after delivering.
    """
    npos = scenario.graph.nodes
    nodes = plan.timetable.nodes
    depart = plan.timetable.depart
    completion = {j: depart[pos] for j, pos in plan.stop_positions.items()}
    flights: list[tuple[Sortie, int, float]] = []
    free: dict[int, float] = {}
    for s in sorted(plan.sorties, key=lambda s: (s.drone_id, s.launch_time)):
        li = first_pass(nodes, depart, s.launch_node, free.get(s.drone_id, 0.0),
                        0, len(nodes) - 1)
        p = npos[s.launch_node]
        out_d = math.hypot(p.x - s.target_x, p.y - s.target_y)
        t_deliver = depart[li] + out_d / fleet.drone_speed
        completion[s.job_id] = t_deliver + fleet.drone_service
        flights.append((s, li, t_deliver))
        free[s.drone_id] = s.rendezvous_time + fleet.turnaround
    return completion, flights


def simulate(scenario: Scenario, plan: HybridPlan, fleet: FleetConfig) -> DeliveryTrace:
    """Execute a plan that ``hybrid.check_plan`` accepts for this scenario
    and fleet; returns events, completions, and trajectories.

    Truck jobs are served at their stops' path positions. Each drone launches
    and rejoins the truck at the path positions its proven sortie gives; only
    its flight seconds to and from the sortie's ``target_x``/``target_y``
    are recomputed. The completions are ``completion_times``'.
    """
    npos = scenario.graph.nodes
    nodes = plan.timetable.nodes
    arrive = plan.timetable.arrive
    depart = plan.timetable.depart
    job_at_pos = {pos: j for j, pos in plan.stop_positions.items()}
    completion, flights = _executed(scenario, plan, fleet)

    raw_events: list[tuple] = []
    truck_frames: list[tuple[float, float, float, float]] = []  # (t, x, y, z)
    sortie_frames: dict[int, list[list[tuple]]] = {d: [] for d in range(fleet.drone_count)}

    def emit(time, kind, vehicle, job, node, x, y, z):
        raw_events.append((time, _KIND_RANK[kind], vehicle, len(raw_events),
                           kind, job, node, x, y, z))

    # The final sort by (time, kind rank, vehicle, emission index) orders the
    # events; the index only decides between one vehicle's events of one time
    # and rank. The truck emits in path order, and a drone's launches,
    # deliveries and rendezvous each rise strictly in time (turnaround > 0).
    for pos, node in enumerate(nodes):
        p = npos[node]
        truck_frames.append((arrive[pos], p.x, p.y, 0.0))
        if pos > 0:
            emit(arrive[pos], KIND_TRUCK_ARRIVE, "truck", None, node, p.x, p.y, 0.0)
        if pos in job_at_pos:
            emit(depart[pos], KIND_TRUCK_SERVE, "truck", job_at_pos[pos], node, p.x, p.y, 0.0)
            truck_frames.append((depart[pos], p.x, p.y, 0.0))
    emit(depart[-1], KIND_TOUR_COMPLETE, "truck", None, nodes[-1], p.x, p.y, 0.0)

    # a drone rejoins the truck at the first pass over the rendezvous node
    # after its launch that departs at or after the rendezvous time
    for s, li, t_deliver in flights:
        lp, rp = npos[s.launch_node], npos[s.rendezvous_node]
        t, t_complete = depart[li], completion[s.job_id]
        r = first_pass(nodes, depart, s.rendezvous_node, s.rendezvous_time, li + 1, len(nodes))
        t_arr = t_complete + math.hypot(rp.x - s.target_x, rp.y - s.target_y) / fleet.drone_speed
        t_rdv = arrive[r] if arrive[r] > t_arr else t_arr
        vehicle = f"drone{s.drone_id}"
        emit(t, KIND_DRONE_LAUNCH, vehicle, s.job_id, s.launch_node, lp.x, lp.y, 0.0)
        emit(t_complete, KIND_DRONE_DELIVER, vehicle, s.job_id, None,
             s.target_x, s.target_y, fleet.drone_altitude)
        emit(t_rdv, KIND_DRONE_RENDEZVOUS, vehicle, s.job_id, s.rendezvous_node, rp.x, rp.y, 0.0)
        sortie_frames[s.drone_id].append([
            (t, lp.x, lp.y), (t_deliver, s.target_x, s.target_y),
            (t_complete, s.target_x, s.target_y), (t_arr, rp.x, rp.y), (t_rdv, rp.x, rp.y)])

    events = [SimEvent(e[0], e[4], e[2], e[5], e[6], e[7], e[8], e[9])
              for e in sorted(raw_events)]
    if not (plan.stop_positions or plan.sorties):
        events = [ev for ev in events if ev.kind == KIND_TOUR_COMPLETE]

    trajectories = _build_trajectories(truck_frames, sortie_frames, fleet)
    return DeliveryTrace(events, completion, trajectories)


def _build_trajectories(truck_frames, sortie_frames,
                        fleet: FleetConfig) -> dict[str, Trajectory]:
    """The truck's frames, and per drone its flights' frames with the truck's
    frames strictly between them while it rides aboard.

    A flight's end frames are at its launch and rendezvous, where a plan
    that ``check_plan`` accepts has the truck at the flight's end nodes, on
    a truck frame or within a stop's dwell; so they also give the truck's
    position at those times.
    """
    tf = _dedupe(truck_frames)
    times = [f[0] for f in tf]
    out = {"truck": _trajectory(tf)}
    for d, flights in sortie_frames.items():
        frames = []
        lo = 0
        for fl in flights:
            frames += tf[lo:bisect_left(times, fl[0][0])]
            frames += _with_altitude(_dedupe(fl), fleet.drone_altitude)
            lo = bisect_right(times, fl[-1][0])
        frames += tf[lo:]
        out[f"drone{d}"] = _trajectory(_dedupe(frames))
    return out


def _trajectory(frames) -> Trajectory:
    return Trajectory(*(np.array(column) for column in zip(*frames)))


def _dedupe(frames):
    out = []
    for fr in frames:
        if out and fr[0] == out[-1][0]:
            out[-1] = fr
        else:
            out.append(fr)
    return out


def _with_altitude(fl, alt: float):
    """Attach a trapezoidal altitude profile to a sortie's xy keyframes.

    The drone ramps between ground and cruise altitude at a fixed vertical
    rate at the start and end of the flight (clipped to a triangle for very
    short sorties), so it spends nearly the whole sortie at altitude while
    the position-over-time function stays continuous.
    """
    t0 = fl[0][0]
    te = fl[-1][0]
    if te <= t0:
        return [(t0, fl[-1][1], fl[-1][2], 0.0)]
    tc = alt / _CLIMB_RATE_MPS
    if 2.0 * tc < te - t0:
        breakpoints = {t0 + tc, te - tc}
    else:
        breakpoints = {(t0 + te) / 2.0}
    ts, xs, ys = zip(*fl)
    all_t = sorted(set(ts) | breakpoints)
    zs = [max(0.0, alt * min(1.0, (t - t0) / tc, (te - t) / tc)) for t in all_t]
    return list(zip(all_t, np.interp(all_t, ts, xs).tolist(),
                    np.interp(all_t, ts, ys).tolist(), zs))


# ---------------------------------------------------------------------------
# trace files: CSV event log plus a JSON sidecar with trajectories


_TRACE_COLUMNS = ["time_s", "kind", "vehicle", "job", "node", "x", "y", "z"]


def trace_sidecar_path(csv_path) -> str:
    return str(csv_path) + ".traj.json"


def save_trace(trace: DeliveryTrace, csv_path) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(_TRACE_COLUMNS)
        for ev in trace.events:
            w.writerow([repr(ev.time), ev.kind, ev.vehicle,
                        "" if ev.job is None else ev.job,
                        "" if ev.node is None else ev.node,
                        repr(ev.x), repr(ev.y), repr(ev.z)])
    sidecar = {
        "completion": {str(k): v for k, v in sorted(trace.completion.items())},
        "trajectories": {
            veh: {"t": tr.times.tolist(), "x": tr.x.tolist(),
                  "y": tr.y.tolist(), "z": tr.z.tolist()}
            for veh, tr in sorted(trace.trajectories.items())},
    }
    fields.write_json(sidecar, trace_sidecar_path(csv_path))


def load_trace(csv_path) -> DeliveryTrace:
    events = []
    for i, row in enumerate(fields.read_csv(csv_path, _TRACE_COLUMNS), 1):
        try:
            ev = SimEvent(float(row["time_s"]), row["kind"], row["vehicle"],
                          int(row["job"]) if row["job"] else None,
                          int(row["node"]) if row["node"] else None,
                          float(row["x"]), float(row["y"]), float(row["z"]))
        except ValueError as exc:
            raise ParseError(f"{csv_path}: bad event row {i}: {exc}") from exc
        if not all(map(math.isfinite, (ev.time, ev.x, ev.y, ev.z))):
            raise ParseError(f"{csv_path}: row {i}: time and position must be finite")
        if events and ev.time < events[-1].time:  # end_time is the last row's time
            raise ParseError(f"{csv_path}: row {i}: time {ev.time!r} s is before "
                             f"the previous row's {events[-1].time!r} s")
        events.append(ev)
    completion, trajectories = _read_sidecar(fields.read_json(trace_sidecar_path(csv_path)))
    launched = {ev.vehicle for ev in events if ev.kind == KIND_DRONE_LAUNCH}
    for veh in ["truck", *sorted(launched)]:
        if veh not in trajectories:
            raise ParseError(f"sidecar.trajectories: missing vehicle {veh!r}")
    trace = DeliveryTrace(events, completion, trajectories)
    # positions are interpolated over the log's times, and np.interp would
    # hold a trajectory's end samples beyond it
    spans = trace.airborne_windows()
    if events:
        spans["truck"] = [(events[0].time, trace.end_time)]
    for veh, windows in sorted(spans.items()):
        first, last = float(trajectories[veh].times[0]), float(trajectories[veh].times[-1])
        for lo, hi in windows:
            if lo < first:
                gap = f"starts at {first!r} s, after the event log's {lo!r} s"
            elif hi > last:
                gap = f"ends at {last!r} s, before the event log's {hi!r} s"
            else:
                continue
            raise ParseError(f"sidecar.trajectories.{veh}.t: {gap}")
    return trace


def _read_sidecar(data) -> tuple[dict[int, float], dict[str, Trajectory]]:
    trajectories, completion = fields.unpack(data, "sidecar", trajectories=fields.obj,
                                             completion=fields.by_int_key(fields.finite))
    finites = fields.list_of(fields.finite)
    out = {}
    for veh, tr in trajectories.items():
        where = f"sidecar.trajectories.{veh}"
        t, x, y, z = fields.unpack(tr, where, t=finites, x=finites, y=finites, z=finites)
        if not len(t) == len(x) == len(y) == len(z) > 0:
            raise ParseError(f"{where}: t, x, y and z must be non-empty and of one length")
        if any(a >= b for a, b in zip(t, t[1:])):  # np.interp needs increasing samples
            raise ParseError(f"{where}.t: must be strictly increasing")
        out[veh] = Trajectory(np.array(t), np.array(x), np.array(y), np.array(z))
    return completion, out
