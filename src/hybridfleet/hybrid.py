"""En-route truck-drone assignment.

Drones launch from and rejoin the moving truck at road-graph nodes on its
path; the truck never stops for drone operations. Launches happen at the
truck's departure instant over a node, recovery any time up to its departure
from a later node. A drone carries one parcel per sortie and needs a
turnaround aboard the truck between sorties.

The planner starts from a pure truck tour and greedily moves one job at a
time to a drone, committing the single (job, drone, launch node) candidate
that most reduces the summed predicted completion times, until no candidate
improves.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace

from . import fields, kernels
from .errors import ParameterError, ParseError, PlanConsistencyError
from .jobs import Category, DeliverySet
from .routing import (Solver, job_nodes, plain_schedule, priority_schedule,
                      routing_cache)
from .scenario import Scenario

_EPS = 1e-9
# a truck carries a handful of drones; the planner and simulator keep state
# for each drone of the fleet, idle ones too
_MAX_DRONES = 1000


@dataclass
class FleetConfig:
    truck_speed: float = 8.33        # m/s, capped by road speed limits
    truck_service: float = 60.0      # s per truck-served delivery
    drone_count: int = 0
    drone_speed: float = 12.0        # m/s ground speed
    drone_endurance: float = 1200.0  # s airborne per sortie
    drone_service: float = 30.0      # s at the customer, incl. vertical transit
    turnaround: float = 60.0         # s aboard the truck between sorties
    drone_altitude: float = 50.0     # m cruise altitude


def validate_fleet(fleet: FleetConfig) -> None:
    # negated comparisons, so that NaN fails them too
    for name in ("truck_speed", "drone_speed", "drone_endurance", "turnaround",
                 "drone_altitude"):
        if not getattr(fleet, name) > 0:
            raise ParameterError(f"fleet.{name} must be positive")
    for name in ("truck_service", "drone_service"):
        if not getattr(fleet, name) >= 0:
            raise ParameterError(f"fleet.{name} must be non-negative")
    check_drone_count(fleet.drone_count, "fleet.drone_count")


def check_drone_count(count, name: str) -> None:
    """Raise ParameterError, with name in its message, unless the planner takes count drones."""
    if not isinstance(count, int) or not 0 <= count <= _MAX_DRONES:
        raise ParameterError(f"{name} must be an integer >= 0 and <= {_MAX_DRONES}, "
                             f"got {count!r}")


@dataclass
class Sortie:
    drone_id: int
    job_id: int
    launch_node: int
    launch_time: float
    rendezvous_node: int
    rendezvous_time: float
    leg_out_m: float          # launch -> target
    leg_back_m: float         # target -> rendezvous
    hover_wait: float         # s waiting at the rendezvous node
    deliver_time: float       # arrival at the target
    target_x: float           # delivery point, for executors of the plan
    target_y: float


@dataclass
class TruckTimetable:
    nodes: list[int]
    arrive: list[float]
    depart: list[float]


@dataclass
class HybridPlan:
    stop_positions: dict[int, int]     # job id -> path position, in truck service order
    timetable: TruckTimetable
    sorties: list[Sortie]
    completion: dict[int, float]       # job id -> predicted completion (s)
    prioritized: bool
    objective: float                   # sum of completions, as plan_objective adds them
    makespan: float                    # truck's depot-return time


def plan_objective(completion: dict[int, float], stops, sorties: list[Sortie]) -> float:
    """The stops' and sorties' jobs' completions (NaN where missing), summed as the planner
    sums them: the stops' by math.fsum, then the sorties' in (drone, launch time) order."""
    drone_sum = 0.0
    for s in sorted(sorties, key=lambda s: (s.drone_id, s.launch_time)):
        drone_sum += completion.get(s.job_id, math.nan)
    return math.fsum([completion.get(j, math.nan) for j in stops]) + drone_sum


# ---------------------------------------------------------------------------
# drone sorties


_NO_LAUNCH = -1  # _fly status: the truck passes the launch node too early or never
_NO_SORTIE = {_NO_LAUNCH: "no truck pass over its launch node after the drone is free",
              kernels.SORTIE_NO_NODE: "no rendezvous on the rest of the path",
              kernels.SORTIE_ENDURANCE: "endurance exceeded"}


def first_pass(path: list[int], depart, node: int, t: float, start: int, stop: int) -> int:
    """The first position of path[start:stop] over node that departs at or
    after t, or -1 when there is none."""
    i = start - 1
    try:
        while True:
            i = path.index(node, i + 1, stop)
            if depart[i] >= t:
                return i
    except ValueError:
        return -1


def _fly(path: list[int], path_x, path_y, arrive, depart, launch_node: int,
         free_at: float, drone_id: int, job_id: int, tx: float, ty: float,
         fleet: FleetConfig) -> tuple[int, int, Sortie | None]:
    """Sortie launched at the first truck pass over launch_node (the path's
    last position excluded) that departs at or after free_at.

    Returns (status, rendezvous position, sortie): status is a
    ``kernels.SORTIE_*`` code, or _NO_LAUNCH when there is no such pass; the
    sortie is None unless the status is SORTIE_OK.
    """
    li = first_pass(path, depart, launch_node, free_at, 0, len(path) - 1)
    if li < 0:
        return _NO_LAUNCH, -1, None
    status, r, t_deliver, t_arr, t_rdv = kernels.sortie_from_launch(
        path_x, path_y, arrive, depart, li, tx, ty,
        fleet.drone_speed, fleet.drone_service, fleet.drone_endurance)
    if status != kernels.SORTIE_OK:
        return status, r, None
    t0 = depart[li]
    return status, r, Sortie(
        drone_id=drone_id, job_id=job_id, launch_node=launch_node, launch_time=t0,
        rendezvous_node=path[r], rendezvous_time=t_rdv,
        leg_out_m=(t_deliver - t0) * fleet.drone_speed,
        leg_back_m=(t_arr - t_deliver - fleet.drone_service) * fleet.drone_speed,
        hover_wait=t_rdv - t_arr, deliver_time=t_deliver, target_x=tx, target_y=ty)


# ---------------------------------------------------------------------------
# plan construction


@dataclass
class _Built:
    """One assembled plan state: truck path and timetable plus the sorties.
    Every per-position field is a Python list, as the sortie kernels scan it."""
    stop_pos: list[int]          # path position of each truck stop, in stop order
    path: list[int]              # node id per path position
    path_x: list[float]
    path_y: list[float]
    steps: list[float]           # truck time from each position to the next
    services: list[float]        # truck stop time at each position
    arrive: list[float]
    depart: list[float]
    flights: list[tuple[Sortie, int, float]]  # (sortie, rendezvous position,
                                              #  drone free time before it)
    free: dict[int, float]       # drone -> free time after its last sortie
    truck_sum: float
    drone_sum: float

    @property
    def total(self) -> float:
        return self.truck_sum + self.drone_sum

    @property
    def sorties(self) -> list[Sortie]:
        return [f[0] for f in self.flights]


# node ids, x, y, step times and stop times of the positions a segment appends
_Segment = tuple[list[int], list[float], list[float], list[float], list[float]]


class _PlanContext:
    """Per-(scenario, set, fleet) state of the greedy improvement loop."""

    def __init__(self, scenario: Scenario, dset: DeliverySet, fleet: FleetConfig):
        self.fleet = fleet
        self.routes = routing_cache(scenario, fleet.truck_speed)
        geom = scenario.geometry()
        self.node_x = geom.node_x.tolist()
        self.node_y = geom.node_y.tolist()
        self.node_index = geom.node_index
        self.nodes_of = job_nodes(scenario, dset)
        if len(self.nodes_of) != len(dset.jobs):
            raise ParameterError(f"delivery set {dset.id} repeats a job id")
        self.target_xy = {j.id: (j.target.x, j.target.y) for j in dset.jobs}
        self.depot = scenario.depot
        self._seg_cache: dict[tuple[int, int], _Segment] = {}
        i = self.node_index[self.depot]
        self._origin = _Built([], [self.depot], [self.node_x[i]], [self.node_y[i]],
                              [], [0.0], [0.0], [0.0], [], {}, 0.0, 0.0)

    def _segment(self, u: int, v: int) -> _Segment:
        """The path positions that driving from u to a stop at v appends:
        node ids, coordinates, the truck time of each step and the stop
        times (the truck's service at v, else zero). A stop at the node the
        truck is on appends that node again with a zero step."""
        key = (u, v)
        seg = self._seg_cache.get(key)
        if seg is None:
            if u == v:
                nodes, steps = [v], [0.0]
            else:
                path, steps = self.routes.walk(u, v)
                nodes = path[1:]
            index = [self.node_index[n] for n in nodes]
            seg = (nodes, [self.node_x[i] for i in index], [self.node_y[i] for i in index],
                   steps, [0.0] * (len(nodes) - 1) + [self.fleet.truck_service])
            self._seg_cache[key] = seg
        return seg

    def assemble(self, assignments: dict[int, list[tuple[int, int]]], route: list[int],
                 base: _Built | None = None, keep: int = 0,
                 resume: int | None = None) -> _Built | None:
        """The plan state for a truck stop order plus the committed drone
        assignments; None when a committed sortie no longer fits.

        The stops are base's first ``keep`` stops, then the jobs of
        ``route``, and then, when ``resume`` is given, base's stops after its
        stop ``resume``, which must be route's last job. Without a base the
        state is built from the depot. A base must have been assembled or
        committed for the same assignments. Of it, these parts are reused as
        they are, because the same float operations would give them again:
        the path and timetable up to the position p of its last kept stop
        (the depot when keep is 0), the path after its stop ``resume``, and
        each sortie that meets the truck by p and starts from the same drone
        free time. Only the route's segments are spliced in, the timetable
        is resumed from base's arrival at p, and the other sorties are flown
        anew, in the order a build from the depot would take.
        """
        fleet = self.fleet
        if base is None:
            base = self._origin
        p = base.stop_pos[keep - 1] if keep else 0
        path = base.path[:p + 1]
        path_x = base.path_x[:p + 1]
        path_y = base.path_y[:p + 1]
        steps = base.steps[:p]
        services = base.services[:p + 1]
        stop_pos = base.stop_pos[:keep]
        u = path[p]
        for j in route:
            u = self.nodes_of[j]
            seg_nodes, seg_x, seg_y, seg_steps, seg_services = self._segment(path[-1], u)
            path += seg_nodes
            path_x += seg_x
            path_y += seg_y
            steps += seg_steps
            services += seg_services
            stop_pos.append(len(path) - 1)
        if resume is not None:
            q = base.stop_pos[resume]
            shift = len(path) - 1 - q
            path += base.path[q + 1:]
            path_x += base.path_x[q + 1:]
            path_y += base.path_y[q + 1:]
            steps += base.steps[q:]
            services += base.services[q + 1:]
            stop_pos += [pos + shift for pos in base.stop_pos[resume + 1:]]
        elif u != self.depot:
            seg_nodes, seg_x, seg_y, seg_steps, _ = self._segment(u, self.depot)
            path += seg_nodes
            path_x += seg_x
            path_y += seg_y
            steps += seg_steps
            services += [0.0] * len(seg_nodes)

        arrive_p, depart_p = kernels.build_timetable(steps[p:], services[p:], base.arrive[p])
        arrive = base.arrive[:p] + arrive_p
        depart = base.depart[:p] + depart_p
        truck_sum = math.fsum([depart[pos] for pos in stop_pos])

        reusable = iter(base.flights)
        flights: list[tuple[Sortie, int, float]] = []
        free = {}
        drone_sum = 0.0
        for d in sorted(assignments):
            t_free = 0.0
            for job, lnode in assignments[d]:
                old = next(reusable, None)
                if old is not None and old[1] <= p and old[2] == t_free:
                    sortie, r = old[0], old[1]
                else:
                    tx, ty = self.target_xy[job]
                    _, r, sortie = _fly(path, path_x, path_y, arrive, depart, lnode,
                                        t_free, d, job, tx, ty, fleet)
                    if sortie is None:
                        return None
                flights.append((sortie, r, t_free))
                drone_sum += sortie.deliver_time + fleet.drone_service
                t_free = sortie.rendezvous_time + fleet.turnaround
            free[d] = t_free

        return _Built(stop_pos, path, path_x, path_y, steps, services,
                      arrive, depart, flights, free, truck_sum, drone_sum)

    def commit(self, built: _Built, drone: int, job: int, lnode: int) -> _Built:
        """built plus drone's sortie for job from lnode, flown after the
        drone's other sorties.

        built must be the state assemble gives for the committed assignments
        with job off the truck, and the sortie one that best_sortie found
        feasible on it. The result then equals a build from the depot with
        the sortie assigned: the truck part and every other flight are
        built's, the new flight leaves from built's free time of the drone
        and joins the flights in drone id, then assignment order, and the
        drone sum is added anew in that order.
        """
        fleet = self.fleet
        tx, ty = self.target_xy[job]
        t_free = built.free[drone]
        _, r, sortie = _fly(built.path, built.path_x, built.path_y, built.arrive, built.depart,
                            lnode, t_free, drone, job, tx, ty, fleet)
        at = sum(1 for f in built.flights if f[0].drone_id <= drone)
        flights = built.flights[:at] + [(sortie, r, t_free)] + built.flights[at:]
        drone_sum = 0.0
        for f in flights:
            drone_sum += f[0].deliver_time + fleet.drone_service
        free = dict(built.free)
        free[drone] = sortie.rendezvous_time + fleet.turnaround
        return replace(built, flights=flights, free=free, drone_sum=drone_sum)


def _candidate_bounds(ctx: _PlanContext, current: _Built,
                      truck_jobs: list[int]) -> list[tuple[float, float, float]]:
    """Per truck stop k, lower bounds on the candidate without stop k that
    assemble would build from current: (truck sum, drone sum, earliest
    drone free time), with no build.

    Let p be stop k-1's path position (the depot's when k is 0). The stops
    before k keep their departures, and in real arithmetic every stop after
    k departs delta earlier, where delta is current's arrival at stop k+1
    less the departure at p plus the steps of the segment that now joins p
    to stop k+1. So the truck sum is exact up to float error, and the truck
    bound subtracts a margin of 1e-9 * (1 + abs(current.total)) for it.
    Every departure, here and in the candidate, is a left fold of at most L
    non-negative times over a path of L positions, the prefix sums add n
    more terms for n stops, and delta is the difference of two such times,
    counted at most n times. The error is then below about (2L + 3n) * 2**-53
    of the larger of the two truck sums, and only a candidate whose truck
    sum is below current's total can reduce it; so the margin exceeds the
    error while 2L + 3n stays below about 10**7, far beyond any road tour.

    Per drone, the leading flights that meet the truck by p are the ones
    assemble reuses, and they count exactly. Any later flight launches at
    or after the drone's free time f and returns after its service, so it
    counts f + drone_service, and f moves on by drone_service + turnaround.
    The terms are added in assemble's order and float rounding is monotone,
    so the drone sum and every free time are lower bounds in floats too.
    """
    fleet = ctx.fleet
    service, turnaround = fleet.drone_service, fleet.turnaround
    stop_pos, path, arrive, depart = current.stop_pos, current.path, current.arrive, current.depart
    n = len(stop_pos)
    margin = 1e-9 * (1 + abs(current.total))
    prefix = [0.0]  # prefix[i]: the departures of stops 0..i-1, summed
    for pos in stop_pos:
        prefix.append(prefix[-1] + depart[pos])
    # the drone bounds change with p only where p passes a rendezvous
    rendezvous = sorted(f[1] for f in current.flights)
    met = -1  # how many rendezvous the drone bounds below were made for
    bounds = []
    for k in range(n):
        p = stop_pos[k - 1] if k else 0
        truck = prefix[k] - margin
        if k + 1 < n:
            steps = ctx._segment(path[p], ctx.nodes_of[truck_jobs[k + 1]])[3]
            delta = arrive[stop_pos[k + 1]] - (depart[p] + sum(steps))
            truck += (prefix[n] - prefix[k + 1]) - (n - k - 1) * delta
        count = bisect_right(rendezvous, p)
        if count != met:
            met = count
            drone = 0.0
            free = dict.fromkeys(current.free, 0.0)
            reused = set(free)  # drones whose flights so far are all reused
            for sortie, r, _ in current.flights:
                d = sortie.drone_id
                if d in reused and r <= p:
                    drone += sortie.deliver_time + service
                    free[d] = sortie.rendezvous_time + turnaround
                else:
                    reused.discard(d)
                    drone += free[d] + service
                    free[d] = free[d] + service + turnaround
            free_min = min(free.values())
        bounds.append((truck, drone, free_min))
    return bounds


def plan_hybrid(scenario: Scenario, dset: DeliverySet, fleet: FleetConfig,
                prioritize: bool = True, solver: Solver = "heuristic") -> HybridPlan:
    """Plan the full delivery for the fleet's drone count: base truck tour,
    then greedy drone offloading (``plan_hybrid_counts`` with that one count).

    Each improvement step evaluates, for every truck job, removing it from
    the tour (remaining order kept, path re-spliced) and flying it with every
    drone from its best launch node. The step's record is the (reduction of
    summed completion times, -job id, -drone id) of its best result so far,
    from (1e-9, inf, inf), and a result wins when it is above the record: the
    largest reduction above 1e-9, the smallest job id then drone id on ties.
    Stops when no candidate wins. The state a step commits is the winning
    candidate plus its one new flight (``_PlanContext.commit``), so the plan
    is built from the depot once.

    A scan for a drone free at time f cannot reduce by more than its bound
    ``total - (partial + (f + drone_service))``: the kernel launches only at
    departures at or after f and flies a non-negative time, and float
    rounding is monotone, so the scan's completion is at least ``f +
    drone_service``. The bound cannot rise as f rises, so no scan of a
    candidate beats its bound at its earliest drone free time. That test is
    made without building the candidate: ``_candidate_bounds`` gives each
    candidate lower bounds on its truck sum, its drone sum and its earliest
    drone free time from the current state alone, and each makes the
    candidate's bound ``total - (truck + drone + (free + drone_service))`` at
    least the one the build would give (the truck's float error is covered
    by a margin).

    The step builds its candidates in descending order of (bound, -job id),
    so the record rises early, and it ends at the first candidate whose
    (bound, -job id) is at most the record's: no result of it or of a later
    one can beat the record. A scan whose (bound, -job id, -drone id) is at
    most the record is skipped. Nothing skipped could have won, so the
    winner is the largest (reduction, -job id, -drone id) of the step, and
    the plans are bit-identical to those of the exhaustive loop in job-id
    order.
    """
    plan = plan_hybrid_counts(scenario, dset, fleet, [fleet.drone_count], prioritize,
                              solver)[fleet.drone_count]
    if isinstance(plan, Exception):
        raise plan
    return plan


def plan_hybrid_counts(scenario: Scenario, dset: DeliverySet, fleet: FleetConfig,
                       drone_counts: list[int], prioritize: bool = True,
                       solver: Solver = "heuristic") -> dict[int, HybridPlan | Exception]:
    """plan_hybrid's plan for each of the distinct drone counts (each from 0
    to fleet.drone_count, the fleet otherwise as given), from one greedy run.

    An idle drone is free at 0, the step scans one drone per free time and
    ties go to the lower drone id, so the drones take their first sorties in
    id order. While a plan for c drones still has an idle drone, the plan
    for more drones has one too, at the same free time, and every other
    drone flies the same flights: both plans build the same candidates, with
    the same bounds, record and winner. So the c-drone plan takes the larger
    plan's steps up to the one that gives drone c-1 its first sortie.
    Counting on that, one greedy run plans the largest count, and right
    after that step takes a snapshot for c: the state with its free times
    limited to drones below c, and copies of the truck jobs and of those
    drones' assignments. The c-drone plan is then finished from its
    snapshot by the same loop. The 0-drone plan is the tour before any
    step, and a count whose drones are never all used ends where the large
    run ends. The routing cache, the segments, the schedule and the first
    build are made once for every count.

    The shared part (the schedule, a repeated job id) raises. An error in
    a step maps every count that shares the step to it, and an error in a
    count's own steps maps that count alone; the other counts keep their
    plans. No two plans share a list or a sortie.
    """
    validate_fleet(fleet)
    counts = sorted(drone_counts)
    if (not counts or len(set(counts)) < len(counts)
            or not 0 <= counts[0] <= counts[-1] <= fleet.drone_count):
        raise ParameterError(f"drone counts {drone_counts} must be distinct, each from 0 to "
                             f"the fleet's {fleet.drone_count}")
    ctx = _PlanContext(scenario, dset, fleet)
    truck_jobs = (priority_schedule if prioritize else plain_schedule)(
        scenario, dset, ctx.nodes_of, fleet.truck_speed, solver)
    most = counts[-1]
    current = ctx.assemble({d: [] for d in range(most)}, truck_jobs)
    plans: dict[int, HybridPlan | Exception] = {}
    if counts[0] == 0:
        plans[0] = _plan_of(current, truck_jobs, prioritize, fleet)
    flying = [c for c in counts if c > 0]
    if not flying:
        return plans

    snapshots = dict.fromkeys(flying[:-1])
    try:
        final = _improve(ctx, current, truck_jobs, {d: [] for d in range(most)}, snapshots)
    except Exception as exc:  # every count without a snapshot shares the failed step
        final = exc
    for c in flying:
        snapshot = snapshots.get(c)
        if snapshot is None:  # c shares every step of the large run
            plans[c] = (final if isinstance(final, Exception)
                        else _plan_of(final, truck_jobs, prioritize, fleet))
            continue
        state, jobs, assignments = snapshot
        try:
            plans[c] = _plan_of(_improve(ctx, state, jobs, assignments, {}),
                                jobs, prioritize, fleet)
        except Exception as exc:  # count c's own steps fail count c alone
            plans[c] = exc
    return plans


def _improve(ctx: _PlanContext, current: _Built, truck_jobs: list[int],
             assignments: dict[int, list[tuple[int, int]]],
             snapshots: dict[int, tuple | None]) -> _Built:
    """The greedy loop from current with the drones of assignments (at least
    one), which it updates in place together with truck_jobs; returns the
    final state. For each count c keyed in snapshots, the step that gives
    drone c-1 its first sortie stores c's snapshot there."""
    fleet = ctx.fleet
    service = fleet.drone_service
    drones = range(len(assignments))
    while True:
        best = None  # (launch_node, candidate state) of the record
        # (reduction, -job, -drone) of the best so far: a larger one wins, so a
        # reduction must exceed 1e-9, and ties go to the lower job, then drone id
        record = (_EPS, math.inf, math.inf)
        total = current.total
        bounds = _candidate_bounds(ctx, current, truck_jobs)
        # per candidate, the bound from lower bounds at its earliest free
        # time, which no scan of it can beat: best first, then lowest job id
        candidates = sorted(
            ((total - (truck_lb + drone_lb + (free_lb + service)), -j, k)
             for k, (j, (truck_lb, drone_lb, free_lb)) in enumerate(zip(truck_jobs, bounds))),
            reverse=True)
        for bound, neg_j, k in candidates:
            if (bound, neg_j) <= record[:2]:
                break  # so is every later candidate's
            # the tour without stop k: splice stop k-1 to stop k+1
            after = truck_jobs[k + 1:k + 2]
            built = ctx.assemble(assignments, after, current, k,
                                 k + 1 if after else None)
            if built is None:
                continue
            partial = built.truck_sum + built.drone_sum
            tx, ty = ctx.target_xy[truck_jobs[k]]
            # Drones free at the same time get the same best sortie, and
            # the lower drone id keeps a tie, so one scan serves them all.
            scanned = set()
            for d in drones:
                if built.free[d] in scanned:
                    continue
                scanned.add(built.free[d])
                # best_sortie's completion is at least free + service, so no
                # reduction of this scan can exceed the bound
                if (total - (partial + (built.free[d] + service)), neg_j, -d) <= record:
                    continue
                li, comp = kernels.best_sortie(
                    built.path_x, built.path_y, built.path, built.arrive, built.depart,
                    built.free[d], tx, ty,
                    fleet.drone_speed, service, fleet.drone_endurance)
                if li < 0:
                    continue
                result = (total - (partial + comp), neg_j, -d)
                if result > record:
                    record = result
                    best = (built.path[li], built)
        if best is None:
            return current
        lnode, built = best
        j, d = -record[1], -record[2]
        first_sortie = not assignments[d]
        truck_jobs.remove(j)
        assignments[d].append((j, lnode))
        current = ctx.commit(built, d, j, lnode)
        if first_sortie and d + 1 in snapshots:
            snapshots[d + 1] = (replace(current, free={e: current.free[e] for e in range(d + 1)}),
                                list(truck_jobs),
                                {e: list(assignments[e]) for e in range(d + 1)})


def _plan_of(current: _Built, truck_jobs: list[int], prioritize: bool,
             fleet: FleetConfig) -> HybridPlan:
    completion = {j: current.depart[pos] for j, pos in zip(truck_jobs, current.stop_pos)}
    for s in current.sorties:
        completion[s.job_id] = s.deliver_time + fleet.drone_service
    # in (drone, launch time) order, as assemble and commit keep the flights;
    # the plan owns its lists and sorties: states and other plans share them
    return HybridPlan(
        stop_positions=dict(zip(truck_jobs, current.stop_pos)),
        timetable=TruckTimetable(list(current.path), list(current.arrive),
                                 list(current.depart)),
        sorties=[replace(s) for s in current.sorties],
        completion=completion,
        prioritized=prioritize,
        objective=current.total,
        makespan=current.arrive[-1])


# ---------------------------------------------------------------------------
# plan invariants: the package's one plan validator, run by `plan`, `simulate`
# and every sweep run before the plan is saved or executed


def check_plan(plan: HybridPlan, scenario: Scenario, dset: DeliverySet | None,
               fleet: FleetConfig) -> list[str]:
    """Return a list of violated invariant descriptions (empty when valid).

    Raises ParameterError for an invalid fleet. A broken structure (path on
    the road graph, one arrival and departure per path position, stop
    positions distinct and inside the path, sorties with a fleet drone and
    nodes on the path) is returned alone, so no later check follows a bad
    index. A ``dset`` of None skips the per-job checks (coverage, sortie
    targets, truck-stop nodes, medical stops first along the path). The
    timetable must be bit-equal to the planner's fold of the road's edge
    times and the truck service at the stops, and each completion must be
    its stop's departure or its sortie's delivery plus drone service. Each
    drone's sorties, in launch order, must equal field for field what the
    planner's ``_fly`` gives on that timetable for their launch nodes and
    targets, the drone free at 0 and then one turnaround after each
    rendezvous. The objective must be ``plan_objective`` of the completions,
    bit for bit, and the makespan the last arrival. A job served twice is a
    problem with or without ``dset``. ``simulate`` executes only plans that pass.
    """
    validate_fleet(fleet)
    g = scenario.graph
    tt = plan.timetable
    nodes = tt.nodes
    if not nodes:
        return ["plan has an empty truck path"]
    problems = [f"path node {n} not in scenario graph" for n in nodes if n not in g.nodes]
    if not len(tt.arrive) == len(tt.depart) == len(nodes):
        problems.append(f"truck timetable has {len(tt.arrive)} arrivals and "
                        f"{len(tt.depart)} departures for {len(nodes)} path nodes")
    # each road edge's truck time, from the routing cache the planner walks
    edge_time = routing_cache(scenario, fleet.truck_speed).edge_time
    steps = [0.0 if u == v else edge_time(u, v) for u, v in zip(nodes, nodes[1:])]
    problems += [f"path step {u}->{v} is not a road edge"
                 for u, v, t in zip(nodes, nodes[1:], steps) if t is None]
    stop_at = {}
    for j, pos in plan.stop_positions.items():
        if not 0 <= pos < len(nodes):
            problems.append(f"stop position for job {j} outside path")
        elif pos in stop_at:
            problems.append(f"job {j}: a second truck stop at path position {pos}, "
                            f"where job {stop_at[pos]} stops")
        stop_at[pos] = j
    path_set = set(nodes)
    for s in plan.sorties:
        if not 0 <= s.drone_id < fleet.drone_count:
            problems.append(f"sortie for job {s.job_id} uses drone "
                            f"{s.drone_id} outside fleet of {fleet.drone_count}")
        if s.launch_node not in path_set or s.rendezvous_node not in path_set:
            problems.append(f"sortie for job {s.job_id} references nodes off the truck path")
    if problems:
        return problems

    served = [*plan.stop_positions, *(s.job_id for s in plan.sorties)]
    if len(set(served)) < len(served):
        problems.append("a job is served more than once")
    if dset is not None:
        all_jobs = {j.id for j in dset.jobs}
        if set(served) != all_jobs:
            problems.append(f"served jobs {sorted(set(served))} != set jobs {sorted(all_jobs)}")
        sortie_of = {s.job_id: s for s in plan.sorties}
        node_of = job_nodes(scenario, dset)
        for j in dset.jobs:
            s = sortie_of.get(j.id)
            if s is not None:
                if (s.target_x, s.target_y) != (j.target.x, j.target.y):
                    problems.append(f"job {j.id}: sortie target ({s.target_x}, {s.target_y}) "
                                    f"is not the job's target ({j.target.x}, {j.target.y})")
            elif j.id in plan.stop_positions:
                node = nodes[plan.stop_positions[j.id]]
                if node != node_of[j.id]:
                    problems.append(f"job {j.id}: truck stop at node {node} is not the "
                                    f"job's delivery node {node_of[j.id]}")
        if plan.prioritized:
            medical = {j.id for j in dset.jobs if j.category == Category.MEDICAL}
            seen_standard = False
            for _, j in sorted(stop_at.items()):  # in path order
                if j in medical and seen_standard:
                    problems.append("medical truck stop after a standard one")
                    break
                if j not in medical:
                    seen_standard = True

    services = [fleet.truck_service if pos in stop_at else 0.0 for pos in range(len(nodes))]
    arrive, depart = kernels.build_timetable(steps, services)
    if (arrive, depart) != (tt.arrive, tt.depart):
        i = next(i for i, times in enumerate(zip(arrive, depart, tt.arrive, tt.depart))
                 if times[:2] != times[2:])
        problems.append(f"truck timetable at path position {i} is ({tt.arrive[i]}, "
                        f"{tt.depart[i]}); the road, the fleet and the stops give "
                        f"({arrive[i]}, {depart[i]})")
    want = {j: tt.depart[pos] for pos, j in stop_at.items()}
    want.update((s.job_id, s.deliver_time + fleet.drone_service) for s in plan.sorties)
    if plan.completion.keys() != want.keys():
        problems.append(f"completion times are for jobs {sorted(plan.completion)}, "
                        f"not for the served jobs {sorted(want)}")
    problems += [f"job {j}: completion {plan.completion[j]} is not {t}, the time its "
                 "truck stop or sortie gives" for j, t in want.items()
                 if j in plan.completion and plan.completion[j] != t]

    path_x = [g.nodes[n].x for n in nodes]
    path_y = [g.nodes[n].y for n in nodes]
    free: dict[int, float] = {}
    for s in sorted(plan.sorties, key=lambda s: (s.drone_id, s.launch_time)):
        status, _, flown = _fly(nodes, path_x, path_y, tt.arrive, tt.depart, s.launch_node,
                                free.get(s.drone_id, 0.0), s.drone_id, s.job_id,
                                s.target_x, s.target_y, fleet)
        if flown != s:
            why = _NO_SORTIE.get(status) or ", ".join(
                f"{k} {v!r} is not {getattr(flown, k)!r}"
                for k, v in asdict(s).items() if v != getattr(flown, k))
            problems.append(f"job {s.job_id}: sortie is not the planner's flight from its "
                            f"launch node to its target: {why}")
        free[s.drone_id] = s.rendezvous_time + fleet.turnaround
    # the plan-wide figures last: a wrong time above may break them too
    objective = plan_objective(want, plan.stop_positions, plan.sorties)
    if plan.objective != objective:
        problems.append(f"objective {plan.objective} is not {objective}, the completions' sum")
    if plan.makespan != arrive[-1]:
        problems.append(f"makespan {plan.makespan} is not {arrive[-1]}, the last arrival")
    return problems


def first_problem(problems: list[str]) -> str:
    """check_plan's first problem, and how many follow it."""
    more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
    return problems[0] + more


def check_new_plan(plan: HybridPlan, scenario: Scenario, dset: DeliverySet,
                   fleet: FleetConfig) -> None:
    """Raise PlanConsistencyError when a plan the planner just made fails
    ``check_plan``: a planner fault, not bad input."""
    problems = check_plan(plan, scenario, dset, fleet)
    if problems:
        raise PlanConsistencyError(f"new plan breaks an invariant: {first_problem(problems)}")


# ---------------------------------------------------------------------------
# plan file format


def plan_to_dict(plan: HybridPlan, fleet: FleetConfig) -> dict:
    tt = plan.timetable
    return {
        "truck": {
            "stops": [{"job": j, "path_index": pos} for j, pos in plan.stop_positions.items()],
            "node_path": list(tt.nodes),
            "timetable": [[a, d] for a, d in zip(tt.arrive, tt.depart)],
        },
        "sorties": [asdict(s) for s in plan.sorties],
        "completion": {str(j): t for j, t in sorted(plan.completion.items())},
        "prioritized": plan.prioritized,
        "objective": plan.objective,
        "makespan": plan.makespan,
        "fleet": asdict(fleet),
    }


read_fleet = fields.record(FleetConfig, fields.finite, ints=("drone_count",), check=validate_fleet)


_sortie = fields.record(Sortie, fields.finite,
                        ints=("drone_id", "job_id", "launch_node", "rendezvous_node"))


def _stop(value, where: str) -> list[int]:
    return fields.unpack(value, where, job=fields.integer, path_index=fields.integer)


def plan_from_dict(data) -> tuple[HybridPlan, FleetConfig | None]:
    truck, completion = fields.unpack(data, "plan", truck=fields.obj,
                                      completion=fields.by_int_key(fields.finite))
    stops, nodes, rows = fields.unpack(
        truck, "plan.truck", stops=fields.list_of(_stop),
        node_path=fields.list_of(fields.integer),
        timetable=fields.list_of(fields.list_of(fields.finite, 2)))
    if not nodes or len(rows) != len(nodes):
        raise ParseError(f"plan.truck: timetable has {len(rows)} rows for a node_path of "
                         f"{len(nodes)} nodes (at least 1)")
    arrive, depart = (list(column) for column in zip(*rows))
    stop_positions = {}
    for i, (j, pos) in enumerate(stops):
        if j in stop_positions:
            raise ParseError(f"plan.truck.stops[{i}].job: job {j} is already a stop")
        stop_positions[j] = pos
    sorties = fields.get(data, "sorties", "plan", fields.list_of(_sortie), [])
    plan = HybridPlan(stop_positions, TruckTimetable(nodes, arrive, depart), sorties, completion,
                      fields.get(data, "prioritized", "plan", fields.boolean, False),
                      fields.get(data, "objective", "plan", fields.finite,
                                 plan_objective(completion, stop_positions, sorties)),
                      fields.get(data, "makespan", "plan", fields.finite, arrive[-1]))
    return plan, fields.get(data, "fleet", "plan", read_fleet, None)


def save_plan(plan: HybridPlan, path, fleet: FleetConfig) -> None:
    fields.write_json(plan_to_dict(plan, fleet), path, indent=1)


def load_plan(path) -> tuple[HybridPlan, FleetConfig | None]:
    return plan_from_dict(fields.read_json(path))
