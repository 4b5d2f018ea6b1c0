import heapq
import signal
from contextlib import contextmanager

import pytest

from hybridfleet.hybrid import FleetConfig, HybridPlan, TruckTimetable, _fly, plan_objective
from hybridfleet.jobs import Category, DeliveryJob, DeliverySet, generate_delivery_sets
from hybridfleet.rng import generator
from hybridfleet.scenario import Edge, Point, RoadGraph, Scenario, generate_grid_scenario


class _DeadlineExceeded(BaseException):
    """Not an Exception, so the per-run ``except Exception`` of a sweep does
    not swallow it."""


@contextmanager
def deadline(seconds: int):
    """Fail the test once the enclosed block has run for seconds of wall
    time, so a hang fails its test instead of stalling the suite. Uses
    SIGALRM, so it works only in the main thread and on POSIX."""
    def expire(signum, frame):
        raise _DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except _DeadlineExceeded:
        pass  # failed below, outside this handler: the interrupted frame
        # may carry no line number, which pytest cannot format
    else:
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"did not finish within {seconds} s", pytrace=False)


def line_scenario(n_nodes=11, spacing=100.0, speed=10.0) -> Scenario:
    """Straight east-west road: node i at (i*spacing, 0)."""
    nodes = {i: Point(i * spacing, 0.0) for i in range(n_nodes)}
    edges = [Edge(i, i + 1, spacing, speed) for i in range(n_nodes - 1)]
    return Scenario(RoadGraph(nodes, edges), [], depot=0,
                    base_station=Point(n_nodes * spacing / 2, 0.0, 30.0))


def truck_dijkstra(graph: RoadGraph, truck_speed: float, source: int) -> dict[int, float]:
    """Truck travel time from source to every reachable node, each edge at
    length / min(truck_speed, speed_limit): a plain Dijkstra over node ids,
    independent of the routing cache."""
    adj = graph.adjacency()
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, length, speed in adj[u]:
            nd = d + length / min(truck_speed, speed)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def line_timetable(scenario: Scenario, truck_speed=10.0) -> TruckTimetable:
    """Timetable for the truck driving the line end to end without stops."""
    nodes = sorted(scenario.graph.nodes)
    times = [0.0]
    for a, b in zip(nodes, nodes[1:]):
        p, q = scenario.graph.nodes[a], scenario.graph.nodes[b]
        times.append(times[-1] + p.dist2d(q) / truck_speed)
    return TruckTimetable(nodes, times, list(times))


def job_at(x, y, job_id=0, category=Category.STANDARD) -> DeliveryJob:
    return DeliveryJob(job_id, building_id=0, target=Point(x, y), category=category)


def fly(scenario, timetable, launch_node, job, fleet, free_at=0.0, drone_id=0):
    """(status, sortie) of the planner's sortie constructor for job, launched
    at the truck's first pass over launch_node departing at or after free_at."""
    nodes = timetable.nodes
    xs = [float(scenario.graph.nodes[n].x) for n in nodes]
    ys = [float(scenario.graph.nodes[n].y) for n in nodes]
    status, _, sortie = _fly(nodes, xs, ys, timetable.arrive, timetable.depart, launch_node,
                             free_at, drone_id, job.id, job.target.x, job.target.y, fleet)
    return status, sortie


def sortie_plan(scenario, timetable, sorties, fleet) -> HybridPlan:
    """Plan with no truck stops and the given sorties on the line road."""
    completion = {s.job_id: s.deliver_time + fleet.drone_service for s in sorties}
    return HybridPlan(
        stop_positions={}, timetable=timetable, sorties=sorties,
        completion=completion, prioritized=False,
        objective=plan_objective(completion, [], sorties),
        makespan=timetable.arrive[-1])


def random_world(case: int, *, max_jobs=9, max_drones=3):
    """Seeded random (scenario, set, fleet, prioritize) instance for properties."""
    rng = generator(0xC0FFEE, case)
    rows = int(rng.integers(3, 6))
    cols = int(rng.integers(3, 6))
    spacing = float(rng.uniform(60, 140))
    sc = generate_grid_scenario(rows, cols, spacing, int(rng.integers(1, 3)),
                                seed=int(rng.integers(0, 2 ** 31)))
    per = int(rng.integers(2, max_jobs))
    med = int(rng.integers(0, min(per, 4)))
    dset = generate_delivery_sets(sc, 1, per, med, seed=int(rng.integers(0, 2 ** 31)))[0]
    fleet = FleetConfig(
        drone_count=int(rng.integers(0, max_drones + 1)),
        truck_speed=float(rng.uniform(5, 14)),
        truck_service=float(rng.uniform(20, 90)),
        drone_speed=float(rng.uniform(8, 20)),
        drone_endurance=float(rng.uniform(60, 1500)),
        drone_service=float(rng.uniform(5, 60)),
        turnaround=float(rng.uniform(10, 90)),
    )
    prioritize = bool(rng.integers(0, 2))
    return sc, dset, fleet, prioritize


@pytest.fixture(scope="session")
def grid8() -> Scenario:
    return generate_grid_scenario(8, 8, 100.0, 2, seed=11)


@pytest.fixture(scope="session")
def grid8_set(grid8) -> DeliverySet:
    return generate_delivery_sets(grid8, 1, 15, 5, seed=3)[0]
