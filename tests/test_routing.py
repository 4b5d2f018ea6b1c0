import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from hybridfleet import routing
from hybridfleet.errors import RoutingError, TspSizeError
from hybridfleet.hybrid import FleetConfig, check_plan, plan_hybrid
from hybridfleet.jobs import Category, DeliverySet, generate_delivery_sets
from hybridfleet.routing import (RoutingCache, job_nodes, largest_tour,
                                 priority_schedule, plain_schedule, routing_cache,
                                 travel_time_matrix, tsp_exact, tsp_heuristic)
from hybridfleet.scenario import (DEFAULT_SPEED_MPS, Edge, Point, RoadGraph, Scenario,
                                  generate_grid_scenario, validate_scenario)

from conftest import job_at, line_scenario, truck_dijkstra


def brute_force_tsp(matrix, closed):
    """Independent factorial-enumeration oracle; start fixed at index 0."""
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
            best_order = order
    return list(best_order), best_cost


def square_matrix():
    pts = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
    n = len(pts)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = math.dist(pts[i], pts[j])
    return m


def cached_walk(graph, a, b, truck_speed=DEFAULT_SPEED_MPS):
    """(nodes, length, travel time) of the routing cache's walk a -> b on a
    fresh cache for truck_speed; the time is Dijkstra's from b, which the
    walk follows."""
    routes = RoutingCache(graph, truck_speed)
    path, _ = routes.walk(a, b)
    length_of = {}
    for e in graph.edges:
        length_of[(e.a, e.b)] = length_of[(e.b, e.a)] = e.length
    return (path, sum((length_of[step] for step in zip(path, path[1:])), 0.0),
            routes.time(b, a))


def test_shortest_path_grid_manhattan():
    sc = generate_grid_scenario(3, 3, 100.0, 0, seed=1)
    target = 5  # (200, 100)
    nodes, length, time = cached_walk(sc.graph, 0, target)
    assert length == pytest.approx(300.0)
    assert time == pytest.approx(300.0 / DEFAULT_SPEED_MPS)
    # lexicographically smallest among the Manhattan-optimal paths
    assert nodes == [0, 1, 2, 5]


def test_shortest_path_identity():
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    assert cached_walk(sc.graph, 3, 3) == ([3], 0.0, 0.0)


def test_shortest_path_single_edge():
    g = RoadGraph({0: Point(0, 0), 1: Point(100, 0)}, [Edge(0, 1, 100.0, 10.0)])
    nodes, _, time = cached_walk(g, 0, 1, truck_speed=10.0)
    assert nodes == [0, 1]
    assert time == pytest.approx(10.0)


def test_shortest_path_cost_self_consistent():
    sc = generate_grid_scenario(4, 4, 80.0, 0, seed=5)
    times = {}
    for e in sc.graph.edges:
        times[(e.a, e.b)] = times[(e.b, e.a)] = e.length / e.speed_limit
    rng = np.random.default_rng(0)
    nodes = sorted(sc.graph.nodes)
    for _ in range(30):
        a, b = rng.choice(nodes, 2, replace=False)
        nodes, _, time = cached_walk(sc.graph, int(a), int(b))
        recomputed = sum(times[(u, v)] for u, v in zip(nodes, nodes[1:]))
        assert time == pytest.approx(recomputed, abs=1e-9)


def test_shortest_path_unknown_node():
    g = RoadGraph({0: Point(0, 0), 1: Point(1, 0)}, [Edge(0, 1, 1.0, 1.0)])
    with pytest.raises(RoutingError):
        cached_walk(g, 0, 7)


def test_matrix_single_stop():
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    assert travel_time_matrix(sc, [0], DEFAULT_SPEED_MPS) == [[0.0]]


def test_matrix_two_stops_single_edge():
    g = RoadGraph({0: Point(0, 0), 1: Point(100, 0)}, [Edge(0, 1, 100.0, 10.0)])
    sc = Scenario(g, [], depot=0, base_station=Point(50, 0, 30.0))
    m = travel_time_matrix(sc, [0, 1], 10.0)
    assert m[0][1] == pytest.approx(10.0)
    assert m[1][0] == pytest.approx(10.0)
    assert m[0][0] == m[1][1] == 0.0


def test_matrix_triangle_inequality_vs_pairwise_dijkstra():
    sc = generate_grid_scenario(4, 4, 90.0, 0, seed=2)
    stops = [0, 3, 5, 10, 15]
    m = travel_time_matrix(sc, stops, DEFAULT_SPEED_MPS)
    assert m == [list(column) for column in zip(*m)]
    for i, a in enumerate(stops):
        for j, b in enumerate(stops):
            assert m[i][j] == pytest.approx(
                cached_walk(sc.graph, a, b)[2], abs=1e-9)
            for k in range(len(stops)):
                assert m[i][j] <= m[i][k] + m[k][j] + 1e-9


def _oracle_shortest_path(graph, a, b, truck_speed):
    """The shortest-path walk before the routing cache: a fresh Dijkstra
    map from b, and sorted(adjacency) scanned on every step."""
    if a == b:
        return [a], 0.0, 0.0
    dist_b = truck_dijkstra(graph, truck_speed, b)
    adj = graph.adjacency()
    length_of = {}
    for e in graph.edges:
        length_of[(e.a, e.b)] = length_of[(e.b, e.a)] = e.length
    path = [a]
    total_len = 0.0
    u = a
    while u != b:
        nxt = None
        for v, length, speed in sorted(adj[u]):
            if v in dist_b and dist_b[v] + length / min(truck_speed, speed) == dist_b[u]:
                nxt = v
                break
        if nxt is None:
            for v, length, speed in sorted(adj[u]):
                if (v in dist_b
                        and abs(dist_b[v] + length / min(truck_speed, speed) - dist_b[u]) <= 1e-9):
                    nxt = v
                    break
        total_len += length_of[(u, nxt)]
        path.append(nxt)
        u = nxt
    return path, total_len, dist_b[a]


def _random_speed_world(seed):
    """Generated grid whose edges get random speed limits, some repeated so
    that fastest paths tie."""
    sc = generate_grid_scenario(5, 6, 70.0, 0, seed=seed)
    rng = np.random.default_rng(seed)
    speeds = rng.choice([5.0, 7.5, 8.33, 11.0, 13.9], len(sc.graph.edges))
    edges = [Edge(e.a, e.b, e.length, float(v)) for e, v in zip(sc.graph.edges, speeds)]
    return Scenario(RoadGraph(sc.graph.nodes, edges), [], sc.depot, sc.base_station)


@pytest.mark.parametrize("seed", range(6))
def test_routing_cache_matches_old_walk_and_maps(seed):
    # at 20 m/s the truck reaches every limit, so edges take length / limit
    for sc, truck_speed in itertools.product(
            (_random_speed_world(seed), generate_grid_scenario(4, 5, 90.0, 0, seed=seed)),
            (DEFAULT_SPEED_MPS, 20.0)):
        nodes = sorted(sc.graph.nodes)
        for a in nodes:
            for b in nodes:
                assert (cached_walk(sc.graph, a, b, truck_speed)
                        == _oracle_shortest_path(sc.graph, a, b, truck_speed))
        stops = [nodes[i] for i in np.random.default_rng(seed).choice(len(nodes), 9)]
        maps = {s: truck_dijkstra(sc.graph, truck_speed, s) for s in stops}
        want = [[0.0 if i == j else maps[stops[min(i, j)]][stops[max(i, j)]]
                 for j in range(len(stops))] for i in range(len(stops))]
        assert travel_time_matrix(sc, stops, truck_speed) == want


def test_routing_cache_one_dijkstra_per_node(monkeypatch):
    sc = generate_grid_scenario(6, 6, 100.0, 2, seed=4)
    dsets = generate_delivery_sets(sc, 3, 12, 4, seed=8)
    calls = []
    original = routing.dijkstra_times
    monkeypatch.setattr(routing, "dijkstra_times",
                        lambda adj, source: calls.append(source) or original(adj, source))
    fleet = FleetConfig(drone_count=2)
    for dset in dsets:
        plan_hybrid(sc, dset, fleet, True)
    assert len(calls) == len(set(calls))
    cache = routing_cache(sc, fleet.truck_speed)
    nodes = {sc.depot} | {n for d in dsets for n in job_nodes(sc, d).values()}
    assert {cache.nodes[i] for i in calls} <= nodes
    calls.clear()
    plan_hybrid(sc, dsets[0], fleet, False)
    assert calls == []  # a second plan on the scenario reuses every map
    assert cache is routing_cache(sc, fleet.truck_speed)
    assert all(m.typecode == "d" and len(m) == len(sc.graph.nodes)
               for m in cache._times.values())


def test_routing_cache_unknown_and_unreachable_nodes():
    g = RoadGraph({0: Point(0, 0), 1: Point(1, 0), 2: Point(5, 0), 3: Point(6, 0)},
                  [Edge(0, 1, 1.0, 1.0), Edge(2, 3, 1.0, 1.0)])
    cache = RoutingCache(g, 1.0)
    assert cache.walk(0, 1) == ([0, 1], [1.0])
    assert cache.time(1, 0) == 1.0
    with pytest.raises(RoutingError, match="unreachable"):
        cache.walk(0, 3)
    with pytest.raises(RoutingError, match="unreachable"):
        cache.time(0, 3)
    with pytest.raises(RoutingError, match="unknown node 7"):
        cache.time(0, 7)
    with pytest.raises(RoutingError, match="unknown node 7"):
        cache.walk(7, 0)
    sc = Scenario(g, [], depot=0, base_station=Point(0, 0, 30.0))
    with pytest.raises(RoutingError, match="unknown node 7"):
        travel_time_matrix(sc, [7], 1.0)
    with pytest.raises(RoutingError, match="unreachable"):
        travel_time_matrix(sc, [0, 2], 1.0)


def fast_detour_map():
    """A direct road 0-3 of 200 m at the default truck speed, and a detour
    0-1-2-3 of three 100 m roads whose limit, 20 m/s, the truck cannot use."""
    nodes = {0: Point(0, 0), 1: Point(50, 50), 2: Point(150, 50), 3: Point(200, 0)}
    edges = [Edge(0, 3, 200.0, DEFAULT_SPEED_MPS), Edge(0, 1, 100.0, 20.0),
             Edge(1, 2, 100.0, 20.0), Edge(2, 3, 100.0, 20.0)]
    sc = Scenario(RoadGraph(nodes, edges), [], depot=0, base_station=Point(100, 0, 30.0))
    validate_scenario(sc)
    return sc


def test_truck_drives_the_direct_road_past_a_faster_limit_detour():
    sc = fast_detour_map()
    # 200 / 8.33 = 24.01 s direct, against 300 / 8.33 = 36.01 s by the detour
    assert routing_cache(sc, DEFAULT_SPEED_MPS).walk(0, 3) == ([0, 3], [200.0 / DEFAULT_SPEED_MPS])
    # a truck of 25 m/s drives the detour at its 20 m/s limit: 15 s
    assert routing_cache(sc, 25.0).walk(0, 3) == ([0, 1, 2, 3], [5.0, 5.0, 5.0])
    fleet = FleetConfig()
    plan = plan_hybrid(sc, DeliverySet(0, [job_at(200.0, 0.0)]), fleet, False)
    assert plan.timetable.nodes == [0, 3, 0]
    assert plan.completion == {0: 200.0 / DEFAULT_SPEED_MPS + fleet.truck_service}
    assert check_plan(plan, sc, DeliverySet(0, [job_at(200.0, 0.0)]), fleet) == []


@st.composite
def _limit_worlds(draw):
    """A small connected road map whose speed limits lie both above and
    below the truck's speed, with a few jobs at its nodes."""
    n = draw(st.integers(2, 7))
    xy = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       min_size=n, max_size=n, unique=True))
    nodes = {i: Point(100.0 * x, 100.0 * y) for i, (x, y) in enumerate(xy)}
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # a spanning tree
    pairs |= set(draw(st.lists(st.sampled_from([(a, b) for b in range(n) for a in range(b)]),
                               max_size=2 * n)))
    truck_speed = draw(st.sampled_from([4.0, DEFAULT_SPEED_MPS, 12.5]))
    edges = [Edge(a, b, nodes[a].dist2d(nodes[b]) * draw(st.sampled_from([1.0, 1.25, 2.0])),
                  truck_speed * draw(st.sampled_from([0.5, 0.8, 1.0, 1.6, 3.0])))
             for a, b in sorted(pairs)]
    sc = Scenario(RoadGraph(nodes, edges), [], depot=0, base_station=Point(0, 0, 30.0))
    validate_scenario(sc)
    stops = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    dset = DeliverySet(0, [job_at(nodes[v].x + 3.0, nodes[v].y, j,
                                  Category.MEDICAL if j % 3 == 0 else Category.STANDARD)
                           for j, v in enumerate(stops)])
    return sc, dset, truck_speed


@settings(max_examples=120, deadline=None)
@given(_limit_worlds(), st.integers(0, 2), st.booleans(), st.sampled_from(["exact", "heuristic"]))
def test_truck_times_on_random_speed_limits(world, drones, prioritize, solver):
    sc, dset, truck_speed = world
    routes = routing_cache(sc, truck_speed)
    n = len(sc.graph.nodes)
    rows, cols, times = [], [], []
    for e in sc.graph.edges:
        t = e.length / min(truck_speed, e.speed_limit)
        rows += [e.a, e.b]
        cols += [e.b, e.a]
        times += [t, t]
    want = scipy_dijkstra(csr_matrix((times, (rows, cols)), shape=(n, n)))
    for a in range(n):
        for b in range(n):
            # Dijkstra from a added the steps of the walk b -> a starting at a
            _, steps = routes.walk(b, a)
            fold = 0.0
            for t in reversed(steps):
                fold += t
            assert routes.time(a, b) == fold
            assert routes.time(a, b) == pytest.approx(want[a, b], rel=0, abs=1e-9)
    fleet = FleetConfig(drone_count=drones, truck_speed=truck_speed)
    plan = plan_hybrid(sc, dset, fleet, prioritize, solver)
    assert check_plan(plan, sc, dset, fleet) == []


def test_tsp_exact_square_perimeter():
    order, cost = tsp_exact(square_matrix(), closed=True)
    assert cost == pytest.approx(400.0)
    assert order == [0, 1, 2, 3]  # lexicographically smallest optimal tour


def test_tsp_exact_single_city():
    order, cost = tsp_exact(np.zeros((1, 1)), closed=True)
    assert order == [0]
    assert cost == 0.0


@pytest.mark.parametrize("solver", ["exact", "heuristic"])
def test_single_stop_and_empty_set_take_the_general_path(solver):
    solve = tsp_exact if solver == "exact" else tsp_heuristic
    for closed in (True, False):
        assert solve([[0.0]], closed) == ([0], 0.0)
    sc = line_scenario(3, 100.0, 10.0)
    assert plain_schedule(sc, DeliverySet(0, []), {}, 10.0, solver) == []


@pytest.mark.parametrize("closed", [True, False])
def test_tsp_exact_matches_enumeration_7_stops(closed):
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = rng.integers(1, 1000, (7, 7)).astype(float)
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        order, cost = tsp_exact(m, closed)
        oracle_order, oracle_cost = brute_force_tsp(m, closed)
        assert cost == pytest.approx(oracle_cost, abs=1e-9)
        assert order == oracle_order


def test_tsp_exact_size_limit():
    with pytest.raises(TspSizeError):
        tsp_exact(np.zeros((13, 13)), True)


def test_tsp_heuristic_square_optimal():
    order, cost = tsp_heuristic(square_matrix(), closed=True)
    _, exact_cost = tsp_exact(square_matrix(), closed=True)
    assert cost == pytest.approx(exact_cost)
    assert sorted(order) == [0, 1, 2, 3]


def test_tsp_heuristic_preserves_optimal_construction():
    # on the square the nearest-neighbor tour is already optimal; 2-opt must
    # leave its cost unchanged
    order, cost = tsp_heuristic(square_matrix(), closed=True)
    assert cost == pytest.approx(400.0)


def test_tsp_heuristic_quality_9_stops():
    rng = np.random.default_rng(23)
    ratios = []
    for _ in range(100):
        pts = rng.uniform(0, 1000, (9, 2))
        m = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        _, h = tsp_heuristic(m, True)
        _, e = tsp_exact(m, True)
        assert h >= e - 1e-9
        ratios.append(h / e)
    assert np.mean(ratios) <= 1.10


@pytest.mark.parametrize("closed", [True, False])
def test_tsp_solvers_permutation_valid(closed):
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 8):
        m = rng.uniform(1, 100, (n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        for solver in (tsp_exact, tsp_heuristic):
            order, _ = solver(m, closed)
            assert sorted(order) == list(range(n))
            assert order[0] == 0


def world_with_jobs(per_set, medical, seed=6):
    sc = generate_grid_scenario(5, 5, 100.0, 2, seed=19)
    dset = generate_delivery_sets(sc, 1, per_set, medical, seed=seed)[0]
    return sc, dset


def test_priority_schedule_forced_order():
    sc, dset = world_with_jobs(2, 1)
    stops = priority_schedule(sc, dset, job_nodes(sc, dset), DEFAULT_SPEED_MPS)
    medical = [j.id for j in dset.medical()]
    standard = [j.id for j in dset.standard()]
    assert stops == medical + standard


def test_priority_schedule_no_medical_equals_plain():
    sc, dset = world_with_jobs(6, 0)
    nodes_of = job_nodes(sc, dset)
    assert (priority_schedule(sc, dset, nodes_of, DEFAULT_SPEED_MPS)
            == plain_schedule(sc, dset, nodes_of, DEFAULT_SPEED_MPS))


def test_priority_schedule_only_medical_equals_plain():
    sc, dset = world_with_jobs(6, 6)
    nodes_of = job_nodes(sc, dset)
    assert (priority_schedule(sc, dset, nodes_of, DEFAULT_SPEED_MPS)
            == plain_schedule(sc, dset, nodes_of, DEFAULT_SPEED_MPS))


@pytest.mark.parametrize("per_set,medical", [(1, 0), (1, 1), (6, 0), (6, 6), (7, 2), (8, 4),
                                             (15, 5), (15, 11)])
def test_largest_tour_is_the_largest_matrix_solved(monkeypatch, per_set, medical):
    sizes = []
    solve = routing._solve

    def spy(matrix, closed, solver):
        sizes.append(len(matrix))
        return solve(matrix, closed, solver)

    monkeypatch.setattr(routing, "_solve", spy)
    sc, dset = world_with_jobs(per_set, medical)
    for prioritize, schedule in ((True, priority_schedule), (False, plain_schedule)):
        sizes.clear()
        schedule(sc, dset, job_nodes(sc, dset), DEFAULT_SPEED_MPS)
        assert max(sizes) == largest_tour(per_set, medical, prioritize), prioritize


def test_priority_schedule_all_medical_first():
    sc, dset = world_with_jobs(15, 5)
    stops = priority_schedule(sc, dset, job_nodes(sc, dset), DEFAULT_SPEED_MPS)
    medical = {j.id for j in dset.medical()}
    positions = {j: i for i, j in enumerate(stops)}
    worst_medical = max(positions[j] for j in medical)
    best_standard = min(positions[j] for j in stops if j not in medical)
    assert worst_medical < best_standard
    assert sorted(stops) == sorted(j.id for j in dset.jobs)


@pytest.mark.parametrize("solver", ["exact", "heuristic"])
def test_priority_schedule_solvers_agree_on_structure(solver):
    sc, dset = world_with_jobs(8, 3)
    stops = priority_schedule(sc, dset, job_nodes(sc, dset), DEFAULT_SPEED_MPS, solver)
    medical = [j.id for j in dset.medical()]
    assert set(stops[:len(medical)]) == set(medical)
