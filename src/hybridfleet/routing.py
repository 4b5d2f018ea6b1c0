"""Road-graph shortest paths, travel-time matrices, TSP solving, scheduling.

Tours minimize the truck's time, edge length / min(truck speed, speed limit).
All tie-breaking is lexicographic so results are deterministic.
"""
from __future__ import annotations

import heapq
import math
from array import array
from typing import Literal

from . import kernels
from .errors import ParameterError, RoutingError, TspSizeError
from .jobs import DeliverySet
from .scenario import RoadGraph, Scenario, nearest_nodes

EXACT_TSP_LIMIT = 12
# The bound on the sum of a road's edge times for the truck, which no shortest path
# exceeds. A departure adds a path (and a service) per stop, and the planner's, check_plan's
# and the sweep's sums add a departure per job and set: as no list holds 2**64 of them,
# each sum stays below 2**192 (6.3e57) times the bound plus the services, so finite.
MAX_ROAD_TIME_S = 1e250
Solver = Literal["exact", "heuristic"]


def largest_tour(per_set: int, medical: int, prioritize: bool) -> int:
    """The most stops of one TSP that scheduling a set of per_set jobs, medical
    of them medical, solves: the depot and every job, or with prioritize and
    both categories present the larger category and the stop it starts from."""
    if prioritize and 0 < medical < per_set:
        return max(medical, per_set - medical) + 1
    return per_set + 1


def check_exact_size(stops: int) -> None:
    """Raise TspSizeError when tsp_exact cannot solve a tour of stops stops."""
    if stops > EXACT_TSP_LIMIT:
        raise TspSizeError(f"exact solver limited to {EXACT_TSP_LIMIT} stops, got {stops}")


def dijkstra_times(adj: list[dict[int, float]], source: int) -> array:
    """Truck travel time (s) from compact index source to every node, by
    compact index (inf where unreachable), over a ``RoutingCache``'s ``adj``."""
    dist = array("d", [math.inf]) * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, t in adj[u].items():
            nd = d + t
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


class RoutingCache:
    """Shortest-path data of one road graph for a truck of one speed.

    ``adj`` maps each compact node index (sorted node ids) to its neighbours'
    compact indices, in order, and the truck's time over each edge: the one
    place that time is computed, and checked: each non-negative, their sum at
    most MAX_ROAD_TIME_S. The cache fills in the ``dijkstra_times`` array of
    each node on its first query and walks the lexicographically
    smallest shortest path over them. The road graph must stay unchanged:
    nothing is ever invalidated. Memory, per truck speed on a scenario, is
    (distinct nodes queried) x nodes x 8 B; planning queries only job nodes
    and the depot."""

    def __init__(self, graph: RoadGraph, truck_speed: float):
        self.nodes = sorted(graph.nodes)
        self.index = index = {nid: i for i, nid in enumerate(self.nodes)}
        arcs: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        total = 0.0
        for e in graph.edges:
            t = e.length / min(truck_speed, e.speed_limit)
            if t < 0.0:  # validate_scenario lets coincident nodes' edges fall 1e-9 m below 0
                raise ParameterError(f"edge {e.a}-{e.b}: length {e.length} m is negative")
            total += t
            arcs[index[e.a]].append((index[e.b], t))
            arcs[index[e.b]].append((index[e.a], t))
        if not total <= MAX_ROAD_TIME_S:
            raise ParameterError(f"the road's edge times for a truck at {truck_speed} m/s "
                                 f"sum to {total} s, above the bound of {MAX_ROAD_TIME_S} s")
        self.adj = [dict(sorted(vs)) for vs in arcs]
        self._times: dict[int, array] = {}

    def _compact(self, node: int) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise RoutingError(f"unknown node {node}") from None

    def times(self, node: int) -> array:
        """Dijkstra's travel times from node, by compact index. Roads are
        two-way, so the walk reads them as the times to node."""
        cached = self._times.get(node)
        if cached is None:
            cached = self._times[node] = dijkstra_times(self.adj, self._compact(node))
        return cached

    def time(self, a: int, b: int) -> float:
        """Travel time a -> b as Dijkstra from a computes it."""
        t = self.times(a)[self._compact(b)]
        if t == math.inf:
            raise RoutingError(f"node {b} unreachable from {a}")
        return t

    def edge_time(self, u: int, v: int) -> float | None:
        """The truck's time over the road edge u-v; None when there is none."""
        iu, iv = self.index.get(u), self.index.get(v)
        return None if iu is None or iv is None else self.adj[iu].get(iv)

    def walk(self, a: int, b: int) -> tuple[list[int], list[float]]:
        """Fastest path a -> b, lexicographically smallest on ties: its nodes
        and the truck's time over each edge on it.

        The walk follows the shortest-path DAG induced by the times to b,
        always taking the smallest eligible neighbour; eligibility re-evaluates
        the exact float sums Dijkstra minimized, so ties resolve exactly. A
        reachable node's time is a neighbour's time plus the same edge time
        that ``adj`` stores, so an exact successor exists.
        """
        dist = self.times(b)
        iu = self._compact(a)
        du = dist[iu]
        if du == math.inf:
            raise RoutingError(f"node {b} unreachable from {a}")
        path = [a]
        steps = []
        while path[-1] != b:
            for iv, t in self.adj[iu].items():
                if dist[iv] + t == du:
                    break
            else:
                raise RoutingError(f"no shortest-path successor at node {path[-1]}")
            iu, du = iv, dist[iv]
            path.append(self.nodes[iv])
            steps.append(t)
        return path, steps


def routing_cache(scenario: Scenario, truck_speed: float) -> RoutingCache:
    """The scenario's routing cache for truck_speed, built on first use and kept on it."""
    routes = scenario.routing_caches.get(truck_speed)
    if routes is None:
        routes = scenario.routing_caches[truck_speed] = RoutingCache(scenario.graph, truck_speed)
    return routes


def travel_time_matrix(scenario: Scenario, stops: list[int],
                       truck_speed: float) -> list[list[float]]:
    """Symmetric matrix, as a list of rows, of a truck's shortest-path
    travel times between stop nodes."""
    routes = routing_cache(scenario, truck_speed)
    n = len(stops)
    for s in stops:
        routes._compact(s)
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = routes.time(stops[i], stops[j])
    return mat


def tsp_exact(matrix: list[list[float]], closed: bool = True) -> tuple[list[int], float]:
    """Globally optimal tour over the cost matrix (a list of rows) from
    stop 0.

    Held-Karp subset DP; ties broken to the lexicographically smallest
    order. Limited to EXACT_TSP_LIMIT stops.
    """
    check_exact_size(len(matrix))
    return kernels.held_karp(matrix, closed)


def tsp_heuristic(matrix: list[list[float]], closed: bool = True) -> tuple[list[int], float]:
    """Nearest-neighbor construction from stop 0 plus 2-opt to a local
    optimum, over the cost matrix (a list of rows)."""
    order = kernels.nearest_neighbor_order(matrix)
    return order, kernels.two_opt(matrix, order, closed)


def _solve(matrix: list[list[float]], closed: bool, solver: Solver) -> tuple[list[int], float]:
    if solver == "exact":
        return tsp_exact(matrix, closed)
    return tsp_heuristic(matrix, closed)


def job_nodes(scenario: Scenario, dset: DeliverySet) -> dict[int, int]:
    """job id -> nearest road node to the job's target, for the whole set at once."""
    return dict(zip([j.id for j in dset.jobs],
                    nearest_nodes(scenario, [j.target for j in dset.jobs])))


def priority_schedule(scenario: Scenario, dset: DeliverySet, nodes_of: dict[int, int],
                      truck_speed: float, solver: Solver = "heuristic") -> list[int]:
    """Job ids in service order of the medical-first tour, which starts and
    ends at the depot: open TSP over medical jobs from the depot, then an
    open TSP over standard jobs starting at the last medical stop, closed by
    the return to the depot. Falls back to a plain closed TSP when either
    category is empty. nodes_of maps each job id to its road node, as
    ``job_nodes`` gives it; travel times are a truck's of truck_speed.
    """
    medical = [j.id for j in dset.medical()]
    std = [j.id for j in dset.standard()]
    if not medical or not std:  # the other category holds every job in set order
        return plain_schedule(scenario, dset, nodes_of, truck_speed, solver)

    mat_m = travel_time_matrix(scenario, [scenario.depot] + [nodes_of[j] for j in medical],
                               truck_speed)
    order_m, _ = _solve(mat_m, False, solver)
    med_seq = [medical[i - 1] for i in order_m[1:]]

    anchor = nodes_of[med_seq[-1]]
    mat_s = travel_time_matrix(scenario, [anchor] + [nodes_of[j] for j in std], truck_speed)
    order_s, _ = _solve(mat_s, False, solver)
    std_seq = [std[i - 1] for i in order_s[1:]]

    return med_seq + std_seq


def plain_schedule(scenario: Scenario, dset: DeliverySet, nodes_of: dict[int, int],
                   truck_speed: float, solver: Solver = "heuristic") -> list[int]:
    """Job ids in service order of the closed TSP over all jobs from the
    depot, ignoring categories; nodes_of and truck_speed as for
    ``priority_schedule``."""
    jobs = [j.id for j in dset.jobs]
    mat = travel_time_matrix(scenario, [scenario.depot] + [nodes_of[j] for j in jobs],
                             truck_speed)
    order, _ = _solve(mat, True, solver)
    return [jobs[i - 1] for i in order[1:]]
