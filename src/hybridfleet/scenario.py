"""Simulation world: road graph, buildings, depot, base station.

Coordinates are local planar meters (x east, y north, z up). The world is
immutable after construction and safe to share across parallel runs; the
derived geometry arrays used by the kernels and the routing caches
(``routing.routing_cache``, one per truck speed) are built lazily and kept on
the scenario.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import fields, kernels
from .errors import InvariantViolation, ParameterError, ParseError
from .rng import generator

if TYPE_CHECKING:
    from .routing import RoutingCache

DEFAULT_SPEED_MPS = 8.33          # urban road limit, ~30 km/h
BUILDING_HEIGHT_RANGE = (6.0, 24.0)
BUILDING_SIDE_RANGE = (10.0, 30.0)
CELL_MARGIN_M = 5.0               # clearance between footprints and roads
BASE_STATION_HEIGHT_M = 30.0
ACCESS_CENTROID_LIMIT_M = 50.0
# validate_scenario tests every pair of non-adjacent edges of a footprint, at about
# 0.5 us and 200 B of peak memory per pair on a 2-core x86 machine: 0.25 s and 100 MB
# at this bound, which holds a 1,001-vertex footprint, or 2.5 times the pairs of the
# largest generated world (MAX_BUILDINGS four-vertex footprints, 2 pairs each)
MAX_EDGE_PAIRS = 500_000


@dataclass(frozen=True)
class Point:
    x: float
    y: float
    z: float = 0.0

    def dist2d(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    length: float        # meters
    speed_limit: float   # m/s


@dataclass
class RoadGraph:
    nodes: dict[int, Point]
    edges: list[Edge]

    def adjacency(self) -> dict[int, list[tuple[int, float, float]]]:
        """node -> [(neighbor, length, speed_limit)], built on demand."""
        adj: dict[int, list[tuple[int, float, float]]] = {u: [] for u in self.nodes}
        for e in self.edges:
            adj[e.a].append((e.b, e.length, e.speed_limit))
            adj[e.b].append((e.a, e.length, e.speed_limit))
        return adj


@dataclass
class Building:
    id: int
    footprint: list[Point]   # simple polygon, z = 0, counter-clockwise
    height: float            # meters
    access_point: Point      # parcel handover location

    def centroid(self) -> Point:
        # area centroid of the simple polygon
        pts = self.footprint
        a2, cx, cy = _shoelace(pts)
        if a2 == 0.0:
            xs = [p.x for p in pts]
            ys = [p.y for p in pts]
            return Point(sum(xs) / len(xs), sum(ys) / len(ys))
        return Point(pts[0].x + cx / (3.0 * a2), pts[0].y + cy / (3.0 * a2))


@dataclass
class Scenario:
    graph: RoadGraph
    buildings: list[Building]
    depot: int                  # node id
    base_station: Point         # z = antenna height
    _geom: "_Geometry | None" = field(default=None, repr=False, compare=False)
    # truck speed -> routing cache, which routing.routing_cache fills
    routing_caches: "dict[float, RoutingCache]" = field(default_factory=dict, repr=False,
                                                        compare=False)

    def geometry(self) -> "_Geometry":
        if self._geom is None:
            self._geom = _Geometry(self)
        return self._geom


class _Geometry:
    """Array views of a scenario for the numeric kernels."""

    def __init__(self, sc: Scenario):
        ids = sorted(sc.graph.nodes)
        self.node_ids = np.array(ids, np.int64)
        self.node_index = {nid: i for i, nid in enumerate(ids)}
        self.node_x = np.array([sc.graph.nodes[i].x for i in ids], np.float64)
        self.node_y = np.array([sc.graph.nodes[i].y for i in ids], np.float64)
        vx: list[float] = []
        vy: list[float] = []
        offsets = [0]
        heights = []
        for b in sc.buildings:
            for p in b.footprint:
                vx.append(p.x)
                vy.append(p.y)
            offsets.append(len(vx))
            heights.append(b.height)
        self.vert_x = np.array(vx, np.float64)
        self.vert_y = np.array(vy, np.float64)
        self.offsets = np.array(offsets, np.int64)
        self.heights = np.array(heights, np.float64)
        self.bb_minx = np.array([min(p.x for p in b.footprint) for b in sc.buildings], np.float64)
        self.bb_maxx = np.array([max(p.x for p in b.footprint) for b in sc.buildings], np.float64)
        self.bb_miny = np.array([min(p.y for p in b.footprint) for b in sc.buildings], np.float64)
        self.bb_maxy = np.array([max(p.y for p in b.footprint) for b in sc.buildings], np.float64)


# ---------------------------------------------------------------------------
# generation


# the generator spends about 11 us and 1.2 KB per node and 28 us and 2 KB per building
# on a 2-core x86 machine: seconds and a few hundred MB at both bounds, over 200 times
# the largest shipped workload's world (256 nodes, 450 buildings)
MAX_NODES = 100_000
MAX_BUILDINGS = 100_000
# The generated coordinates must hold the world validate_scenario checks.
# Within 2**22 m (about 4,200 km) a coordinate's ulp is at most 2**-30 m, so
# a street's endpoint distance, a difference of two rounded products, stays
# within the 1e-9 m of its length that the edge test allows. A building too
# narrow for its coordinates rounds away against its corners or moves its
# centroid off its access point; a side of 2**-23 of the extent keeps clear.
MAX_GRID_EXTENT_M = 2.0 ** 22
MIN_SIDE_OF_EXTENT = 2.0 ** -23
CELL_FILL = 0.8  # a building spans at most this share of its cell's interior


def check_grid(rows: int, cols: int, spacing: float, buildings_per_cell: int) -> None:
    """Raise ParameterError unless generate_grid_scenario can build the grid, whose
    buildings keep CELL_MARGIN_M from the roads on every side, at most
    MAX_GRID_EXTENT_M across and with building sides at least
    MIN_SIDE_OF_EXTENT of that extent."""
    if rows < 2 or cols < 2:
        raise ParameterError(f"grid needs rows >= 2 and cols >= 2, got {rows}x{cols}")
    if buildings_per_cell < 0:
        raise ParameterError(f"buildings_per_cell must be >= 0, got {buildings_per_cell}")
    if rows * cols > MAX_NODES or (rows - 1) * (cols - 1) * buildings_per_cell > MAX_BUILDINGS:
        raise ParameterError(f"a {rows}x{cols} grid with {buildings_per_cell} buildings per cell "
                             f"exceeds {MAX_NODES} nodes or {MAX_BUILDINGS} buildings")
    if not 0 < spacing < math.inf:
        raise ParameterError(f"spacing must be positive and finite, got {spacing}")
    least = 2.0 * CELL_MARGIN_M
    if buildings_per_cell > 0 and not spacing > least:
        raise ParameterError(f"spacing must be above {least} m (twice the {CELL_MARGIN_M} m "
                             f"building margin) when cells hold buildings, got {spacing}")
    extent = (max(rows, cols) - 1) * spacing
    if not extent <= MAX_GRID_EXTENT_M:
        raise ParameterError(f"spacing must keep the {rows}x{cols} grid within "
                             f"{MAX_GRID_EXTENT_M:.0f} m across, got {spacing}")
    narrowest = min(BUILDING_SIDE_RANGE[0], CELL_FILL * (spacing - least))
    if buildings_per_cell > 0 and not narrowest >= MIN_SIDE_OF_EXTENT * extent:
        raise ParameterError(f"spacing must leave buildings at least "
                             f"{MIN_SIDE_OF_EXTENT * extent:.3g} m wide (2**-23 of the "
                             f"{rows}x{cols} grid's extent), got {spacing}")


def generate_grid_scenario(rows: int, cols: int, spacing: float,
                           buildings_per_cell: int, seed: int) -> Scenario:
    """Synthetic rows x cols street grid with randomly placed buildings.

    Node (r, c) has id r*cols + c at (c*spacing, r*spacing). Every street
    segment gets the default speed limit. Each of the (rows-1) x (cols-1)
    cells receives buildings_per_cell axis-aligned rectangular buildings
    placed uniformly inside the cell interior, heights uniform in [6, 24] m.
    The depot is node 0 at the origin; the base station sits at the grid
    center with a 30 m antenna. Identical seeds give byte-identical output.
    """
    check_grid(rows, cols, spacing, buildings_per_cell)

    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[r * cols + c] = Point(c * spacing, r * spacing, 0.0)
    edges = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c
            if c + 1 < cols:
                edges.append(Edge(nid, nid + 1, spacing, DEFAULT_SPEED_MPS))
            if r + 1 < rows:
                edges.append(Edge(nid, nid + cols, spacing, DEFAULT_SPEED_MPS))

    rng = generator(seed)
    buildings = []
    bid = 0
    side_lo, side_hi = BUILDING_SIDE_RANGE
    h_lo, h_hi = BUILDING_HEIGHT_RANGE
    avail = spacing - 2.0 * CELL_MARGIN_M
    for r in range(rows - 1):
        for c in range(cols - 1):
            x0 = c * spacing
            y0 = r * spacing
            for _ in range(buildings_per_cell):
                w = min(rng.uniform(side_lo, side_hi), CELL_FILL * avail)
                d = min(rng.uniform(side_lo, side_hi), CELL_FILL * avail)
                cx = x0 + rng.uniform(CELL_MARGIN_M + w / 2, spacing - CELL_MARGIN_M - w / 2)
                cy = y0 + rng.uniform(CELL_MARGIN_M + d / 2, spacing - CELL_MARGIN_M - d / 2)
                height = rng.uniform(h_lo, h_hi)
                xmin, xmax = cx - w / 2, cx + w / 2
                ymin, ymax = cy - d / 2, cy + d / 2
                footprint = [Point(xmin, ymin), Point(xmax, ymin),
                             Point(xmax, ymax), Point(xmin, ymax)]
                access = Point((xmin + xmax) / 2, ymin, 0.0)
                buildings.append(Building(bid, footprint, height, access))
                bid += 1

    base = Point((cols - 1) * spacing / 2, (rows - 1) * spacing / 2,
                 BASE_STATION_HEIGHT_M)
    sc = Scenario(RoadGraph(nodes, edges), buildings, depot=0, base_station=base)
    validate_scenario(sc)
    return sc


# ---------------------------------------------------------------------------
# queries


def nearest_nodes(scenario: Scenario, points: list[Point]) -> list[int]:
    """Per point, the node id with minimal Euclidean (xy) distance to it, smallest
    id on ties: one argmin over a points x nodes array."""
    geom = scenario.geometry()
    dx = geom.node_x - np.array([p.x for p in points], np.float64)[:, None]
    dy = geom.node_y - np.array([p.y for p in points], np.float64)[:, None]
    d2 = dx * dx + dy * dy
    # node_ids is sorted ascending, argmin keeps the first (smallest id) tie
    return geom.node_ids[np.argmin(d2, axis=1)].tolist()


def los_blocked_many(scenario: Scenario, a_xyz: np.ndarray, b_xyz: np.ndarray) -> np.ndarray:
    """Per segment: True iff the 3D segment intersects a building volume.

    a_xyz and b_xyz are the N x 3 endpoint arrays, of finite coordinates
    (ParameterError otherwise). Footprints are extruded from the ground to
    their height; an endpoint inside a volume counts as blocked.
    """
    geom = scenario.geometry()
    return kernels.los_blocked_batch(
        np.ascontiguousarray(a_xyz[:, 0]), np.ascontiguousarray(a_xyz[:, 1]),
        np.ascontiguousarray(a_xyz[:, 2]), np.ascontiguousarray(b_xyz[:, 0]),
        np.ascontiguousarray(b_xyz[:, 1]), np.ascontiguousarray(b_xyz[:, 2]),
        geom.vert_x, geom.vert_y, geom.offsets, geom.heights,
        geom.bb_minx, geom.bb_maxx, geom.bb_miny, geom.bb_maxy)


# ---------------------------------------------------------------------------
# validation


def _footprint_checks(buildings: list[Building], depot: Point
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per building: (footprint is a simple polygon, footprint holds depot).

    Runs each kernel predicate once over all footprints: the segment test on
    every pair of non-adjacent edges, and the even-odd crossing test of the
    depot on every edge (vertex i to vertex i-1, as _point_in_poly walks it).
    """
    xs, ys, owner, prev, nxt, pair_a, pair_b, pair_owner = ([] for _ in range(8))
    for k, bld in enumerate(buildings):
        base = len(xs)
        n = len(bld.footprint)
        for i, p in enumerate(bld.footprint):
            xs.append(p.x)
            ys.append(p.y)
            owner.append(k)
            prev.append(base + (i - 1) % n)
            nxt.append(base + (i + 1) % n)
            # edge i and edge j share no vertex
            for j in range(i + 2, n if i else n - 1):
                pair_a.append(base + i)
                pair_b.append(base + j)
                pair_owner.append(k)
    x = np.array(xs, np.float64)
    y = np.array(ys, np.float64)
    nxt = np.array(nxt, np.int64)
    prev = np.array(prev, np.int64)
    ea = np.array(pair_a, np.int64)
    eb = np.array(pair_b, np.int64)
    touch = kernels.segments_intersect(x[ea], y[ea], x[nxt[ea]], y[nxt[ea]],
                                        x[eb], y[eb], x[nxt[eb]], y[nxt[eb]])
    simple = np.bincount(np.array(pair_owner, np.int64)[touch],
                         minlength=len(buildings)) == 0
    crossings = kernels.ray_crossings(depot.x, depot.y, x, y, x[prev], y[prev])
    holds = np.bincount(np.array(owner, np.int64)[crossings],
                        minlength=len(buildings)) % 2 == 1
    return simple, holds


def _shoelace(pts: list[Point]) -> tuple[float, float, float]:
    """Twice the polygon's signed area and its first moments times six, all
    relative to its first vertex, so coordinates far from the origin keep
    their precision: the centroid is that vertex plus the moments over
    three times the first value."""
    a2 = cx = cy = 0.0
    for p, q in zip(pts, pts[1:] + pts[:1]):
        px, py = p.x - pts[0].x, p.y - pts[0].y
        qx, qy = q.x - pts[0].x, q.y - pts[0].y
        cross = px * qy - qx * py
        a2 += cross
        cx += (px + qx) * cross
        cy += (py + qy) * cross
    return a2, cx, cy


def _signed_area(pts: list[Point]) -> float:
    return 0.5 * _shoelace(pts)[0]


def validate_scenario(sc: Scenario) -> None:
    """Raise InvariantViolation naming the first broken invariant."""
    g = sc.graph
    if not g.nodes:
        raise InvariantViolation("graph has no nodes")
    for p in g.nodes.values():
        if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.z)):
            raise InvariantViolation("non-finite coordinates")
    pairs = set()  # one edge per node pair, so a step's truck time is a function of it
    for e in g.edges:
        if e.a == e.b:
            raise InvariantViolation("self-loop edge", f"node {e.a}")
        pair = (min(e.a, e.b), max(e.a, e.b))
        if pair in pairs:
            raise InvariantViolation("parallel edges", f"{e.a}-{e.b}")
        pairs.add(pair)
        if e.a not in g.nodes or e.b not in g.nodes:
            raise InvariantViolation("edge references unknown node", f"{e.a}-{e.b}")
        if not (math.isfinite(e.length) and math.isfinite(e.speed_limit)):
            raise InvariantViolation("non-finite edge length or speed limit",
                                     f"edge {e.a}-{e.b}")
        if e.speed_limit <= 0:
            raise InvariantViolation("non-positive speed limit", f"edge {e.a}-{e.b}")
        straight = g.nodes[e.a].dist2d(g.nodes[e.b])
        if e.length < straight - 1e-9:
            raise InvariantViolation(
                "edge length below endpoint distance",
                f"edge {e.a}-{e.b}: length {e.length} < {straight:.6f}")
    # connectivity by BFS
    adj = g.adjacency()
    seen = {next(iter(g.nodes))}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v, _, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != len(g.nodes):
        raise InvariantViolation("graph not connected",
                                 f"{len(g.nodes) - len(seen)} unreachable nodes")
    if sc.depot not in g.nodes:
        raise InvariantViolation("depot not in graph", f"node {sc.depot}")
    bs = sc.base_station
    if not (math.isfinite(bs.x) and math.isfinite(bs.y) and math.isfinite(bs.z)):
        raise InvariantViolation("non-finite base station coordinates")
    if sc.base_station.z <= 0:
        raise InvariantViolation("base station antenna height must be positive")
    edge_pairs = 0
    for b in sc.buildings:
        if not all(math.isfinite(c) for pt in (*b.footprint, b.access_point)
                   for c in (pt.x, pt.y)):
            raise InvariantViolation("non-finite footprint or access coordinates",
                                     f"building {b.id}")
        if not math.isfinite(b.height):
            raise InvariantViolation("non-finite building height", f"building {b.id}")
        n = len(b.footprint)
        edge_pairs += max(0, n * (n - 3) // 2)  # what _footprint_checks builds
        if edge_pairs > MAX_EDGE_PAIRS:
            raise InvariantViolation(f"footprints have more than {MAX_EDGE_PAIRS} pairs of "
                                     "non-adjacent edges to test",
                                     f"building {b.id} ({n} vertices)")
    seen_ids = set()
    simple, holds_depot = _footprint_checks(sc.buildings, g.nodes[sc.depot])
    for k, b in enumerate(sc.buildings):
        if b.id in seen_ids:
            raise InvariantViolation("duplicate building id", str(b.id))
        seen_ids.add(b.id)
        if len(b.footprint) < 3:
            raise InvariantViolation("footprint needs >= 3 vertices", f"building {b.id}")
        if not simple[k]:
            raise InvariantViolation("footprint not a simple polygon", f"building {b.id}")
        if b.height <= 0:
            raise InvariantViolation("building height must be positive", f"building {b.id}")
        if b.access_point.dist2d(b.centroid()) > ACCESS_CENTROID_LIMIT_M:
            raise InvariantViolation("access point too far from footprint centroid",
                                     f"building {b.id}")
        if holds_depot[k]:
            raise InvariantViolation("building contains the depot node", f"building {b.id}")


# ---------------------------------------------------------------------------
# file format (UTF-8 JSON; README lists its fields)

_xy = fields.list_of(fields.number, 2)


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "nodes": [{"id": nid, "x": p.x, "y": p.y}
                  for nid, p in sorted(sc.graph.nodes.items())],
        "edges": [{"a": e.a, "b": e.b, "length_m": e.length, "speed_mps": e.speed_limit}
                  for e in sc.graph.edges],
        "buildings": [{"id": b.id,
                       "footprint": [[p.x, p.y] for p in b.footprint],
                       "height_m": b.height,
                       "access": [b.access_point.x, b.access_point.y]}
                      for b in sc.buildings],
        "depot": sc.depot,
        "base_station": [sc.base_station.x, sc.base_station.y, sc.base_station.z],
    }


def scenario_from_dict(data) -> Scenario:
    node_list, edge_list, depot, bs = fields.unpack(
        data, "scenario", nodes=fields.array, edges=fields.array, depot=fields.integer,
        base_station=fields.list_of(fields.number, 3))
    nodes = {}
    for i, nd in enumerate(node_list):
        nid, x, y = fields.unpack(nd, f"scenario.nodes[{i}]", id=fields.integer,
                                  x=fields.number, y=fields.number)
        if nid in nodes:
            raise ParseError(f"scenario.nodes[{i}]: duplicate node id {nid}")
        nodes[nid] = Point(x, y, 0.0)
    edges = [Edge(*fields.unpack(ed, f"scenario.edges[{i}]", a=fields.integer, b=fields.integer,
                                 length_m=fields.number, speed_mps=fields.number))
             for i, ed in enumerate(edge_list)]
    buildings = []
    for i, bd in enumerate(fields.get(data, "buildings", "scenario", fields.array, [])):
        bid, footprint, height, (ax, ay) = fields.unpack(
            bd, f"scenario.buildings[{i}]", id=fields.integer, footprint=fields.list_of(_xy),
            height_m=fields.number, access=_xy)
        fp = [Point(x, y) for x, y in footprint]
        if _signed_area(fp) < 0:
            fp = fp[::-1]  # normalize to counter-clockwise
        buildings.append(Building(bid, fp, height, Point(ax, ay, 0.0)))
    sc = Scenario(RoadGraph(nodes, edges), buildings, depot=depot, base_station=Point(*bs))
    validate_scenario(sc)
    return sc


def save_scenario(sc: Scenario, path) -> None:
    fields.write_json(scenario_to_dict(sc), path, indent=1)


def load_scenario(path) -> Scenario:
    return scenario_from_dict(fields.read_json(path))
