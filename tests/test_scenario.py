import dataclasses
import json
import math
import re

import numpy as np
import pytest

from hybridfleet.errors import InvariantViolation, ParameterError, ParseError
from hybridfleet.routing import routing_cache
from hybridfleet.scenario import (Edge, Point, RoadGraph, Scenario, _signed_area,
                                  check_grid, generate_grid_scenario, load_scenario,
                                  los_blocked_many, nearest_nodes, save_scenario,
                                  scenario_from_dict, scenario_to_dict, validate_scenario)


def test_grid_2x2_no_buildings():
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    assert len(sc.graph.nodes) == 4
    assert len(sc.graph.edges) == 4
    assert sc.buildings == []
    assert sc.depot == 0
    assert sc.graph.nodes[0] == Point(0.0, 0.0, 0.0)


def test_grid_3x3_one_building_per_cell():
    sc = generate_grid_scenario(3, 3, 100.0, 1, seed=7)
    assert len(sc.graph.nodes) == 9
    assert len(sc.graph.edges) == 12
    assert len(sc.buildings) == 4  # one per interior cell of a 3x3 grid


def test_grid_deterministic():
    a = generate_grid_scenario(5, 5, 100.0, 2, seed=42)
    b = generate_grid_scenario(5, 5, 100.0, 2, seed=42)
    assert json.dumps(scenario_to_dict(a)) == json.dumps(scenario_to_dict(b))
    c = generate_grid_scenario(5, 5, 100.0, 2, seed=43)
    assert json.dumps(scenario_to_dict(a)) != json.dumps(scenario_to_dict(c))


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 1), (0, 0)])
def test_grid_invalid_dimensions(rows, cols):
    with pytest.raises(ParameterError):
        generate_grid_scenario(rows, cols, 100.0, 0, seed=1)


def test_grid_invalid_spacing():
    with pytest.raises(ParameterError):
        generate_grid_scenario(2, 2, 0.0, 0, seed=1)


def test_grid_spacing_must_leave_room_for_buildings():
    for spacing in (1.0, 5.0, 10.0):
        with pytest.raises(ParameterError, match="spacing must be above 10.0 m"):
            generate_grid_scenario(3, 3, spacing, 1, seed=1)
    # without buildings a cell needs no room; just above the margins it has some
    assert generate_grid_scenario(3, 3, 5.0, 0, seed=1).buildings == []
    assert len(generate_grid_scenario(3, 3, 10.5, 2, seed=1).buildings) == 8


@pytest.mark.parametrize("spacing", [10.000000000000002, 1e300, 1e308])
def test_grid_spacing_the_coordinates_cannot_hold(spacing):
    # each built a world that validate_scenario rejects, naming a building
    # or the coordinates, not the spacing
    for buildings in (0, 1):
        if spacing < 11 and not buildings:
            continue  # without buildings the narrow cells are fine
        with pytest.raises(ParameterError, match=f"^spacing must .*, got {re.escape(str(spacing))}$"):
            generate_grid_scenario(3, 3, spacing, buildings, seed=1)


def _last_accepted(rows, cols, buildings, accepted, rejected):
    """The spacing check_grid accepts next to the one it rejects, between
    an accepted and a rejected spacing."""
    def accepts(spacing):
        try:
            check_grid(rows, cols, spacing, buildings)
        except ParameterError:
            return False
        return True

    assert accepts(accepted) and not accepts(rejected)
    while math.nextafter(accepted, rejected) != rejected:
        mid = accepted + (rejected - accepted) / 2
        if mid in (accepted, rejected):
            mid = math.nextafter(accepted, rejected)
        if accepts(mid):
            accepted = mid
        else:
            rejected = mid
    return accepted


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (2, 9), (9, 9), (30, 30)])
@pytest.mark.parametrize("buildings", [0, 1, 3])
def test_grid_spacings_at_the_bounds_build_valid_worlds(rows, cols, buildings):
    spacings = [_last_accepted(rows, cols, buildings, 100.0, 1e300)]
    if buildings:
        spacings.append(_last_accepted(rows, cols, buildings, 100.0, 10.0))
    for spacing in spacings:
        for seed in range(3):
            validate_scenario(generate_grid_scenario(rows, cols, spacing, buildings, seed))


@pytest.mark.parametrize("seed", range(8))
def test_generated_scenarios_satisfy_invariants(seed):
    sc = generate_grid_scenario(4, 5, 80.0, 2, seed=seed)
    validate_scenario(sc)  # raises on violation


def test_nearest_node_corner():
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    assert nearest_nodes(sc, [Point(10.0, 5.0)]) == [0]


def test_nearest_node_exact_hit():
    sc = generate_grid_scenario(3, 3, 100.0, 0, seed=1)
    assert nearest_nodes(sc, list(sc.graph.nodes.values())) == list(sc.graph.nodes)


def test_nearest_node_tie_breaks_to_smaller_id():
    graph = RoadGraph({3: Point(0.0, 0.0), 5: Point(10.0, 0.0)},
                      [Edge(3, 5, 10.0, 8.0)])
    sc = Scenario(graph, [], depot=3, base_station=Point(5.0, 0.0, 30.0))
    assert nearest_nodes(sc, [Point(5.0, 7.0)]) == [3]


def test_nearest_node_exhaustive_small_grid():
    sc = generate_grid_scenario(3, 4, 50.0, 0, seed=2)
    rng = np.random.default_rng(5)
    points = [Point(float(rng.uniform(-30, 200)), float(rng.uniform(-30, 150)))
              for _ in range(100)]
    got_all = nearest_nodes(sc, points)

    def d2(n, p):  # the array's arithmetic, one node and point at a time
        dx, dy = sc.graph.nodes[n].x - p.x, sc.graph.nodes[n].y - p.y
        return dx * dx + dy * dy
    # min keeps the first of equal keys, so the smallest id on ties
    assert got_all == [min(sorted(sc.graph.nodes), key=lambda n: d2(n, p)) for p in points]
    for p, got in zip(points, got_all):
        best = min(math.hypot(q.x - p.x, q.y - p.y) for q in sc.graph.nodes.values())
        assert math.hypot(sc.graph.nodes[got].x - p.x,
                          sc.graph.nodes[got].y - p.y) <= best + 1e-12


def _one_building_scenario():
    from hybridfleet.scenario import Building
    fp = [Point(80.0, -10.0), Point(120.0, -10.0), Point(120.0, 10.0), Point(80.0, 10.0)]
    b = Building(0, fp, 10.0, Point(100.0, -10.0))
    graph = RoadGraph({0: Point(0.0, -50.0), 1: Point(200.0, -50.0)},
                      [Edge(0, 1, 200.0, 8.0)])
    return Scenario(graph, [b], depot=0, base_station=Point(100.0, -50.0, 30.0))


def blocked(sc, a, b):
    """LOS test of the one segment a-b, given as (x, y, z) tuples."""
    return bool(los_blocked_many(sc, np.array([a], np.float64), np.array([b], np.float64))[0])


def test_los_blocked_through_building():
    sc = _one_building_scenario()
    assert blocked(sc, (0, 0, 1.5), (200, 0, 1.5)) is True


def test_los_clear_above_roof():
    sc = _one_building_scenario()
    assert blocked(sc, (0, 0, 50.0), (200, 0, 50.0)) is False


def test_los_no_buildings_never_blocked():
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = (*rng.uniform(-50, 150, 2), float(rng.uniform(0, 60)))
        b = (*rng.uniform(-50, 150, 2), float(rng.uniform(0, 60)))
        assert blocked(sc, a, b) is False


def test_los_endpoint_inside_building_blocked():
    sc = _one_building_scenario()
    assert blocked(sc, (100, 0, 5.0), (100, 0, 5.0)) is True
    assert blocked(sc, (100, 0, 5.0), (0, 0, 1.0)) is True


def test_los_symmetric():
    sc = generate_grid_scenario(4, 4, 100.0, 2, seed=3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = (*rng.uniform(0, 300, 2), float(rng.uniform(0, 60)))
        b = (*rng.uniform(0, 300, 2), float(rng.uniform(0, 60)))
        assert blocked(sc, a, b) == blocked(sc, b, a)


@pytest.mark.parametrize("footprint,invariant", [
    ([[20, 20], [40, 40], [40, 20], [20, 40]], "footprint not a simple polygon"),
    ([[-10, -10], [10, -10], [10, 10], [-10, 10]], "building contains the depot node"),
    ([[-10, -10], [10, -10], [10, 5], [40, 5], [40, 15], [-10, 15]],
     "building contains the depot node"),
])
def test_load_bad_footprint_names_invariant(tmp_path, footprint, invariant):
    data = scenario_to_dict(generate_grid_scenario(2, 2, 100.0, 0, seed=1))
    xs = [x for x, _ in footprint]
    ys = [y for _, y in footprint]
    data["buildings"] = [{"id": 0, "footprint": footprint, "height_m": 10.0,
                          "access": [sum(xs) / len(xs), sum(ys) / len(ys)]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match=invariant):
        load_scenario(path)


def test_load_concave_footprint_accepted(tmp_path):
    data = scenario_to_dict(generate_grid_scenario(2, 2, 100.0, 0, seed=1))
    data["buildings"] = [{"id": 0, "height_m": 10.0, "access": [30.0, 30.0],
                          "footprint": [[20, 20], [50, 20], [50, 30], [30, 30],
                                        [30, 50], [20, 50]]}]
    path = tmp_path / "l.json"
    path.write_text(json.dumps(data))
    assert len(load_scenario(path).buildings) == 1


def test_load_small_buildings_far_from_the_origin(tmp_path):
    """4 m x 4 m buildings at UTM-like coordinates (x ~ 5e5 m, y ~ 5e6 m).
    A shoelace over absolute coordinates put the first centroid 51 m off
    centre, past the access-point limit; relative to the first vertex the
    centroids are exact. The second footprint is listed clockwise."""
    ox, oy = 5e5, 5e6
    data = scenario_to_dict(generate_grid_scenario(2, 2, 100.0, 0, seed=1))
    for node in data["nodes"]:
        node["x"] += ox
        node["y"] += oy
    data["base_station"][0] += ox
    data["base_station"][1] += oy
    corners = [(500037.94, 5000066.11), (500060.25, 5000020.5)]
    squares = [[[x, y], [x + 4.0, y], [x + 4.0, y + 4.0], [x, y + 4.0]] for x, y in corners]
    squares[1].reverse()
    data["buildings"] = [{"id": k, "footprint": square, "height_m": 10.0,
                          "access": [x + 2.0, y + 2.0]}
                         for k, (square, (x, y)) in enumerate(zip(squares, corners))]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    sc = load_scenario(path)
    for b, (x, y) in zip(sc.buildings, corners):
        assert _signed_area(b.footprint) == pytest.approx(16.0)  # counter-clockwise
        c = b.centroid()
        assert (c.x, c.y) == pytest.approx((x + 2.0, y + 2.0), rel=0, abs=1e-6)


def test_save_load_round_trip(tmp_path):
    sc = generate_grid_scenario(3, 3, 100.0, 1, seed=7)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    assert load_scenario(path) == sc


def test_equality_ignores_the_caches_and_hash_raises(tmp_path):
    sc = generate_grid_scenario(3, 3, 100.0, 1, seed=7)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    sc.geometry()
    routing_cache(sc, 8.33)
    fresh = load_scenario(path)
    assert sc == fresh
    assert fresh == sc
    assert dataclasses.replace(sc, depot=1) != sc
    with pytest.raises(TypeError):
        hash(sc)


def test_load_disconnected_graph_names_invariant(tmp_path):
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    data = scenario_to_dict(sc)
    data["nodes"].append({"id": 99, "x": 500.0, "y": 500.0})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match="graph not connected"):
        load_scenario(path)


def test_load_short_edge_rejected(tmp_path):
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    data = scenario_to_dict(sc)
    data["edges"][0]["length_m"] = 50.0  # endpoints are 100 m apart
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match="edge length below endpoint distance"):
        load_scenario(path)


@pytest.mark.parametrize("reverse", [False, True])
def test_load_parallel_edge_rejected(tmp_path, reverse):
    sc = generate_grid_scenario(2, 2, 100.0, 0, seed=1)
    data = scenario_to_dict(sc)
    edge = dict(data["edges"][0], speed_mps=1.0)
    if reverse:
        edge["a"], edge["b"] = edge["b"], edge["a"]
    data["edges"].append(edge)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match=f"^parallel edges: {edge['a']}-{edge['b']}$"):
        load_scenario(path)


def test_load_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [,]}')
    with pytest.raises(ParseError, match="line"):
        load_scenario(path)


def test_load_missing_field_is_named(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"nodes": [{"id": 0, "x": 0.0}],
                                "edges": [], "depot": 0,
                                "base_station": [0, 0, 30]}))
    with pytest.raises(ParseError, match="'y'"):
        load_scenario(path)


def _set_footprint_vertex(data, value):
    data["buildings"][0]["footprint"][0][0] = value


def _set_access(data, value):
    data["buildings"][0]["access"][1] = value


def _set_height(data, value):
    data["buildings"][0]["height_m"] = value


def _set_edge_length(data, value):
    data["edges"][0]["length_m"] = value


def _set_edge_speed(data, value):
    data["edges"][0]["speed_mps"] = value


def _set_base_station(data, value):
    data["base_station"][0] = value


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field,invariant", [
    (_set_footprint_vertex, "non-finite footprint or access coordinates"),
    (_set_access, "non-finite footprint or access coordinates"),
    (_set_height, "non-finite building height"),
    (_set_edge_length, "non-finite edge length or speed limit"),
    (_set_edge_speed, "non-finite edge length or speed limit"),
    (_set_base_station, "non-finite base station coordinates"),
])
def test_non_finite_world_value_rejected(field, invariant, value):
    data = scenario_to_dict(generate_grid_scenario(3, 3, 100.0, 1, seed=7))
    scenario_from_dict(data)  # the unmodified world loads
    field(data, value)
    with pytest.raises(InvariantViolation, match=invariant):
        scenario_from_dict(data)
