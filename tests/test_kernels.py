"""Kernel-level behavior and equivalence with reference implementations.

The TSP kernels are checked against exhaustive enumeration and the 2-opt
local-optimum property. The numpy LOS kernel must match, element for
element, the scalar per-segment x per-building loop kept below as its
oracle, on random segments, on segments grazing the buildings' boxes or
crossing the tallest roof, and on the hops of a planned trace. The
timetable fold, which returns lists, and the numpy pairwise distances must
match the scalar loops kept below bit for bit. The sortie kernels must return the same bits on Python lists, as the
planner passes them, and on numpy arrays; ``best_sortie`` must return the
bits of the rendezvous scan of every candidate launch kept below as its
oracle, and never complete before its free time plus the drone service, the
bound the planner prunes its scans with.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hybridfleet import kernels, netmodel
from hybridfleet.errors import ParameterError
from hybridfleet.hybrid import FleetConfig, plan_hybrid
from hybridfleet.jobs import generate_delivery_sets
from hybridfleet.scenario import (Building, Point, _footprint_checks, generate_grid_scenario,
                                 los_blocked_many, scenario_from_dict, scenario_to_dict)
from hybridfleet.simcore import simulate

from conftest import deadline


def random_matrix(rng, n):
    m = rng.uniform(1, 100, (n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0)
    return m


def test_two_opt_reaches_local_optimum():
    rng = np.random.default_rng(6)
    for closed in (True, False):
        n = 12
        m = random_matrix(rng, n).tolist()
        order = list(range(n))
        cost = kernels.two_opt(m, order, closed)
        # no single 2-opt move may improve the final tour
        for i in range(n - 1):
            for j in range(i + 1, n):
                cand = order.copy()
                cand[i + 1:j + 1] = cand[i + 1:j + 1][::-1]
                assert kernels.tour_cost(m, cand, closed) >= cost - 1e-9


def test_two_opt_not_worse_than_nearest_neighbor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_matrix(rng, 15).tolist()
        order = kernels.nearest_neighbor_order(m)
        nn_cost = kernels.tour_cost(m, order.copy(), True)
        assert kernels.two_opt(m, order, True) <= nn_cost + 1e-9


# Travel times of about 5e8 s (roads at 3e-6 m/s): every move's delta is 0 in
# exact arithmetic, but (x + y) - x - y rounds below -eps, so the tied moves
# kept setting the improved flag and 2-opt never ended.
_ROUNDING_TIES = [[0.0, 580285491.5, 406117996.6],
                  [580285491.5, 0.0, 405089172.2],
                  [406117996.6, 405089172.2, 0.0]]


@pytest.mark.parametrize("closed", [True, False])
def test_two_opt_ends_when_rounding_makes_moves_look_improving(closed):
    order = [0, 1, 2]
    with deadline(5):
        cost = kernels.two_opt(_ROUNDING_TIES, order, closed)
    assert sorted(order) == [0, 1, 2] and order[0] == 0
    assert cost == kernels.tour_cost(_ROUNDING_TIES, order, closed)


# no shrink phase: each shrink step of a hanging example would wait out the deadline
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
           st.floats(0.0, 1.0), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
       .map(lambda upper: (n, upper))),
       st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e12]), st.booleans())
def test_two_opt_ends_on_symmetric_matrices_of_any_scale(shape, scale, closed):
    """2-opt from the nearest-neighbour tour ends, on a permutation from city 0,
    with its cost; it is no worse than where it started, up to the rounding
    of the moves it made."""
    n, upper = shape
    m = [[0.0] * n for _ in range(n)]
    for (i, j), v in zip(itertools.combinations(range(n), 2), upper):
        m[i][j] = m[j][i] = v * scale
    order = kernels.nearest_neighbor_order(m)
    start = kernels.tour_cost(m, order, closed)
    with deadline(2):
        cost = kernels.two_opt(m, order, closed)
    assert sorted(order) == list(range(n)) and order[0] == 0
    assert cost == kernels.tour_cost(m, order, closed)
    assert cost <= start + n * 1e-12 * scale


def test_single_city_tours_take_the_general_path():
    assert kernels.nearest_neighbor_order([[0.0]]) == [0]
    for closed in (True, False):
        assert kernels.two_opt([[0.0]], [0], closed) == 0.0
        assert kernels.held_karp([[0.0]], closed) == ([0], 0.0)


def test_held_karp_vs_enumeration():
    rng = np.random.default_rng(8)
    for closed in (True, False):
        m = rng.integers(1, 50, (6, 6)).astype(float)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        order, cost = kernels.held_karp(m.tolist(), closed)
        best = math.inf
        for perm in itertools.permutations(range(1, 6)):
            seq = (0,) + perm
            c = sum(m[seq[i], seq[i + 1]] for i in range(5))
            if closed:
                c += m[seq[-1], seq[0]]
            best = min(best, c)
        assert cost == pytest.approx(best)


def _oracle_pairwise_distances(x, y):
    """The scalar loop the vectorized distance kernel replaced."""
    n = x.shape[0]
    out = np.empty(n * (n - 1) // 2, np.float64)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            out[k] = math.sqrt(dx * dx + dy * dy)
            k += 1
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300]),
                          st.floats(-1e6, 1e6)), max_size=30))
def test_pairwise_distances_same_bits_as_scalar_loop(points):
    x = np.array([p[0] for p in points], np.float64)
    y = np.array([p[1] for p in points], np.float64)
    got = kernels.pairwise_distances(x, y)
    want = _oracle_pairwise_distances(x, y)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def _oracle_build_timetable(step_times, services, start=0.0):
    """The scalar recurrence over numpy arrays (with a start time)."""
    n = services.shape[0]
    arrive = np.empty(n, np.float64)
    depart = np.empty(n, np.float64)
    arrive[0] = start
    for i in range(n):
        depart[i] = arrive[i] + services[i]
        if i + 1 < n:
            arrive[i + 1] = depart[i] + step_times[i]
    return arrive, depart


def test_build_timetable_matches_scalar_loop():
    rng = np.random.default_rng(12)
    for trial in range(2000):
        n = 1 if trial < 20 else int(rng.integers(1, 120))
        steps = rng.uniform(0.0, 300.0, n - 1) * rng.integers(0, 2, n - 1)
        services = rng.uniform(0.0, 90.0, n) * rng.integers(0, 2, n)
        start = float(rng.uniform(0.0, 5000.0)) if trial % 2 else 0.0
        got = kernels.build_timetable(steps.tolist(), services.tolist(), start)
        want = _oracle_build_timetable(steps, services, start)
        for g, w in zip(got, want):
            assert type(g) is list and all(type(t) is float for t in g), trial
            assert np.array(g, np.float64).tobytes() == w.tobytes(), trial


def test_build_timetable_resumes_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        steps = rng.uniform(0.0, 300.0, n - 1).tolist()
        services = (rng.uniform(0.0, 90.0, n) * rng.integers(0, 2, n)).tolist()
        arrive, depart = kernels.build_timetable(steps, services)
        p = int(rng.integers(0, n))
        tail_arrive, tail_depart = kernels.build_timetable(steps[p:], services[p:], arrive[p])
        assert (np.array(tail_arrive, np.float64).tobytes()
                == np.array(arrive[p:], np.float64).tobytes())
        assert (np.array(tail_depart, np.float64).tobytes()
                == np.array(depart[p:], np.float64).tobytes())


def test_build_timetable_recurrence():
    steps = [10.0, 5.0, 20.0]
    services = [0.0, 60.0, 0.0, 30.0]
    arrive, depart = kernels.build_timetable(steps, services)
    assert arrive == [0.0, 10.0, 75.0, 95.0]
    assert depart == [0.0, 70.0, 75.0, 125.0]


def test_sortie_from_launch_statuses():
    px = np.array([0.0, 100.0, 200.0])
    py_ = np.zeros(3)
    arrive, depart = kernels.build_timetable([10.0, 10.0], [0.0] * 3)
    ok = kernels.sortie_from_launch(px, py_, arrive, depart, 0, 50.0, 10.0,
                                    20.0, 0.0, 1e9)
    assert ok[0] == kernels.SORTIE_OK
    too_short = kernels.sortie_from_launch(px, py_, arrive, depart, 0, 50.0, 10.0,
                                           20.0, 0.0, 1.0)
    assert too_short[0] == kernels.SORTIE_ENDURANCE
    no_node = kernels.sortie_from_launch(px, py_, arrive, depart, 2, 50.0, 10.0,
                                         20.0, 0.0, 1e9)
    assert no_node[0] == kernels.SORTIE_NO_NODE


def _bits(values):
    """A kernel's returned tuple with each float as its IEEE-754 bytes."""
    return [v if isinstance(v, int) else np.float64(v).tobytes() for v in values]


_coord = st.floats(-2000.0, 2000.0, allow_nan=False)


@st.composite
def _truck_path(draw):
    """A path of 2-40 positions over at most 6 node ids (so nodes repeat),
    with its timetable, as lists."""
    n = draw(st.integers(2, 40))
    nodes = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    xs = draw(st.lists(_coord, min_size=n, max_size=n))
    ys = draw(st.lists(_coord, min_size=n, max_size=n))
    steps = draw(st.lists(st.floats(0.0, 300.0), min_size=n - 1, max_size=n - 1))
    services = draw(st.lists(st.sampled_from([0.0, 0.0, 45.0, 60.0]), min_size=n, max_size=n))
    start = draw(st.sampled_from([0.0, 125.5]))
    arrive, depart = kernels.build_timetable(steps, services, start)
    return nodes, xs, ys, arrive, depart


@settings(max_examples=300, deadline=None)
@given(path=_truck_path(), launch=st.integers(0, 39), tx=_coord, ty=_coord,
       speed=st.floats(1.0, 30.0), service=st.floats(0.0, 60.0),
       endurance=st.floats(10.0, 3000.0), free_time=st.floats(0.0, 3000.0))
def test_sortie_kernels_same_bits_on_lists_and_arrays(path, launch, tx, ty, speed, service,
                                                      endurance, free_time):
    nodes, xs, ys, arrive, depart = path
    launch %= len(nodes)
    as_arrays = [np.array(v, np.float64) for v in (xs, ys, arrive, depart)]
    from_lists = kernels.sortie_from_launch(xs, ys, arrive, depart, launch,
                                            tx, ty, speed, service, endurance)
    from_arrays = kernels.sortie_from_launch(*as_arrays, launch,
                                             tx, ty, speed, service, endurance)
    assert _bits(from_lists) == _bits(from_arrays)
    x, y, arr, dep = as_arrays
    best_lists = kernels.best_sortie(xs, ys, nodes, arrive, depart, free_time,
                                     tx, ty, speed, service, endurance)
    best_arrays = kernels.best_sortie(x, y, np.array(nodes, np.int64), arr, dep, free_time,
                                      tx, ty, speed, service, endurance)
    assert _bits(best_lists) == _bits(best_arrays)


@settings(max_examples=300, deadline=None)
@given(path=_truck_path(), data=st.data(), speed=st.floats(1.0, 30.0),
       service=st.floats(0.0, 60.0), endurance=st.floats(10.0, 3000.0))
def test_best_sortie_completes_no_earlier_than_free_time_plus_service(path, data, speed,
                                                                      service, endurance):
    # plan_hybrid skips a scan whose reduction bound, taken from this lower
    # bound on the completion, cannot beat the best candidate so far
    nodes, xs, ys, arrive, depart = path
    free_time = data.draw(st.floats(0.0, 3000.0) | st.sampled_from(depart))
    tx, ty = data.draw(st.tuples(_coord, _coord) | st.sampled_from(list(zip(xs, ys))))
    li, completion = kernels.best_sortie(xs, ys, nodes, arrive, depart, free_time,
                                         tx, ty, speed, service, endurance)
    if li >= 0:
        assert depart[li] >= free_time
        assert completion >= free_time + service


def _oracle_best_sortie(xs, ys, nodes, arrive, depart, free_time, tx, ty, speed, service,
                        endurance):
    """The first least completion over every node's first launch departing
    at or after free_time, each scanned for its rendezvous."""
    best = (-1, math.inf)
    seen = set()
    for li in range(len(xs) - 1):
        if depart[li] < free_time or nodes[li] in seen:
            continue
        seen.add(nodes[li])
        status, _, t_deliver, _, _ = kernels.sortie_from_launch(
            xs, ys, arrive, depart, li, tx, ty, speed, service, endurance)
        if status == kernels.SORTIE_OK and t_deliver + service < best[1]:
            best = (li, t_deliver + service)
    return best


@settings(max_examples=300, deadline=None)
@given(path=_truck_path(), data=st.data(), speed=st.floats(1.0, 30.0),
       service=st.floats(0.0, 60.0), endurance=st.floats(10.0, 3000.0))
def test_best_sortie_equals_scanning_every_launch(path, data, speed, service, endurance):
    nodes, xs, ys, arrive, depart = path
    free_time = data.draw(st.floats(0.0, 3000.0) | st.sampled_from(depart))
    tx, ty = data.draw(st.tuples(_coord, _coord) | st.sampled_from(list(zip(xs, ys))))
    args = (xs, ys, nodes, arrive, depart, free_time, tx, ty, speed, service, endurance)
    assert _bits(kernels.best_sortie(*args)) == _bits(_oracle_best_sortie(*args))


@pytest.mark.parametrize("drone_speed", [10.0, 9.99, 9.9])
def test_best_sortie_equals_scanning_every_launch_near_ties(drone_speed):
    """A straight road driven at 10 m/s toward the targets: each later launch
    gains 100/drone_speed - 10 s per 100 m, less the further the target lies
    off the road, so completions are tied (at 10 m/s) or a later launch wins
    by a small margin. Beyond x = 1000 m the truck stops at every node, so
    the drone catches up with it."""
    xs = [100.0 * i for i in range(21)]
    ys = [0.0] * 21
    arrive, depart = kernels.build_timetable([10.0] * 20, [0.0] * 11 + [60.0] * 10)
    compared = 0
    for tx in (450.0, 950.0, 1000.0):
        for ty in (0.0, 3.0, 40.0, 250.0):
            for free_time in (0.0, 25.0, 30.0):
                args = (xs, ys, list(range(21)), arrive, depart, free_time, tx, ty,
                        drone_speed, 30.0, 3000.0)
                got = kernels.best_sortie(*args)
                assert _bits(got) == _bits(_oracle_best_sortie(*args)), (tx, ty, free_time)
                compared += got[0] >= 0
    assert compared == 36


# ---------------------------------------------------------------------------
# LOS: numpy kernel against the scalar per-segment x per-building loop


def _oracle_point_in_poly(px, py, vx, vy, lo, hi):
    inside = False
    j = hi - 1
    for i in range(lo, hi):
        yi = vy[i]
        yj = vy[j]
        if (yi > py) != (yj > py):
            xcross = vx[i] + (py - yi) / (yj - yi) * (vx[j] - vx[i])
            if px < xcross:
                inside = not inside
        j = i
    return inside


def _oracle_orient(ax, ay, bx, by, cx, cy):
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _oracle_on_segment(ax, ay, bx, by, px, py):
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
    )


def _oracle_segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
    o1 = _oracle_orient(ax, ay, bx, by, cx, cy)
    o2 = _oracle_orient(ax, ay, bx, by, dx, dy)
    o3 = _oracle_orient(cx, cy, dx, dy, ax, ay)
    o4 = _oracle_orient(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _oracle_on_segment(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _oracle_on_segment(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _oracle_on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _oracle_on_segment(cx, cy, dx, dy, bx, by):
        return True
    return False


def _oracle_segment_hits_volume(ax, ay, az, bx, by, bz, vx, vy, lo, hi, height):
    t0 = 0.0
    t1 = 1.0
    dz = bz - az
    if dz != 0.0:
        ta = (0.0 - az) / dz
        tb = (height - az) / dz
        if ta > tb:
            ta, tb = tb, ta
        if ta > t0:
            t0 = ta
        if tb < t1:
            t1 = tb
        if t0 > t1:
            return False
    else:
        if az < 0.0 or az > height:
            return False
    p0x = ax + (bx - ax) * t0
    p0y = ay + (by - ay) * t0
    p1x = ax + (bx - ax) * t1
    p1y = ay + (by - ay) * t1
    if _oracle_point_in_poly(p0x, p0y, vx, vy, lo, hi):
        return True
    if _oracle_point_in_poly(p1x, p1y, vx, vy, lo, hi):
        return True
    j = hi - 1
    for i in range(lo, hi):
        if _oracle_segments_intersect(p0x, p0y, p1x, p1y, vx[j], vy[j], vx[i], vy[i]):
            return True
        j = i
    return False


def _oracle_los_blocked_batch(ax, ay, az, bx, by, bz,
                              vert_x, vert_y, offsets, heights,
                              bb_minx, bb_maxx, bb_miny, bb_maxy):
    n = ax.shape[0]
    nb = offsets.shape[0] - 1
    out = np.zeros(n, np.bool_)
    for k in range(n):
        sminx = min(ax[k], bx[k])
        smaxx = max(ax[k], bx[k])
        sminy = min(ay[k], by[k])
        smaxy = max(ay[k], by[k])
        for b in range(nb):
            if smaxx < bb_minx[b] or sminx > bb_maxx[b]:
                continue
            if smaxy < bb_miny[b] or sminy > bb_maxy[b]:
                continue
            if min(az[k], bz[k]) > heights[b]:
                continue
            if _oracle_segment_hits_volume(ax[k], ay[k], az[k], bx[k], by[k], bz[k],
                                           vert_x, vert_y, offsets[b], offsets[b + 1],
                                           heights[b]):
                out[k] = True
                break
    return out


def _oracle_polygon_is_simple(pts):
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _oracle_segments_intersect(a1.x, a1.y, a2.x, a2.y,
                                          b1.x, b1.y, b2.x, b2.y):
                return False
    return True


# Integer vertices make exact vertex, edge and collinear cases reachable.
# The L footprint is listed clockwise to exercise the loader's normalization.
_FOOTPRINTS = [
    ([(0, 0), (20, 0), (20, 20), (0, 20)], 12.0),
    ([(40, 0), (40, 30), (50, 30), (50, 10), (70, 10), (70, 0)], 20.0),
    ([(0, 40), (30, 40), (30, 70), (22, 70), (22, 50), (8, 50), (8, 70), (0, 70)], 8.0),
    ([(50, 45), (80, 45), (65, 75)], 15.5),
]
_INTERIOR = [(10.0, 10.0), (45.0, 20.0), (60.0, 5.0), (4.0, 60.0), (26.0, 60.0),
             (65.0, 55.0)]


def _world(footprints):
    buildings = []
    for i, (fp, h) in enumerate(footprints):
        cx = sum(x for x, _ in fp) / len(fp)
        cy = sum(y for _, y in fp) / len(fp)
        buildings.append({"id": i, "footprint": [list(p) for p in fp],
                          "height_m": h, "access": [cx, cy]})
    return scenario_from_dict({
        "nodes": [{"id": 0, "x": -100.0, "y": -100.0}, {"id": 1, "x": -100.0, "y": 100.0}],
        "edges": [{"a": 0, "b": 1, "length_m": 200.0, "speed_mps": 8.0}],
        "buildings": buildings, "depot": 0, "base_station": [35.0, 35.0, 30.0]})


def _geometry_args(sc):
    g = sc.geometry()
    return (g.vert_x, g.vert_y, g.offsets, g.heights,
            g.bb_minx, g.bb_maxx, g.bb_miny, g.bb_maxy)


def _columns(a_xyz, b_xyz):
    cols = (a_xyz[:, 0], a_xyz[:, 1], a_xyz[:, 2], b_xyz[:, 0], b_xyz[:, 1], b_xyz[:, 2])
    return tuple(np.ascontiguousarray(c) for c in cols)


def _assert_matches_oracle(sc, a_xyz, b_xyz):
    """The kernel's result on the segments equals the oracle's. A batch with a
    non-finite coordinate raises, and its finite segments are compared alone."""
    finite = np.isfinite(a_xyz).all(axis=1) & np.isfinite(b_xyz).all(axis=1)
    if not finite.all():
        with pytest.raises(ParameterError, match="coordinates must be finite"):
            kernels.los_blocked_batch(*_columns(a_xyz, b_xyz), *_geometry_args(sc))
        a_xyz, b_xyz = a_xyz[finite], b_xyz[finite]
    cols = _columns(a_xyz, b_xyz)
    got = kernels.los_blocked_batch(*cols, *_geometry_args(sc))
    with np.errstate(over="ignore"):  # a tiny dz overflows the clip bounds to inf
        want = _oracle_los_blocked_batch(*cols, *_geometry_args(sc))
    assert got.dtype == np.bool_ and got.shape == (len(a_xyz),)
    np.testing.assert_array_equal(got, want)
    return got


_CONCAVE_WORLD = _world(_FOOTPRINTS)
_VERTICES = sorted({(p.x, p.y) for b in _CONCAVE_WORLD.buildings for p in b.footprint})
_EDGES = [(b.footprint[i - 1], b.footprint[i])
          for b in _CONCAVE_WORLD.buildings for i in range(len(b.footprint))]

_on_edge = st.tuples(st.sampled_from(_EDGES), st.sampled_from([0.25, 0.5, 1 / 3])).map(
    lambda e: (e[0][0].x + (e[0][1].x - e[0][0].x) * e[1],
               e[0][0].y + (e[0][1].y - e[0][0].y) * e[1]))
_xy = st.one_of(
    st.tuples(st.floats(-20.0, 100.0), st.floats(-20.0, 100.0)),
    st.tuples(st.integers(-20, 100), st.integers(-20, 100)).map(
        lambda p: (float(p[0]), float(p[1]))),
    st.sampled_from(_VERTICES),
    st.sampled_from(_INTERIOR),
    _on_edge,
    st.sampled_from([(math.nan, 10.0), (10.0, math.nan)]),
)
_z = st.one_of(st.floats(-5.0, 30.0),
               st.sampled_from([-1.0, 0.0, 1.5, 8.0, 12.0, 15.5, 20.0, 25.0, math.nan]))


@st.composite
def _segment(draw):
    ax, ay = draw(_xy)
    az = draw(_z)
    kind = draw(st.sampled_from(["free", "flat", "zero"]))
    if kind == "zero":
        return (ax, ay, az), (ax, ay, az)
    bx, by = draw(_xy)
    return (ax, ay, az), (bx, by, az if kind == "flat" else draw(_z))


@settings(max_examples=300, deadline=None)
@given(st.lists(_segment(), max_size=40))
def test_los_batch_matches_scalar_oracle(segs):
    a = np.array([s[0] for s in segs], np.float64).reshape(-1, 3)
    b = np.array([s[1] for s in segs], np.float64).reshape(-1, 3)
    _assert_matches_oracle(_CONCAVE_WORLD, a, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_xy, _xy), min_size=1, max_size=30))
def test_geometric_predicates_match_scalar_oracle(pairs):
    # validate_scenario calls these predicates on scalars, LOS on arrays
    p = np.array([a for a, _ in pairs])
    q = np.array([b for _, b in pairs])
    for b in _CONCAVE_WORLD.buildings:
        vx = np.array([v.x for v in b.footprint])
        vy = np.array([v.y for v in b.footprint])
        want = [_oracle_point_in_poly(x, y, vx, vy, 0, len(vx)) for x, y in p]
        ux, uy = np.roll(vx, 1), np.roll(vy, 1)
        assert kernels._point_in_poly(p[:, 0], p[:, 1], vx, vy, ux, uy).tolist() == want
        assert bool(kernels._point_in_poly(*p[0].tolist(), vx, vy, ux, uy)) == want[0]
    for c, d in _EDGES:
        want = [_oracle_segments_intersect(a[0], a[1], e[0], e[1], c.x, c.y, d.x, d.y)
                for a, e in zip(p, q)]
        got = kernels.segments_intersect(p[:, 0], p[:, 1], q[:, 0], q[:, 1],
                                         c.x, c.y, d.x, d.y)
        assert got.tolist() == want
        assert bool(kernels.segments_intersect(*map(float, (*p[0], *q[0])),
                                               c.x, c.y, d.x, d.y)) == want[0]


def test_los_batch_oracle_cases_are_reached():
    # the hand-picked cases of the property test block and clear both ways
    a = np.array([[10.0, 10.0, 5.0], [45.0, 20.0, 25.0], [0.0, 0.0, 0.0],
                  [-10.0, 15.0, 8.0], [60.0, 20.0, 1.0], [22.0, 60.0, 5.0]])
    b = np.array([[10.0, 10.0, 5.0], [45.0, 20.0, 21.0], [20.0, 0.0, 0.0],
                  [30.0, 15.0, 8.0], [60.0, 20.0, 1.0], [8.0, 60.0, 5.0]])
    got = _assert_matches_oracle(_CONCAVE_WORLD, a, b)
    # inside; above the roof; along a ground edge; through at flat z; in the
    # L's notch; along the U's open gap (touches the inner edges' endpoints)
    assert got.tolist() == [True, False, True, True, False, True]


def test_los_batch_matches_oracle_on_generated_world():
    sc = generate_grid_scenario(4, 4, 100.0, 2, seed=11)
    rng = np.random.default_rng(12)
    a = np.column_stack([rng.uniform(-50, 350, (2000, 2)), rng.uniform(0, 60, 2000)])
    b = np.column_stack([rng.uniform(-50, 350, (2000, 2)), rng.uniform(0, 3, 2000)])
    got = _assert_matches_oracle(sc, a, b)
    assert 0 < got.sum() < got.size


def _nudged(v, steps):
    """v moved by steps ulps (negative: downwards)."""
    for _ in range(abs(steps)):
        v = np.nextafter(v, math.copysign(math.inf, steps))
    return float(v)


def _boxes(sc):
    """(minx, maxx, miny, maxy, height) of each building of sc."""
    return [(min(p.x for p in b.footprint), max(p.x for p in b.footprint),
             min(p.y for p in b.footprint), max(p.y for p in b.footprint), b.height)
            for b in sc.buildings]


_BOXES = _boxes(_CONCAVE_WORLD)


@st.composite
def _box_point(draw, box):
    """A point on a face, edge or corner of box, or within an ulp of one."""
    minx, maxx, miny, maxy, height = box
    x = draw(st.sampled_from([minx, maxx]) | st.floats(minx, maxx))
    y = draw(st.sampled_from([miny, maxy]) | st.floats(miny, maxy))
    z = draw(st.sampled_from([0.0, height, height / 2]) | st.floats(-5.0, 30.0))
    nudge = st.integers(-1, 1)
    return _nudged(x, draw(nudge)), _nudged(y, draw(nudge)), _nudged(z, draw(nudge))


@st.composite
def _grazing_segment(draw):
    box = draw(st.sampled_from(_BOXES))
    a = draw(_box_point(box))
    kind = draw(st.sampled_from(["box", "other-box", "free", "roof", "vertical", "zero"]))
    if kind == "zero":
        return a, a
    if kind == "vertical":
        return a, (a[0], a[1], draw(_z))
    if kind == "roof":  # flat at exactly roof height, or an ulp off it
        z = _nudged(box[4], draw(st.integers(-1, 1)))
        b = draw(_box_point(box) | _xy.map(lambda p: (*p, 0.0)))
        return (a[0], a[1], z), (b[0], b[1], z)
    if kind == "free":
        bx, by = draw(_xy)
        return a, (bx, by, draw(_z))
    other = box if kind == "box" else draw(st.sampled_from(_BOXES))
    return a, draw(_box_point(other))


@settings(max_examples=300, deadline=None)
@given(st.lists(_grazing_segment(), min_size=1, max_size=30))
def test_los_batch_matches_oracle_on_segments_grazing_the_boxes(segs):
    # the padded slab may only reject: each grazing case blocks as the oracle says
    a = np.array([s[0] for s in segs], np.float64)
    b = np.array([s[1] for s in segs], np.float64)
    _assert_matches_oracle(_CONCAVE_WORLD, a, b)


def _tall_world():
    """A generated world (roofs 6-24 m) with one building raised to 90 m."""
    data = scenario_to_dict(generate_grid_scenario(3, 3, 100.0, 2, seed=5))
    data["buildings"][4]["height_m"] = 90.0
    return scenario_from_dict(data)


_TALL_WORLD = _tall_world()


@st.composite
def _tallest_roof_segment(draw, boxes):
    """A segment whose xy ends lie on, or within an ulp of, a box face, with
    its z placed against the tallest roof."""
    top = max(box[4] for box in boxes)
    ax, ay, az = draw(_box_point(draw(st.sampled_from(boxes))))
    bx, by, bz = draw(_box_point(draw(st.sampled_from(boxes))))
    kind = draw(st.sampled_from(["across", "at-top", "flat-top", "underground",
                                 "non-finite"]))
    near_top = st.integers(-1, 1).map(lambda steps: _nudged(top, steps))
    if kind == "across":  # one end above every roof, one below the tallest
        az = draw(st.floats(top, top + 60.0, exclude_min=True) | st.just(_nudged(top, 1)))
        bz = draw(st.floats(-5.0, top, exclude_max=True) | st.just(_nudged(top, -1))
                  | st.sampled_from([0.0] + [box[4] for box in boxes]))
    elif kind == "at-top":
        az = draw(near_top)
        bz = draw(st.floats(-5.0, top + 60.0) | near_top)
    elif kind == "flat-top":
        az = bz = draw(near_top)
    elif kind == "underground":
        below = st.floats(-50.0, 0.0, exclude_max=True) | st.just(-5e-324)
        az = draw(below)
        bz = draw(below | st.just(az))
    a = [ax, ay, az]
    b = [bx, by, bz]
    if kind == "non-finite":
        draw(st.sampled_from([a, b]))[draw(st.integers(0, 2))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    if draw(st.booleans()):
        a, b = b, a
    return tuple(a), tuple(b)


@pytest.mark.parametrize("world", [_CONCAVE_WORLD, _TALL_WORLD], ids=["concave", "tall"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_los_batch_matches_oracle_across_the_tallest_roof(world, data):
    # the one clip to the tallest roof may only drop what every building drops
    segs = data.draw(st.lists(_tallest_roof_segment(_boxes(world)), min_size=1, max_size=30))
    a = np.array([s[0] for s in segs], np.float64)
    b = np.array([s[1] for s in segs], np.float64)
    _assert_matches_oracle(world, a, b)


@pytest.mark.parametrize("dx,dy", [(-1, 0), (0, -1), (1, 0)], ids=["-x", "-y", "+x"])
def test_los_batch_rejects_infinite_coordinates(dx, dy):
    # a segment at z 1 from infinitely far along (dx, dy) to building 0's
    # centroid, inside its volume: its infinite end would clip to NaN
    # endpoints, which no footprint test blocks
    sc = generate_grid_scenario(3, 3, 100.0, 1, 5)
    c = sc.buildings[0].centroid()

    def segment(d):  # from d meters along (dx, dy) to the centroid
        return (np.array([[c.x + dx * d if dx else c.x, c.y + dy * d if dy else c.y, 1.0]]),
                np.array([[c.x, c.y, 1.0]]))

    with pytest.raises(ParameterError, match="segment coordinates must be finite"):
        los_blocked_many(sc, *segment(math.inf))
    assert los_blocked_many(sc, *segment(1000.0)).tolist() == [True]


def test_los_batch_above_the_tallest_roof_is_clear():
    # no segment reaches the tallest roof (20 m), so none is tested
    a = np.array([[10.0, 10.0, 20.5], [45.0, 20.0, 30.0], [-10.0, 15.0, _nudged(20.0, 1)]])
    b = np.array([[60.0, 5.0, 25.0], [4.0, 60.0, 30.0], [30.0, 15.0, _nudged(20.0, 1)]])
    got = _assert_matches_oracle(_CONCAVE_WORLD, a, b)
    assert got.dtype == np.bool_ and got.shape == (3,) and not got.any()


def test_los_batch_puts_each_result_at_its_segment():
    # segments above every roof, which the first clip drops, between the
    # ones that reach the buildings
    above = ([0.0, 0.0, 21.0], [70.0, 70.0, 22.0])
    segs = [above,
            ([10.0, 10.0, 5.0], [10.0, 10.0, 5.0]),    # inside the 12-m box
            above, above,
            ([60.0, 20.0, 1.0], [60.0, 20.0, 1.0]),    # in the L's notch
            ([35.0, 5.0, 15.0], [75.0, 5.0, 15.0]),    # through the 20-m L, above 8 m and 12 m
            above,
            ([-10.0, 15.0, 8.0], [30.0, 15.0, 8.0])]   # through the 12-m box
    a = np.array([s[0] for s in segs])
    b = np.array([s[1] for s in segs])
    got = _assert_matches_oracle(_CONCAVE_WORLD, a, b)
    assert got.tolist() == [False, True, False, False, False, True, False, True]


def test_los_batch_pads_the_narrowed_box_against_rounding():
    # The even-odd rule rounds the slanted edge's crossing at y = py to
    # 0.09999999999999998, so it counts the point (px, py), an ulp left of
    # the box, as inside. The steep segment leaves that point and reaches
    # x = 0.1 only far above the roof, so only the pad keeps it a candidate.
    sc = _world([([(0.4, 0.3), (1.0, 0.3), (1.0, 1.0), (0.1, 1.0)], 20.0)])
    px, py = 0.09999999999999999, 0.9999999999999999
    a = np.array([[px, py, 5.0]])
    b = np.array([[0.5, py, 3e18]])
    assert _assert_matches_oracle(sc, a, b).tolist() == [True]


def test_narrowed_bounds_keep_the_segments_own_where_nan():
    a = np.array([10.0, 10.0, -math.inf, 10.0, math.nan])
    b = np.array([math.inf, 30.0, 5.0, 30.0, 30.0])
    t0 = np.array([0.0, 0.25, 0.5, 0.0, 0.0])
    t1 = np.array([0.5, 0.5, 1.0, 1.0, 1.0])
    lo, hi = kernels._narrowed_bounds(a, b, b - a, t0, t1, 1.0)
    # inf * 0 and inf - inf give NaN narrowed bounds; a narrowed bound never widens
    assert lo.tolist()[:4] == [10.0, 14.0, -math.inf, 10.0]
    assert hi.tolist()[:4] == [math.inf, 21.0, 5.0, 30.0]
    assert math.isnan(lo[4]) and math.isnan(hi[4])


# (a, b, c, d, intersect?) mixing rows with and without zero turns
_SEGMENT_PAIRS = [
    ((0, 0), (2, 2), (2, 2), (4, 0), True),    # touch at a vertex
    ((0, 0), (4, 0), (2, 0), (6, 0), True),    # collinear overlap
    ((0, 0), (1, 0), (2, 0), (3, 0), False),   # collinear, disjoint
    ((0, 0), (2, 2), (0, 2), (2, 0), True),    # proper crossing
    ((0, 0), (1, 0), (0, 1), (1, 2), False),   # clear miss
]


def test_segments_intersect_matches_oracle_with_and_without_zero_turns():
    for r in range(1, len(_SEGMENT_PAIRS) + 1):
        for rows in itertools.combinations(_SEGMENT_PAIRS, r):
            cols = [np.array([float(row[i // 2][i % 2]) for row in rows]) for i in range(8)]
            want = [_oracle_segments_intersect(*map(float, (*p, *q, *c, *d)))
                    for p, q, c, d, _ in rows]
            assert want == [row[4] for row in rows]
            assert kernels.segments_intersect(*cols).tolist() == want
            assert [bool(kernels.segments_intersect(*map(float, (*p, *q, *c, *d))))
                    for p, q, c, d, _ in rows] == want


def test_los_batch_matches_oracle_on_planned_hops(monkeypatch):
    # the segments run_cam_traffic tests: drone, truck and base-station hops
    sc = generate_grid_scenario(5, 5, 100.0, 2, seed=4)
    dset = generate_delivery_sets(sc, 1, 8, 3, seed=9)[0]
    fleet = FleetConfig(drone_count=3)
    plan = plan_hybrid(sc, dset, fleet, True)
    trace = simulate(sc, plan, fleet)
    hops = []

    def record(scenario, a_xyz, b_xyz):
        hops.append((a_xyz, b_xyz))
        return los_blocked_many(scenario, a_xyz, b_xyz)

    monkeypatch.setattr(netmodel, "los_blocked_many", record)
    for mac in netmodel.default_models():
        netmodel.run_cam_traffic(trace, sc, mac, seed=2)
    a = np.concatenate([h[0] for h in hops])
    b = np.concatenate([h[1] for h in hops])
    step = max(1, len(a) // 1500)  # keeps the scalar oracle to about a second
    got = _assert_matches_oracle(sc, a[::step], b[::step])
    assert 0 < got.sum() < got.size


def test_los_batch_empty_segment_array():
    empty = np.empty((0, 3))
    got = _assert_matches_oracle(_CONCAVE_WORLD, empty, empty)
    assert got.shape == (0,)
    assert los_blocked_many(_CONCAVE_WORLD, empty, empty).shape == (0,)


def test_los_batch_without_buildings():
    sc = generate_grid_scenario(3, 3, 100.0, 0, seed=1)
    rng = np.random.default_rng(13)
    a = rng.uniform(-10, 210, (50, 3))
    b = rng.uniform(-10, 210, (50, 3))
    got = _assert_matches_oracle(sc, a, b)
    assert not got.any()
    assert not los_blocked_many(sc, a, b).any()


_grid_coord = st.sampled_from([float(v) for v in range(-4, 5)] + [math.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(_grid_coord, _grid_coord), min_size=3, max_size=7),
                max_size=5),
       st.tuples(_grid_coord, _grid_coord))
def test_footprint_checks_match_scalar_oracle(polygons, depot):
    # small integer polygons: many touching, collinear and self-crossing ones
    buildings = [Building(k, [Point(x, y) for x, y in poly], 1.0, Point(0.0, 0.0))
                 for k, poly in enumerate(polygons)]
    simple, holds = _footprint_checks(buildings, Point(*depot))
    for k, b in enumerate(buildings):
        vx = np.array([p.x for p in b.footprint])
        vy = np.array([p.y for p in b.footprint])
        assert simple[k] == _oracle_polygon_is_simple(b.footprint)
        assert holds[k] == _oracle_point_in_poly(depot[0], depot[1], vx, vy, 0, len(vx))
