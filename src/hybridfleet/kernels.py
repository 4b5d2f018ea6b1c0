"""Hot numerical kernels.

The LOS test (``los_blocked_batch``) and the geometric predicates under it
are numpy-vectorized over segments and, by broadcasting, over a footprint's
edges; the pairwise distances over point pairs. The truck timetable, the
sortie and the TSP kernels are scalar loops over Python lists (a cost
matrix is a list of rows), because CPython indexes a list several times
faster than it reads a numpy scalar; the timetable is a left fold that
returns lists, and the sortie kernels return the same bits on numpy arrays.

Kernels take primitive lists and arrays only; the domain modules own all
object <-> array conversion.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

# Always False: the kernels run as plain Python. perfbench's machine stamp reads it.
JIT_ENABLED = False


# ---------------------------------------------------------------------------
# geometry


def pairwise_distances(x, y):
    """Condensed upper-triangle Euclidean distances of a 2D point set.

    Pairs come in row-major i < j order. IEEE sqrt is correctly rounded, so
    each distance has the bits ``math.sqrt(dx * dx + dy * dy)`` gives.
    """
    i, j = np.triu_indices(x.shape[0], 1)
    dx = x[i] - x[j]
    dy = y[i] - y[j]
    return np.sqrt(dx * dx + dy * dy)


def _min(a, b):
    """Elementwise min(a, b) as Python computes it: a unless b < a (NaN too)."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Elementwise max(a, b) as Python computes it: a unless b > a (NaN too)."""
    return np.where(b > a, b, a)


def ray_crossings(px, py, x1, y1, x2, y2):
    """Edge (x1, y1)-(x2, y2) crosses the ray from p towards +x (even-odd rule)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # the crossing is used only where the edge straddles py, so y2 != y1
        xcross = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
    return ((y1 > py) != (y2 > py)) & (px < xcross)


def _point_in_poly(px, py, vx, vy, ux, uy):
    """Even-odd rule: True where point (px, py) lies inside polygon (vx, vy).

    The points broadcast against a last axis of the polygon's edges, edge i
    running from vertex i to vertex i-1, and the crossings reduce by parity
    over that axis, so a point's result is its own whatever the others.
    (ux, uy) are each vertex's predecessor, ``np.roll(v, 1)``.
    """
    crossings = ray_crossings(np.asarray(px)[..., None], np.asarray(py)[..., None],
                              vx, vy, ux, uy)
    return np.logical_xor.reduce(crossings, axis=-1)


def _orient(ax, ay, bx, by, cx, cy):
    """Sign (+1, -1, 0) of the turn a->b->c; NaN counts as collinear."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0.0) * 1 - (v < 0.0) * 1


def _on_segment(ax, ay, bx, by, px, py):
    """p lies in the bounding box of segment a-b."""
    return ((_min(ax, bx) <= px) & (px <= _max(ax, bx))
            & (_min(ay, by) <= py) & (py <= _max(ay, by)))


def segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
    """Closed segments a-b and c-d share a point (touching counts)."""
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    hit = (o1 != o2) & (o3 != o4)
    if np.all(o1 * o2 * o3 * o4):  # no turn is zero, so no collinear case
        return hit
    return (hit
            | ((o1 == 0) & _on_segment(ax, ay, bx, by, cx, cy))
            | ((o2 == 0) & _on_segment(ax, ay, bx, by, dx, dy))
            | ((o3 == 0) & _on_segment(cx, cy, dx, dy, ax, ay))
            | ((o4 == 0) & _on_segment(cx, cy, dx, dy, bx, by)))


def _altitude_clip(az, dz, height):
    """Parameter range [t0, t1] of each segment a + (b - a) t at altitudes
    [0, height], with dz = bz - az, and where that range is empty.

    A flat segment keeps [0, 1] and spans those altitudes only if its z does.
    """
    flat = dz == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (0.0 - az) / dz
        tb = (height - az) / dz
    swap = ta > tb
    lo_t = np.where(swap, tb, ta)
    hi_t = np.where(swap, ta, tb)
    t0 = np.where(flat, 0.0, np.where(lo_t > 0.0, lo_t, 0.0))
    t1 = np.where(flat, 1.0, np.where(hi_t < 1.0, hi_t, 1.0))
    return t0, t1, (t0 > t1) | (flat & ((az < 0.0) | (az > height)))


def _narrowed_bounds(a, b, e, t0, t1, pad):
    """Bounds of each segment a-b on one axis (e = b - a), narrowed to the
    points at parameters t0 to t1 widened by pad.

    _max and _min keep the segment's own bound where a narrowed one is NaN.
    """
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
        p0 = a + e * t0
        p1 = a + e * t1
        return _max(_min(a, b), _min(p0, p1) - pad), _min(_max(a, b), _max(p0, p1) + pad)


def los_blocked_batch(ax, ay, az, bx, by, bz,
                      vert_x, vert_y, offsets, heights,
                      bb_minx, bb_maxx, bb_miny, bb_maxy):
    """True per segment iff it pierces any extruded building footprint.

    The coordinates must be finite, or it raises ParameterError. First clips
    every segment's parameter range once to altitudes [0, top], top the
    tallest roof; a segment whose range comes out empty is blocked by no
    building, and the rest (the live segments) go on. Then loops over
    buildings and tests the live segments at once. Against building b, only
    candidates are tested: live segments that are not yet blocked, whose
    bounding box overlaps b's and does not pass wholly above b's roof. A
    live segment's box is narrowed to the box of its range clipped to the
    tallest roof, padded as the slab below is. A candidate's parameter range
    is clipped to altitudes [0, height]; it is blocked if either clipped
    endpoint lies inside the footprint or the clipped 2D projection crosses
    a footprint edge. Before those footprint tests, a candidate is dropped
    when its clipped range misses the x or y slab of the building's padded
    bounding box; the footprint tests then run on the range the altitude
    clip gave, so the slab only saves work. They test the survivors as a
    column against the footprint's edges as a row, with the operands a loop
    over the edges would use.

    Every building's range lies inside the tallest roof's, because float
    subtraction and division are monotone, and a + e t is monotone in t, so
    the first clip and the narrowed box drop only segments that the altitude
    clip or the slab would drop at every building.
    """
    if not all(np.isfinite(c).all() for c in (ax, ay, az, bx, by, bz)):
        raise ParameterError("segment coordinates must be finite")
    out = np.zeros(ax.shape[0], np.bool_)
    if offsets.shape[0] < 2:
        return out
    # Rounding in the slab clip and in the footprint tests moves a point by a
    # few ulps of the largest coordinate M in play (about 1e-15 * M), and
    # underflow by less than 1e-300. The pad 1e-6 * (1 + M) exceeds both by
    # orders of magnitude, so the slab cannot reject a segment the footprint
    # tests would block; on a 1-km world it is 1 mm.
    pad = 1e-6 * (1.0 + max(np.max(np.abs(c), initial=0.0)
                            for c in (ax, bx, ay, by, bb_minx, bb_maxx, bb_miny, bb_maxy)))
    # the slab divides by e == 0, and clip bounds that overflow give inf - inf and inf * 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t0, t1, empty = _altitude_clip(az, bz - az, np.fmax.reduce(heights))
        live = np.flatnonzero(~empty)
        del empty  # the loop keeps only live-length arrays
        if live.size == 0:
            return out
        ax, ay, az, bx, by, bz, t0, t1 = (c[live] for c in (ax, ay, az, bx, by, bz, t0, t1))
        ex = bx - ax
        ey = by - ay
        dz = bz - az
        sminx, smaxx = _narrowed_bounds(ax, bx, ex, t0, t1, pad)
        sminy, smaxy = _narrowed_bounds(ay, by, ey, t0, t1, pad)
        szmin = _min(az, bz)
        # each footprint vertex's predecessor, np.roll(v, 1) within its footprint
        # (a scenario's footprints have at least 3 vertices)
        prev = np.arange(-1, vert_x.shape[0] - 1)
        prev[offsets[:-1]] = offsets[1:] - 1
        prev_x = vert_x[prev]
        prev_y = vert_y[prev]
        hit = np.zeros(live.size, np.bool_)
        for b in range(offsets.shape[0] - 1):
            height = heights[b]
            k = np.flatnonzero(~(hit | (smaxx < bb_minx[b]) | (sminx > bb_maxx[b])
                                 | (smaxy < bb_miny[b]) | (sminy > bb_maxy[b])
                                 | (szmin > height)))
            if k.size == 0:
                continue
            t0, t1, empty = _altitude_clip(az[k], dz[k], height)
            kax = ax[k]
            kay = ay[k]
            kex = ex[k]
            key = ey[k]
            # Slab bounds. The prefilter put a segment with e == 0 on an axis
            # inside the box on that axis, so the padded bounds divide to -inf
            # and +inf there and that axis does not clip.
            xa = (bb_minx[b] - pad - kax) / kex
            xb = (bb_maxx[b] + pad - kax) / kex
            ya = (bb_miny[b] - pad - kay) / key
            yb = (bb_maxy[b] + pad - kay) / key
            # np.maximum and np.minimum propagate NaN, and ~(NaN > x) keeps
            s0 = np.maximum(np.maximum(t0, np.minimum(xa, xb)), np.minimum(ya, yb))
            s1 = np.minimum(np.minimum(t1, np.maximum(xa, xb)), np.maximum(ya, yb))
            keep = ~(empty | (s0 > s1))
            k = k[keep]
            if k.size == 0:
                continue
            t0 = t0[keep]
            t1 = t1[keep]
            kax = kax[keep]
            kay = kay[keep]
            kex = kex[keep]
            key = key[keep]
            p0x = kax + kex * t0
            p0y = kay + key * t0
            p1x = kax + kex * t1
            p1y = kay + key * t1
            lo, hi = offsets[b], offsets[b + 1]
            vx = vert_x[lo:hi]
            vy = vert_y[lo:hi]
            ux = prev_x[lo:hi]
            uy = prev_y[lo:hi]
            # both clipped endpoints in one even-odd test, then one broadcast
            # over the footprint's edges, edge i from vertex i-1 to i
            inside = _point_in_poly(np.concatenate((p0x, p1x)), np.concatenate((p0y, p1y)),
                                    vx, vy, ux, uy)
            crosses = segments_intersect(p0x[:, None], p0y[:, None], p1x[:, None],
                                         p1y[:, None], ux, uy, vx, vy).any(axis=1)
            hit[k] = inside[:k.size] | inside[k.size:] | crosses
        out[live] = hit
        return out


# ---------------------------------------------------------------------------
# TSP


def tour_cost(matrix, order, closed):
    c = 0.0
    for i in range(len(order) - 1):
        c += matrix[order[i]][order[i + 1]]
    if closed and len(order) > 1:
        c += matrix[order[-1]][order[0]]
    return c


def nearest_neighbor_order(matrix):
    """Greedy tour from city 0: each step goes to the nearest unvisited city."""
    n = len(matrix)
    order = [0]
    used = [False] * n
    used[0] = True
    cur = 0
    for _ in range(1, n):
        row = matrix[cur]
        best = -1
        best_d = math.inf
        for j in range(n):
            if not used[j] and row[j] < best_d:
                best_d = row[j]
                best = j
        order.append(best)
        used[best] = True
        cur = best
    return order


def two_opt(matrix, order, closed):
    """First-improvement 2-opt sweeps until no move improves, or until a
    sweep's moves leave the tour's cost no lower.

    order[0] stays fixed; order is reversed in place. Works on both open
    paths and closed tours; requires a symmetric cost matrix. The second
    stop rule ends the loop on large costs, where a move's delta carries
    more rounding than eps and tied moves would otherwise repeat forever:
    every further sweep strictly lowers the cost, so no order comes twice.
    """
    n = len(order)
    cost = tour_cost(matrix, order, closed)
    eps = 1e-9
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            a = order[i]
            row_a = matrix[a]
            for j in range(i + 1, n):
                b = order[i + 1]
                c = order[j]
                if j < n - 1:
                    d = order[j + 1]
                    delta = row_a[c] + matrix[b][d] - row_a[b] - matrix[c][d]
                elif closed:
                    d = order[0]
                    delta = row_a[c] + matrix[b][d] - row_a[b] - matrix[c][d]
                else:
                    delta = row_a[c] - row_a[b]
                if delta < -eps:
                    order[i + 1:j + 1] = order[j:i:-1]
                    improved = True
        if improved:
            last, cost = cost, tour_cost(matrix, order, closed)
            improved = cost < last
    return cost


def held_karp(matrix, closed):
    """Exact TSP from city 0 by subset DP; lexicographically smallest optimum.

    g[S][j] = cheapest way to leave city j+1, visit exactly the cities in
    bitmask S (over cities 1..n-1), then close to city 0 if requested. The
    forward walk re-evaluates the same float expressions the DP minimized,
    so optimal-tie detection is exact and the smallest next city wins.
    """
    n = len(matrix)
    order = [0]
    m = n - 1
    size = 1 << m
    g = [[matrix[j + 1][0] if closed else 0.0 for j in range(m)]]
    for s in range(1, size):
        row = [math.inf] * m  # entries for j in s are never read
        for j in range(m):
            if s & (1 << j):
                continue
            cost_j = matrix[j + 1]
            best = math.inf
            for c in range(m):
                if s & (1 << c):
                    v = cost_j[c + 1] + g[s & ~(1 << c)][c]
                    if v < best:
                        best = v
            row[j] = best
        g.append(row)
    s = size - 1
    last = -1
    for pos in range(1, n):
        best = math.inf
        pick = -1
        for c in range(m):
            if s & (1 << c):
                if last < 0:
                    v = matrix[0][c + 1] + g[s & ~(1 << c)][c]
                else:
                    v = matrix[last + 1][c + 1] + g[s & ~(1 << c)][c]
                if v < best:
                    best = v
                    pick = c
        order.append(pick + 1)
        s &= ~(1 << pick)
        last = pick
    return order, tour_cost(matrix, order, closed)


# ---------------------------------------------------------------------------
# drone sorties against a truck timetable
#
# The truck path is given as parallel lists: node ids, xy coordinates, and
# arrive/depart times per path position. A drone launches when the truck
# departs a path position and must be picked up at a strictly later position.

SORTIE_OK = 0
SORTIE_NO_NODE = 1
SORTIE_ENDURANCE = 2


def sortie_from_launch(path_x, path_y, arrive, depart, launch_idx,
                       tx, ty, speed, service, endurance):
    """Earliest feasible rendezvous for a launch at path position launch_idx.

    Returns (status, rdv_idx, deliver_time, rdv_arrival, rdv_time). The drone
    may land any time up to the truck's departure from a node; rendezvous time
    is the later of drone arrival and truck arrival. Rendezvous times are
    non-decreasing along the path, so the first feasible node minimizes
    airborne time and a single endurance check there suffices.
    """
    t0 = depart[launch_idx]
    dx = path_x[launch_idx] - tx
    dy = path_y[launch_idx] - ty
    t_deliver = t0 + math.sqrt(dx * dx + dy * dy) / speed
    t_leave = t_deliver + service
    for r in range(launch_idx + 1, len(path_x)):
        bx = path_x[r] - tx
        by = path_y[r] - ty
        t_arr = t_leave + math.sqrt(bx * bx + by * by) / speed
        if t_arr <= depart[r]:
            t_rdv = arrive[r] if arrive[r] > t_arr else t_arr
            if t_rdv - t0 <= endurance:
                return SORTIE_OK, r, t_deliver, t_arr, t_rdv
            return SORTIE_ENDURANCE, r, t_deliver, t_arr, t_rdv
    return SORTIE_NO_NODE, -1, t_deliver, 0.0, 0.0


def best_sortie(path_x, path_y, path, arrive, depart,
                free_time, tx, ty, speed, service, endurance):
    """Completion-minimizing sortie over all candidate launch nodes.

    A candidate launch node (an id in ``path``) is represented by its first
    path occurrence whose departure is at or after free_time (the same rule
    the plan builder uses to re-anchor committed sorties). Returns
    (launch_idx, completion) with launch_idx = -1 and completion = inf when
    no feasible sortie exists; of equal completions the earliest launch wins.

    A launch's completion does not depend on its rendezvous, so it is
    computed first, with the same float operations as
    ``sortie_from_launch``; a launch that cannot beat the best so far is
    skipped without scanning for its rendezvous.
    """
    seen = set()
    best_completion = math.inf
    b_li = -1
    for li in range(len(path_x) - 1):
        t0 = depart[li]
        if t0 < free_time:
            continue
        if t0 + service >= best_completion:
            break  # departures are non-decreasing; no later launch can win
        nid = path[li]
        if nid in seen:
            continue
        seen.add(nid)
        dx = path_x[li] - tx
        dy = path_y[li] - ty
        if (t0 + math.sqrt(dx * dx + dy * dy) / speed) + service >= best_completion:
            continue
        status, _, t_deliver, _, _ = sortie_from_launch(
            path_x, path_y, arrive, depart, li, tx, ty, speed, service, endurance)
        if status == SORTIE_OK:
            completion = t_deliver + service
            if completion < best_completion:
                best_completion = completion
                b_li = li
    return b_li, best_completion


def build_timetable(step_times, services, start=0.0):
    """Arrive/depart times along a path from per-step travel and service times.

    step_times[i] is the travel time from position i to i+1; services[i] is
    the stop time spent at position i, so there is one more service than
    steps; the truck arrives at position 0 at ``start``. The times are one
    left fold over [start, services[0], step_times[0], services[1], ...],
    adding strictly in sequence as ``np.add.accumulate`` would, so every time
    matches the simulator's event arithmetic exactly, and a fold resumed from
    arrive[p] of an earlier timetable continues it bit for bit. Returns the
    arrive and depart lists.
    """
    t = start
    arrive = [t]
    depart = []
    for step, service in zip(step_times, services):
        t += service
        depart.append(t)
        t += step
        arrive.append(t)
    depart.append(t + services[-1])
    return arrive, depart
