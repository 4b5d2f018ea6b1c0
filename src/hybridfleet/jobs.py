"""Delivery request generation and spatial-distribution checks."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fields, kernels
from .errors import ParameterError, ParseError
from .rng import generator
from .scenario import Point, Scenario


class Category(str, Enum):
    MEDICAL = "medical"
    STANDARD = "standard"


@dataclass(frozen=True)
class DeliveryJob:
    id: int
    building_id: int
    target: Point          # the building's access point
    category: Category


@dataclass
class DeliverySet:
    id: int
    jobs: list[DeliveryJob]

    def medical(self) -> list[DeliveryJob]:
        return [j for j in self.jobs if j.category == Category.MEDICAL]

    def standard(self) -> list[DeliveryJob]:
        return [j for j in self.jobs if j.category == Category.STANDARD]


# planning a set with 5 drones takes 0.25 s at 160 jobs, 11 s at 640 and 42 s at this
# bound on a 2-core x86 machine, 25 times the largest shipped workload's sets (40 jobs)
MAX_JOBS_PER_SET = 1_000
# generating a job takes 3-26 us and 125-160 B on the same machine: seconds and about
# 16 MB at this bound, 133 times the default sweep's 750 jobs
MAX_JOBS = 100_000


def check_set_sizes(n_sets: int, per_set: int, medical_per_set: int) -> None:
    """Raise ParameterError unless n_sets sets of per_set jobs, medical_per_set of
    them medical, are within check_job_counts' bounds."""
    if n_sets < 0:
        raise ParameterError(f"n_sets must be >= 0, got {n_sets}")
    if per_set < 1:
        raise ParameterError(f"per_set must be >= 1, got {per_set}")
    if not 0 <= medical_per_set <= per_set:
        raise ParameterError(f"medical_per_set must be >= 0 and <= per_set {per_set}, "
                             f"got {medical_per_set}")
    check_job_counts(per_set, n_sets * per_set)


def check_job_counts(largest: int, total: int) -> None:
    """Raise ParameterError when a set holds more than MAX_JOBS_PER_SET jobs
    (largest is the largest set's count) or the sets more than MAX_JOBS (total)."""
    if largest > MAX_JOBS_PER_SET:
        raise ParameterError(f"a set of {largest} jobs exceeds the bound of "
                             f"{MAX_JOBS_PER_SET} jobs per set")
    if total > MAX_JOBS:
        raise ParameterError(f"{total} jobs in all exceed the bound of {MAX_JOBS} jobs")


def check_buildings(n_buildings: int) -> None:
    """Raise ParameterError unless there is a building to deliver to."""
    if n_buildings < 1:
        raise ParameterError(f"jobs need at least one building to deliver to, got {n_buildings}")


def generate_delivery_sets(scenario: Scenario, n_sets: int, per_set: int,
                           medical_per_set: int, seed: int) -> list[DeliverySet]:
    """Sample delivery sets over the scenario's buildings.

    Buildings are drawn uniformly without replacement within a set (falling
    back to replacement when there are fewer buildings than jobs). Exactly
    medical_per_set jobs per set are marked medical, chosen uniformly. Each
    set uses the substream (seed, set index).
    """
    check_set_sizes(n_sets, per_set, medical_per_set)
    check_buildings(len(scenario.buildings))
    by_id = {b.id: b for b in scenario.buildings}
    ids = sorted(by_id)
    sets = []
    for s in range(n_sets):
        rng = generator(seed, s)
        replace = per_set > len(ids)
        chosen = rng.choice(len(ids), size=per_set, replace=replace)
        medical_slots = set(rng.choice(per_set, size=medical_per_set, replace=False).tolist())
        jobs = []
        for k, bix in enumerate(chosen.tolist()):
            b = by_id[ids[bix]]
            cat = Category.MEDICAL if k in medical_slots else Category.STANDARD
            jobs.append(DeliveryJob(k, b.id, b.access_point, cat))
        sets.append(DeliverySet(s, jobs))
    return sets


def ipd_distribution(points: list[Point]) -> np.ndarray:
    """All n(n-1)/2 pairwise xy distances, ascending (meters)."""
    if len(points) < 2:
        raise ParameterError("need at least 2 points for an IPD distribution")
    x = np.array([p.x for p in points], np.float64)
    y = np.array([p.y for p in points], np.float64)
    d = kernels.pairwise_distances(x, y)
    d.sort()
    return d


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.size == 0 or b.size == 0:
        raise ParameterError("ks_statistic needs non-empty samples")
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


# --- file format: JSON list of sets -----------------------------------------


def sets_to_dict(sets: list[DeliverySet]) -> list[dict]:
    return [{"id": s.id,
             "jobs": [{"id": j.id, "building": j.building_id,
                       "category": j.category.value} for j in s.jobs]}
            for s in sets]


def sets_from_dict(data, scenario: Scenario) -> list[DeliverySet]:
    by_id = {b.id: b for b in scenario.buildings}
    categories = {c.value: c for c in Category}
    out = []
    total = 0
    for i, sd in enumerate(fields.array(data, "sets")):
        where = f"sets[{i}]"
        sd = fields.obj(sd, where)
        job_list = fields.get(sd, "jobs", where, fields.array, [])
        total += len(job_list)
        try:  # a file's sets may differ in size, and be empty
            check_job_counts(len(job_list), total)
        except ParameterError as exc:
            raise ParseError(f"{where}.jobs: {exc}") from None
        jobs = []
        ids = set()
        for k, jd in enumerate(job_list):
            jw = f"{where}.jobs[{k}]"
            jd = fields.obj(jd, jw)
            bid = fields.get(jd, "building", jw, fields.integer)
            if bid not in by_id:
                raise ParseError(f"{jw}: unknown building {bid}")
            cat = fields.get(jd, "category", jw, fields.string, "standard")
            if cat not in categories:
                raise ParseError(f"{jw}.category: must be one of {sorted(categories)}, "
                                 f"got {cat!r}")
            jid = fields.get(jd, "id", jw, fields.integer, k)
            if jid in ids:
                raise ParseError(f"{jw}: repeated job id {jid}")
            ids.add(jid)
            jobs.append(DeliveryJob(jid, bid, by_id[bid].access_point, categories[cat]))
        out.append(DeliverySet(fields.get(sd, "id", where, fields.integer, i), jobs))
    return out


def save_sets(sets: list[DeliverySet], path) -> None:
    fields.write_json(sets_to_dict(sets), path, indent=1)


def load_sets(path, scenario: Scenario) -> list[DeliverySet]:
    return sets_from_dict(fields.read_json(path), scenario)
