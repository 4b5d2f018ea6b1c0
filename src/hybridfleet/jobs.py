"""Delivery request generation and spatial-distribution checks."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernels
from .errors import ParameterError, ParseError
from .rng import generator
from .scenario import Point, Scenario

DEFAULT_SETS = 50
DEFAULT_PER_SET = 15
DEFAULT_MEDICAL_PER_SET = 5


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
    sampled_with_replacement: bool = field(default=False)

    def medical(self) -> list[DeliveryJob]:
        return [j for j in self.jobs if j.category == Category.MEDICAL]

    def standard(self) -> list[DeliveryJob]:
        return [j for j in self.jobs if j.category == Category.STANDARD]


def generate_delivery_sets(scenario: Scenario, n_sets: int, per_set: int,
                           medical_per_set: int, seed: int) -> list[DeliverySet]:
    """Sample delivery sets over the scenario's buildings.

    Buildings are drawn uniformly without replacement within a set (falling
    back to replacement when there are fewer buildings than jobs, flagged on
    the set). Exactly medical_per_set jobs per set are marked medical, chosen
    uniformly. Each set uses the substream (seed, set index).
    """
    if not scenario.buildings:
        raise ParameterError("scenario has no buildings to deliver to")
    if medical_per_set > per_set:
        raise ParameterError("medical_per_set cannot exceed per_set")
    if n_sets < 0 or per_set < 1:
        raise ParameterError("need n_sets >= 0 and per_set >= 1")
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
        sets.append(DeliverySet(s, jobs, sampled_with_replacement=replace))
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
    if not isinstance(data, list):
        raise ParseError("delivery-set file: top level must be a list")
    by_id = {b.id: b for b in scenario.buildings}
    out = []
    for i, sd in enumerate(data):
        if not isinstance(sd, dict) or not isinstance(sd.get("jobs", []), list):
            raise ParseError(f"sets[{i}]: must be an object with a list of jobs")
        jobs = []
        ids = set()
        for k, jd in enumerate(sd.get("jobs", [])):
            where = f"sets[{i}].jobs[{k}]"
            if not isinstance(jd, dict):
                raise ParseError(f"{where}: must be an object")
            if "building" not in jd:
                raise ParseError(f"{where}: missing field 'building'")
            bid = _int_field(jd["building"], f"{where}.building")
            if bid not in by_id:
                raise ParseError(f"{where}: unknown building {bid}")
            try:
                cat = Category(jd.get("category", "standard"))
            except ValueError:
                raise ParseError(f"{where}: bad category {jd.get('category')!r}") from None
            jid = _int_field(jd.get("id", k), f"{where}.id")
            if jid in ids:
                raise ParseError(f"{where}: repeated job id {jid}")
            ids.add(jid)
            jobs.append(DeliveryJob(jid, bid, by_id[bid].access_point, cat))
        out.append(DeliverySet(_int_field(sd.get("id", i), f"sets[{i}].id"), jobs))
    return out


def _int_field(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: not an integer: {value!r}") from None


def save_sets(sets: list[DeliverySet], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sets_to_dict(sets), f, indent=1)
        f.write("\n")


def load_sets(path, scenario: Scenario) -> list[DeliverySet]:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    return sets_from_dict(data, scenario)
