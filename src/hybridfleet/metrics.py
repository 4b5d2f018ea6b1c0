"""Waiting-time statistics, capacity curves, and sweep summaries.

Waiting time is measured from tour start (t = 0) to handover completion,
service time included.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PlanConsistencyError
from .jobs import Category, DeliverySet

ALL = "all"
# the capacity curve has one point per minute up to the slowest delivery, so
# a sweep whose slowest delivery is later than this is rejected before it
CURVE_HORIZON_S = 7 * 24 * 3600.0   # one week


@dataclass
class CategoryStats:
    samples: list[float]     # sorted, seconds

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def median(self) -> float:
        return float(np.median(self.samples))


@dataclass
class WaitingStats:
    categories: dict[str, CategoryStats]   # keys: medical/standard/all, absent if empty

    def get(self, key: str) -> CategoryStats | None:
        return self.categories.get(key)


def waiting_stats(completion: dict[int, float], dset: DeliverySet) -> WaitingStats:
    """Per-category waiting times of a delivery set from its jobs' completion
    times (``simcore.completion_times``, or a trace's ``completion``)."""
    buckets: dict[str, list[float]] = {Category.MEDICAL.value: [],
                                       Category.STANDARD.value: [], ALL: []}
    for job in dset.jobs:
        if job.id not in completion:
            raise PlanConsistencyError(f"job {job.id} has no completion time")
        t = completion[job.id]
        if t < 0:
            raise PlanConsistencyError(f"job {job.id} completed at negative time")
        buckets[job.category.value].append(t)
        buckets[ALL].append(t)
    return WaitingStats({k: CategoryStats(sorted(v)) for k, v in buckets.items() if v})


def capacity_at(stats: WaitingStats, threshold: float) -> float:
    """Fraction of all deliveries completed within threshold seconds."""
    cat = stats.get(ALL)
    if cat is None or cat.n == 0:
        raise ParameterError("no samples")
    return bisect_right(cat.samples, threshold) / cat.n


def prioritization_effect(base: WaitingStats, prio: WaitingStats
                          ) -> tuple[float, float]:
    """Relative change of category mean waiting times, (prio - base) / base.

    Negative values are improvements. Returns (medical_change,
    standard_change).
    """
    def change(key: str) -> float:
        b = base.get(key)
        p = prio.get(key)
        if b is None or p is None:
            raise ParameterError(f"category {key} missing from one side")
        if b.mean == 0:
            raise ParameterError(f"category {key} has zero baseline mean")
        return (p.mean - b.mean) / b.mean

    return change(Category.MEDICAL.value), change(Category.STANDARD.value)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    drone_count: int
    prioritized: bool
    set_id: int
    stats: WaitingStats


@dataclass
class SweepResult:
    rows: dict[tuple[int, bool, int], SweepRow]

    def add(self, row: SweepRow) -> None:
        key = (row.drone_count, row.prioritized, row.set_id)
        if key in self.rows:
            raise ParameterError(f"duplicate sweep row {key}")
        self.rows[key] = row


@dataclass
class SweepSummary:
    # one row per (drones, prioritized, category)
    rows: list[dict]
    # (drones, prioritized) -> capacity fraction per whole minute of threshold
    capacity_curves: dict[tuple[int, bool], list[float]]


def summarize_sweep(result: SweepResult) -> SweepSummary:
    """Aggregate sweep rows per configuration.

    Means/medians pool the per-set samples; the capacity curve samples
    capacity_at on the pooled samples at one-minute steps up to the slowest
    delivery, which must be within CURVE_HORIZON_S. capacity_20min repeats
    the configuration's pooled 20-minute capacity on each of its category
    rows.
    """
    if not result.rows:
        raise ParameterError("empty sweep result")
    configs: dict[tuple[int, bool], list[SweepRow]] = {}
    for row in result.rows.values():
        configs.setdefault((row.drone_count, row.prioritized), []).append(row)

    out_rows = []
    curves = {}
    for (drones, prio) in sorted(configs):
        rows = configs[(drones, prio)]
        pooled: dict[str, list[float]] = {}
        for r in rows:
            for key, cat in r.stats.categories.items():
                pooled.setdefault(key, []).extend(cat.samples)
        pooled_stats = WaitingStats({k: CategoryStats(sorted(v)) for k, v in pooled.items() if v})
        cap20 = capacity_at(pooled_stats, 20 * 60.0)
        slowest = pooled_stats.get(ALL).samples[-1]
        if not slowest <= CURVE_HORIZON_S:
            raise ParameterError(
                f"slowest delivery of {drones} drones, prioritized {prio}, completes at "
                f"{slowest} s, past the capacity curve's horizon of {CURVE_HORIZON_S} s")
        max_minute = math.ceil(slowest / 60.0)
        curves[(drones, prio)] = [capacity_at(pooled_stats, 60.0 * m)
                                  for m in range(max_minute + 1)]
        for key in (Category.MEDICAL.value, Category.STANDARD.value, ALL):
            cat = pooled_stats.get(key)
            if cat is None:
                continue
            out_rows.append({
                "drones": drones,
                "prioritized": prio,
                "category": key,
                "mean_s": cat.mean,
                "median_s": cat.median,
                "capacity_20min": cap20,
            })
    return SweepSummary(out_rows, curves)


def write_summary_csv(summary: SweepSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["drones", "prioritized", "category", "mean_s", "median_s",
                    "capacity_20min"])
        for row in summary.rows:
            w.writerow([row["drones"], int(row["prioritized"]), row["category"],
                        repr(row["mean_s"]), repr(row["median_s"]),
                        repr(row["capacity_20min"])])


def write_capacity_curves_csv(summary: SweepSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["drones", "prioritized", "minute", "fraction"])
        for (drones, prio) in sorted(summary.capacity_curves):
            for minute, frac in enumerate(summary.capacity_curves[(drones, prio)]):
                w.writerow([drones, int(prio), minute, repr(frac)])
