"""Waiting-time statistics, capacity curves, and sweep summaries.

Waiting time is measured from tour start (t = 0) to handover completion,
service time included.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import ParameterError, PlanConsistencyError
from .jobs import Category, DeliverySet

ALL = "all"
# the capacity curve has one point per minute up to the slowest delivery, so
# a sweep whose slowest delivery is later than this is rejected before it
CURVE_HORIZON_S = 7 * 24 * 3600.0   # one week


def waiting_stats(completion: dict[int, float], dset: DeliverySet) -> dict[str, list[float]]:
    """Per-category waiting times of a delivery set from its jobs' completion
    times (``simcore.completion_times``, or a trace's ``completion``):
    medical, standard and ALL, each mapped to its sorted waits in seconds; an
    empty category is left out."""
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
    return {k: sorted(v) for k, v in buckets.items() if v}


def capacity_at(waits: dict[str, list[float]], threshold: float) -> float:
    """Fraction of all deliveries completed within threshold seconds."""
    samples = waits.get(ALL)
    if not samples:
        raise ParameterError("no samples")
    return bisect_right(samples, threshold) / len(samples)


def prioritization_effect(base: dict[str, list[float]], prio: dict[str, list[float]]
                          ) -> tuple[float, float]:
    """Relative change of category mean waiting times, (prio - base) / base.

    Negative values are improvements. Returns (medical_change,
    standard_change).
    """
    def change(key: str) -> float:
        if key not in base or key not in prio:
            raise ParameterError(f"category {key} missing from one side")
        b = float(np.mean(base[key]))
        if b == 0:
            raise ParameterError(f"category {key} has zero baseline mean")
        return (float(np.mean(prio[key])) - b) / b

    return change(Category.MEDICAL.value), change(Category.STANDARD.value)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepSummary:
    # one row per (drones, prioritized, category)
    rows: list[dict]
    # (drones, prioritized) -> capacity fraction per whole minute of threshold
    capacity_curves: dict[tuple[int, bool], list[float]]


def summarize_sweep(result: dict[tuple[int, bool, int], dict[str, list[float]]]
                    ) -> SweepSummary:
    """Aggregate a sweep's waits, keyed (drones, prioritized, set index), per
    configuration.

    Means/medians pool the per-set samples; the capacity curve samples
    capacity_at on the pooled samples at one-minute steps up to the slowest
    delivery, which must be within CURVE_HORIZON_S. capacity_20min repeats
    the configuration's pooled 20-minute capacity on each of its category
    rows.
    """
    pooled: dict[tuple[int, bool], dict[str, list[float]]] = {}
    for (drones, prio, _), waits in result.items():
        config = pooled.setdefault((drones, prio), {})
        for key, samples in waits.items():
            config.setdefault(key, []).extend(samples)

    out_rows = []
    curves = {}
    for (drones, prio) in sorted(pooled):
        waits = {k: sorted(v) for k, v in pooled[(drones, prio)].items()}
        cap20 = capacity_at(waits, 20 * 60.0)
        slowest = waits[ALL][-1]
        if not slowest <= CURVE_HORIZON_S:
            raise ParameterError(
                f"slowest delivery of {drones} drones, prioritized {prio}, completes at "
                f"{slowest} s, past the capacity curve's horizon of {CURVE_HORIZON_S} s")
        max_minute = math.ceil(slowest / 60.0)
        curves[(drones, prio)] = [capacity_at(waits, 60.0 * m)
                                  for m in range(max_minute + 1)]
        for key in (Category.MEDICAL.value, Category.STANDARD.value, ALL):
            samples = waits.get(key)
            if samples is None:
                continue
            out_rows.append({
                "drones": drones,
                "prioritized": prio,
                "category": key,
                "mean_s": float(np.mean(samples)),
                "median_s": float(np.median(samples)),
                "capacity_20min": cap20,
            })
    return SweepSummary(out_rows, curves)


SUMMARY_COLUMNS = ["drones", "prioritized", "category", "mean_s", "median_s", "capacity_20min"]


def write_summary_csv(summary: SweepSummary, path) -> None:
    fields.write_csv(path, SUMMARY_COLUMNS, (
        [row["drones"], int(row["prioritized"]), row["category"],
         row["mean_s"], row["median_s"], row["capacity_20min"]] for row in summary.rows))


def write_capacity_curves_csv(summary: SweepSummary, path) -> None:
    fields.write_csv(path, ["drones", "prioritized", "minute", "fraction"], (
        [drones, int(prio), minute, frac]
        for (drones, prio), curve in sorted(summary.capacity_curves.items())
        for minute, frac in enumerate(curve)))
