import math

import numpy as np
import pytest

from hybridfleet.errors import ParameterError, PlanConsistencyError
from hybridfleet.jobs import Category, DeliverySet
from hybridfleet.metrics import (ALL, CURVE_HORIZON_S, capacity_at, prioritization_effect,
                                 summarize_sweep, waiting_stats, write_summary_csv)

from conftest import job_at


def set_with(medical_ids, standard_ids):
    jobs = [job_at(0, 0, j, Category.MEDICAL) for j in medical_ids]
    jobs += [job_at(0, 0, j, Category.STANDARD) for j in standard_ids]
    return DeliverySet(0, jobs)


def stats_for(completion, medical_ids, standard_ids):
    return waiting_stats(completion, set_with(medical_ids, standard_ids))


def test_waiting_stats_category_means():
    stats = stats_for({0: 100.0, 1: 300.0}, [0], [1])
    assert np.mean(stats["medical"]) == 100.0
    assert np.mean(stats["standard"]) == 300.0
    assert np.mean(stats[ALL]) == 200.0


def test_waiting_stats_equal_times():
    stats = stats_for({0: 50.0, 1: 50.0}, [0], [1])
    for key in ("medical", "standard", ALL):
        assert np.mean(stats[key]) == np.median(stats[key]) == 50.0


def test_waiting_stats_empty_category_absent():
    stats = stats_for({0: 10.0}, [], [0])
    assert stats.get("medical") is None
    assert len(stats["standard"]) == 1


def test_waiting_stats_missing_job():
    with pytest.raises(PlanConsistencyError):
        stats_for({0: 10.0}, [0], [1])


def test_capacity_examples():
    stats = stats_for({0: 600.0, 1: 1200.0, 2: 1800.0}, [], [0, 1, 2])
    assert capacity_at(stats, 1200.0) == pytest.approx(2 / 3)
    assert capacity_at(stats, 100.0) == 0.0
    assert capacity_at(stats, 1800.0) == 1.0
    assert capacity_at(stats, 5000.0) == 1.0


def test_capacity_monotone_in_threshold():
    rng = np.random.default_rng(4)
    times = rng.uniform(0, 2000, 40)
    stats = stats_for({i: float(t) for i, t in enumerate(times)}, [],
                      list(range(40)))
    values = [capacity_at(stats, th) for th in np.linspace(0, 2500, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_prioritization_effect_examples():
    base = stats_for({0: 1800.0, 1: 1200.0}, [0], [1])
    prio = stats_for({0: 720.0, 1: 1560.0}, [0], [1])
    med, std = prioritization_effect(base, prio)
    assert med == pytest.approx(-0.60)
    assert std == pytest.approx(0.30)


def test_prioritization_effect_identity():
    s = stats_for({0: 100.0, 1: 200.0}, [0], [1])
    assert prioritization_effect(s, s) == (0.0, 0.0)


def test_prioritization_effect_zero_baseline():
    base = stats_for({0: 0.0, 1: 10.0}, [0], [1])
    with pytest.raises(ParameterError):
        prioritization_effect(base, base)


def test_summarize_single_run_echoes_it():
    stats = stats_for({0: 100.0, 1: 200.0}, [0], [1])
    summary = summarize_sweep({(0, False, 0): stats})
    by_cat = {r["category"]: r for r in summary.rows}
    assert by_cat["medical"]["mean_s"] == 100.0
    assert by_cat["standard"]["mean_s"] == 200.0
    assert by_cat[ALL]["mean_s"] == 150.0


def test_summarize_bounds_the_capacity_curve_before_building_it():
    at = stats_for({0: 100.0, 1: CURVE_HORIZON_S}, [0], [1])
    curve = summarize_sweep({(0, False, 0): at}).capacity_curves[(0, False)]
    assert len(curve) == CURVE_HORIZON_S / 60 + 1 and curve[-1] == 1.0
    for late in (math.nextafter(CURVE_HORIZON_S, math.inf), 7e11, math.inf):
        stats = stats_for({0: 100.0, 1: late}, [0], [1])
        with pytest.raises(ParameterError, match=f"completes at {late} s, past the capacity "
                                                 f"curve's horizon of {CURVE_HORIZON_S} s"):
            summarize_sweep({(2, True, 0): stats})


def test_summarize_two_identical_runs_same_mean():
    stats = stats_for({0: 100.0, 1: 200.0}, [0], [1])
    one = summarize_sweep({(0, False, 0): stats})
    two = summarize_sweep({(0, False, 0): stats, (0, False, 1): stats})
    for a, b in zip(one.rows, two.rows):
        assert a["mean_s"] == b["mean_s"]


def test_summarize_row_count_is_configs_times_categories():
    stats = stats_for({0: 100.0, 1: 200.0}, [0], [1])
    summary = summarize_sweep({(d, p, 0): stats for d in (0, 1) for p in (False, True)})
    assert len(summary.rows) == 4 * 3  # medical, standard, all per config


def test_summary_means_within_contributing_range():
    lo = stats_for({0: 100.0, 1: 100.0}, [0], [1])
    hi = stats_for({0: 300.0, 1: 300.0}, [0], [1])
    summary = summarize_sweep({(0, False, 0): lo, (0, False, 1): hi})
    for r in summary.rows:
        assert 100.0 <= r["mean_s"] <= 300.0


def test_summary_csv_format(tmp_path):
    stats = stats_for({0: 100.0, 1: 200.0}, [0], [1])
    summary = summarize_sweep({(2, True, 0): stats})
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "drones,prioritized,category,mean_s,median_s,capacity_20min"
    assert lines[1].startswith("2,1,medical,")
