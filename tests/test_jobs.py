import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from hybridfleet.errors import ParameterError, ParseError
from hybridfleet.jobs import (Category, generate_delivery_sets, ipd_distribution,
                              ks_statistic, load_sets, save_sets, sets_from_dict,
                              sets_to_dict)
from hybridfleet.scenario import Point, generate_grid_scenario


@pytest.fixture(scope="module")
def world():
    return generate_grid_scenario(8, 8, 100.0, 2, seed=21)


def test_default_generation_counts(world):
    sets = generate_delivery_sets(world, 50, 15, 5, seed=9)
    assert len(sets) == 50
    for s in sets:
        assert len(s.jobs) == 15
        assert sum(j.category == Category.MEDICAL for j in s.jobs) == 5
        assert len({j.id for j in s.jobs}) == 15
        assert len({j.building_id for j in s.jobs}) == 15


def test_single_standard_job(world):
    sets = generate_delivery_sets(world, 1, 1, 0, seed=1)
    assert len(sets) == 1
    assert [j.category for j in sets[0].jobs] == [Category.STANDARD]


def test_same_seed_identical(world):
    a = generate_delivery_sets(world, 5, 15, 5, seed=123)
    b = generate_delivery_sets(world, 5, 15, 5, seed=123)
    assert json.dumps(sets_to_dict(a)) == json.dumps(sets_to_dict(b))
    c = generate_delivery_sets(world, 5, 15, 5, seed=124)
    assert json.dumps(sets_to_dict(a)) != json.dumps(sets_to_dict(c))


def test_no_duplicate_buildings_within_set(world):
    for s in generate_delivery_sets(world, 10, 15, 5, seed=77):
        buildings = [j.building_id for j in s.jobs]
        assert len(set(buildings)) == len(buildings)


def test_replacement_flagged_when_buildings_scarce():
    small = generate_grid_scenario(2, 2, 100.0, 1, seed=2)  # one building
    sets = generate_delivery_sets(small, 1, 3, 1, seed=5)
    assert [j.building_id for j in sets[0].jobs] == [small.buildings[0].id] * 3


def test_targets_are_access_points(world):
    by_id = {b.id: b for b in world.buildings}
    for s in generate_delivery_sets(world, 3, 15, 5, seed=4):
        for j in s.jobs:
            assert j.target == by_id[j.building_id].access_point


@pytest.mark.parametrize("seed", range(10))
def test_generation_invariants_across_seeds(world, seed):
    for s in generate_delivery_sets(world, 4, 12, 3, seed=seed):
        assert len(s.jobs) == 12
        assert sum(j.category == Category.MEDICAL for j in s.jobs) == 3


def test_generation_errors(world):
    with pytest.raises(ParameterError):
        generate_delivery_sets(world, 1, 3, 4, seed=0)  # medical > per_set
    empty = generate_grid_scenario(2, 2, 100.0, 0, seed=0)
    with pytest.raises(ParameterError):
        generate_delivery_sets(empty, 1, 1, 0, seed=0)


def test_sets_file_round_trip(world, tmp_path):
    sets = generate_delivery_sets(world, 3, 6, 2, seed=8)
    path = tmp_path / "jobs.json"
    save_sets(sets, path)
    loaded = load_sets(path, world)
    assert sets_to_dict(loaded) == sets_to_dict(sets)


# the explicit ids keep the names these cases had before the messages took the
# "<path>: must be <kind>, got <value>" form
@pytest.mark.parametrize("data,message", [
    ([5], r"sets\[0\]: must be an object"),
    pytest.param([{"jobs": 3}], r"sets\[0\]\.jobs: must be a list, got 3",
                 id=r"data1-sets\[0\]: must be an object with a list of jobs"),
    ([{"jobs": [7]}], r"sets\[0\]\.jobs\[0\]: must be an object"),
    pytest.param([{"jobs": [{"building": "x"}]}],
                 r"sets\[0\]\.jobs\[0\]\.building: must be an integer, got 'x'",
                 id=r"data3-sets\[0\]\.jobs\[0\]\.building: not an integer"),
    pytest.param([{"jobs": [{"building": 0, "id": None}]}],
                 r"sets\[0\]\.jobs\[0\]\.id: must be an integer, got None",
                 id=r"data4-jobs\[0\]\.id: not an integer"),
    pytest.param([{"id": [], "jobs": []}], r"sets\[0\]\.id: must be an integer, got \[\]",
                 id=r"data5-sets\[0\]\.id: not an integer"),
])
def test_malformed_sets_rejected(world, data, message):
    with pytest.raises(ParseError, match=message):
        sets_from_dict(data, world)


def test_repeated_job_id_rejected(world):
    data = sets_to_dict(generate_delivery_sets(world, 1, 3, 1, seed=8))
    data[0]["jobs"][2]["id"] = data[0]["jobs"][0]["id"]
    with pytest.raises(ParseError, match=r"sets\[0\]\.jobs\[2\]: repeated job id 0"):
        sets_from_dict(data, world)


# --- ipd_distribution -------------------------------------------------------


def test_ipd_collinear():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
    assert ipd_distribution(pts).tolist() == [1.0, 1.0, 2.0]


def test_ipd_identical_points():
    assert ipd_distribution([Point(3, 4), Point(3, 4)]).tolist() == [0.0]


def test_ipd_unit_square():
    pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
    got = ipd_distribution(pts)
    np.testing.assert_allclose(got, [1, 1, 1, 1, math.sqrt(2), math.sqrt(2)])


def test_ipd_needs_two_points():
    with pytest.raises(ParameterError):
        ipd_distribution([Point(0, 0)])


def test_ipd_sorted_and_complete():
    rng = np.random.default_rng(3)
    pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, (20, 2))]
    d = ipd_distribution(pts)
    assert d.size == 20 * 19 // 2
    assert np.all(np.diff(d) >= 0)


# --- ks_statistic ------------------------------------------------------------


def test_ks_identical_samples():
    a = [1.0, 2.0, 5.0]
    assert ks_statistic(a, a) == 0.0


def test_ks_disjoint_supports():
    assert ks_statistic([0.0], [1.0]) == 1.0


def test_ks_half():
    # F_a steps: 0.5 at 0, 1.0 at 1; F_b: 0.5 at 0, 1.0 at 2.
    # On [1, 2): F_a = 1.0, F_b = 0.5 -> sup diff = 0.5.
    assert ks_statistic([0.0, 1.0], [0.0, 2.0]) == 0.5


def test_ks_empty_input():
    with pytest.raises(ParameterError):
        ks_statistic([], [1.0])


def test_ks_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(0, 1, int(rng.integers(5, 200)))
        b = rng.normal(float(rng.uniform(-1, 1)), 1, int(rng.integers(5, 200)))
        expected = scipy_stats.ks_2samp(a, b, method="asymp").statistic
        assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)
