"""The sweep config and the layers it feeds agree on every shared bound.

Each bound has one owner, the check of the layer that uses the value:
``scenario.check_grid``, ``jobs.check_buildings`` (of the generated world),
``jobs.check_set_sizes``, ``hybrid.check_drone_count`` and
``routing.check_exact_size``. For values on both sides of each bound,
``ExperimentConfig.validate`` must raise ConfigError exactly when the owner
raises ParameterError, and the sweep must exit 0 or 2.
"""
import json
import math

import pytest

from hybridfleet import experiment
from hybridfleet.cli import main
from hybridfleet.errors import ConfigError, ParameterError
from hybridfleet.hybrid import _MAX_DRONES, check_drone_count
from hybridfleet.jobs import MAX_JOBS, MAX_JOBS_PER_SET, check_buildings, check_set_sizes
from hybridfleet.routing import EXACT_TSP_LIMIT, check_exact_size, largest_tour
from hybridfleet.scenario import CELL_MARGIN_M, MAX_BUILDINGS, MAX_NODES, check_grid

# a 3 x 3 grid (4 cells) and one set of 4 jobs, every field valid; unprioritized
# only, so the exact solver's one tour has per_set + 1 stops
_TINY = {"grid_rows": 3, "grid_cols": 3, "grid_spacing": 100.0, "buildings_per_cell": 1,
         "n_sets": 1, "per_set": 4, "medical_per_set": 1, "drone_counts": [0, 1],
         "prioritize_flags": [False], "net_models": []}


def _ints(*bounds):
    """The integer edge values, and each bound and the integer above it."""
    return sorted({0, -1, 1, 2, 10, *bounds, *(b + 1 for b in bounds)})


_NUMBERS = [0, -1, 1, 2, 10, 2 * CELL_MARGIN_M, 10.000000000000002, 1e-300, 1e308,
            math.inf, -math.inf, math.nan]

_CASES = (
    [{"grid_rows": v} for v in _ints(2, MAX_NODES // 3)]
    + [{"grid_cols": v} for v in _ints(2, MAX_NODES // 3)]
    + [{"grid_spacing": v} for v in _NUMBERS]
    + [{"grid_spacing": v, "buildings_per_cell": 0} for v in _NUMBERS]
    + [{"buildings_per_cell": v} for v in _ints(0, MAX_BUILDINGS // 4)]
    + [{"per_set": v} for v in _ints(1)]
    + [{"per_set": v, "medical_per_set": 0} for v in _ints(MAX_JOBS_PER_SET)]
    # the sweep's own bound is n_sets >= 1, so 0 is left out
    + [{"n_sets": v} for v in _ints(MAX_JOBS // _TINY["per_set"]) if v != 0]
    + [{"n_sets": v, "per_set": MAX_JOBS_PER_SET, "medical_per_set": 0}
       for v in _ints(MAX_JOBS // MAX_JOBS_PER_SET) if v != 0]
    + [{"medical_per_set": v} for v in _ints(0, _TINY["per_set"])]
    + [{"drone_counts": [v]} for v in _ints(0, _MAX_DRONES)]
    + [{"net_trace_drones": v} for v in _ints(0, _MAX_DRONES)]
    + [{"solver": "exact", "medical_per_set": 0, "per_set": v}
       for v in _ints(1, EXACT_TSP_LIMIT - 1)]
)


def _owner_rejects(cfg: dict) -> bool:
    """Whether an owning check raises ParameterError on the values of cfg."""
    try:
        check_grid(cfg["grid_rows"], cfg["grid_cols"], cfg["grid_spacing"],
                   cfg["buildings_per_cell"])
        check_buildings((cfg["grid_rows"] - 1) * (cfg["grid_cols"] - 1)
                        * cfg["buildings_per_cell"])
        check_set_sizes(cfg["n_sets"], cfg["per_set"], cfg["medical_per_set"])
        for count in [*cfg["drone_counts"], cfg.get("net_trace_drones", 0)]:
            check_drone_count(count, "count")
        if cfg.get("solver") == "exact":
            check_exact_size(largest_tour(cfg["per_set"], cfg["medical_per_set"], False))
    except ParameterError:
        return True
    return False


@pytest.mark.parametrize("change", _CASES, ids=lambda c: json.dumps(c))
def test_config_rejects_exactly_what_the_owning_check_rejects(tmp_path, change):
    cfg = {**_TINY, **change}
    rejects = _owner_rejects(cfg)
    try:
        experiment.ExperimentConfig.from_dict(cfg)
    except ConfigError:
        assert rejects
    else:
        assert not rejects
    # no world above 4 x 4 nodes or 10 buildings per cell is built, and no sets
    # of more than 16 jobs in all are planned: larger ones only go through validate
    small = (max(cfg["grid_rows"], cfg["grid_cols"]) <= 4 and cfg["buildings_per_cell"] <= 10
             and cfg["n_sets"] * cfg["per_set"] <= 16)
    if rejects or small:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code in ((2,) if rejects else (0, 2))


def test_set_size_bounds_admit_their_value_and_reject_the_next():
    check_set_sizes(1, MAX_JOBS_PER_SET, 0)
    check_set_sizes(MAX_JOBS // MAX_JOBS_PER_SET, MAX_JOBS_PER_SET, 0)
    for n_sets, per_set in ((1, MAX_JOBS_PER_SET + 1),
                            (MAX_JOBS // MAX_JOBS_PER_SET + 1, MAX_JOBS_PER_SET),
                            (MAX_JOBS, 2)):
        with pytest.raises(ParameterError, match="exceed"):
            check_set_sizes(n_sets, per_set, 0)
