"""Every file parser returns or raises one of the package's input errors.

Each valid document below (scenario, delivery sets, plan, trace sidecar and
sweep config) gets one value, at any JSON path, replaced by an arbitrary JSON
value. The parser must then return, or raise ParseError, ConfigError or
InvariantViolation: never a TypeError, KeyError or other exception. A plan
parsed so and passed by check_plan must simulate, giving every served job a
completion and each truck job the plan's completion bit for bit.
"""
import copy
import json
import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridfleet import fields
from hybridfleet.errors import ConfigError, InvariantViolation, ParseError
from hybridfleet.experiment import ExperimentConfig
from hybridfleet.hybrid import (FleetConfig, check_plan, plan_from_dict, plan_hybrid,
                               plan_to_dict)
from hybridfleet.jobs import generate_delivery_sets, sets_from_dict, sets_to_dict
from hybridfleet.scenario import generate_grid_scenario, scenario_from_dict, scenario_to_dict
from hybridfleet.simcore import _read_sidecar, save_trace, simulate

_WORLD = generate_grid_scenario(2, 3, 100.0, 1, seed=5)
_SETS = generate_delivery_sets(_WORLD, 1, 4, 1, seed=2)
_FLEET = FleetConfig(drone_count=1)
_PLAN = plan_hybrid(_WORLD, _SETS[0], _FLEET, True)


def _sidecar() -> dict:
    trace = simulate(_WORLD, _PLAN, _FLEET)
    with tempfile.TemporaryDirectory() as d:
        save_trace(trace, Path(d) / "trace.csv")
        return json.loads((Path(d) / "trace.csv.traj.json").read_text())


_DOCUMENTS = {
    "scenario": (scenario_to_dict(_WORLD), scenario_from_dict),
    "sets": (sets_to_dict(_SETS), lambda data: sets_from_dict(data, _WORLD)),
    "plan": (plan_to_dict(_PLAN, _FLEET), plan_from_dict),
    "sidecar": (_sidecar(), _read_sidecar),
    "config": (asdict(ExperimentConfig(n_sets=2, drone_counts=[0, 1],
                                       fleet={"drone_speed": 10.0},
                                       channel={"loss_threshold_db": 125.0})),
               ExperimentConfig.from_dict),
}


def _paths(doc, prefix=()):
    """The path of doc itself and of every value inside it."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
    | st.sampled_from(["0", "1", "7", "-1", "1.5", "nan", "medical", "standard"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5)


@st.composite
def _mutation(draw):
    name = draw(st.sampled_from(sorted(_DOCUMENTS)))
    doc, parse = _DOCUMENTS[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    return name, parse, _replaced(doc, path, draw(_json_value))


@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_unchanged_documents_parse(name):
    doc, parse = _DOCUMENTS[name]
    parse(copy.deepcopy(doc))


@settings(max_examples=600, deadline=None)
@given(_mutation())
def test_any_json_value_parses_or_raises_an_input_error(mutation):
    _, parse, data = mutation
    try:
        parse(data)
    except (ParseError, ConfigError, InvariantViolation):
        pass


_PLAN_DOC = plan_to_dict(_PLAN, _FLEET)


@settings(max_examples=400, deadline=None)
# small integers are node ids, path indices and drone ids near the valid
# ones, which an arbitrary JSON value seldom is
@given(st.sampled_from(list(_paths(_PLAN_DOC))), _json_value | st.integers(-2, 40))
@example(("truck", "stops", 0, "path_index"), 99)
@example(("sorties", 0, "drone_id"), -1)
def test_a_plan_check_plan_passes_simulates_every_served_job(path, value):
    try:
        plan, fleet = plan_from_dict(_replaced(_PLAN_DOC, path, value))
    except ParseError:
        return
    fleet = fleet or _FLEET
    problems = check_plan(plan, _WORLD, _SETS[0], fleet)
    assert isinstance(problems, list)
    if not problems:
        trace = simulate(_WORLD, plan, fleet)
        assert trace.completion.keys() == {*plan.stop_positions, *(s.job_id for s in plan.sorties)}
        for j in plan.stop_positions:
            assert trace.completion[j] == plan.completion[j]


@pytest.mark.parametrize("read,good,bad", [
    (fields.integer, [0, -3, 2**70], [True, 1.5, "7", None, 1.0]),
    (fields.number, [0, 1.5, float("nan"), float("inf")], [False, "1", None, [], 10**400]),
    (fields.finite, [0, -2.5, 1e308], [float("nan"), float("inf"), True, "0", 10**400]),
    (fields.boolean, [True, False], [0, 1, "false", None]),
    (fields.string, ["", "x"], [None, 3, ["x"]]),
])
def test_readers_take_only_their_kind(read, good, bad):
    for value in good:
        assert read(value, "f") == value or math.isnan(value)
    for value in bad:
        with pytest.raises(ParseError, match=r"^a\.b\[0\]: must be "):
            read(value, "a.b[0]")


def test_get_names_the_missing_field_and_reads_the_present_one():
    assert fields.get({"y": 2}, "y", "p", fields.integer) == 2
    assert fields.get({}, "y", "p", fields.integer, 5) == 5
    with pytest.raises(ParseError, match=r"^p: missing field 'y'$"):
        fields.get({}, "y", "p", fields.integer)
    with pytest.raises(ParseError, match=r"^p\.y: must be an integer, got 'a'$"):
        fields.get({"y": "a"}, "y", "p", fields.integer)
