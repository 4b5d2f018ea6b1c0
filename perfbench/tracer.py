"""Stdlib span recorder that observes the pipeline's layers from outside.

``Tracer.install`` rebinds public functions of the hybridfleet modules to
wrappers that record a span (name, start, end, parent span, run id) or bump a
counter, in every module namespace that holds the function: ``experiment``
imports ``plan_hybrid``, ``simulate`` and ``run_cam_traffic`` by name and
``hybrid`` imports ``dijkstra_times`` by name, so patching only the defining
module would miss those calls. ``uninstall`` restores the originals. Nothing
under ``src/`` is edited.

The numeric kernels are called hundreds of thousands of times per plan, so
they only bump counters; their time stays in the calling layer's self time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "hybridfleet"
MODULES = ("scenario", "jobs", "routing", "kernels", "hybrid", "simcore",
           "netmodel", "metrics", "experiment")

# (defining module, function, span name). A span's layer is the text before
# its first dot. Every file writer maps to one span so output cost is one line.
SPANS = (
    ("scenario", "generate_grid_scenario", "scenario.generate"),
    ("scenario", "los_blocked_many", "scenario.los"),
    ("jobs", "generate_delivery_sets", "jobs.generate"),
    ("routing", "dijkstra_times", "routing.dijkstra"),
    ("routing", "priority_schedule", "routing.schedule"),
    ("routing", "plain_schedule", "routing.schedule"),
    ("hybrid", "plan_hybrid", "hybrid.plan"),
    ("simcore", "simulate", "simcore.simulate"),
    ("netmodel", "run_cam_traffic", "netmodel"),
    ("metrics", "waiting_stats", "metrics.summarize"),
    ("metrics", "summarize_sweep", "metrics.summarize"),
    ("experiment", "run_experiment", "experiment.run"),
    ("experiment", "run_sweep", "experiment.sweep_phase"),
    ("experiment", "run_one", "experiment.run_one"),
    ("scenario", "save_scenario", "experiment.write"),
    ("jobs", "save_sets", "experiment.write"),
    ("simcore", "save_trace", "experiment.write"),
    ("hybrid", "save_plan", "experiment.write"),
    ("metrics", "write_summary_csv", "experiment.write"),
    ("metrics", "write_capacity_curves_csv", "experiment.write"),
    ("netmodel", "write_net_results_csv", "experiment.write"),
    ("netmodel", "write_net_summary_csv", "experiment.write"),
)

# (defining module, function, counter name): call counts only.
COUNTERS = (
    ("kernels", "build_timetable", "hybrid.rebuilds"),
    ("kernels", "best_sortie", "hybrid.candidate_evals"),
    ("kernels", "sortie_from_launch", "hybrid.sortie_scans"),
)

MAC_MODELS = ("centralized", "csma", "sps")


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root
    start: float
    end: float
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = ""
        self._run_counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, run: str | None = None) -> int:
        """Open a span; a root span (empty stack) starts the given run id."""
        if not self._stack:
            self._run = run if run is not None else name
            self._run_counts = self.counts.setdefault(self._run, Counter())
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.clock(), 0.0, self._run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError("spans must close in LIFO order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self._run_counts[name] += n

    @contextlib.contextmanager
    def root(self, name: str, run: str):
        """Harness root span that starts run id ``run``."""
        idx = self.begin(name, run)
        try:
            yield
        finally:
            self.end(idx)

    # -- rebinding ---------------------------------------------------------

    def _span_wrapper(self, func, span_name):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = span_name
            if span_name == "netmodel":
                mac = args[2] if len(args) > 2 else kwargs["mac"]
                name = f"netmodel.{mac.name}"
            idx = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._note(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, func, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer._run_counts[counter] += 1
            return func(*args, **kwargs)

        return wrapper

    def _note(self, name: str, args, result) -> None:
        """Work counts taken from a layer call's arguments or result."""
        if name == "scenario.los":
            self.count("scenario.los_segments", len(args[1]))
        elif name.startswith("netmodel."):
            self.count(f"{name}.beacons", result.sent)
        elif name == "simcore.simulate":
            self.count("simcore.events", len(result.events))
        elif name == "hybrid.plan":
            self.count("hybrid.sorties_committed", len(result.sorties))
        elif name == "routing.dijkstra":
            self.count("routing.dijkstra_calls")

    def install(self) -> None:
        """Rebind every traced function in every namespace that holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        plan = [(mod, fn, self._span_wrapper, name) for mod, fn, name in SPANS]
        plan += [(mod, fn, self._count_wrapper, name) for mod, fn, name in COUNTERS]
        for mod_name, fn_name, make, label in plan:
            original = getattr(by_name[mod_name], fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = make(original, label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, runs: list[str]) -> dict[str, float]:
        """Per-layer metrics over the spans and counts of the given runs."""
        idx = [i for i, s in enumerate(self.spans) if s.run in runs]
        spans = self.spans
        selfs = self_times(spans)
        by_name: Counter = Counter()
        for i in idx:
            by_name[spans[i].name] += selfs[i]
        counts: Counter = Counter()
        for run in runs:
            counts.update(self.counts.get(run, {}))

        m: dict[str, float] = {}
        m["trace.wall_s"] = sum(spans[i].duration for i in idx if spans[i].parent < 0)
        m["trace.spans"] = len(idx)
        m["harness.self_s"] = sum(v for k, v in by_name.items()
                                  if k.split(".", 1)[0] == "harness")
        m["scenario.generate_s"] = by_name["scenario.generate"]
        m["jobs.generate_s"] = by_name["jobs.generate"]
        los_s = by_name["scenario.los"]
        segments = counts["scenario.los_segments"]
        m["scenario.los_s"] = los_s
        m["scenario.los_segments"] = segments
        m["scenario.los_us_per_segment"] = 1e6 * los_s / segments if segments else 0.0
        los_by_model: Counter = Counter()
        for i in idx:
            if spans[i].name == "scenario.los":
                model = self._ancestor(i, "netmodel.")
                if model is not None:
                    los_by_model[model] += selfs[i]
        for model in MAC_MODELS:
            key = f"netmodel.{model}"
            m[f"{key}.s"] = by_name[key]
            m[f"{key}.los_s"] = los_by_model[key]
            m[f"{key}.beacons"] = counts[f"{key}.beacons"]
        m["routing.schedule_s"] = by_name["routing.schedule"]
        m["routing.dijkstra_s"] = by_name["routing.dijkstra"]
        m["routing.dijkstra_calls"] = counts["routing.dijkstra_calls"]

        plan_ms = sorted(1e3 * spans[i].duration for i in idx
                         if spans[i].name == "hybrid.plan")
        tail_pct = tail_percentile(len(plan_ms))
        m["hybrid.plan_s"] = by_name["hybrid.plan"]
        m["hybrid.plans"] = len(plan_ms)
        m["hybrid.plan_p50_ms"] = percentile(plan_ms, 50.0)
        m["hybrid.plan_tail_pct"] = tail_pct
        m["hybrid.plan_tail_ms"] = percentile(plan_ms, tail_pct)
        for key in ("hybrid.rebuilds", "hybrid.candidate_evals", "hybrid.sortie_scans",
                    "hybrid.sorties_committed"):
            m[key] = counts[key]
        evals = counts["hybrid.candidate_evals"]
        m["hybrid.commit_ratio"] = counts["hybrid.sorties_committed"] / evals if evals else 0.0
        m["simcore.simulate_s"] = by_name["simcore.simulate"]
        m["simcore.events"] = counts["simcore.events"]
        m["metrics.summarize_s"] = by_name["metrics.summarize"]
        m["experiment.self_s"] = sum(v for k, v in by_name.items()
                                     if k.startswith("experiment.") and k != "experiment.write")
        m["experiment.write_s"] = by_name["experiment.write"]
        m["experiment.sweep_phase_s"] = sum(spans[i].duration for i in idx
                                            if spans[i].name == "experiment.sweep_phase")
        return m

    def _ancestor(self, i: int, prefix: str) -> str | None:
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name.startswith(prefix):
                return self.spans[p].name
            p = self.spans[p].parent
        return None

    def dump(self) -> list[list]:
        return [[s.name, s.parent, s.start, s.end, s.run] for s in self.spans]


# Self times of these span groups partition a traced run's wall time.
SELF_TIME_KEYS = (
    "harness.self_s", "scenario.generate_s", "scenario.los_s", "jobs.generate_s",
    "netmodel.centralized.s", "netmodel.csma.s", "netmodel.sps.s",
    "routing.schedule_s", "routing.dijkstra_s", "hybrid.plan_s",
    "simcore.simulate_s", "metrics.summarize_s", "experiment.self_s",
    "experiment.write_s",
)


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (100.0 - p) / 100.0 >= 10.0:
            best = p
    return best


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[rank - 1]
