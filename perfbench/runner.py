"""Measurement loop, output gate and result line of the benchmark.

``run.py`` puts the checkout's ``src/`` on the import path before importing
this module.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy
from hybridfleet import kernels

from perfbench import calibration, tracer as tracing
from perfbench.workloads import WORKLOADS, Pass, check_references, instances

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench_out"            # relative to ROOT, so outputs name no absolute path
REFERENCES = os.path.join(ROOT, "perfbench", "references.json")
SETUP_PROBES = 5

# What the pass time and units_per_s are called on each workload.
ALIASES = {
    "sweep-default": ("sweep_s", "plans_per_s"),
    "plan-stress": ("plan_batch_s", "plans_per_s"),
    "netsim-dense": ("netsim_s", "beacons_per_s"),
}


@dataclass
class PassRecord:
    index: int
    instance: int
    traced: bool
    wall: float                   # whole pass including output checks
    result: Pass
    bytes_written: int
    scale: float                  # raw seconds -> reference seconds

    @property
    def seconds(self) -> float:
        """Timed seconds of the pass at the reference speed."""
        return self.result.seconds * self.scale


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def stamp() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "jit_enabled": kernels.JIT_ENABLED,
            "commit": _git_commit()}


def _git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def build_inputs(wl, seed: int) -> tuple[list[tuple[int, object]], str]:
    """(instance, state) for every instance of the seed's cycle, and a digest
    of all their inputs."""
    items, digests = [], []
    for instance in instances(seed, wl.cycle):
        state, digest = wl.setup(instance)
        items.append((instance, state))
        digests.append(digest)
    return items, hashlib.sha256(" ".join(digests).encode()).hexdigest()


def setup_only(workload: str, seed: int) -> int:
    print(build_inputs(WORKLOADS[workload], seed)[1])
    return 0


def setup_probes(workload: str, seed: int, expected: str) -> tuple[list[float], list[str]]:
    """Wall times, at the reference speed, of fresh processes that start,
    import and build the inputs.

    Each probe must build inputs with the same digest as this process.
    """
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    walls, errors = [], []
    before = calibration.loop_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - t0
        after = calibration.loop_seconds()
        walls.append(wall * calibration.scale(before, after))
        before = after
        lines = proc.stdout.split()
        if proc.returncode != 0:
            errors.append(f"set-up probe exit {proc.returncode}: {proc.stderr[-300:]}")
        elif not lines or lines[-1] != expected:
            errors.append("set-up probe built different inputs")
    return walls, errors


def measure(wl, items, seconds: float, tracer=None, refs=None) -> list[PassRecord]:
    """Whole passes for about ``seconds``, each between two calibrations.

    Untraced, pass i runs instance i mod len(items), and the run stops only
    after a full cycle, so every instance counts equally. With a tracer,
    every pass runs the first instance, plain and traced in turn, and the
    run stops after a traced pass but not before the second one, so the
    traced passes' counters can be compared. Each pass's outputs are
    checked against ``refs`` when given.
    """
    records: list[PassRecord] = []
    base = os.path.join(OUT, wl.name)
    shutil.rmtree(base, ignore_errors=True)
    if tracer:
        items, period, min_periods = items[:1], 2, 2
    else:
        period, min_periods = len(items), 1
    t_start = time.perf_counter()
    before = calibration.loop_seconds()
    while True:
        i = len(records)
        traced = tracer is not None and i % 2 == 1
        instance, state = items[i % len(items)]
        out_dir = os.path.join(base, f"p{i:03d}")
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                with tracer.root("harness.pass", f"pass{i}"):
                    result = wl.run_pass(state, out_dir)
            finally:
                tracer.uninstall()
        else:
            result = wl.run_pass(state, out_dir)
        wall = time.perf_counter() - t0
        after = calibration.loop_seconds()
        if refs is not None:
            check_references(wl.name, instance, result.ops, refs)
        records.append(PassRecord(i, instance, traced, wall, result, _dir_bytes(out_dir),
                                  calibration.scale(before, after)))
        before = after
        shutil.rmtree(out_dir)
        periods, rest = divmod(len(records), period)
        if rest == 0 and periods >= min_periods:
            # stop when one more period would end farther from ``seconds``
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / periods / 2 >= seconds:
                break
    shutil.rmtree(base, ignore_errors=True)
    return records


def tally(records: list[PassRecord], extra_errors: list[str],
          extra_attempted: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, error messages) over all operations of a run."""
    errors = list(extra_errors)
    attempted = extra_attempted
    for r in records:
        attempted += len(r.result.ops)
        errors += [f"pass {r.index} {op.name}: {op.error}"
                   for op in r.result.ops if op.error is not None]
    return attempted, len(errors), errors


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS.get(name)
    if wl is None:
        print(f"perfbench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    refs = load_references()
    info = stamp()
    cycle = instances(seed, wl.cycle)
    print(f"perfbench {name} seed={seed} instances={cycle} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    side = {"workload": name, "seed": seed, "instances": cycle, "stamp": info}
    if trace:
        metrics, attempted, errors = _traced(wl, seed, seconds, refs, side)
    else:
        metrics, attempted, errors = _untraced(wl, seed, seconds, refs, side)
    failed = len(errors)
    for e in errors:
        print(f"  FAILED {e}")
    print(f"  failed_ratio      {failed / attempted:.4g}  ({failed} of {attempted} operations)")

    side["errors"] = errors
    side["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    side_path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")
    with open(side_path, "w", encoding="utf-8") as f:
        json.dump(side, f, indent=1)
    print(f"  details in {side_path}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _untraced(wl, seed, seconds, refs, side):
    items, digest = build_inputs(wl, seed)
    probe_walls, probe_errors = setup_probes(wl.name, seed, digest)
    records = measure(wl, items, seconds, refs=refs)
    pass_s = statistics.median(r.seconds for r in records)
    raw_pass_s = statistics.median(r.result.seconds for r in records)
    units_per_s = statistics.median(r.result.units / r.seconds for r in records)
    setup_s = statistics.median(probe_walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_alias, rate_alias = ALIASES[wl.name]
    print(f"  speed             {statistics.median(r.scale for r in records):.4f} "
          f"reference seconds per raw second (calibration loop, {calibration.REFERENCE_S} s "
          "at reference speed)")
    print(f"  setup_s           {setup_s:.4f} s    median of {len(probe_walls)} fresh "
          "processes: interpreter start, imports, inputs")
    print(f"  {pass_alias:17s} {pass_s:.4f} s    median of {len(records)} passes over "
          f"instances {sorted({r.instance for r in records})}; raw {raw_pass_s:.4f} s")
    print(f"  units_per_s       {units_per_s:.4f} 1/s  = {rate_alias}")
    print(f"  peak_rss_mb       {rss_mb:.2f} MB")
    side["setup_walls"] = probe_walls
    side["passes"] = [_pass_json(r) for r in records]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "units_per_s": {"value": units_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    attempted, _, errors = tally(records, probe_errors, len(probe_walls))
    return metrics, attempted, errors


def _traced(wl, seed, seconds, refs, side):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("harness.setup", "setup"):
            items, _ = build_inputs(wl, seed)
    finally:
        tracer.uninstall()
    records = measure(wl, items, seconds, tracer=tracer, refs=refs)
    # Per-layer numbers come from set-up plus the first traced pass. Every
    # traced pass runs the seed's first instance, so every count repeats.
    first = records[1]
    m = tracer.layer_metrics(["setup", f"pass{first.index}"])
    m["experiment.bytes_written"] = first.bytes_written
    m["trace.overhead_s"] = statistics.median(
        records[i + 1].seconds - records[i].seconds
        for i in range(0, len(records) - 1, 2))

    # A traced function that no longer exists would read 0 and hand its time
    # to its caller unnoticed, so the run fails until SPANS/COUNTERS follow.
    errors = [f"{name} no longer exists; update tracer.SPANS or tracer.COUNTERS"
              for name in tracer.missing]
    errors += counter_drift(tracer, records)
    units = per_layer_units()
    if set(m) != set(units):
        errors.append(f"reported per-layer metrics {sorted(set(m) ^ set(units))} "
                      "differ from those declared in BENCHMARK.json")
    self_sum = sum(m[k] for k in tracing.SELF_TIME_KEYS)
    if abs(self_sum - m["trace.wall_s"]) > 1e-6:
        errors.append(f"layer self times sum to {self_sum} s, wall is {m['trace.wall_s']} s")

    wall = m["trace.wall_s"]
    print(f"  traced set-up + pass {first.index}: wall {wall:.4f} s = sum of layer "
          f"self times {self_sum:.4f} s")
    for key in tracing.SELF_TIME_KEYS:
        print(f"    {key:28s} {m[key]:10.4f} s  {100 * m[key] / wall:5.1f} %")
    print(f"  tracing overhead  {m['trace.overhead_s']:+.4f} s per pass (median over "
          f"{len(records) // 2} traced-minus-untraced pass pairs)")
    for key in sorted(m):
        if key not in tracing.SELF_TIME_KEYS:
            print(f"    {key:28s} {m[key]:.6g} {units.get(key, '?')}")
    side["passes"] = [_pass_json(r) for r in records]
    side["spans"] = tracer.dump()
    side["counts"] = tracer.counts
    metrics = {k: {"value": m[k], "unit": unit} for k, unit in units.items() if k in m}
    attempted, _, op_errors = tally(records, errors, 0)
    return metrics, attempted, op_errors


def _pass_json(r: PassRecord) -> dict:
    return {"index": r.index, "instance": r.instance, "traced": r.traced, "wall": r.wall,
            "seconds": r.result.seconds, "scale": r.scale, "units": r.result.units,
            "bytes_written": r.bytes_written,
            "ops": [asdict(op) for op in r.result.ops]}


def counter_drift(tracer, records: list[PassRecord]) -> list[str]:
    """Traced passes whose work counters differ from the first traced pass's.

    All traced passes run the same instance, so the counts must repeat.
    """
    traced = [r for r in records if r.traced]
    first = tracer.counts.get(f"pass{traced[0].index}", {}) if traced else {}
    return [f"pass {r.index}: work counters differ from traced pass {traced[0].index}"
            for r in traced[1:] if tracer.counts.get(f"pass{r.index}", {}) != first]


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, then one table of their results."""
    status = 0
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(f"\n{'workload':14s} {'metric':28s} value")
    for name, res in rows.items():
        if res is None:
            print(f"{name:14s} (no result)")
            continue
        print(f"{name:14s} {'failed_ratio':28s} {res['failed'] / res['attempted']:.4g}")
        for key, v in res["metrics"].items():
            print(f"{name:14s} {key:28s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(rows))
    return status
