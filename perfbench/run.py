#!/usr/bin/env python3
"""Layered benchmark of the hybridfleet pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing rebound.
``--trace 1`` rebinds the layers' functions (see tracer.py), alternates
untraced and traced passes, and reports per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output check passed. Details, spans and a stamp of the
machine go to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _load_program() -> None:
    """Put this checkout's src/ first on the path and check the import."""
    if not os.path.isfile(os.path.join(SRC, "hybridfleet", "__init__.py")):
        sys.exit(f"perfbench: no hybridfleet sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import hybridfleet
    if not os.path.abspath(hybridfleet.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hybridfleet from {hybridfleet.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered hybridfleet benchmark.")
    parser.add_argument("--workload", required=True,
                        help="sweep-default, plan-stress, netsim-dense or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print their digest and exit")
    args = parser.parse_args(argv)
    _load_program()
    os.chdir(ROOT)
    from perfbench import runner
    if args.setup_only:
        return runner.setup_only(args.workload, args.seed)
    if args.workload == "all":
        return runner.run_all(args.seed, args.seconds, args.trace)
    return runner.run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
