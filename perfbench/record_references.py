#!/usr/bin/env python3
"""Record the reference output digests of every workload instance.

Run from the repository root only when a change is meant to alter the
pipeline's outputs; the benchmark treats any other difference as a failure:

    python3 perfbench/record_references.py
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.chdir(ROOT)
    from perfbench import runner
    from perfbench.workloads import CATALOGUE, WORKLOADS

    refs: dict = {}
    for name, wl in WORKLOADS.items():
        refs[name] = {}
        for instance in range(CATALOGUE):
            state, _ = wl.setup(instance)
            out_dir = os.path.join(runner.OUT, "record", name)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            result = wl.run_pass(state, out_dir)
            shutil.rmtree(out_dir)
            failed = [f"{op.name}: {op.error}" for op in result.ops if op.error]
            if failed:
                print(f"{name} instance {instance} failed: {failed}", file=sys.stderr)
                return 1
            refs[name][str(instance)] = {op.name: op.digests for op in result.ops}
            print(f"{name} instance {instance}: {len(result.ops)} ops, "
                  f"{result.seconds:.2f} s", flush=True)
    with open(runner.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
