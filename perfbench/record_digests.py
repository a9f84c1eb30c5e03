#!/usr/bin/env python3
"""Record the SHA-256 digests of each workload's analytic artifacts.

    python3 perfbench/record_digests.py

Runs one iteration per workload and workload seed 0 .. 9 and writes the
digests of the artifacts listed in checks.DIGESTED to digests.json, which
run.py compares every later run against. It always re-records every
workload and seed. Re-record only for a change that is meant to alter those
bytes; a run whose other checks fail records nothing.
"""

import argparse
import json
import shutil
import sys

import run

SEEDS = range(10)   # the workload seeds a benchmark run is made with


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    table = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            work = run.WORK / f"record-{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                res = run.measure(argparse.Namespace(workload=workload, seed=seed,
                                                     seconds=0, trace=0), work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            failed = [c for c in res["checks"] if not c.ok and not c.name.startswith("digest")]
            if failed:
                print(f"error: {workload} seed {seed}: {failed[0].name}: {failed[0].detail}",
                      file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = res["digests"]
            print(f"{workload} seed {seed}: {len(res['digests'])} digests")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
