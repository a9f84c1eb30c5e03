"""One set-up or one measured iteration of a workload, in its own process.

    python3 child.py setup   WORKLOAD SEED OUT_DIR TRACE RUN_ID
    python3 child.py iterate WORKLOAD SEED OUT_DIR TRACE RUN_ID INPUTS_DIR

Writes OUT_DIR/result.json, and OUT_DIR/trace.json when TRACE is 1. Set-up
time runs from before the package import to the last input written, so it
includes the import. An iteration runs in OUT_DIR and its wall time excludes
the import. run.py starts this script with PYTHONPATH naming the package
sources and this directory.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb():
    """Peak resident memory of this process since it started its program.

    VmHWM belongs to the address space exec created; getrusage's ru_maxrss
    would also count the parent's memory at fork time."""
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    phase, name, seed, out, trace, run_id = argv[:6]
    seed, traced = int(seed), trace == "1"

    import style_lens
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer(run_id) if traced else tracing.NullTracer()
    result = {"package": os.path.dirname(style_lens.__file__),
              "seeds": workloads.seeds(seed)}
    if phase == "setup":
        result["metadata"] = workload.setup(seed, out, tracer)
        result["setup_s"] = time.perf_counter() - START
    else:
        inputs = argv[6]
        os.chdir(out)
        undo, missing = tracing.install(tracer) if traced else ([], [])
        try:
            wall, commands = workloads.iterate(workload, seed, inputs, tracer)
        finally:
            tracing.uninstall(undo)
        result.update(wall_s=wall, commands=commands, scenes=workload.scenes,
                      analytic_scenes=workload.analytic_scenes, missing_wraps=missing,
                      peak_rss_mb=peak_rss_mb())
    if traced:
        tracer.dump(os.path.join(out, "trace.json"))
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
