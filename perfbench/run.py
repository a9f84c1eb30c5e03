#!/usr/bin/env python3
"""style-lens benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package sources under
`src/` as they are, with no install step. Workloads (see workloads.py):

- cli-walkthrough: the eight README walkthrough commands;
- report-dense:    features, tdbm and report on 1000 scenes with 1-7 neighbors;
- kdsc-ward:       one Ward fit on a 1000-row features CSV.

A run runs measured iterations, each in a fresh process, until they have
taken about S seconds. Between them, and before the first and after the
last, it sets the workload up in fresh processes; the median set-up time is
`setup_s`. Each iteration's artifacts are checked (checks.py) and every
check counts toward `attempted` and `failed`. With --trace 0 the last line
holds the end-to-end metrics as medians over the iterations; with --trace 1
untraced and traced iterations alternate, and the last line holds the
per-layer metrics of the traced ones (tracing.py) and the tracing overhead.
Work files go to .perfbench-work/ and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "style_lens"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("cli-walkthrough", "report-dense", "kdsc-ward")
# Set up at least SETUP_REPEATS times. The set-ups come in gaps, one before
# each iteration and one after the last; a gap holds about SETUP_GAP_S of
# set-ups, at least one.
SETUP_REPEATS, SETUP_GAP_S = 3, 1.0
RUN_LIMIT_S = 170.0   # children still running this long after the start are killed
BLAS_THREADS = 1      # at or below nproc on any machine; the matrices are small
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "scenes_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed with the end-to-end metrics where the workload defines them, but
# not in the result line: that line carries every end-to-end metric on every
# workload, and a failure ratio is 0 on a healthy run.
EXTRA = {"example_epochs_per_s": "1/s", "min_fde_m": "m"}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("tdbm.ms_per"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_m"):
        return "m"
    if name.endswith("_per_scene"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def per_layer_names():
    return list(tracing.layer_metrics([], {}, 1)) + [
        "forecast.min_fde_m", "trace.untraced_wall_s", "trace.overhead_s"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


# --- child processes ---------------------------------------------------------


def cap_blas_threads():
    """Fix the BLAS thread count; call before this process imports numpy."""
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, out, deadline):
    """Run child.py with argv; returns (result dict or None, log tail).

    The child is killed at the deadline, or if this process is interrupted."""
    out.mkdir(parents=True)
    log_path = out / "child.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *map(str, argv)],
                                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return None, f"exit code {code}\n{tail}"
    with open(out / "result.json", "r", encoding="utf-8") as fh:
        return json.load(fh), ""


# --- run metadata ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args, setup_result):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_cap": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seeds": {"workload": args.seed, **setup_result.get("seeds", {})},
        "corpus": setup_result.get("metadata", {}),
    }


# --- measurement -------------------------------------------------------------


def _stored_digests(workload, seed):
    try:
        with open(DIGESTS, "r", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed), {})
    except FileNotFoundError:
        return {}


def _same_inputs(a, b):
    import checks

    names = sorted(p.name for p in a.iterdir() if p.suffix in (".jsonl", ".csv", ".json")
                   and p.name not in ("result.json", "trace.json"))
    diff = [n for n in names if checks.sha256(a / n) != checks.sha256(b / n)]
    return not diff, f"differing inputs: {diff}" if diff else f"{len(names)} inputs identical"


def _epochs(commands):
    for argv, _secs in commands:
        if argv[0] == "train-embed":
            return int(argv[argv.index("--epochs") + 1])
    return 0


def _eval_overall(path):
    """(examples, minFDE) of the eval Overall row, or zeros if it cannot be
    read; the walkthrough checks already count that failure."""
    import checks

    try:
        row = checks.overall_row(path)
        return int(row["n"]), float(row["minFDE"])
    except (OSError, KeyError, ValueError, StopIteration):
        return 0, 0.0


def _command_seconds(commands, name):
    return sum(secs for argv, secs in commands if argv[0] == name)


def measure(args, work):
    """Set up, iterate and check; returns the run's raw results."""
    cap_blas_threads()
    import checks

    deadline = time.monotonic() + RUN_LIMIT_S
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    done = []   # Check records
    setups = []
    inputs = work / "setup-0"

    def set_up(count):
        """Set the workload up `count` more times, each in a fresh process."""
        for _ in range(count):
            i = len(setups)
            d = work / f"setup-{i}"
            res, err = run_child(["setup", args.workload, args.seed, d, args.trace,
                                  f"{run_id}-setup{i}"], d, deadline)
            if res is None:
                raise RuntimeError(f"set-up {i} failed: {err}")
            setups.append(res)
            if i:
                done.append(checks.run_check(f"set-up {i} reproduces set-up 0",
                                             _same_inputs, inputs, d))
                shutil.rmtree(d, ignore_errors=True)

    # Set-ups are spread over the run, between the iterations, so that their
    # median samples the host's speed over the whole run, not one moment.
    set_up(1)
    per_gap = max(1, round(SETUP_GAP_S / setups[0]["setup_s"]))
    set_up(per_gap - 1)
    setup_spans = tracing.load_trace(inputs / "trace.json")[0] if args.trace else []

    expected = _stored_digests(args.workload, args.seed)
    wrap_points = [f"{module}.{attr}" for module, attr, *_ in tracing.WRAPS]
    walkthrough = args.workload == "cli-walkthrough"
    untraced, traced, digests = [], [], {}
    measured, k = 0.0, 0
    while True:
        is_traced = bool(args.trace) and k % 2 == 1
        d = work / f"iter-{k}"
        t0 = time.monotonic()
        res, err = run_child(["iterate", args.workload, args.seed, d, int(is_traced),
                              f"{run_id}-{k}", inputs], d, deadline)
        measured += time.monotonic() - t0
        done.append(checks.Check(f"iteration {k} completes", res is not None, err))
        if res is None:
            break
        done.append(checks.Check("package imported from this checkout",
                                 Path(res["package"]).resolve() == PACKAGE.resolve(),
                                 res["package"]))
        done += checks.workload_checks(args.workload, str(d), str(inputs), args.seed,
                                       res["scenes"], expected)
        digests = checks.artifact_digests(args.workload, str(d), str(inputs))
        examples, min_fde = _eval_overall(d / "metrics.csv") if walkthrough else (0, 0.0)
        if is_traced:
            done += checks.wrap_checks(wrap_points, res["missing_wraps"])
            spans, counters = tracing.load_trace(d / "trace.json")
            m = tracing.layer_metrics(spans, counters, res["analytic_scenes"], setup_spans)
            m["forecast.min_fde_m"] = min_fde
            traced.append(m)
        else:
            wall = res["wall_s"]
            row = {"wall_s": wall, "scenes_per_s": res["scenes"] / wall,
                   "peak_rss_mb": res["peak_rss_mb"]}
            if walkthrough:
                train_s = _command_seconds(res["commands"], "train-embed")
                row["example_epochs_per_s"] = examples * _epochs(res["commands"]) / train_s
                row["min_fde_m"] = min_fde
            untraced.append(row)
        shutil.rmtree(d, ignore_errors=True)
        k += 1
        set_up(per_gap)
        now = time.monotonic()
        need_both = bool(args.trace) and not (traced and untraced)
        if now + (now - t0) > deadline or (not need_both and measured >= args.seconds):
            break
    set_up(SETUP_REPEATS - len(setups))
    return {"setups": setups, "untraced": untraced, "traced": traced, "checks": done,
            "digests": digests}


# --- reporting ---------------------------------------------------------------


def highest_percentile(n):
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (90, 95, 99) if n * (100 - p) / 100.0 >= 10]
    return max(supported, default=50)


def describe(name, values, unit):
    values = sorted(values)
    n = len(values)
    p = highest_percentile(n)
    at_p = statistics.median(values) if p == 50 else values[math.ceil(p / 100.0 * n) - 1]
    return (f"{name:<28} {statistics.median(values):>14.6g} {unit:<6} "
            f"median, p{p} {at_p:.6g}, max {values[-1]:.6g}, n={n}")


def medians(rows):
    keys = rows[0].keys() if rows else ()
    return {k: statistics.median(r[k] for r in rows) for k in keys}


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package sources at {PACKAGE}; run from the root of a full "
              "checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = measure(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass   # another run still uses it
    if not run["untraced"] or (args.trace and not run["traced"]):
        failed = [c for c in run["checks"] if not c.ok]
        print(f"error: no completed iteration: {failed[-1].detail if failed else ''}",
              file=sys.stderr)
        return 1

    meta = metadata(args, run["setups"][0])
    meta.update(iterations={"untraced": len(run["untraced"]), "traced": len(run["traced"])},
                digests=run["digests"])
    print("# meta " + json.dumps(meta, sort_keys=True))
    checks_run = run["checks"]
    failed = [c for c in checks_run if not c.ok]
    tally = {}   # check name -> [passed, attempted]; iterations repeat each name
    for c in checks_run:
        entry = tally.setdefault(c.name, [0, 0])
        entry[0] += c.ok
        entry[1] += 1
    for name, (passed, attempted) in tally.items():
        print(f"# check {name}: {passed}/{attempted} passed")
    for c in failed:
        print(f"# FAIL {c.name}: {c.detail}")

    setup_s = [s["setup_s"] for s in run["setups"]]
    untraced = run["untraced"]
    if args.trace:
        metrics = medians(run["traced"])
        metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        selfs = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        print(f"# dominant layer: {max(selfs, key=selfs.get)}; per-layer self times sum to "
              f"{metrics['trace.self_sum_s']:.4f} s against untraced wall "
              f"{metrics['trace.untraced_wall_s']:.4f} s (tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s)")
        for name in per_layer_names():
            print(f"{name:<32} {metrics[name]:>16.6g} {unit_of(name)}")
        out = {name: {"value": metrics[name], "unit": unit_of(name)}
               for name in per_layer_names()}
    else:
        for name, unit in END_TO_END.items():
            values = setup_s if name == "setup_s" else [r[name] for r in untraced]
            print(describe(name, values, unit))
        for name, unit in EXTRA.items():
            if name in untraced[0]:
                print(describe(name, [r[name] for r in untraced], unit))
        print(f"{'fail_ratio':<28} {len(failed) / len(checks_run):>14.6g} ratio  "
              f"{len(failed)} of {len(checks_run)} checks failed")
        med = medians(untraced)
        med["setup_s"] = statistics.median(setup_s)
        out = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": len(checks_run),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
