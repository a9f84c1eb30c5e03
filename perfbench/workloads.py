"""The benchmark's three workloads, driven through the public style-lens
surface: `style_lens.cli.main` in-process plus the README library names.

Each workload has a set-up, which writes its inputs into a directory, and a
list of CLI commands, which one measured iteration runs in a fresh directory.
A workload seed s offsets the README walkthrough seeds (yellow-light 7,
cruise 42), so seed 0 reproduces the README corpora.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from style_lens import cli, extract_features, fit_kdsc, gen_cruise, label_clusters, save_scenes

from corpus import dense_cruise
from tracing import ROOT_SPAN

YELLOW_SEED, CRUISE_SEED = 7, 42
WALK_YELLOW, WALK_CRUISE = 600, 400   # README walkthrough corpus sizes
DENSE_SCENES, DENSE_FIT = 1000, 300
WARD_ROWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: int           # corpus scenes one iteration processes
    analytic_scenes: int  # scenes the features/tdbm/report commands see
    setup: Callable[[int, str, object], dict]  # (seed, out dir, tracer) -> metadata
    commands: Callable[[int, str], list]       # (seed, inputs dir) -> argv lists


def seeds(seed):
    return {"yellow": YELLOW_SEED + seed, "cruise": CRUISE_SEED + seed}


# --- cli-walkthrough: the README walkthrough, end to end --------------------


def _walk_setup(seed, out, tracer):
    return {}


def _walk_commands(seed, inputs):
    s = seeds(seed)
    return [
        ["synth", "--kind", "yellow-light", "--n", str(WALK_YELLOW), "--seed",
         str(s["yellow"]), "--out", "yellow.jsonl", "--labels", "yellow_labels.csv"],
        ["synth", "--kind", "cruise", "--n", str(WALK_CRUISE), "--seed", str(s["cruise"]),
         "--out", "cruise.jsonl"],
        ["features", "--in", "cruise.jsonl", "--out", "features.csv"],
        ["tdbm", "--in", "cruise.jsonl", "--out", "tdbm.csv"],
        ["kdsc", "--features", "features.csv", "--k", "2", "--out", "kdsc.json",
         "--assignments", "assign.csv"],
        ["train-embed", "--in", "yellow.jsonl", "--labels", "yellow_labels.csv",
         "--fusion", "early", "--modes", "1", "--epochs", "200", "--lr", "0.02",
         "--model", "fc.json", "--bank", "bank.json"],
        ["eval", "--in", "yellow.jsonl", "--labels", "yellow_labels.csv",
         "--model", "fc.json", "--bank", "bank.json", "--out", "metrics.csv"],
        ["report", "--in", "cruise.jsonl", "--kdsc-model", "kdsc.json",
         "--out-dir", "reports", "--svg"],
    ]


# --- report-dense: analytics over a corpus with 1-7 neighbors per scene -----


def _dense_setup(seed, out, tracer):
    with tracer.span("synth.dense_cruise"):
        scenes, neighbors = dense_cruise(DENSE_SCENES, seeds(seed)["cruise"])
    with tracer.span("traj.save_scenes"):
        save_scenes(scenes, os.path.join(out, "corpus.jsonl"))
    with tracer.span("kdsc.fit_kdsc"):
        feats = [extract_features(s.focal) for s in scenes[:DENSE_FIT]]
        model = label_clusters(fit_kdsc(feats, k=2), feats)
        model.save(os.path.join(out, "kdsc.json"))
    histogram = {}
    for k in neighbors:
        histogram[str(k)] = histogram.get(str(k), 0) + 1
    return {
        "neighbors_per_scene": dict(sorted(histogram.items())),
        # neighbor x time pairs one TDBM pass over the corpus scans
        "tdbm_neighbor_samples_per_pass": sum(
            len(s.focal) * sum(1 for a in s.neighbors if len(a) >= 2) for s in scenes),
    }


def _dense_commands(seed, inputs):
    corpus = os.path.join(inputs, "corpus.jsonl")
    return [
        ["features", "--in", corpus, "--out", "features.csv"],
        ["tdbm", "--in", corpus, "--out", "tdbm.csv"],
        ["report", "--in", corpus, "--kdsc-model", os.path.join(inputs, "kdsc.json"),
         "--out-dir", "reports", "--svg"],
    ]


# --- kdsc-ward: one large-n Ward fit ----------------------------------------


def _ward_setup(seed, out, tracer):
    with tracer.span("synth.gen_cruise"):
        pairs = gen_cruise(WARD_ROWS, seed=seeds(seed)["cruise"])
    corpus = os.path.join(out, "cruise.jsonl")
    with tracer.span("traj.save_scenes"):
        save_scenes([scene for scene, _ in pairs], corpus)
    with tracer.span("cli.features"):
        cli.main(["features", "--in", corpus, "--out", os.path.join(out, "features.csv")])
    return {}


def _ward_commands(seed, inputs):
    return [["kdsc", "--features", os.path.join(inputs, "features.csv"), "--k", "2",
             "--out", "kdsc.json", "--assignments", "assign.csv"]]


WORKLOADS = {
    "cli-walkthrough": Workload("cli-walkthrough", WALK_YELLOW + WALK_CRUISE, WALK_CRUISE,
                                _walk_setup, _walk_commands),
    "report-dense": Workload("report-dense", DENSE_SCENES, DENSE_SCENES,
                             _dense_setup, _dense_commands),
    "kdsc-ward": Workload("kdsc-ward", WARD_ROWS, WARD_ROWS, _ward_setup, _ward_commands),
}


def iterate(workload, seed, inputs, tracer):
    """Run the workload's commands in the current directory.

    Returns the wall time from the first call to the last artifact flushed
    (every command closes its files before it returns) and [argv, seconds]
    for each command."""
    commands = []
    start = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        for argv in workload.commands(seed, inputs):
            t0 = time.perf_counter()
            with tracer.span(f"cli.{argv[0]}"):
                cli.main(argv)
            commands.append([argv, time.perf_counter() - t0])
    return time.perf_counter() - start, commands
