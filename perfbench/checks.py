"""Correctness checks on the artifacts of one workload iteration.

Every check returns a Check record. A missing, truncated or perturbed
artifact makes its check fail; it never raises, so one bad artifact cannot
end the benchmark run. Each failed check counts toward `failed`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass

import numpy as np

# The paper's fixed TDBM map (rows aggressive ... timid; columns s_center,
# v_nei, s_front, v_avg, j_l, bias), kept here as an oracle independent of
# the program under test.
B_MATRIX = np.array([
    [1.63, 4.04, -0.46, -0.82, 0.88, -2.58],
    [1.58, 3.08, -0.45, 0.02, -0.10, -1.67],
    [1.35, 4.08, -0.58, -0.43, -0.28, -1.99],
    [-1.51, -3.17, 1.06, 0.51, -0.51, 1.39],
    [-2.47, -2.60, 1.43, 0.98, -0.82, 1.27],
    [-3.59, -2.19, 1.75, 1.73, -0.30, 0.61],
])
STYLE_LABELS = ("aggressive", "reckless", "threatening", "careful", "cautious", "timid")
TDBM_FEATURES = ("s_center", "v_nei", "s_front", "v_avg", "j_l")
KDSC_SUBSET = ("max_abs_accel", "var_accel", "var_speed", "gamma")
STD_FLOOR = 1e-12

# The acceptance gate's style-blind (--fusion none) Overall minFDE at the
# README walkthrough settings; style conditioning must beat 0.7 of it.
STYLE_BLIND_MIN_FDE = 1.846
MIN_FDE_GATE = 0.7 * STYLE_BLIND_MIN_FDE
TDBM_SAMPLE = 50

REPORTS = tuple(f"reports/{name}.{ext}" for name in (
    "style_histogram", "kinematics_boxplots", "mdsi_tdbm_heatmap", "cluster_speed_hist")
    for ext in ("csv", "svg"))
REPORT_CSVS = tuple(p for p in REPORTS if p.endswith(".csv"))

ARTIFACTS = {
    "cli-walkthrough": ("yellow.jsonl", "yellow_labels.csv", "cruise.jsonl", "features.csv",
                        "tdbm.csv", "kdsc.json", "assign.csv", "fc.json", "bank.json",
                        "metrics.csv") + REPORTS,
    "report-dense": ("features.csv", "tdbm.csv") + REPORTS,
    "kdsc-ward": ("kdsc.json", "assign.csv"),
}

# Analytic artifacts whose SHA-256 is stored in digests.json. A "setup/"
# prefix names a file of the set-up directory rather than the iteration.
DIGESTED = {
    "cli-walkthrough": ("features.csv", "tdbm.csv", "assign.csv") + REPORT_CSVS,
    "report-dense": ("features.csv", "tdbm.csv") + REPORT_CSVS,
    "kdsc-ward": ("setup/features.csv", "assign.csv"),
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def run_check(name, fn, *args):
    """Run one check; any exception from reading bad artifacts is a failure."""
    try:
        ok, detail = fn(*args)
    except Exception as exc:  # a malformed artifact must fail its check, not the run
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return Check(name, False, f"{type(exc).__name__}: {exc} (line {last.lineno})")
    return Check(name, bool(ok), detail)


def read_rows(path):
    """CSV rows as dicts, skipping the `# key=value` header lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        body = "".join(line for line in fh if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def resolve(rel, iteration, setup):
    return os.path.join(setup, rel[len("setup/"):]) if rel.startswith("setup/") else \
        os.path.join(iteration, rel)


def artifact_digests(workload, iteration, setup):
    """SHA-256 of the workload's analytic artifacts (absent ones skipped)."""
    out = {}
    for rel in DIGESTED[workload]:
        path = resolve(rel, iteration, setup)
        if os.path.isfile(path):
            out[rel] = sha256(path)
    return out


def digest_checks(expected, iteration, setup):
    def match(rel, want):
        got = sha256(resolve(rel, iteration, setup))
        return got == want, "" if got == want else f"sha256 {got[:12]} != stored {want[:12]}"
    return [run_check(f"digest {rel}", match, rel, want) for rel, want in sorted(expected.items())]


def _nonempty(path):
    size = os.path.getsize(path)
    return size > 0, f"{size} bytes"


def artifact_checks(workload, iteration):
    return [run_check(f"written {rel}", _nonempty, os.path.join(iteration, rel))
            for rel in ARTIFACTS[workload]]


def _row_count(path, want):
    n = len(read_rows(path))
    return n == want, f"{n} rows, want {want}"


# --- cli-walkthrough ---------------------------------------------------------


def overall_row(path):
    """The Overall row of the eval metrics CSV; its `n` is the number of
    examples the forecaster was evaluated (and trained) on."""
    return next(r for r in read_rows(path) if r["style"] == "Overall")


def _eval_finite(path):
    rows = read_rows(path)
    bad = [r["style"] for r in rows
           if not all(math.isfinite(float(r[k]))
                      for k in ("brierFDE", "minADE", "minFDE", "MissRate"))
           or int(r["n"]) < 1]
    return rows and not bad, f"non-finite rows: {bad}" if bad else f"{len(rows)} rows"


def _min_fde_gate(path):
    v = float(overall_row(path)["minFDE"])
    return v <= MIN_FDE_GATE, f"Overall minFDE {v:.4f} m, gate {MIN_FDE_GATE:.4f} m"


def walkthrough_checks(iteration):
    metrics = os.path.join(iteration, "metrics.csv")
    return [run_check("eval rows finite", _eval_finite, metrics),
            run_check("minFDE gate", _min_fde_gate, metrics)]


# --- report-dense ------------------------------------------------------------


def _histogram_sum(path, want):
    total = sum(int(r["count"]) for r in read_rows(path))
    return total == want, f"histogram sums to {total}, corpus has {want}"


def _tdbm_row(row):
    x = np.array([float(row[k]) for k in TDBM_FEATURES] + [1.0])
    scores = np.array([float(row[f"score_{label}"]) for label in STYLE_LABELS])
    want = B_MATRIX @ x
    had = row["had_neighbors"] == "true"
    cls = STYLE_LABELS[int(np.argmax(want))] if had else "threatening"
    err = float(np.max(np.abs(scores - want)))
    ok = err <= 1e-12 and row["class"] == cls
    return ok, f"max |score - B x| {err:.3g}, class {row['class']} want {cls}"


def tdbm_sample_checks(path, seed, k=TDBM_SAMPLE):
    rows = read_rows(path)
    pick = np.random.default_rng([seed, 7]).choice(len(rows), size=min(k, len(rows)),
                                                   replace=False)
    return [run_check(f"tdbm scores {rows[i]['scene_id']}", _tdbm_row, rows[i])
            for i in sorted(pick)]


def dense_checks(iteration, corpus_scenes, seed):
    out = [
        run_check("histogram sum", _histogram_sum,
                  os.path.join(iteration, "reports/style_histogram.csv"), corpus_scenes),
        run_check("features rows", _row_count,
                  os.path.join(iteration, "features.csv"), corpus_scenes),
        run_check("tdbm rows", _row_count, os.path.join(iteration, "tdbm.csv"), corpus_scenes),
    ]
    try:
        out += tdbm_sample_checks(os.path.join(iteration, "tdbm.csv"), seed)
    except Exception as exc:  # unreadable tdbm.csv: one failed check, not a crash
        out.append(Check("tdbm scores", False, f"{type(exc).__name__}: {exc}"))
    return out


# --- kdsc-ward ---------------------------------------------------------------


def _standardized(features_csv):
    rows = read_rows(features_csv)
    raw = np.array([[float(r[k]) for k in KDSC_SUBSET] for r in rows])
    return (raw - raw.mean(axis=0)) / np.maximum(raw.std(axis=0), STD_FLOOR)


def _scipy_ward(features_csv):
    from scipy.cluster.hierarchy import fcluster, ward
    linkage = ward(_standardized(features_csv))
    return linkage, fcluster(linkage, 2, criterion="maxclust")


def _same_partition(model_json, features_csv):
    with open(model_json, "r", encoding="utf-8") as fh:
        ours = json.load(fh)["train_assignments"]
    theirs = _scipy_ward(features_csv)[1]
    pairs = set(zip(ours, theirs.tolist()))
    ok = len(ours) == len(theirs) and len(pairs) == len({a for a, _ in pairs}) == \
        len({b for _, b in pairs}) == 2
    return ok, f"label pairs {sorted(pairs)}"


def _same_heights(model_json, features_csv):
    with open(model_json, "r", encoding="utf-8") as fh:
        ours = np.sort([m[2] for m in json.load(fh)["merge_history"]])
    theirs = np.sort(_scipy_ward(features_csv)[0][:, 2])
    if ours.shape != theirs.shape:
        return False, f"{len(ours)} merges, scipy has {len(theirs)}"
    rel = float(np.max(np.abs(ours - theirs) / np.maximum(np.abs(theirs), 1e-300)))
    return rel <= 1e-9, f"max relative height error {rel:.3g}"


def ward_checks(iteration, setup, rows):
    model = os.path.join(iteration, "kdsc.json")
    features = os.path.join(setup, "features.csv")
    return [
        run_check("assignment rows", _row_count, os.path.join(iteration, "assign.csv"), rows),
        run_check("partition equals scipy ward", _same_partition, model, features),
        run_check("merge heights equal scipy ward", _same_heights, model, features),
    ]


def wrap_checks(points, missing):
    """One check per tracing wrap point: the program must still have it, or
    the traced run would read 0 for its spans."""
    return [Check(f"wrap point {p}", p not in missing,
                  "missing from the program; update tracing.WRAPS" if p in missing else "")
            for p in points]


def workload_checks(workload, iteration, setup, seed, corpus_scenes, expected_digests):
    """All checks of one iteration; `expected_digests` may be empty."""
    out = artifact_checks(workload, iteration)
    if workload == "cli-walkthrough":
        out += walkthrough_checks(iteration)
    elif workload == "report-dense":
        out += dense_checks(iteration, corpus_scenes, seed)
    else:
        out += ward_checks(iteration, setup, corpus_scenes)
    return out + digest_checks(expected_digests, iteration, setup)
