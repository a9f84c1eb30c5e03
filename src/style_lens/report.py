"""Deterministic analysis reports: style histograms, per-style kinematics
boxplot statistics, MDSI-vs-TDBM contingency counts, and per-cluster speed
distributions, emitted as CSV (plus optional simple SVG renderings)."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import svg as svg_mod
from .kdsc import ClusterModel, assign
from .kinematics import FEATURE_NAMES, KinematicFeatures, extract_features
from .stats import quantile_inclusive, welch_t_test
from .tdbm import (
    STYLE_LABELS,
    TdbmConfig,
    _uniformize,
    build_tdbm_features,
    style_order,
    tdbm_classify,
    tdbm_score,
)
from .traj import StyleLensError, write_csv

GAMMA_DEFINITION_TAG = "rms-jerk-of-speed/v_peak"  # echoed in every header
# mean-speed histogram bins of cluster_speed_distribution, m/s; echoed in its header
SPEED_BIN_WIDTH = 0.5
SPEED_RANGE = (0.0, 40.0)


class ReportError(StyleLensError):
    pass


@dataclass(frozen=True)
class BoxplotStats:
    metric: str
    style: str
    min: float
    q1: float
    median: float
    q3: float
    max: float
    n: int


def classify_scenes_tdbm(scenes, config: TdbmConfig):
    """TDBM class label per scene."""
    out = []
    for scene in scenes:
        x = build_tdbm_features(scene, config)
        out.append(tdbm_classify(tdbm_score(x), x.had_neighbors).label)
    return out


def scene_features(scene, config: TdbmConfig):
    """Kinematic features of the scene's focal track on a uniform grid."""
    return extract_features(_uniformize(scene.focal, config.resample_dt))


def style_histogram(classes: Sequence[str]):
    """Counts per TDBM style class, from one class label per scene (as
    `classify_scenes_tdbm` gives them); zero-count classes stay visible."""
    if not classes:
        raise ReportError("cannot build a histogram from zero scenes")
    counts = {label: 0 for label in STYLE_LABELS}
    for label in classes:
        counts[label] += 1
    return counts


def kinematics_by_style(features: Sequence[KinematicFeatures], styles: Sequence[str],
                        n_min: int = 5):
    """Five-number summaries of the 9 kinematic features, per style, from one
    `KinematicFeatures` and one style label per scene.

    Styles with fewer than n_min scenes are omitted; returns (rows, omitted).
    """
    by_style = {}
    for f, style in zip(features, styles):
        by_style.setdefault(style, []).append(f)
    rows, omitted = [], []
    for style in style_order(by_style):
        feats = by_style[style]
        if len(feats) < n_min:
            omitted.append((style, len(feats)))
            continue
        for metric in FEATURE_NAMES:
            vals = [getattr(f, metric) for f in feats]
            rows.append(
                BoxplotStats(
                    metric=metric,
                    style=style,
                    min=float(np.min(vals)),
                    q1=quantile_inclusive(vals, 0.25),
                    median=quantile_inclusive(vals, 0.5),
                    q3=quantile_inclusive(vals, 0.75),
                    max=float(np.max(vals)),
                    n=len(vals),
                )
            )
    return rows, omitted


def mdsi_tdbm_heatmap(scenes, classifications: Sequence[str]):
    """Contingency counts of MDSI label (rows, lexical) x TDBM class (columns,
    ordinal). Returns (matrix, row_labels, col_labels, n_unlabeled)."""
    pairs = [
        (scene.mdsi_label, cls)
        for scene, cls in zip(scenes, classifications)
        if scene.mdsi_label is not None
    ]
    n_unlabeled = len(scenes) - len(pairs)
    if not pairs:
        raise ReportError("no scenes carry an MDSI label")
    row_labels = sorted({m for m, _ in pairs})
    col_labels = list(STYLE_LABELS)
    matrix = np.zeros((len(row_labels), len(col_labels)), dtype=int)
    row_index = {m: i for i, m in enumerate(row_labels)}
    col_index = {c: i for i, c in enumerate(col_labels)}
    for mdsi, cls in pairs:
        matrix[row_index[mdsi], col_index[cls]] += 1
    return matrix, row_labels, col_labels, n_unlabeled


def cluster_speed_distribution(
    features: Sequence[KinematicFeatures],
    scene_splits: Sequence[str],
    model: ClusterModel,
    splits=("train", "test"),
):
    """Per-cluster mean_speed histograms by split, plus a Welch t-test
    between the two clusters' mean speeds (pooled over the given splits).

    `features` and `scene_splits` hold one entry per scene: its
    `KinematicFeatures` and its split name."""
    if not model.labels:
        raise ReportError("cluster model must be labeled (aggressive/normal)")
    edges = np.arange(SPEED_RANGE[0], SPEED_RANGE[1] + SPEED_BIN_WIDTH / 2, SPEED_BIN_WIDTH)
    # seed every (cluster label, split) cell so empty clusters emit zero rows
    speeds = {
        (lab, split): [] for lab in sorted(model.labels.values()) for split in splits
    }
    for split in splits:
        subset = [f for f, s in zip(features, scene_splits) if s == split]
        if not subset:
            raise ReportError(f"no scenes in split {split!r}")
        for f in subset:
            label = model.labels[assign(model, f)]
            speeds.setdefault((label, split), []).append(f.mean_speed)
    hists = {
        key: np.histogram(vals, bins=edges)[0] for key, vals in speeds.items()
    }
    cluster_labels = sorted(model.labels.values())
    pooled = {
        lab: [v for (l, _s), vals in speeds.items() if l == lab for v in vals]
        for lab in cluster_labels
    }
    welch = None
    if len(cluster_labels) == 2 and all(len(pooled[l]) >= 2 for l in cluster_labels):
        welch = welch_t_test(pooled[cluster_labels[0]], pooled[cluster_labels[1]])
    return {"edges": edges, "hists": hists, "welch": welch}


# ---------------------------------------------------------------------------
# CSV / SVG emission


def run_report(
    scenes,
    out_dir,
    tdbm_config: Optional[TdbmConfig] = None,
    kdsc_model: Optional[ClusterModel] = None,
    n_min: int = 5,
    svg: bool = False,
):
    """Emit the four report CSVs (and optional SVG twins) into out_dir.

    Each scene's TDBM class and kinematic features are computed once here and
    shared by the four reports."""
    tdbm_config = tdbm_config or TdbmConfig()
    os.makedirs(out_dir, exist_ok=True)
    written = []
    common = dict(tdbm_config.to_dict(), gamma_definition=GAMMA_DEFINITION_TAG,
                  quantile_method="inclusive-linear", whiskers="min-max")

    def emit(name, extra, columns, rows, draw):
        """<name>.csv headed by a `# key=value` line per setting in `common` and
        `extra`, and with svg <name>.svg by draw(path)."""
        header = {**common, **extra}
        path = os.path.join(out_dir, name + ".csv")
        write_csv(path, columns, rows, [f"# {k}={header[k]}" for k in sorted(header)])
        written.append(path)
        if svg:
            path = os.path.join(out_dir, name + ".svg")
            draw(path)
            written.append(path)

    classifications = classify_scenes_tdbm(scenes, tdbm_config)
    features = [scene_features(s, tdbm_config) for s in scenes]

    counts = style_histogram(classifications)
    emit("style_histogram", {"classifier": "tdbm"}, ["style", "count"],
         [(label, counts[label]) for label in STYLE_LABELS],
         lambda p: svg_mod.write_bar_chart(p, list(STYLE_LABELS),
                                           [counts[l] for l in STYLE_LABELS],
                                           title="TDBM style distribution"))

    rows, omitted = kinematics_by_style(features, classifications, n_min)
    emit("kinematics_boxplots",
         {"n_min": n_min, "omitted": ";".join(f"{s}:{n}" for s, n in omitted) or "none"},
         ["metric", "style", "min", "q1", "median", "q3", "max", "n"],
         [(r.metric, r.style, r.min, r.q1, r.median, r.q3, r.max, r.n) for r in rows],
         lambda p: svg_mod.write_boxplots(p, rows, title="Kinematics by TDBM style"))

    if any(s.mdsi_label is not None for s in scenes):
        matrix, row_labels, col_labels, n_unl = mdsi_tdbm_heatmap(scenes, classifications)
        emit("mdsi_tdbm_heatmap", {"unlabeled_scenes": n_unl},
             ["mdsi_label"] + list(col_labels),
             [[row_labels[i]] + [int(v) for v in matrix[i]] for i in range(len(row_labels))],
             lambda p: svg_mod.write_heatmap(p, matrix, row_labels, col_labels,
                                             title="MDSI vs TDBM"))

    if kdsc_model is not None and kdsc_model.labels:
        scene_splits = [s.split for s in scenes]
        dist = cluster_speed_distribution(
            features, scene_splits, kdsc_model, splits=tuple(sorted(set(scene_splits)))
        )
        welch = dist["welch"]
        extra = {"bin_width": SPEED_BIN_WIDTH, "speed_range": "{:g}-{:g}".format(*SPEED_RANGE)}
        if welch is not None:
            extra.update(welch_t=welch.statistic, welch_df=welch.df, welch_p=welch.p_value)
        edges, hists = dist["edges"], dist["hists"]
        emit("cluster_speed_hist", extra, ["cluster", "split", "bin_lo", "bin_hi", "count"],
             [(label, split, float(edges[b]), float(edges[b + 1]), int(count))
              for label, split in sorted(hists) for b, count in enumerate(hists[label, split])],
             lambda p: svg_mod.write_split_histograms(p, dist,
                                                      title="Cluster mean-speed distribution"))

    return written
