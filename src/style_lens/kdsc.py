"""Kinematic-based driving style clustering: z-scoring, Ward agglomeration,
cluster labeling, and nearest-centroid assignment.

Ward agglomeration (`ward_linkage`) is the generic greedy algorithm with
Lance-Williams updates and a cached nearest neighbour per row. It always
merges the closest pair, breaking exact ties toward the smallest cluster-id
pair. It takes O(n^2) memory and typically O(n^2) time, O(n^3) in the worst
case."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .kinematics import FEATURE_NAMES, KinematicFeatures
from .traj import StyleLensError, read_json, shaped, write_json

DEFAULT_SUBSET = ("max_abs_accel", "var_accel", "var_speed", "gamma")
STD_FLOOR = 1e-12
_D2_BLOCK_ROWS = 64   # rows of the initial distance matrix built per block


class ClusteringError(StyleLensError):
    pass


@dataclass(frozen=True)
class ClusterModel:
    feature_names: tuple
    mean: np.ndarray          # per-feature standardization mean
    std: np.ndarray           # per-feature standardization std (floored)
    merge_history: tuple      # (cluster_a, cluster_b, linkage_distance), scipy-style ids
    k: int
    centroids: np.ndarray     # k x d, standardized space
    labels: dict = field(default_factory=dict)   # cluster id -> semantic label
    train_assignments: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "merge_history": [[int(a), int(b), float(d)] for a, b, d in self.merge_history],
            "k": self.k,
            "centroids": self.centroids.tolist(),
            "labels": {str(cid): lab for cid, lab in self.labels.items()},
            "train_assignments": None
            if self.train_assignments is None
            else self.train_assignments.tolist(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClusterModel":
        names, k = check_subset(d["feature_names"]), int(d["k"])
        std = shaped("std", d["std"], (len(names),))
        if not np.all(std > 0):
            raise ClusteringError(f"std must be > 0, got {std.tolist()}")
        labels = {int(cid): lab for cid, lab in d.get("labels", {}).items()}
        assigned = d.get("train_assignments")
        assigned = None if assigned is None else np.asarray(assigned, dtype=int)
        for what, ids in (("label ids", list(labels)), ("train_assignments", assigned)):
            ids = np.asarray([] if ids is None else ids, dtype=int)
            bad = ids[(ids < 0) | (ids >= k)]
            if bad.size:
                raise ClusteringError(f"{what} must lie in [0, {k}), not {bad.tolist()}")
        return cls(
            feature_names=names,
            mean=shaped("mean", d["mean"], (len(names),)),
            std=std,
            merge_history=tuple((int(a), int(b), float(x)) for a, b, x in d["merge_history"]),
            k=k,
            centroids=shaped("centroids", d["centroids"], (k, len(names))),
            labels=labels,
            train_assignments=assigned,
            metadata=d.get("metadata", {}),
        )

    def save(self, path) -> None:
        write_json(path, self.to_dict(), indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ClusterModel":
        return read_json(path, cls.from_dict)


def ward_linkage(points: np.ndarray) -> list:
    """Full Ward dendrogram over the rows of `points`.

    Returns the merge history: a list of (id_a, id_b, distance) with
    scipy-style cluster ids (leaf i has id i, the cluster made by merge step
    s gets id n + s) and id_a < id_b.

    Each step merges the pair with the smallest Ward distance. Among pairs at
    exactly that distance it takes the smallest (id_a, id_b), so the
    dendrogram is deterministic, also for duplicate points.

    Generic algorithm with a cached nearest neighbour per row (Anderberg;
    Muellner 2011, arXiv:1109.2378): squared distances live in a symmetric
    n x n matrix updated in place by Lance-Williams, and every row caches a
    minimum and the column holding it. A cached minimum is always a value in
    its row, though it may exceed the row's true minimum. Every pair's
    distance is at least the cached minimum of one of its two rows, because
    the row of the newer cluster was rescanned when the pair got its value.
    So the smallest cached minimum is the global one, and every pair at that
    distance lies in a row whose cached minimum equals it. After a merge only
    the merged row and the rows whose cached column was one of the two merged
    slots are rescanned. The merge order, and every distance, is the one a
    full rescan of the matrix at each step would give. Cost: O(n^2) memory,
    typically O(n^2) time, O(n^3) in the worst case, when most rows must be
    rescanned at every step.
    """
    n = len(points)
    if n == 0:
        return []
    # squared Ward distances of singletons, built a block of rows at a time
    # so no n x n x d difference tensor is ever held
    d2 = np.empty((n, n))
    for s in range(0, n, _D2_BLOCK_ROWS):
        diff = points[s:s + _D2_BLOCK_ROWS, None, :] - points[None, :, :]
        d2[s:s + _D2_BLOCK_ROWS] = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)

    size = np.ones(n, dtype=float)
    cluster_id = np.arange(n)     # slot -> current cluster id
    rowmin = d2.min(axis=1)
    argmin = d2.argmin(axis=1)    # the column where each row attains rowmin
    history = []

    for next_id in range(n, 2 * n - 1):
        dmin = rowmin.min()
        # ties (exact equality) go to the smallest cluster-id pair
        best = None
        for r in np.flatnonzero(rowmin == dmin):
            for c in np.flatnonzero(d2[r] == dmin):
                ids = tuple(sorted((cluster_id[r], cluster_id[c])))
                if best is None or ids < best[0]:
                    best = (ids, min(r, c), max(r, c))
        (ida, idb), i, j = best
        dij = d2[i, j]
        history.append((int(ida), int(idb), float(np.sqrt(dij))))

        # Lance-Williams over whole rows: inactive columns, i and j are inf in
        # d2[i] or d2[j], so they come out inf again
        ni, nj = size[i], size[j]
        new = ((ni + size) * d2[i] + (nj + size) * d2[j] - size * dij) / (
            ni + nj + size
        )
        d2[i] = new
        d2[:, i] = new
        d2[j] = np.inf
        d2[:, j] = np.inf
        size[i] = ni + nj
        cluster_id[i] = next_id

        stale = (argmin == i) | (argmin == j)
        stale[i] = True
        stale[j] = False
        rows = np.flatnonzero(stale)
        argmin[rows] = d2[rows].argmin(axis=1)
        rowmin[rows] = d2[rows, argmin[rows]]
        # slot j is retired: it must never again look stale
        rowmin[j] = np.inf
        argmin[j] = j

    return history


def cut_partition(history, n: int, k: int) -> np.ndarray:
    """Flat labels (0..k-1) after the first n-k merges, clusters numbered by
    smallest member index."""
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} out of range for n={n}")
    leaves = {i: [i] for i in range(n)}   # cluster id -> its leaves
    for next_id, (a, b, _dist) in enumerate(history[: n - k], start=n):
        kept, other = leaves.pop(a), leaves.pop(b)
        if len(kept) < len(other):
            kept, other = other, kept
        kept.extend(other)
        leaves[next_id] = kept
    labels = np.empty(n, dtype=int)
    for cid, members in enumerate(sorted(leaves.values(), key=min)):
        labels[members] = cid
    return labels


def check_subset(names) -> tuple:
    """names as a tuple, else ClusteringError: a feature subset is non-empty,
    and names each of its features, all from FEATURE_NAMES, once."""
    names = tuple(names)
    if not names or len(set(names)) < len(names) or not set(names) <= set(FEATURE_NAMES):
        raise ClusteringError(f"feature subset {list(names)} must name one or more distinct "
                              f"features from {', '.join(FEATURE_NAMES)}")
    return names


def fit_kdsc(
    features: Sequence[KinematicFeatures],
    k: int = 2,
    feature_subset=DEFAULT_SUBSET,
) -> ClusterModel:
    """Fit the style-clustering model: z-score, Ward-agglomerate, cut at k."""
    names = check_subset(feature_subset)
    n = len(features)
    if n < k:
        raise ClusteringError(f"need at least k={k} points, got {n}")
    raw = np.array([f.as_array(names) for f in features])
    if not np.all(np.isfinite(raw)):
        raise ClusteringError("non-finite feature values")

    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    metadata = {}
    constant = [names[i] for i in range(len(names)) if std[i] < STD_FLOOR]
    if constant:
        metadata["constant_features"] = constant
    std = np.maximum(std, STD_FLOOR)
    z = (raw - mean) / std

    history = ward_linkage(z)
    assignments = cut_partition(history, n, k)
    centroids = np.array([z[assignments == c].mean(axis=0) for c in range(k)])

    return ClusterModel(
        feature_names=names,
        mean=mean,
        std=std,
        merge_history=tuple(history),
        k=k,
        centroids=centroids,
        labels={},
        train_assignments=assignments,
        metadata=metadata,
    )


def label_clusters(model: ClusterModel, features: Sequence[KinematicFeatures]) -> ClusterModel:
    """Label the k=2 clusters aggressive/normal by mean max_abs_accel."""
    if model.k != 2:
        raise ClusteringError(f"semantic labels defined only for k=2, model has k={model.k}")
    if model.train_assignments is None or len(features) != len(model.train_assignments):
        raise ClusteringError("features must match the fitted corpus")
    acc = np.array([f.max_abs_accel for f in features], dtype=float)
    means = [acc[model.train_assignments == c].mean() for c in (0, 1)]
    metadata = dict(model.metadata)
    if means[0] == means[1]:
        aggressive = 0
        metadata["label_tie"] = True
    else:
        aggressive = int(np.argmax(means))
    labels = {aggressive: "aggressive", 1 - aggressive: "normal"}
    return replace(model, labels=labels, metadata=metadata)


def assign(model: ClusterModel, f: KinematicFeatures) -> int:
    """Nearest-centroid cluster id for a new point; ties to the lower index."""
    x = f.as_array(model.feature_names)
    if not np.all(np.isfinite(x)):
        raise ClusteringError("non-finite feature values")
    z = model.standardize(x)
    dist = np.linalg.norm(model.centroids - z, axis=1)
    return int(np.argmin(dist))
