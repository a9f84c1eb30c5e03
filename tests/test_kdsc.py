import tracemalloc

import numpy as np
import pytest

from style_lens import DEFAULT_SUBSET, FEATURE_NAMES, ClusterModel, assign, fit_kdsc, label_clusters
from style_lens.kdsc import ClusteringError, cut_partition, ward_linkage
from style_lens.kinematics import KinematicFeatures


def feat(**kw):
    vals = {n: 0.0 for n in FEATURE_NAMES}
    vals.update(kw)
    return KinematicFeatures(**vals)


def feats_from_matrix(mat, names=DEFAULT_SUBSET):
    return [feat(**dict(zip(names, row))) for row in np.atleast_2d(mat)]


# ---------------------------------------------------------------------------
# Brute-force Ward oracle: greedy merging that recomputes every pairwise
# merge cost from cluster centroids at each step, no Lance-Williams updates.

def brute_force_ward(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    clusters = {i: [i] for i in range(n)}
    next_id = n
    history = []
    for _ in range(n - 1):
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                ma, mb = clusters[a], clusters[b]
                ca = points[ma].mean(axis=0)
                cb = points[mb].mean(axis=0)
                # squared Ward distance: 2|A||B|/(|A|+|B|) * ||cA - cB||^2
                cost = (2.0 * len(ma) * len(mb) / (len(ma) + len(mb))
                        * float(np.sum((ca - cb) ** 2)))
                if best is None or cost < best[0]:
                    best = (cost, a, b)
        cost, a, b = best
        history.append((a, b, np.sqrt(cost)))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return history


# ---------------------------------------------------------------------------
# Reference Ward: the cubic implementation that ward_linkage replaced. It
# rescans the whole Lance-Williams matrix at every merge, so the cached
# row minima of ward_linkage must reproduce its history exactly, ties too.

def reference_ward(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    size = np.ones(n, dtype=float)
    cluster_id = np.arange(n)
    active = np.ones(n, dtype=bool)
    history = []
    next_id = n
    for _step in range(n - 1):
        dmin = d2.min()
        ti, tj = np.nonzero(d2 == dmin)
        pairs = sorted(
            (tuple(sorted((cluster_id[a], cluster_id[b]))), (a, b))
            for a, b in zip(ti, tj)
            if a < b
        )
        (ida, idb), (i, j) = pairs[0]
        dij = d2[i, j]
        history.append((int(ida), int(idb), float(np.sqrt(dij))))
        ni, nj = size[i], size[j]
        other = active.copy()
        other[[i, j]] = False
        nm = size[other]
        new = ((ni + nm) * d2[i, other] + (nj + nm) * d2[j, other] - nm * dij) / (
            ni + nj + nm
        )
        d2[i, other] = new
        d2[other, i] = new
        size[i] = ni + nj
        cluster_id[i] = next_id
        active[j] = False
        d2[j, :] = np.inf
        d2[:, j] = np.inf
        next_id += 1
    return history


def partition_sets(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def two_map_cut(history, n, k):
    """Flat labels after n-k merges, kept with a group map and an id map."""
    groups = {i: {i} for i in range(n)}
    id_to_group = {i: i for i in range(n)}
    for next_id, (a, b, _dist) in enumerate(history[: n - k], start=n):
        ga, gb = id_to_group.pop(a), id_to_group.pop(b)
        groups[ga] |= groups.pop(gb)
        id_to_group[next_id] = ga
    labels = np.empty(n, dtype=int)
    for cid, grp in enumerate(sorted(groups.values(), key=min)):
        labels[sorted(grp)] = cid
    return labels


class TestWardLinkage:
    def test_well_separated_blobs(self):
        pts = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])[:, None]
        history = ward_linkage(pts)
        labels = cut_partition(history, 6, 2)
        assert partition_sets(labels) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(15):
            pts = rng.normal(size=(n, 2))
            history = ward_linkage(pts)
            oracle = brute_force_ward(pts)
            assert len(history) == len(oracle) == n - 1
            for (a, b, d), (oa, ob, od) in zip(history, oracle):
                assert (a, b) == (oa, ob)
                assert d == pytest.approx(od, rel=1e-9)
            if n >= 2:
                got = cut_partition(history, n, 2)
                want = cut_partition(oracle, n, 2)
                assert partition_sets(got) == partition_sets(want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_equals_reference_on_random_data(self, d):
        rng = np.random.default_rng(200 + d)
        for n in range(2, 61):
            pts = rng.normal(size=(n, d))
            assert ward_linkage(pts) == reference_ward(pts)

    @pytest.mark.parametrize("n,d,levels", [
        (20, 1, 3), (40, 2, 3), (60, 3, 2), (150, 2, 4), (200, 4, 3),
    ])
    def test_equals_reference_on_integer_grid_ties(self, n, d, levels):
        rng = np.random.default_rng(n + d)
        for _trial in range(3):
            pts = rng.integers(0, levels, size=(n, d)).astype(float)
            assert ward_linkage(pts) == reference_ward(pts)

    @pytest.mark.parametrize("n,d", [(12, 1), (30, 2), (90, 3)])
    def test_equals_reference_on_duplicate_rows(self, n, d):
        rng = np.random.default_rng(7 * n + d)
        for _trial in range(3):
            base = rng.normal(size=(n // 3, d))
            pts = base[rng.integers(0, len(base), size=n)]
            assert ward_linkage(pts) == reference_ward(pts)

    def test_equals_reference_across_distance_blocks(self):
        pts = np.random.default_rng(31).normal(size=(200, 4))
        assert ward_linkage(pts) == reference_ward(pts)

    def test_identical_points_tie_rule(self):
        pts = np.zeros((4, 2))
        history = ward_linkage(pts)
        assert history == reference_ward(pts) == [(0, 1, 0.0), (2, 3, 0.0), (4, 5, 0.0)]
        assert partition_sets(cut_partition(history, 4, 2)) == {
            frozenset({0, 1}), frozenset({2, 3})
        }

    def test_heights_match_scipy_ward(self):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        pts = np.random.default_rng(17).normal(size=(300, 4))
        heights = [d for _, _, d in ward_linkage(pts)]
        np.testing.assert_allclose(heights, hierarchy.ward(pts)[:, 2], rtol=1e-9)

    def test_memory_stays_quadratic(self):
        n = 1500
        pts = np.random.default_rng(23).normal(size=(n, 4))
        tracemalloc.start()
        try:
            ward_linkage(pts)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n x n distance matrix is n*n*8 bytes; an n x n x d
        # difference tensor would add d times that
        assert peak < 2 * n * n * 8

    def test_merge_distances_monotone(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 3))
        history = ward_linkage(pts)
        dists = [d for _, _, d in history]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(dists, dists[1:]))

    def test_permutation_invariant_partition(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(12, 2))
        perm = rng.permutation(12)
        h1 = ward_linkage(pts)
        h2 = ward_linkage(pts[perm])
        p1 = partition_sets(cut_partition(h1, 12, 3))
        labels2 = cut_partition(h2, 12, 3)
        # map the permuted labels back to original indices
        p2 = partition_sets([labels2[np.where(perm == i)[0][0]] for i in range(12)])
        assert p1 == p2

    def test_cut_k_equals_n(self):
        pts = np.random.default_rng(1).normal(size=(5, 2))
        history = ward_linkage(pts)
        labels = cut_partition(history, 5, 5)
        assert sorted(labels) == [0, 1, 2, 3, 4]

    def test_cut_bad_k(self):
        with pytest.raises(ClusteringError):
            cut_partition([], 3, 0)

    @pytest.mark.parametrize("shape", ["chain", "random", "ward"])
    def test_cut_equals_two_map_reference(self, shape):
        """The one-map cut gives the labels of the old group/id-map cut."""
        n, rng = 300, np.random.default_rng(11)
        if shape == "ward":
            history = ward_linkage(rng.normal(size=(n, 2)))
        else:  # chain: each merge takes the last cluster; random: any two
            alive, history = list(range(n)), []
            for next_id in range(n, 2 * n - 1):
                picks = (alive[-1], alive[0]) if shape == "chain" else rng.choice(
                    alive, size=2, replace=False)
                a, b = sorted(int(p) for p in picks)
                alive = [c for c in alive if c not in (a, b)] + [next_id]
                history.append((a, b, 0.0))
        for k in (1, 2, 7, n):
            np.testing.assert_array_equal(cut_partition(history, n, k),
                                          two_map_cut(history, n, k))


class TestFitKdsc:
    def test_blob_recovery_and_centroids(self):
        rng = np.random.default_rng(0)
        lo = rng.normal(0.0, 0.05, size=(20, 4))
        hi = rng.normal(3.0, 0.05, size=(20, 4))
        feats = feats_from_matrix(np.vstack([lo, hi]))
        model = fit_kdsc(feats, k=2)
        assert partition_sets(model.train_assignments) == {
            frozenset(range(20)), frozenset(range(20, 40))
        }
        assert model.centroids.shape == (2, 4)

    def test_affine_feature_rescaling_invariant(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(25, 4))
        scale = np.array([100.0, 0.01, 3.0, 7.0])
        shift = np.array([5.0, -2.0, 0.0, 44.0])
        m1 = fit_kdsc(feats_from_matrix(raw), k=3)
        m2 = fit_kdsc(feats_from_matrix(raw * scale + shift), k=3)
        np.testing.assert_array_equal(m1.train_assignments, m2.train_assignments)

    def test_too_few_points(self):
        with pytest.raises(ClusteringError):
            fit_kdsc(feats_from_matrix(np.zeros((1, 4))), k=2)

    def test_constant_feature_noted(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(10, 4))
        mat[:, 2] = 7.0
        model = fit_kdsc(feats_from_matrix(mat), k=2)
        assert model.metadata["constant_features"] == [DEFAULT_SUBSET[2]]

    def test_non_finite_rejected(self):
        mat = np.zeros((4, 4))
        mat[1, 1] = np.inf
        with pytest.raises(ClusteringError):
            fit_kdsc(feats_from_matrix(mat), k=2)

    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        feats = feats_from_matrix(rng.normal(size=(12, 4)))
        model = label_clusters(fit_kdsc(feats, k=2), feats)
        path = tmp_path / "model.json"
        model.save(path)
        back = ClusterModel.load(path)
        assert back.feature_names == model.feature_names
        assert back.labels == model.labels
        assert back.merge_history == model.merge_history
        np.testing.assert_array_equal(back.centroids, model.centroids)
        np.testing.assert_array_equal(back.train_assignments, model.train_assignments)

    @pytest.mark.parametrize("subset", [(), ("bogus",), ("gamma", "gamma"),
                                        ("gamma", "var_speed", "gamma")])
    def test_bad_subset_names_the_features(self, subset):
        feats = feats_from_matrix(np.random.default_rng(4).normal(size=(6, 4)))
        with pytest.raises(ClusteringError, match=r"distinct features from mean_speed, "):
            fit_kdsc(feats, k=2, feature_subset=subset)

    @pytest.mark.parametrize("key,value,error", [
        ("feature_names", ["bogus", "gamma"], r"feature subset \['bogus', 'gamma'\]"),
        ("feature_names", ["gamma", "gamma"], r"feature subset \['gamma', 'gamma'\]"),
        ("mean", [0.0], r"mean has shape \(1,\), expected \(2,\)"),
        ("std", [1.0, 0.0], r"std must be > 0"),
        ("std", [1.0, float("nan")], r"std must be > 0"),
        ("centroids", [[0.0, 0.0]], r"centroids has shape \(1, 2\), expected \(2, 2\)"),
        ("centroids", [[0.0], [0.0]], r"centroids has shape \(2, 1\), expected \(2, 2\)"),
        ("labels", {"2": "aggressive"}, r"label ids must lie in \[0, 2\), not \[2\]"),
        ("train_assignments", [0, 1, -1], r"train_assignments must lie in \[0, 2\), not \[-1\]"),
    ])
    def test_from_dict_checks_arrays_and_ids(self, key, value, error):
        good = ClusterModel(feature_names=("gamma", "var_speed"), mean=np.zeros(2),
                            std=np.ones(2), merge_history=(), k=2, centroids=np.eye(2),
                            labels={0: "normal", 1: "aggressive"},
                            train_assignments=np.array([0, 1, 1])).to_dict()
        assert ClusterModel.from_dict(good).to_dict() == good
        with pytest.raises(ValueError, match=error):  # ClusteringError is a ValueError
            ClusterModel.from_dict(dict(good, **{key: value}))


class TestLabeling:
    def _two_blob_model(self, accel_scale_hi=3.0):
        rng = np.random.default_rng(2)
        lo = np.abs(rng.normal(1.0, 0.05, size=(10, 4)))
        hi = np.abs(rng.normal(1.0, 0.05, size=(10, 4)))
        hi[:, 0] *= accel_scale_hi  # max_abs_accel is the first subset feature
        hi[:, 1] += 5.0
        feats = feats_from_matrix(np.vstack([lo, hi]))
        return fit_kdsc(feats, k=2), feats

    def test_high_accel_blob_labeled_aggressive(self):
        model, feats = self._two_blob_model()
        labeled = label_clusters(model, feats)
        acc = np.array([f.max_abs_accel for f in feats])
        agg_id = next(c for c, lab in labeled.labels.items() if lab == "aggressive")
        nrm_id = 1 - agg_id
        assert (acc[labeled.train_assignments == agg_id].mean()
                > acc[labeled.train_assignments == nrm_id].mean())
        assert set(labeled.labels.values()) == {"aggressive", "normal"}

    def test_exact_tie_goes_to_cluster_zero(self):
        # same max_abs_accel everywhere, clusters split on var_accel
        mat = np.zeros((6, 4))
        mat[:, 0] = 1.0
        mat[3:, 1] = 9.0
        feats = feats_from_matrix(mat)
        labeled = label_clusters(fit_kdsc(feats, k=2), feats)
        assert labeled.labels[0] == "aggressive"
        assert labeled.metadata.get("label_tie") is True

    def test_k3_model_rejected(self):
        rng = np.random.default_rng(6)
        feats = feats_from_matrix(rng.normal(size=(9, 4)))
        with pytest.raises(ClusteringError):
            label_clusters(fit_kdsc(feats, k=3), feats)


class TestAssign:
    def test_unstandardized_centroid_maps_to_itself(self):
        rng = np.random.default_rng(7)
        feats = feats_from_matrix(rng.normal(size=(10, 4)))
        model = fit_kdsc(feats, k=2)
        for cid in range(2):
            raw = model.centroids[cid] * model.std + model.mean
            assert assign(model, feats_from_matrix(raw)[0]) == cid

    def test_equidistant_tie_lower_index(self):
        model = ClusterModel(
            feature_names=("max_abs_accel",),
            mean=np.zeros(1),
            std=np.ones(1),
            merge_history=(),
            k=2,
            centroids=np.array([[-1.0], [1.0]]),
        )
        assert assign(model, feat(max_abs_accel=0.0)) == 0

    def test_self_consistency_on_separated_blobs(self):
        rng = np.random.default_rng(12)
        lo = rng.normal(0.0, 0.1, size=(40, 4))
        hi = rng.normal(4.0, 0.1, size=(40, 4))
        feats = feats_from_matrix(np.vstack([lo, hi]))
        model = fit_kdsc(feats, k=2)
        agree = np.mean([
            assign(model, f) == model.train_assignments[i]
            for i, f in enumerate(feats)
        ])
        assert agree >= 0.95
