import filecmp

import numpy as np
import pytest

from style_lens import TdbmConfig, fit_kdsc, gen_cruise, run_report
from style_lens.kdsc import label_clusters
from style_lens.report import (
    ReportError,
    classify_scenes_tdbm,
    cluster_speed_distribution,
    kinematics_by_style,
    mdsi_tdbm_heatmap,
    scene_features,
    style_histogram,
)
from style_lens.tdbm import STYLE_LABELS

from conftest import make_scene, make_traj


def single_agent_scenes(n, speed=5.0, split="train"):
    return [
        make_scene(f"s{i}", make_traj("f", speed * np.arange(12.0)), split=split)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def cruise_corpus():
    pairs = gen_cruise(80, seed=21)
    return [s for s, _ in pairs], [lab for _, lab in pairs]


def features_of(scenes):
    return [scene_features(s, TdbmConfig()) for s in scenes]


def splits_of(scenes):
    return [s.split for s in scenes]


@pytest.fixture(scope="module")
def cruise_model(cruise_corpus):
    scenes, _ = cruise_corpus
    feats = features_of(scenes)
    return label_clusters(fit_kdsc(feats, k=2), feats)


class TestStyleHistogram:
    def test_single_agent_scenes_all_threatening(self):
        counts = style_histogram(classify_scenes_tdbm(single_agent_scenes(10), TdbmConfig()))
        assert counts["threatening"] == 10
        assert all(counts[lbl] == 0 for lbl in STYLE_LABELS if lbl != "threatening")

    def test_counts_sum_to_scene_count(self, cruise_corpus):
        scenes, _ = cruise_corpus
        counts = style_histogram(classify_scenes_tdbm(scenes, TdbmConfig()))
        assert sum(counts.values()) == len(scenes)

    def test_empty_corpus_errors(self):
        with pytest.raises(ReportError):
            style_histogram([])


class TestKinematicsByStyle:
    def test_identical_scenes_degenerate_summary(self):
        feats = features_of(single_agent_scenes(6))
        rows, omitted = kinematics_by_style(feats, ["threatening"] * 6)
        assert omitted == []
        for r in rows:
            assert r.min == r.q1 == r.median == r.q3 == r.max
            assert r.n == 6

    def test_small_style_omitted(self):
        feats = features_of(single_agent_scenes(8))
        styles = ["threatening"] * 5 + ["careful"] * 3
        rows, omitted = kinematics_by_style(feats, styles, n_min=5)
        assert omitted == [("careful", 3)]
        assert {r.style for r in rows} == {"threatening"}

    def test_styles_ordered_ordinally(self, cruise_corpus):
        scenes, _ = cruise_corpus
        styles = classify_scenes_tdbm(scenes, TdbmConfig())
        rows, _ = kinematics_by_style(features_of(scenes), styles, n_min=1)
        seen = []
        for r in rows:
            if r.style not in seen:
                seen.append(r.style)
        known = [s for s in seen if s in STYLE_LABELS]
        assert known == [s for s in STYLE_LABELS if s in known]


class TestHeatmap:
    def test_single_cell_tally(self):
        scenes = [
            make_scene(f"s{i}", make_traj("f", 5.0 * np.arange(12.0)),
                       mdsi_label="patient")
            for i in range(3)
        ]
        cls = classify_scenes_tdbm(scenes, TdbmConfig())
        assert cls == ["threatening"] * 3  # single agents, no-neighbor override
        matrix, row_labels, col_labels, n_unl = mdsi_tdbm_heatmap(scenes, cls)
        assert row_labels == ["patient"]
        assert matrix[0, col_labels.index("threatening")] == 3
        assert matrix.sum() == 3
        assert n_unl == 0

    def test_conservation_and_order_invariance(self, cruise_corpus):
        scenes, _ = cruise_corpus
        cls = classify_scenes_tdbm(scenes, TdbmConfig())
        m1, rl, _, n_unl = mdsi_tdbm_heatmap(scenes, cls)
        labeled = sum(1 for s in scenes if s.mdsi_label is not None)
        assert m1.sum() == labeled
        assert n_unl == len(scenes) - labeled
        perm = np.random.default_rng(0).permutation(len(scenes))
        m2, rl2, _, _ = mdsi_tdbm_heatmap(
            [scenes[i] for i in perm], [cls[i] for i in perm]
        )
        assert rl == rl2
        np.testing.assert_array_equal(m1, m2)

    def test_unlabeled_corpus_errors(self):
        scenes = single_agent_scenes(4)
        with pytest.raises(ReportError):
            mdsi_tdbm_heatmap(scenes, ["threatening"] * 4)


class TestClusterSpeedDistribution:
    def test_histograms_conserve_counts(self, cruise_corpus, cruise_model):
        scenes, _ = cruise_corpus
        dist = cluster_speed_distribution(features_of(scenes), splits_of(scenes),
                                          cruise_model, splits=("train", "test"))
        for split in ("train", "test"):
            total = sum(dist["hists"][(lab, split)].sum()
                        for lab in cruise_model.labels.values())
            assert total == sum(1 for s in scenes if s.split == split)

    def test_clusters_separate_in_speed(self, cruise_corpus, cruise_model):
        # speed is not a clustering feature, yet the clusters differ in it
        scenes, _ = cruise_corpus
        assert "mean_speed" not in cruise_model.feature_names
        dist = cluster_speed_distribution(features_of(scenes), splits_of(scenes),
                                          cruise_model, splits=("train", "test"))
        assert dist["welch"] is not None
        assert dist["welch"].p_value < 0.01

    def test_single_cluster_leaves_other_zero(self, cruise_model):
        # all scenes slow and smooth: everything lands in one cluster
        scenes = single_agent_scenes(6)
        dist = cluster_speed_distribution(features_of(scenes), splits_of(scenes),
                                          cruise_model, splits=("train",))
        hists = dist["hists"]
        totals = {lab: hists[(lab, "train")].sum()
                  for lab in cruise_model.labels.values()}
        assert sorted(totals.values()) == [0, 6]

    def test_missing_split_errors(self, cruise_model):
        scenes = single_agent_scenes(4, split="train")
        with pytest.raises(ReportError, match="test"):
            cluster_speed_distribution(features_of(scenes), splits_of(scenes),
                                       cruise_model, splits=("train", "test"))

    def test_unlabeled_model_errors(self, cruise_corpus, cruise_model):
        scenes, _ = cruise_corpus
        feats = features_of(scenes)
        bare = fit_kdsc(feats, k=2)
        with pytest.raises(ReportError):
            cluster_speed_distribution(feats, splits_of(scenes), bare)


class TestRunReport:
    def test_emits_expected_files(self, tmp_path, cruise_corpus, cruise_model):
        scenes, _ = cruise_corpus
        written = run_report(scenes, tmp_path / "r", kdsc_model=cruise_model, svg=True)
        names = {p.split("/")[-1] for p in written}
        assert {
            "style_histogram.csv", "kinematics_boxplots.csv",
            "mdsi_tdbm_heatmap.csv", "cluster_speed_hist.csv",
            "style_histogram.svg", "kinematics_boxplots.svg",
            "mdsi_tdbm_heatmap.svg", "cluster_speed_hist.svg",
        } <= names

    def test_byte_identical_across_runs(self, tmp_path, cruise_corpus, cruise_model):
        scenes, _ = cruise_corpus
        a = run_report(scenes, tmp_path / "a", kdsc_model=cruise_model, svg=True)
        b = run_report(scenes, tmp_path / "b", kdsc_model=cruise_model, svg=True)
        for pa, pb in zip(a, b):
            assert filecmp.cmp(pa, pb, shallow=False), pa

    def test_header_block_carries_config(self, tmp_path, cruise_corpus):
        scenes, _ = cruise_corpus
        run_report(scenes, tmp_path / "r")
        text = (tmp_path / "r" / "style_histogram.csv").read_text()
        header = [l for l in text.splitlines() if l.startswith("# ")]
        keys = {l[2:].split("=", 1)[0] for l in header}
        assert {"v_ref", "d_ref", "w_ref", "j_ref", "gamma_definition",
                "quantile_method", "whiskers"} <= keys
        assert any("rms-jerk-of-speed/v_peak" in l for l in header)

    def test_omission_note_in_header(self, tmp_path):
        scenes = single_agent_scenes(3)
        run_report(scenes, tmp_path / "r", n_min=5)
        text = (tmp_path / "r" / "kinematics_boxplots.csv").read_text()
        assert "# omitted=threatening:3" in text
