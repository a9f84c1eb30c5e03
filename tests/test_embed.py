import numpy as np
import pytest

from style_lens import (
    EmbeddingBank,
    StyleIndex,
    TdbmConfig,
    bank_gradients,
    context_classify,
    extract_features,
    fit_kdsc,
    gen_cruise,
    lookup,
    style_index,
)
from style_lens.embed import HIGHWAY, NON_HIGHWAY
from style_lens.kdsc import assign
from style_lens.report import classify_scenes_tdbm
from style_lens.tdbm import STYLE_LABELS, _uniformize

from conftest import make_scene, make_traj


def tiny_bank():
    bank = EmbeddingBank.init(num_styles=2, K=2, D=1, seed=0)
    bank.e_k[0] = np.array([[2.0], [3.0]])
    bank.e_c[0] = np.array([[5.0], [7.0]])
    return bank


class TestLookup:
    def test_rank_one_table_arithmetic(self):
        bank = tiny_bank()
        table = bank.e_k[0] @ bank.e_c[0].T
        np.testing.assert_allclose(table, [[10.0, 14.0], [15.0, 21.0]])
        vec, scalar = lookup(bank, StyleIndex(z=0, k=1, c=1))
        np.testing.assert_allclose(vec, [21.0])
        assert scalar == 21.0

    def test_zero_context_row_annihilates(self):
        bank = tiny_bank()
        bank.e_c[0][0] = 0.0
        for k in range(2):
            vec, scalar = lookup(bank, StyleIndex(z=0, k=k, c=0))
            np.testing.assert_array_equal(vec, np.zeros(1))
            assert scalar == 0.0

    def test_scalar_matches_dot_product_oracle(self):
        bank = EmbeddingBank.init(num_styles=4, K=3, D=8, seed=5)
        for z in range(4):
            for k in range(3):
                for c in range(2):
                    _, scalar = lookup(bank, StyleIndex(z, k, c))
                    oracle = sum(
                        bank.e_k[z][k][d] * bank.e_c[z][c][d] for d in range(8)
                    )
                    assert scalar == pytest.approx(oracle, abs=1e-12)
                    table = bank.e_k[z] @ bank.e_c[z].T
                    assert scalar == pytest.approx(table[k, c], abs=1e-12)

    def test_out_of_range_index(self):
        bank = EmbeddingBank.init(num_styles=2, K=2, D=4)
        with pytest.raises(IndexError):
            lookup(bank, StyleIndex(z=2, k=0, c=0))
        with pytest.raises(IndexError):
            lookup(bank, StyleIndex(z=0, k=2, c=0))
        with pytest.raises(IndexError):
            lookup(bank, StyleIndex(z=0, k=0, c=2))

    def test_seeded_init_bit_identical(self):
        a = EmbeddingBank.init(num_styles=3, K=2, D=5, seed=42)
        b = EmbeddingBank.init(num_styles=3, K=2, D=5, seed=42)
        for z in range(3):
            np.testing.assert_array_equal(a.e_k[z], b.e_k[z])
            np.testing.assert_array_equal(a.e_c[z], b.e_c[z])

    def test_init_range(self):
        bank = EmbeddingBank.init(num_styles=6, K=3, D=16, seed=0)
        for z in range(6):
            assert np.all(np.abs(bank.e_k[z]) <= 0.1)
            assert np.all(np.abs(bank.e_c[z]) <= 0.1)

    def test_serialization_round_trip(self, tmp_path):
        bank = EmbeddingBank.init(num_styles=2, K=2, D=3, seed=9)
        path = tmp_path / "bank.json"
        bank.save(path)
        back = EmbeddingBank.load(path)
        assert (back.num_styles, back.K, back.D, back.seed) == (2, 2, 3, 9)
        for z in range(2):
            np.testing.assert_array_equal(back.e_k[z], bank.e_k[z])
            np.testing.assert_array_equal(back.e_c[z], bank.e_c[z])


class TestGradients:
    def test_ones_upstream_product_rule(self):
        bank = EmbeddingBank.init(num_styles=1, K=1, D=2, seed=0)
        bank.e_c[0][0] = np.array([3.0, 4.0])
        g_ek, g_ec = bank_gradients(bank, StyleIndex(0, 0, 0), np.ones(2))
        np.testing.assert_array_equal(g_ek, [3.0, 4.0])
        np.testing.assert_array_equal(g_ec, bank.e_k[0][0])

    def test_zero_upstream(self):
        bank = EmbeddingBank.init(num_styles=2, K=2, D=4, seed=1)
        g_ek, g_ec = bank_gradients(bank, StyleIndex(1, 1, 1), np.zeros(4))
        assert not g_ek.any() and not g_ec.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        step = 1e-5
        for _ in range(20):
            bank = EmbeddingBank.init(num_styles=2, K=2, D=4,
                                      seed=int(rng.integers(1 << 30)))
            idx = StyleIndex(int(rng.integers(2)), int(rng.integers(2)),
                             int(rng.integers(2)))
            upstream = rng.normal(size=4)
            g_ek, g_ec = bank_gradients(bank, idx, upstream)
            for row_attr, grad in (("e_k", g_ek), ("e_c", g_ec)):
                rows = getattr(bank, row_attr)[idx.z]
                r = idx.k if row_attr == "e_k" else idx.c
                for d in range(4):
                    orig = rows[r][d]
                    rows[r][d] = orig + step
                    up = float(upstream @ lookup(bank, idx)[0])
                    rows[r][d] = orig - step
                    dn = float(upstream @ lookup(bank, idx)[0])
                    rows[r][d] = orig
                    fd = (up - dn) / (2 * step)
                    assert abs(fd - grad[d]) <= 1e-4 * max(1.0, abs(fd))


class TestContextClassify:
    def test_flag_wins_over_speed(self):
        scene = make_scene("s", make_traj("f", np.arange(10.0)), highway=True)
        assert context_classify(scene) == HIGHWAY

    def test_fast_unflagged_is_highway(self):
        scene = make_scene("s", make_traj("f", 30.0 * np.arange(10.0)))
        assert context_classify(scene) == HIGHWAY

    def test_slow_unflagged_is_not(self):
        scene = make_scene("s", make_traj("f", 10.0 * np.arange(10.0)))
        assert context_classify(scene) == NON_HIGHWAY


class TestStyleIndex:
    def test_single_agent_highway_composition(self):
        scene = make_scene("s", make_traj("f", 5.0 * np.arange(10.0)), highway=True)
        idx = style_index(scene, TdbmConfig(), cluster_models={})
        # no neighbors forces the Threatening override; flag forces highway
        assert STYLE_LABELS[idx.z] == "threatening"
        assert idx.c == 1
        assert idx.k == 0  # no cluster model available

    def test_centroid_identity_for_k(self):
        pairs = gen_cruise(40, seed=3, mdsi_confusion=None)
        scenes = [s for s, _ in pairs]
        cfg = TdbmConfig()
        feats = [extract_features(_uniformize(s.focal, cfg.resample_dt))
                 for s in scenes]
        model = fit_kdsc(feats, k=2)
        z_all = classify_scenes_tdbm(scenes, cfg)
        z0 = STYLE_LABELS.index(z_all[0])
        idx = style_index(scenes[0], cfg, cluster_models={z0: model})
        assert idx.k == assign(model, feats[0])

    def test_composition_matches_independent_classifiers(self):
        pairs = gen_cruise(30, seed=11)
        scenes = [s for s, _ in pairs]
        cfg = TdbmConfig()
        feats = [extract_features(_uniformize(s.focal, cfg.resample_dt))
                 for s in scenes]
        model = fit_kdsc(feats, k=2)
        fallback = model
        got = [style_index(s, cfg, {}, fallback_model=fallback) for s in scenes]
        want_z = [STYLE_LABELS.index(lbl) for lbl in classify_scenes_tdbm(scenes, cfg)]
        want_k = [assign(model, f) for f in feats]
        want_c = [context_classify(s) for s in scenes]
        for idx, z, k, c in zip(got, want_z, want_k, want_c):
            assert (idx.z, idx.k, idx.c) == (z, k, c)
