import numpy as np
import pytest

from style_lens import (
    EmbeddingBank,
    Forecast,
    ForecastModel,
    StyleIndex,
    TrainingExample,
    evaluate,
    examples_from_scenes,
    gen_yellow_light,
    lookup,
    predict,
    train,
    wta_loss,
)
from style_lens.forecast import BATCH_SIZE, ForecastError, _softmax

from conftest import make_scene, make_traj


def forward_oracle(model, history, style_vec):
    """Plain-loop reimplementation of the forward pass."""
    x = [model.input_scale * v for v in np.asarray(history).reshape(-1)]
    u = []
    for i in range(model.hidden):
        s = model.b1[i]
        for j in range(2 * model.H):
            s += model.W1[i, j] * x[j]
        if model.fusion == "early":
            for d in range(model.D):
                s += model.P[i, d] * style_vec[d]
        u.append(s)
    h = [np.tanh(v) for v in u]
    dvec = list(h)
    if model.fusion == "late":
        for i in range(model.hidden):
            for d in range(model.D):
                dvec[i] += model.P[i, d] * style_vec[d]
    traj = np.empty((model.M, 2 * model.T))
    for m in range(model.M):
        for o in range(2 * model.T):
            s = model.b2[m, o]
            for i in range(model.hidden):
                s += model.W2[m, o, i] * dvec[i]
            traj[m, o] = s
    logits = np.empty(model.M)
    for m in range(model.M):
        s = model.b3[m]
        for i in range(model.hidden):
            s += model.W3[m, i] * dvec[i]
        logits[m] = s
    e = np.exp(logits - logits.max())
    return traj.reshape(model.M, model.T, 2), e / e.sum()


def zeroed(model):
    for name in ("W1", "b1", "P", "W2", "b2", "W3", "b3"):
        getattr(model, name)[:] = 0.0
    return model


class TestForward:
    def test_zero_weights_zero_modes_uniform_probs(self):
        model = zeroed(ForecastModel.init(H=4, T=3, M=5, hidden=6, D=2))
        fc = predict(model, np.zeros((4, 2)))
        np.testing.assert_array_equal(fc.modes, np.zeros((5, 3, 2)))
        np.testing.assert_allclose(fc.probs, np.full(5, 0.2))

    def test_zero_style_vector_matches_fusion_none(self):
        m_none = ForecastModel.init(H=4, T=3, M=2, hidden=8, D=4, fusion="none", seed=3)
        m_early = ForecastModel.init(H=4, T=3, M=2, hidden=8, D=4, fusion="early", seed=3)
        m_late = ForecastModel.init(H=4, T=3, M=2, hidden=8, D=4, fusion="late", seed=3)
        hist = np.random.default_rng(0).normal(size=(4, 2))
        base = predict(m_none, hist)
        for m in (m_early, m_late):
            fc = predict(m, hist, np.zeros(4))
            np.testing.assert_array_equal(fc.modes, base.modes)
            np.testing.assert_array_equal(fc.probs, base.probs)

    @pytest.mark.parametrize("fusion", ["none", "early", "late"])
    def test_matches_loop_oracle(self, fusion):
        rng = np.random.default_rng(21)
        model = ForecastModel.init(H=5, T=4, M=3, hidden=7, D=6, fusion=fusion,
                                   seed=int(rng.integers(1 << 30)))
        hist = rng.normal(size=(5, 2))
        style = rng.normal(size=6)
        fc = predict(model, hist, None if fusion == "none" else style)
        modes_o, probs_o = forward_oracle(
            model, hist, np.zeros(6) if fusion == "none" else style
        )
        np.testing.assert_allclose(fc.modes, modes_o, atol=1e-9)
        np.testing.assert_allclose(fc.probs, probs_o, atol=1e-9)

    def test_bad_history_shape(self):
        model = ForecastModel.init(H=4, T=3, M=2)
        with pytest.raises(ForecastError):
            predict(model, np.zeros((5, 2)))

    def test_fusion_requires_style_vector(self):
        model = ForecastModel.init(H=4, T=3, M=2, fusion="early")
        with pytest.raises(ForecastError):
            predict(model, np.zeros((4, 2)))

    def test_bad_fusion_name(self):
        with pytest.raises(ForecastError):
            ForecastModel.init(fusion="both")

    @pytest.mark.parametrize("dims,named", [
        ({"hidden": 10**12}, r"^W1 \(1000000000000, 16\), b1 \(1000000000000,\)"),
        ({"M": 10**6, "T": 10**6}, r"W2 \(1000000, 2000000, 64\)"),
        ({"D": 10**12}, r"P \(64, 1000000000000\)"),
    ])
    def test_init_past_one_gib_names_the_sizes(self, dims, named):
        """The check runs before anything is allocated, so 10**12 fails at once."""
        with pytest.raises(ForecastError, match=named + r".* floats, more than 134217728"):
            ForecastModel.init(**dims)

    def test_bank_init_past_one_gib_names_the_sizes(self):
        with pytest.raises(ForecastError, match=r"^e_k \(6, 3, 1000000000000\), e_c \(6, 2, "
                                                r"1000000000000\) would hold 30000000000000 "):
            EmbeddingBank.init(D=10**12)


class TestWtaLoss:
    def test_exact_match_zero_loss(self):
        gt = np.array([[1.0, 0.0], [2.0, 0.0]])
        fc = Forecast(modes=np.stack([gt, gt + 10.0]),
                      probs=np.array([1.0, 0.0]))
        loss, g_modes, g_logits, best = wta_loss(fc, gt)
        assert loss == 0.0
        assert best == 0
        np.testing.assert_array_equal(g_modes, np.zeros_like(fc.modes))

    def test_tie_goes_to_lower_index(self):
        gt = np.zeros((2, 2))
        mode = np.ones((2, 2))
        fc = Forecast(modes=np.stack([mode, mode]), probs=np.array([0.5, 0.5]))
        _, _, _, best = wta_loss(fc, gt)
        assert best == 0

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        step = 1e-5
        for _ in range(30):
            M, T = 3, 4
            modes = rng.normal(size=(M, T, 2))
            logits = rng.normal(size=M)
            gt = rng.normal(size=(T, 2))

            def loss_fn(modes, logits):
                fc = Forecast(modes=modes, probs=_softmax(logits))
                return wta_loss(fc, gt)[0]

            fc = Forecast(modes=modes, probs=_softmax(logits))
            _, g_modes, g_logits, _ = wta_loss(fc, gt)
            flat = modes.reshape(-1)
            g_flat = g_modes.reshape(-1)
            for i in range(len(flat)):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_fn(modes, logits)
                flat[i] = orig - step
                dn = loss_fn(modes, logits)
                flat[i] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - g_flat[i]) <= 1e-4 * max(1.0, abs(fd))
            for i in range(M):
                orig = logits[i]
                logits[i] = orig + step
                up = loss_fn(modes, logits)
                logits[i] = orig - step
                dn = loss_fn(modes, logits)
                logits[i] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - g_logits[i]) <= 1e-4 * max(1.0, abs(fd))

    def test_bad_gt_shape(self):
        fc = Forecast(modes=np.zeros((2, 3, 2)), probs=np.array([0.5, 0.5]))
        with pytest.raises(ForecastError):
            wta_loss(fc, np.zeros((4, 2)))


class TestTraining:
    def test_memorizes_single_example(self):
        rng = np.random.default_rng(1)
        ex = TrainingExample(history=rng.normal(size=(4, 2)),
                             future=rng.normal(size=(3, 2)))
        model = ForecastModel.init(H=4, T=3, M=1, hidden=16, D=2, seed=0)
        model, _, losses = train([ex], model, None, epochs=800, lr=0.05, seed=0)
        assert losses[-1] < 1e-3

    def test_same_seed_bit_identical(self):
        pairs = gen_yellow_light(20, seed=2)
        scenes = [s for s, _ in pairs]
        examples, _ = examples_from_scenes(scenes, 8, 12)

        def run():
            model = ForecastModel.init(H=8, T=12, M=2, hidden=8, D=2, seed=4)
            return train(examples, model, None, epochs=3, lr=0.01, seed=4)[0]

        a, b = run(), run()
        for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_fusion_requires_bank(self):
        model = ForecastModel.init(H=4, T=3, M=1, fusion="early")
        with pytest.raises(ForecastError):
            train([], model, None, epochs=1)

    def test_bank_rows_only_touched_indices_move(self):
        rng = np.random.default_rng(6)
        ex = TrainingExample(history=rng.normal(size=(4, 2)),
                             future=rng.normal(size=(3, 2)),
                             index=StyleIndex(z=1, k=0, c=1))
        model = ForecastModel.init(H=4, T=3, M=1, hidden=4, D=2, fusion="early", seed=0)
        bank = EmbeddingBank.init(num_styles=3, K=2, D=2, seed=0)
        before_ek = [b.copy() for b in bank.e_k]
        before_ec = [b.copy() for b in bank.e_c]
        train([ex], model, bank, epochs=1, lr=0.1, seed=0)
        for z in range(3):
            for k in range(2):
                moved = not np.array_equal(bank.e_k[z][k], before_ek[z][k])
                assert moved == (z == 1 and k == 0)
            for c in range(2):
                moved = not np.array_equal(bank.e_c[z][c], before_ec[z][c])
                assert moved == (z == 1 and c == 1)

    def test_model_round_trip(self, tmp_path):
        model = ForecastModel.init(H=4, T=3, M=2, hidden=5, D=3, fusion="late", seed=8)
        path = tmp_path / "model.json"
        model.save(path)
        back = ForecastModel.load(path)
        assert back.fusion == "late"
        assert back.input_scale == model.input_scale
        for name in ("W1", "b1", "P", "W2", "b2", "W3", "b3"):
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))


def random_batch(fusion, n, seed):
    """A small model, a bank (None without fusion) and n examples whose bank
    indices repeat, so several examples share factor rows."""
    rng = np.random.default_rng(seed)
    model = ForecastModel.init(H=3, T=2, M=2, hidden=4, D=3, fusion=fusion, seed=seed)
    bank = None if fusion == "none" else EmbeddingBank.init(num_styles=2, K=2, D=3, seed=seed)
    if bank is not None:  # unit-scale style vectors, so style gradients are not tiny
        bank.e_k *= 10.0
        bank.e_c *= 10.0
    examples = [  # meter-scale histories drive tanh out of its linear range
        TrainingExample(history=5.0 * rng.normal(size=(3, 2)), future=rng.normal(size=(2, 2)),
                        index=StyleIndex(*(int(v) for v in rng.integers(2, size=3))),
                        style=("timid", "custom", "aggressive")[i % 3])
        for i in range(n)
    ]
    return model, bank, examples


PARAMS = ("W1", "b1", "P", "W2", "b2", "W3", "b3")


class TestBatchedTraining:
    @pytest.mark.parametrize("fusion", ["none", "early", "late"])
    def test_one_step_descends_mean_loss_gradient(self, fusion):
        """One batch step moves every parameter and bank row by -lr times the
        central-difference gradient of the batch's mean WTA loss."""
        model, bank, examples = random_batch(fusion, 9, seed=40)
        assert len(examples) <= BATCH_SIZE
        lr, step = 0.1, 1e-5

        def mean_loss():
            total = 0.0
            for ex in examples:
                style = np.zeros(model.D) if bank is None else lookup(bank, ex.index)[0]
                modes, probs = forward_oracle(model, ex.history, style)
                total += wta_loss(Forecast(modes=modes, probs=probs), ex.future)[0]
            return total / len(examples)

        def central_differences(arr):
            flat, grad = arr.reshape(-1), np.empty(arr.size)
            for i in range(arr.size):
                orig = flat[i]
                flat[i] = orig + step
                up = mean_loss()
                flat[i] = orig - step
                dn = mean_loss()
                flat[i] = orig
                grad[i] = (up - dn) / (2 * step)
            return grad.reshape(arr.shape)

        targets = [(model, name) for name in PARAMS]
        if bank is not None:
            targets += [(bank, "e_k"), (bank, "e_c")]
        before = {name: getattr(obj, name).copy() for obj, name in targets}
        fd = {name: central_differences(getattr(obj, name)) for obj, name in targets}
        train(examples, model, bank, epochs=1, lr=lr, seed=0)
        for obj, name in targets:
            step_grad = (before[name] - getattr(obj, name)) / lr
            np.testing.assert_allclose(step_grad, fd[name], rtol=1e-4, atol=1e-8, err_msg=name)


def scene_metrics_reference(model, bank, ex, miss_threshold):
    """Per-example metrics, one predict() per example."""
    style_vec = None if model.fusion == "none" else lookup(bank, ex.index)[0]
    fc = predict(model, ex.history, style_vec)
    disp = np.linalg.norm(fc.modes - ex.future[None], axis=2)  # M x T
    fde = disp[:, -1]
    best = int(np.argmin(fde))
    min_fde = float(fde[best])
    return {
        "minADE": float(disp.mean(axis=1).min()),
        "minFDE": min_fde,
        "MissRate": float(min_fde > miss_threshold),
        "brierFDE": min_fde + (1.0 - float(fc.probs[best])) ** 2,
    }


class TestBatchedEvaluate:
    @pytest.mark.parametrize("fusion", ["none", "early", "late"])
    def test_matches_per_example_reference(self, fusion):
        model, bank, examples = random_batch(fusion, 50, seed=41)
        per_scene = [scene_metrics_reference(model, bank, ex, 1.5) for ex in examples]
        rows = evaluate(examples, model, bank, miss_threshold=1.5)
        assert [r.style for r in rows] == ["aggressive", "timid", "custom", "Overall"]
        for r in rows:
            sub = [m for m, ex in zip(per_scene, examples) if r.style in ("Overall", ex.style)]
            assert r.n == len(sub)
            for metric in ("brierFDE", "minADE", "minFDE", "MissRate"):
                want = np.mean([m[metric] for m in sub])
                assert getattr(r, metric) == pytest.approx(want, rel=0, abs=1e-12)


class TestExamplesFromScenes:
    def test_offsets_and_skips(self):
        long = make_scene("a", make_traj("f", np.arange(25.0)))
        short = make_scene("b", make_traj("f", np.arange(10.0)))
        examples, skipped = examples_from_scenes([long, short], 8, 12)
        assert skipped == 1
        ex = examples[0]
        assert ex.history.shape == (8, 2)
        assert ex.future.shape == (12, 2)
        np.testing.assert_array_equal(ex.history[-1], [0.0, 0.0])

    def test_translation_invariance(self):
        base = make_scene("a", make_traj("f", np.arange(25.0)))
        shifted = make_scene(
            "a", make_traj("f", np.arange(25.0) + 500.0, ys=np.full(25, -40.0))
        )
        ea, _ = examples_from_scenes([base], 8, 12)
        eb, _ = examples_from_scenes([shifted], 8, 12)
        np.testing.assert_allclose(ea[0].history, eb[0].history, atol=1e-9)
        np.testing.assert_allclose(ea[0].future, eb[0].future, atol=1e-9)


class TestMetrics:
    def _two_mode_model(self):
        """M=2, T=1 model whose output is fixed: FDEs 1 and 5 against a zero
        future, mode probabilities (0.6, 0.4)."""
        model = zeroed(ForecastModel.init(H=4, T=1, M=2, hidden=3, D=2))
        model.b2[0] = [1.0, 0.0]
        model.b2[1] = [5.0, 0.0]
        model.b3[:] = np.log([0.6, 0.4])
        return model

    def test_worked_example(self):
        model = self._two_mode_model()
        ex = TrainingExample(history=np.zeros((4, 2)), future=np.zeros((1, 2)))
        row = evaluate([ex], model)[0]
        assert row.style == "Overall"
        assert row.minFDE == pytest.approx(1.0)
        assert row.minADE == pytest.approx(1.0)
        assert row.MissRate == 0.0
        assert row.brierFDE == pytest.approx(1.16)
        assert row.n == 1

    def test_perfect_single_mode_all_zero(self):
        model = zeroed(ForecastModel.init(H=4, T=3, M=1, hidden=3, D=2))
        ex = TrainingExample(history=np.zeros((4, 2)), future=np.zeros((3, 2)))
        row = evaluate([ex], model)[0]
        assert (row.minADE, row.minFDE, row.MissRate, row.brierFDE) == (0, 0, 0, 0)

    def test_overall_is_sample_weighted(self):
        rng = np.random.default_rng(14)
        model = ForecastModel.init(H=4, T=3, M=2, hidden=6, D=2, seed=1)
        examples = [
            TrainingExample(history=rng.normal(size=(4, 2)),
                            future=rng.normal(size=(3, 2)),
                            style="aggressive" if i < 7 else "timid")
            for i in range(10)
        ]
        rows = {r.style: r for r in evaluate(examples, model)}
        assert rows["aggressive"].n == 7 and rows["timid"].n == 3
        for metric in ("minADE", "minFDE", "brierFDE", "MissRate"):
            pooled = (7 * getattr(rows["aggressive"], metric)
                      + 3 * getattr(rows["timid"], metric)) / 10
            assert getattr(rows["Overall"], metric) == pytest.approx(pooled)

    def test_brier_bounds_on_random_forecasts(self):
        rng = np.random.default_rng(15)
        model = ForecastModel.init(H=4, T=3, M=3, hidden=6, D=2, seed=2)
        for _ in range(1000):
            ex = TrainingExample(history=rng.normal(size=(4, 2)),
                                 future=rng.normal(size=(3, 2)))
            row = evaluate([ex], model)[0]
            assert row.minFDE <= row.brierFDE <= row.minFDE + 1.0

    def test_empty_dataset_errors(self):
        model = ForecastModel.init(H=4, T=3, M=1)
        with pytest.raises(ForecastError):
            evaluate([], model)

    def test_fusion_requires_bank(self):
        model = ForecastModel.init(H=4, T=3, M=1, fusion="early")
        ex = TrainingExample(history=np.zeros((4, 2)), future=np.zeros((3, 2)),
                             index=StyleIndex(z=0, k=0, c=0))
        with pytest.raises(ForecastError, match="bank"):
            evaluate([ex], model)
