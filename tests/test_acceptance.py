"""Acceptance gate: one test per headline criterion.

Each test emits a single PASS/FAIL line directly to the terminal (bypassing
pytest capture) so the gate can be audited from the run log alone.
"""

import filecmp

import numpy as np
import pytest

from style_lens import (
    EmbeddingBank,
    ForecastModel,
    StyleIndex,
    TrainingExample,
    bank_gradients,
    context_classify,
    evaluate,
    examples_from_scenes,
    fit_kdsc,
    gen_cruise,
    gen_yellow_light,
    lookup,
    tdbm_classify,
    tdbm_score,
    train,
    welch_t_test,
    wta_loss,
)
from style_lens.cli import main as cli_main
from style_lens.forecast import Forecast, _softmax
from style_lens.kdsc import DEFAULT_SUBSET, cut_partition, ward_linkage
from style_lens.kinematics import extract_features
from style_lens.tdbm import StyleClass, TdbmFeatureVector
from style_lens.traj import TrajectorySample, derivatives

from test_kdsc import brute_force_ward, partition_sets
from test_tdbm import oracle_scores


@pytest.fixture
def emit(capsys):
    def _emit(name, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _emit


def test_tdbm_oracle_equivalence(emit):
    rng = np.random.default_rng(1234)
    max_err = 0.0
    for _ in range(1000):
        feats = rng.uniform(-3.0, 3.0, size=5)
        s = tdbm_score(TdbmFeatureVector(*feats, had_neighbors=True))
        max_err = max(max_err, float(np.max(np.abs(s.scores - oracle_scores(feats)))))
    zero = TdbmFeatureVector(0.0, 0.0, 0.0, 0.0, 0.0, had_neighbors=True)
    with_nbrs = tdbm_classify(tdbm_score(zero), had_neighbors=True)
    without = tdbm_classify(tdbm_score(zero), had_neighbors=False)
    ok = (
        max_err <= 1e-12
        and with_nbrs is StyleClass.CAREFUL
        and without is StyleClass.THREATENING
    )
    emit(
        "tdbm-oracle-equivalence", ok,
        f"max |score - oracle| = {max_err:.2e} over 1000 vectors (tol 1e-12); "
        f"zero-feature class {with_nbrs.label}/{without.label}",
    )


@pytest.fixture(scope="module")
def cruise_400():
    pairs = gen_cruise(400, seed=42)
    scenes = [s for s, _ in pairs]
    labels = [lab for _, lab in pairs]
    feats = [extract_features(s.focal) for s in scenes]
    return scenes, labels, feats


@pytest.fixture(scope="module")
def cruise_model_400(cruise_400):
    _, _, feats = cruise_400
    return fit_kdsc(feats, k=2, feature_subset=DEFAULT_SUBSET)


def test_clustering_fidelity(emit, cruise_400, cruise_model_400):
    _, labels, _ = cruise_400
    model = cruise_model_400
    truth = np.array([lab == "aggressive" for lab in labels], dtype=int)
    got = model.train_assignments
    agree = max(np.mean(got == truth), np.mean(got == 1 - truth))

    oracle_ok = True
    rng = np.random.default_rng(77)
    for n in range(2, 9):
        for _trial in range(10):
            pts = rng.normal(size=(n, 3))
            history = ward_linkage(pts)
            oracle = brute_force_ward(pts)
            k = 2 if n >= 2 else 1
            got_p = partition_sets(cut_partition(history, n, k))
            want_p = partition_sets(cut_partition(oracle, n, k))
            if got_p != want_p:
                oracle_ok = False
    ok = agree >= 0.90 and oracle_ok
    emit(
        "clustering-fidelity", ok,
        f"label agreement {agree:.1%} on n=400 cruise corpus (need >= 90%); "
        f"brute-force dendrogram match for n<=8: {oracle_ok}",
    )


def test_speed_separation_without_speed_feature(emit, cruise_400, cruise_model_400):
    _, _, feats = cruise_400
    model = cruise_model_400
    assert "mean_speed" not in model.feature_names
    speeds = np.array([f.mean_speed for f in feats])
    s0 = speeds[model.train_assignments == 0]
    s1 = speeds[model.train_assignments == 1]
    res = welch_t_test(s0, s1)
    ok = res.p_value < 0.01
    emit(
        "speed-separation-without-speed-feature", ok,
        f"Welch p = {res.p_value:.2e} between clusters' mean_speed (need < 0.01)",
    )


def test_fusion_benefit(emit):
    pairs = gen_yellow_light(600, seed=7)
    scenes = [s for s, _ in pairs]
    labels = [lab for _, lab in pairs]
    names = sorted(set(labels))
    indices = [
        StyleIndex(z=names.index(lab), k=0, c=context_classify(s))
        for s, lab in zip(scenes, labels)
    ]

    def run(fusion):
        model = ForecastModel.init(H=8, T=12, M=1, hidden=64, D=16,
                                   fusion=fusion, seed=0)
        bank = None
        if fusion != "none":
            bank = EmbeddingBank.init(num_styles=len(names), K=1, D=16, seed=0)
        examples, skipped = examples_from_scenes(scenes, 8, 12, indices, labels)
        assert skipped == 0
        model, bank, _ = train(examples, model, bank, epochs=200, lr=0.02, seed=0)
        overall = evaluate(examples, model, bank)[-1]
        return overall.minFDE

    fde_none = run("none")
    fde_early = run("early")
    fde_late = run("late")
    ratio = fde_early / fde_none
    ok = ratio <= 0.7 and fde_early <= fde_late
    emit(
        "fusion-benefit", ok,
        f"minFDE none={fde_none:.3f} early={fde_early:.3f} late={fde_late:.3f}; "
        f"early/none = {ratio:.3f} (need <= 0.7 and early <= late)",
    )


def test_gradient_integrity(emit):
    rng = np.random.default_rng(5150)
    step = 1e-5
    worst = 0.0

    for _ in range(50):  # 50 bank configs
        bank = EmbeddingBank.init(num_styles=2, K=2, D=4,
                                  seed=int(rng.integers(1 << 30)))
        idx = StyleIndex(int(rng.integers(2)), int(rng.integers(2)),
                         int(rng.integers(2)))
        upstream = rng.normal(size=4)
        g_ek, g_ec = bank_gradients(bank, idx, upstream)
        for attr, grad, row in (("e_k", g_ek, idx.k), ("e_c", g_ec, idx.c)):
            rows = getattr(bank, attr)[idx.z]
            for d in range(4):
                orig = rows[row][d]
                rows[row][d] = orig + step
                up = float(upstream @ lookup(bank, idx)[0])
                rows[row][d] = orig - step
                dn = float(upstream @ lookup(bank, idx)[0])
                rows[row][d] = orig
                fd = (up - dn) / (2 * step)
                worst = max(worst, abs(fd - grad[d]) / max(1.0, abs(fd)))

    for _ in range(50):  # 50 loss configs
        M, T = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        modes = rng.normal(size=(M, T, 2))
        logits = rng.normal(size=M)
        gt = rng.normal(size=(T, 2))

        def loss_fn():
            return wta_loss(Forecast(modes=modes, probs=_softmax(logits)), gt)[0]

        _, g_modes, g_logits, _ = wta_loss(
            Forecast(modes=modes, probs=_softmax(logits)), gt
        )
        flat, g_flat = modes.reshape(-1), g_modes.reshape(-1)
        for i in range(len(flat)):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            dn = loss_fn()
            flat[i] = orig
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(fd - g_flat[i]) / max(1.0, abs(fd)))
        for i in range(M):
            orig = logits[i]
            logits[i] = orig + step
            up = loss_fn()
            logits[i] = orig - step
            dn = loss_fn()
            logits[i] = orig
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(fd - g_logits[i]) / max(1.0, abs(fd)))

    ok = worst < 1e-4
    emit(
        "gradient-integrity", ok,
        f"worst relative error vs central differences = {worst:.2e} "
        "over 100 random configurations (need < 1e-4)",
    )


def test_cli_determinism(emit, tmp_path):
    def pipeline(root):
        root.mkdir()
        cli_main(["synth", "--kind", "yellow-light", "--n", "25", "--seed", "3",
                  "--out", str(root / "yellow.jsonl"),
                  "--labels", str(root / "labels.csv")])
        cli_main(["synth", "--kind", "cruise", "--n", "30", "--seed", "4",
                  "--out", str(root / "cruise.jsonl")])
        cli_main(["features", "--in", str(root / "cruise.jsonl"),
                  "--out", str(root / "features.csv")])
        cli_main(["tdbm", "--in", str(root / "cruise.jsonl"),
                  "--out", str(root / "tdbm.csv")])
        cli_main(["kdsc", "--features", str(root / "features.csv"), "--k", "2",
                  "--out", str(root / "kdsc.json"),
                  "--assignments", str(root / "assign.csv")])
        cli_main(["train-embed", "--in", str(root / "yellow.jsonl"),
                  "--labels", str(root / "labels.csv"),
                  "--fusion", "early", "--epochs", "5", "--modes", "1",
                  "--hidden", "8", "--dim", "4", "--seed", "0",
                  "--model", str(root / "fc.json"),
                  "--bank", str(root / "bank.json")])
        cli_main(["eval", "--in", str(root / "yellow.jsonl"),
                  "--labels", str(root / "labels.csv"),
                  "--model", str(root / "fc.json"),
                  "--bank", str(root / "bank.json"),
                  "--out", str(root / "metrics.csv")])
        cli_main(["report", "--in", str(root / "cruise.jsonl"),
                  "--kdsc-model", str(root / "kdsc.json"),
                  "--out-dir", str(root / "reports"), "--svg"])
        files = sorted(p for p in root.rglob("*") if p.is_file())
        return [p.relative_to(root) for p in files]

    fa = pipeline(tmp_path / "a")
    fb = pipeline(tmp_path / "b")
    mismatched = [
        str(ra) for ra, rb in zip(fa, fb)
        if ra != rb or not filecmp.cmp(tmp_path / "a" / ra, tmp_path / "b" / rb,
                                       shallow=False)
    ]
    ok = fa == fb and not mismatched
    emit(
        "cli-determinism", ok,
        f"{len(fa)} artifacts from all 7 subcommands byte-identical across "
        f"two runs" + (f"; mismatches: {mismatched}" if mismatched else ""),
    )


def test_metrics_oracle(emit):
    # worked example: M=2, probs (0.6, 0.4), final displacements 1 m and 5 m
    model = ForecastModel.init(H=4, T=1, M=2, hidden=3, D=2, seed=0)
    for name in ("W1", "b1", "P", "W2", "b2", "W3", "b3"):
        getattr(model, name)[:] = 0.0
    model.b2[0] = [1.0, 0.0]
    model.b2[1] = [5.0, 0.0]
    model.b3[:] = np.log([0.6, 0.4])
    ex = TrainingExample(history=np.zeros((4, 2)), future=np.zeros((1, 2)))
    row = evaluate([ex], model, miss_threshold=2.0)[0]
    worked_ok = (
        abs(row.minFDE - 1.0) < 1e-12
        and abs(row.brierFDE - 1.16) < 1e-12
        and row.MissRate == 0.0
    )

    rng = np.random.default_rng(99)
    rand_model = ForecastModel.init(H=4, T=3, M=3, hidden=6, D=2, seed=2)
    bounds_ok = True
    for _ in range(1000):
        ex = TrainingExample(history=rng.normal(size=(4, 2)),
                             future=rng.normal(size=(3, 2)))
        r = evaluate([ex], rand_model)[0]
        if not (r.minFDE <= r.brierFDE <= r.minFDE + 1.0 + 1e-12):
            bounds_ok = False
    ok = worked_ok and bounds_ok
    emit(
        "metrics-oracle", ok,
        f"worked example minFDE={row.minFDE} brierFDE={row.brierFDE} "
        f"MissRate={row.MissRate}; bounds minFDE <= brierFDE <= minFDE+1 "
        f"held on 1000 random forecasts: {bounds_ok}",
    )


def test_derivative_convergence(emit):
    # cubic path y = t^3 with unit x-speed; curvature keeps the truncation
    # term alive so the second-order rate is observable pointwise
    def err_at(dt, t0=1.5):
        t = np.arange(1.0, 2.0 + dt / 2, dt)
        tr = TrajectorySample("a", t, np.column_stack([t, t**3]))
        _, accel, _ = derivatives(tr)
        i = int(round((t0 - 1.0) / dt))
        true = 18.0 * t0**3 / np.sqrt(1.0 + 9.0 * t0**4)
        return abs(accel[i] - true)

    e1, e2, e3 = err_at(0.05), err_at(0.025), err_at(0.0125)
    r1, r2 = e1 / e2, e2 / e3
    ok = r1 >= 3.9 and r2 >= 3.9
    emit(
        "derivative-convergence", ok,
        f"interior accel error ratios {r1:.2f}, {r2:.2f} per dt halving "
        "(need >= 3.9, second order)",
    )
