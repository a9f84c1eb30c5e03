import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from style_lens import (
    B_MATRIX,
    StyleClass,
    StyleScores,
    TdbmConfig,
    TdbmFeatureVector,
    TrajectoryError,
    TrajectorySample,
    build_tdbm_features,
    tdbm_classify,
    tdbm_score,
)
from style_lens.tdbm import _smooth_path, _uniformize
from style_lens.traj import central_diff, derivatives

from conftest import make_scene, make_traj

# Independently transcribed copy of the fixed mapping matrix. Kept as plain
# nested lists and multiplied with explicit loops so the production code path
# (numpy matmul on B_MATRIX) is never exercised by the oracle.
ORACLE_ROWS = [
    [1.63, 4.04, -0.46, -0.82, 0.88, -2.58],
    [1.58, 3.08, -0.45, 0.02, -0.10, -1.67],
    [1.35, 4.08, -0.58, -0.43, -0.28, -1.99],
    [-1.51, -3.17, 1.06, 0.51, -0.51, 1.39],
    [-2.47, -2.60, 1.43, 0.98, -0.82, 1.27],
    [-3.59, -2.19, 1.75, 1.73, -0.30, 0.61],
]


def oracle_scores(feats):
    col = list(feats) + [1.0]
    return [sum(r * c for r, c in zip(row, col)) for row in ORACLE_ROWS]


def fv(s_center=0.0, v_nei=0.0, s_front=0.0, v_avg=0.0, j_l=0.0, had_neighbors=True):
    return TdbmFeatureVector(s_center, v_nei, s_front, v_avg, j_l, had_neighbors)


class TestScoring:
    def test_zero_features_give_bias_column(self):
        s = tdbm_score(fv())
        np.testing.assert_allclose(
            s.scores, [-2.58, -1.67, -1.99, 1.39, 1.27, 0.61], atol=1e-15
        )

    def test_all_ones_give_row_sums(self):
        s = tdbm_score(fv(1, 1, 1, 1, 1))
        np.testing.assert_allclose(
            s.scores, [2.69, 2.46, 2.15, -2.23, -2.21, -1.99], atol=1e-12
        )

    def test_1000_random_vectors_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            feats = rng.uniform(-3, 3, size=5)
            s = tdbm_score(fv(*feats))
            np.testing.assert_allclose(s.scores, oracle_scores(feats), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=5), rng.normal(size=5)
        sa = tdbm_score(fv(*a)).scores
        sb = tdbm_score(fv(*b)).scores
        mid = tdbm_score(fv(*(0.5 * (a + b)))).scores
        np.testing.assert_allclose(mid, 0.5 * (sa + sb), atol=1e-12)

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            tdbm_score(fv(s_center=np.nan))

    def test_scores_shape_validated(self):
        with pytest.raises(ValueError):
            StyleScores(scores=np.zeros(5))


class TestClassify:
    def test_zero_features_with_neighbors_is_careful(self):
        # 1.39 is the maximum of the bias column
        s = tdbm_score(fv())
        assert tdbm_classify(s, had_neighbors=True) is StyleClass.CAREFUL

    def test_no_neighbors_overrides_to_threatening(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            s = StyleScores(scores=rng.normal(size=6))
            assert tdbm_classify(s, had_neighbors=False) is StyleClass.THREATENING

    def test_tie_breaks_toward_more_aggressive(self):
        s = StyleScores(scores=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        assert tdbm_classify(s, had_neighbors=True) is StyleClass.AGGRESSIVE

    def test_labels_are_ordinal(self):
        assert [c.label for c in StyleClass] == [
            "aggressive", "reckless", "threatening", "careful", "cautious", "timid",
        ]


class TestFeatureConstruction:
    def test_single_agent_scene(self, straight_scene):
        x = build_tdbm_features(straight_scene)
        assert x.had_neighbors is False
        assert x.v_nei == 0.0
        assert x.s_front == 1.0
        assert x.v_avg == pytest.approx(5.0 / 15.0)

    def test_identical_speed_neighbor_zero_relative(self):
        focal = make_traj("f", 5.0 * np.arange(10.0))
        nbr = make_traj("n", 5.0 * np.arange(10.0), ys=np.full(10, 3.0))
        x = build_tdbm_features(make_scene("s", focal, [nbr]))
        assert x.had_neighbors is True
        assert x.v_nei == pytest.approx(0.0, abs=1e-9)

    def test_relative_speed_value(self):
        # short window so a 10 m/s slower neighbor stays inside the radius
        t = np.arange(5.0) * 0.5
        focal = make_traj("f", 20.0 * t, dt=0.5)
        nbr = make_traj("n", 10.0 * t + 10.0, dt=0.5, ys=np.full(5, 2.0))
        x = build_tdbm_features(make_scene("s", focal, [nbr]))
        assert x.had_neighbors is True
        assert x.v_nei == pytest.approx(10.0 / 15.0, abs=1e-6)

    def test_front_gap_uses_leading_cone(self):
        focal = make_traj("f", 5.0 * np.arange(10.0))
        ahead = make_traj("n", 5.0 * np.arange(10.0) + 25.0)
        x = build_tdbm_features(make_scene("s", focal, [ahead]))
        assert x.s_front == pytest.approx(25.0 / 50.0, abs=1e-6)
        behind = make_traj("n", 5.0 * np.arange(10.0) - 25.0)
        x2 = build_tdbm_features(make_scene("s", focal, [behind]))
        assert x2.s_front == pytest.approx(1.0)

    def test_straight_path_zero_centerline_deviation(self, straight_scene):
        x = build_tdbm_features(straight_scene)
        assert x.s_center == pytest.approx(0.0, abs=1e-9)

    def test_short_focal_errors(self):
        scene = make_scene("s", make_traj("f", [0.0, 1.0, 2.0]))
        with pytest.raises(Exception, match="4 samples"):
            build_tdbm_features(scene)

    def test_config_round_trip(self, tmp_path):
        cfg = TdbmConfig(v_ref=20.0)
        path = tmp_path / "cfg.json"
        import json

        path.write_text(json.dumps(cfg.to_dict()))
        assert TdbmConfig.load(path) == cfg

    @pytest.mark.parametrize("name", ["v_ref", "d_ref", "w_ref", "j_ref"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_non_positive_normalizer(self, name, value):
        with pytest.raises(ValueError, match=name):
            TdbmConfig(**{name: value})

    @pytest.mark.parametrize("name,value,rule", [
        ("neighbor_radius", "x", "finite and >= 0"),
        ("neighbor_radius", -1.0, "finite and >= 0"),
        ("smooth_window", float("inf"), "finite and >= 0"),
        ("smooth_window", -0.5, "finite and >= 0"),
        ("cone_half_angle", -1, r"in \[0, pi\]"),
        ("cone_half_angle", 3.5, r"in \[0, pi\]"),
        ("cone_half_angle", float("nan"), r"in \[0, pi\]"),
        ("resample_dt", 0, "finite and > 0"),
        ("v_ref", True, "finite and > 0"),
        ("d_ref", "50", "finite and > 0"),
        ("j_ref", None, "finite and > 0"),
    ])
    def test_config_rejects_each_field_out_of_range(self, name, value, rule):
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, not {value!r}"):
            TdbmConfig(**{name: value})

    def test_config_accepts_the_ends_of_each_range(self):
        cfg = TdbmConfig(neighbor_radius=0, cone_half_angle=np.pi, smooth_window=0.0,
                         resample_dt=np.float64(0.05), v_ref=1e-300)
        assert cfg.cone_half_angle == np.pi

    def test_window_past_the_whole_path_caps_to_it(self):
        """Every window of 2n-1 or more samples averages the whole path at
        every sample, so build_tdbm_features caps it there, bit for bit."""
        rng = np.random.default_rng(2)
        for n in (4, 5, 61, 100):
            pos = rng.normal(size=(n, 2)) * 10.0
            whole = _smooth_path(pos, 2 * n - 1)
            for window in (2 * n + 1, 4 * n + 3, 1001):
                np.testing.assert_array_equal(_smooth_path(pos, window), whole)
        scene = make_scene("s", make_traj("f", np.cumsum(rng.uniform(0, 2, 30)),
                                          rng.normal(size=30), dt=0.1))
        assert build_tdbm_features(scene, TdbmConfig(smooth_window=1e308)) == \
            reference_tdbm_features(scene, TdbmConfig(smooth_window=100.0))

    def test_non_finite_feature_names_the_scene(self, straight_scene):
        with pytest.raises(TrajectoryError, match=r"^scene '.*': non-finite TDBM features"):
            build_tdbm_features(straight_scene, TdbmConfig(v_ref=1e-320))

    def test_bias_appended_by_as_array(self):
        arr = fv(1, 2, 3, 4, 5).as_array()
        np.testing.assert_array_equal(arr, [1, 2, 3, 4, 5, 1])


# The per-sample, per-neighbor loop that build_tdbm_features replaced, kept
# as the oracle: the array form must give the same bits on every field.


def _reference_headings(focal, dt):
    if focal.heading is not None:
        return np.asarray(focal.heading, dtype=float)
    vel = central_diff(focal.positions, dt)
    h = np.arctan2(vel[:, 1], vel[:, 0])
    speed = np.hypot(vel[:, 0], vel[:, 1])
    for i in range(1, len(h)):
        if speed[i] < 1e-6:
            h[i] = h[i - 1]
    return h


def _reference_smooth_path(positions, window):
    n = len(positions)
    half = window // 2
    out = np.empty_like(positions)
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out[i] = positions[lo:hi].mean(axis=0)
    return out


def reference_tdbm_features(scene, config=TdbmConfig()):
    focal = _uniformize(scene.focal, config.resample_dt)
    dt = focal.dt
    t = focal.timestamps
    n = len(t)
    speed, _, jerk = derivatives(focal)

    nbr_pos, nbr_speed, nbr_valid = [], [], []
    for nbr in scene.neighbors:
        if len(nbr) < 2:
            continue
        px = np.interp(t, nbr.timestamps, nbr.positions[:, 0])
        py = np.interp(t, nbr.timestamps, nbr.positions[:, 1])
        pos = np.column_stack([px, py])
        nbr_pos.append(pos)
        nbr_speed.append(np.hypot(*central_diff(pos, dt).T))
        nbr_valid.append((t >= nbr.timestamps[0] - 1e-9) & (t <= nbr.timestamps[-1] + 1e-9))

    headings = _reference_headings(focal, dt)
    rel_speed_terms = np.zeros(n)
    gap_terms = np.ones(n)
    had_neighbors = False
    for i in range(n):
        in_range_speeds = []
        best_gap = None
        for pos, spd, valid in zip(nbr_pos, nbr_speed, nbr_valid):
            if not valid[i]:
                continue
            delta = pos[i] - focal.positions[i]
            dist = float(np.hypot(delta[0], delta[1]))
            if dist <= config.neighbor_radius:
                in_range_speeds.append(spd[i])
                had_neighbors = True
            if dist > 1e-9:
                bearing = np.arctan2(delta[1], delta[0])
                angle = abs((bearing - headings[i] + np.pi) % (2 * np.pi) - np.pi)
                if angle <= config.cone_half_angle:
                    if best_gap is None or dist < best_gap:
                        best_gap = dist
        if in_range_speeds:
            rel_speed_terms[i] = (speed[i] - float(np.mean(in_range_speeds))) / config.v_ref
        if best_gap is not None:
            gap_terms[i] = min(max(best_gap / config.d_ref, 0.0), 1.0)

    window = max(1, int(round(config.smooth_window / dt)))
    if window % 2 == 0:
        window += 1
    smoothed = _reference_smooth_path(focal.positions, window)
    dev = np.hypot(*(focal.positions - smoothed).T)
    half = window // 2
    core = dev[half : n - half] if n > 2 * half else dev
    s_center = float(np.sqrt(np.mean(core * core))) / config.w_ref

    v_nei = float(np.mean(rel_speed_terms)) if had_neighbors else 0.0
    s_front = float(np.mean(gap_terms)) if had_neighbors else 1.0
    return TdbmFeatureVector(
        s_center=s_center,
        v_nei=v_nei,
        s_front=s_front,
        v_avg=float(np.mean(speed)) / config.v_ref,
        j_l=float(np.mean(np.abs(jerk[1:-1]))) / config.j_ref,
        had_neighbors=had_neighbors,
    )


def _walk(rng, n, heading0, step, still=()):
    """A focal path: heading random walk, per-step length `step`, standing
    still over the (start, stop) step ranges in `still`."""
    steps = np.full(n - 1, step) * rng.uniform(0.2, 1.8, n - 1)
    for lo, hi in still:
        steps[lo:hi] = 0.0
    theta = heading0 + np.cumsum(rng.normal(0.0, 0.3, n - 1))
    moves = np.column_stack([steps * np.cos(theta), steps * np.sin(theta)])
    return np.vstack([np.zeros((1, 2)), np.cumsum(moves, axis=0)]) + rng.uniform(-50, 50, 2)


def _crowd_scene():
    """Ten neighbors within 10 m of the focal agent at every sample."""
    rng = np.random.default_rng(8)
    pos = _walk(rng, 30, 0.4, 1.5)
    focal = make_traj("f", pos[:, 0], pos[:, 1], dt=0.1)
    nbrs = [make_traj(f"n{k}", *(pos + rng.uniform(-7, 7, 2)
                                 + rng.normal(0, 0.3, (30, 2)).cumsum(axis=0)).T, dt=0.1)
            for k in range(10)]
    return make_scene("crowd", focal, nbrs)


def _stop_scene():
    """The focal agent drives north, stands for ten samples and drives on;
    a neighbor 20 m ahead is in the cone only under the held heading."""
    ys = np.concatenate([np.arange(10.0), np.full(10, 10.0), 10.0 + np.arange(1.0, 11.0)])
    focal = make_traj("f", np.zeros(30), ys, dt=0.1)
    return make_scene("stop", focal, [make_traj("n", np.zeros(30), ys + 20.0, dt=0.1)])


@st.composite
def tdbm_scenes(draw):
    """Scenes mixing focal lengths around the 21-sample smoothing window,
    0-10 neighbors (sometimes all close), partial and too-short neighbor
    tracks, given headings, standing still from sample 0 or mid-track,
    jittered timestamps that get resampled, and neighbors at distance 0."""
    n = draw(st.one_of(st.integers(4, 20), st.sampled_from([21, 22]), st.integers(23, 80)))
    dt = draw(st.sampled_from([0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.integers(0, n - 1))            # still from sample 0 over `lead` steps
    mid = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pos = _walk(rng, n, rng.uniform(-np.pi, np.pi), 2.0 * dt, [(0, lead), mid])
    if draw(st.booleans()):   # jittered steps: _uniformize resamples to 0.1 s
        t = np.concatenate([[0.0], np.cumsum(0.1 * rng.uniform(1.05, 1.5, n - 1))])
    else:
        t = rng.uniform(0.0, 5.0) + dt * np.arange(n)
    heading = rng.uniform(-np.pi, np.pi, n) if draw(st.booleans()) else None
    focal = TrajectorySample("f", t, pos, heading)

    spread = 10.0 if draw(st.booleans()) else 45.0
    nbrs = []
    for k in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["full", "partial", "short", "twin"]))
        if kind == "twin":
            nbrs.append(TrajectorySample(f"n{k}", t, pos.copy()))
            continue
        track = pos + rng.uniform(-spread, spread, 2) + rng.normal(0, 0.5, (n, 2)).cumsum(axis=0)
        if kind == "full":
            lo, hi, shift = 0, n, 0.0
        elif kind == "partial":
            lo = draw(st.integers(0, n - 2))
            hi = draw(st.integers(lo + 2, n))
            shift = draw(st.sampled_from([0.0, 0.37 * dt, -0.61 * dt]))
        else:
            lo = draw(st.integers(0, n - 1))
            hi = lo + draw(st.integers(0, 1))
            shift = 0.0
        nbrs.append(TrajectorySample(f"n{k}", t[lo:hi] + shift, track[lo:hi]))
    return make_scene("s", focal, nbrs)


@settings(max_examples=200, deadline=None)
@given(scene=tdbm_scenes())
@example(scene=_crowd_scene())
@example(scene=_stop_scene())
def test_features_equal_reference_loop(scene):
    got, want = build_tdbm_features(scene), reference_tdbm_features(scene)
    assert got == want
    assert repr(got) == repr(want)  # same types too: Python floats and bool
