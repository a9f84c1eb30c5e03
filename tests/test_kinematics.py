import dataclasses

import numpy as np
import pytest

from style_lens import FEATURE_NAMES, extract_features, gamma
from style_lens.kinematics import KinematicFeatures

from conftest import make_traj


def _fd_oracle(xs, dt):
    """Independent finite-difference recomputation via np.gradient."""
    pos = np.column_stack([xs, np.zeros_like(xs)])
    vel = np.gradient(pos, dt, axis=0, edge_order=1)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    accel = np.gradient(speed, dt, edge_order=1)
    jerk = np.gradient(accel, dt, edge_order=1)
    return speed, accel, jerk


class TestExtractFeatures:
    def test_constant_velocity(self):
        f = extract_features(make_traj("a", 5.0 * np.arange(8.0), dt=1.0))
        assert f.mean_speed == pytest.approx(5.0)
        assert f.max_speed == pytest.approx(5.0)
        assert f.var_speed == 0.0
        assert f.max_abs_accel == pytest.approx(0.0, abs=1e-12)
        assert f.gamma == 0.0

    def test_quadratic_profile_against_oracle(self):
        t = np.arange(10.0)
        xs = 0.5 * t**2
        f = extract_features(make_traj("a", xs, dt=1.0))
        speed, accel, _ = _fd_oracle(xs, 1.0)
        # deep-interior accel is exactly 1 m/s^2; samples adjacent to the
        # boundary inherit the one-sided endpoint speed estimates
        np.testing.assert_allclose(accel[2:-2], 1.0)
        assert f.max_abs_accel == pytest.approx(np.max(np.abs(accel)))
        assert f.mean_accel == pytest.approx(np.mean(accel))
        assert f.var_accel == pytest.approx(np.var(accel))
        assert f.mean_speed == pytest.approx(np.mean(speed))

    def test_interior_jerk_default(self):
        t = np.arange(10.0)
        tr = make_traj("a", 0.5 * t**2, dt=1.0)
        _, _, jerk = _fd_oracle(0.5 * t**2, 1.0)
        f = extract_features(tr)
        assert f.mean_jerk == pytest.approx(np.mean(jerk[1:-1]))
        assert f.var_jerk == pytest.approx(np.var(jerk[1:-1]))

    def test_two_point_trajectory_errors(self):
        with pytest.raises(Exception):
            extract_features(make_traj("a", [0.0, 1.0]))

    def test_as_array_order_matches_names(self):
        f = KinematicFeatures(*range(9))
        np.testing.assert_array_equal(f.as_array(), np.arange(9.0))
        assert tuple(f.name for f in dataclasses.fields(KinematicFeatures)) == FEATURE_NAMES


class TestGamma:
    def test_constant_speed_zero(self):
        assert gamma(np.full(10, 7.0), 0.1) == 0.0

    def test_sawtooth_hand_value(self):
        # speed (0,1,0,1,0), dt=1: interior second differences (-2, 2, -2),
        # T=4, v_peak=1 -> sqrt(4^4 * mean(j^2)) = sqrt(256 * 4) = 32
        assert gamma(np.array([0.0, 1.0, 0.0, 1.0, 0.0]), 1.0) == pytest.approx(32.0)

    def test_rescale_invariance(self):
        rng = np.random.default_rng(0)
        base = np.abs(rng.normal(10.0, 2.0, size=40))
        g0 = gamma(base, 0.1)
        # doubling speeds while halving dt is a pure time/amplitude rescale
        g1 = gamma(2.0 * base, 0.05)
        assert g1 == pytest.approx(g0, rel=1e-12)

    def test_peak_floor_near_zero_profile(self):
        v = 1e-6 * np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        # v_peak floored at 0.1, so gamma stays finite and tiny
        assert 0.0 < gamma(v, 1.0) < 1e-3

    def test_short_profile_errors(self):
        with pytest.raises(ValueError):
            gamma(np.array([1.0, 2.0, 3.0]), 1.0)

    def test_bad_dt_errors(self):
        with pytest.raises(ValueError):
            gamma(np.zeros(5), 0.0)
