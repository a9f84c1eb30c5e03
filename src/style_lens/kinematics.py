"""Per-trajectory kinematic feature suite: speed/accel/jerk moments and gamma."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traj import TrajectorySample, derivatives

GAMMA_EPSILON = 0.1  # m/s floor on the peak-speed normalizer

FEATURE_NAMES = (
    "mean_speed",
    "max_speed",
    "var_speed",
    "mean_accel",
    "max_abs_accel",
    "var_accel",
    "mean_jerk",
    "var_jerk",
    "gamma",
)


@dataclass(frozen=True)
class KinematicFeatures:
    mean_speed: float
    max_speed: float
    var_speed: float
    mean_accel: float
    max_abs_accel: float
    var_accel: float
    mean_jerk: float
    var_jerk: float
    gamma: float

    def as_array(self, names=FEATURE_NAMES) -> np.ndarray:
        return np.array([getattr(self, n) for n in names], dtype=float)


def gamma(speed, dt: float) -> float:
    """Dimensionless RMS-jerk statistic of a speed profile.

    gamma = sqrt(T^4 * mean(j^2)) / max(v_peak, eps), where j is the second
    difference of speed over dt^2 (interior samples) and T the total duration.
    Zero for any motion with vanishing jerk; invariant under joint
    time/amplitude rescaling of the profile.
    """
    v = np.asarray(speed, dtype=float)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if len(v) < 4:
        raise ValueError(f"need >= 4 speed samples, got {len(v)}")
    j = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dt * dt)
    ms_jerk = float(np.mean(j * j))
    if ms_jerk == 0.0:
        return 0.0
    total_t = dt * (len(v) - 1)
    v_peak = max(float(np.max(np.abs(v))), GAMMA_EPSILON)
    return float(np.sqrt(total_t**4 * ms_jerk / (v_peak * v_peak)))


def extract_features(traj: TrajectorySample) -> KinematicFeatures:
    """Compute the 9-feature kinematic summary of one trajectory.

    Variances are population variances (divide by n). Jerk moments use
    interior samples only, since the one-sided endpoint jerk estimates are
    first-order noisy.
    """
    speed, accel, jerk = derivatives(traj)
    dt = traj.dt
    j = jerk[1:-1]
    return KinematicFeatures(
        mean_speed=float(np.mean(speed)),
        max_speed=float(np.max(speed)),
        var_speed=float(np.var(speed)),
        mean_accel=float(np.mean(accel)),
        max_abs_accel=float(np.max(np.abs(accel))),
        var_accel=float(np.var(accel)),
        mean_jerk=float(np.mean(j)),
        var_jerk=float(np.var(j)),
        gamma=gamma(speed, dt),
    )
