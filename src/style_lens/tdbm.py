"""Trajectory-to-driver-behavior scoring: neighbor-relative feature
construction, the fixed 6x6 linear map, and ordinal classification with the
no-neighbor override."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from .traj import (Scene, TrajectoryError, TrajectorySample, central_diff, derivatives,
                   read_json, resample_uniform)

# Fixed mapping matrix: rows are style classes (aggressive ... timid),
# columns are (s_center, v_nei, s_front, v_avg, j_l, bias).
B_MATRIX = np.array(
    [
        [1.63, 4.04, -0.46, -0.82, 0.88, -2.58],
        [1.58, 3.08, -0.45, 0.02, -0.10, -1.67],
        [1.35, 4.08, -0.58, -0.43, -0.28, -1.99],
        [-1.51, -3.17, 1.06, 0.51, -0.51, 1.39],
        [-2.47, -2.60, 1.43, 0.98, -0.82, 1.27],
        [-3.59, -2.19, 1.75, 1.73, -0.30, 0.61],
    ]
)


class StyleClass(enum.IntEnum):
    """Six ordinal style bins, most to least aggressive."""

    AGGRESSIVE = 0
    RECKLESS = 1
    THREATENING = 2
    CAREFUL = 3
    CAUTIOUS = 4
    TIMID = 5

    @property
    def label(self) -> str:
        return self.name.lower()


STYLE_LABELS = tuple(c.label for c in StyleClass)


def style_order(styles) -> list:
    """The distinct style names among `styles` in report order: the TDBM
    classes in STYLE_LABELS order, then any other names sorted."""
    seen = set(styles)
    return [s for s in STYLE_LABELS if s in seen] + sorted(seen.difference(STYLE_LABELS))


@dataclass(frozen=True)
class TdbmConfig:
    """Normalization constants and geometry for TDBM feature construction.

    The reference values make the five features dimensionless; they are
    echoed into report headers so classifications are reproducible.
    """

    v_ref: float = 15.0        # m/s
    d_ref: float = 50.0        # m, front-gap normalizer
    w_ref: float = 1.5         # m, lateral-deviation normalizer
    j_ref: float = 2.0         # m/s^3
    neighbor_radius: float = 30.0   # m
    cone_half_angle: float = np.pi / 6.0  # rad, leading-vehicle cone
    smooth_window: float = 2.0      # s, moving-average window for path smoothing
    resample_dt: float = 0.1        # s, used only when input sampling is non-uniform

    def __post_init__(self):
        for name, value in asdict(self).items():  # each a real number, not a bool
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if name == "cone_half_angle":
                rule, ok = "in [0, pi]", real and 0.0 <= value <= np.pi
            elif name in ("neighbor_radius", "smooth_window"):
                rule, ok = "finite and >= 0", real and 0.0 <= value < np.inf
            else:  # the four divisors of the features, and resample_dt
                rule, ok = "finite and > 0", real and 0.0 < value < np.inf
            if not ok:
                raise ValueError(f"{name} must be {rule}, not {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def load(cls, path) -> "TdbmConfig":
        return read_json(path, lambda d: cls(**d))


@dataclass(frozen=True)
class TdbmFeatureVector:
    s_center: float
    v_nei: float
    s_front: float
    v_avg: float
    j_l: float
    had_neighbors: bool

    def as_array(self) -> np.ndarray:
        """Feature column including the trailing bias 1."""
        return np.array(
            [self.s_center, self.v_nei, self.s_front, self.v_avg, self.j_l, 1.0]
        )


@dataclass(frozen=True)
class StyleScores:
    scores: np.ndarray  # length 6, ordered aggressive ... timid

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "scores", s)
        if s.shape != (6,):
            raise ValueError(f"expected 6 scores, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("non-finite scores")


def _uniformize(traj: TrajectorySample, dt: float) -> TrajectorySample:
    if traj.step_spread <= 1e-9:  # False for NaN, below two samples
        return traj
    return resample_uniform(traj, dt)


def _headings(focal: TrajectorySample, dt: float) -> np.ndarray:
    if focal.heading is not None:
        return np.asarray(focal.heading, dtype=float)
    vel = central_diff(focal.positions, dt)
    h = np.arctan2(vel[:, 1], vel[:, 0])
    # near-zero-speed samples hold the last moving heading; sample 0 keeps its own
    moving = ~(np.hypot(vel[:, 0], vel[:, 1]) < 1e-6)
    return h[np.maximum.accumulate(np.where(moving, np.arange(len(h)), 0))]


def _smooth_path(positions: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking windows near the ends; the zero
    rows that pad the ends add nothing to a window's sum (x + 0.0 == x)."""
    n, half = len(positions), window // 2
    padded = np.concatenate([np.zeros((half, 2)), positions, np.zeros((half, 2))])
    total = padded[:n].copy()
    for k in range(1, window):
        total += padded[k:k + n]
    i = np.arange(n)
    return total / (np.minimum(i + half + 1, n) - np.maximum(i - half, 0))[:, None]


@np.errstate(all="ignore")  # a feature that overflows raises TrajectoryError at the end
def build_tdbm_features(scene: Scene, config: TdbmConfig = TdbmConfig()) -> TdbmFeatureVector:
    """Construct the five normalized kinematic features for the focal agent.

    Neighbor tracks are interpolated onto the focal time grid and stacked
    into (neighbor, time) arrays; distances, the leading cone and the range
    test run over those arrays at once. Two rules keep every field equal,
    bit for bit, to a loop over samples that calls ``np.mean``:

    - in-range neighbor speeds are summed one neighbor row at a time, as
      ``np.mean`` sums up to 7 values; at samples with 8 or more neighbors
      in range numpy sums pairwise, so those samples call ``np.mean``;
    - each smoothing window is summed row by row, never as a difference of
      cumsums, which would change the last bits of ``s_center``.
    """
    focal = _uniformize(scene.focal, config.resample_dt)
    if len(focal) < 4:
        raise TrajectoryError(
            f"scene {scene.scene_id!r}: focal agent needs >= 4 samples, has {len(focal)}"
        )
    dt = focal.dt
    t = focal.timestamps
    n = len(t)
    speed, _, jerk = derivatives(focal)

    # align neighbors onto the focal grid; absent outside their own span
    tracks = [nbr for nbr in scene.neighbors if len(nbr) >= 2]
    nbr_pos = np.empty((len(tracks), n, 2))
    valid = np.empty((len(tracks), n), dtype=bool)
    for k, nbr in enumerate(tracks):
        nbr_pos[k, :, 0] = np.interp(t, nbr.timestamps, nbr.positions[:, 0])
        nbr_pos[k, :, 1] = np.interp(t, nbr.timestamps, nbr.positions[:, 1])
        valid[k] = (t >= nbr.timestamps[0] - 1e-9) & (t <= nbr.timestamps[-1] + 1e-9)
    nbr_vel = central_diff(nbr_pos.swapaxes(0, 1), dt).swapaxes(0, 1)
    nbr_speed = np.hypot(nbr_vel[..., 0], nbr_vel[..., 1])

    delta = nbr_pos - focal.positions
    dist = np.hypot(delta[..., 0], delta[..., 1])
    in_range = valid & (dist <= config.neighbor_radius)
    bearing = np.arctan2(delta[..., 1], delta[..., 0])
    angle = np.abs((bearing - _headings(focal, dt) + np.pi) % (2 * np.pi) - np.pi)
    cone = valid & (dist > 1e-9) & (angle <= config.cone_half_angle)

    count = in_range.sum(axis=0)
    total = sum((np.where(r, v, 0.0) for r, v in zip(in_range, nbr_speed)), np.zeros(n))
    mean_speed = total / np.maximum(count, 1)
    for i in np.flatnonzero(count >= 8):
        mean_speed[i] = np.mean(nbr_speed[in_range[:, i], i])
    rel_speed_terms = np.where(count > 0, (speed - mean_speed) / config.v_ref, 0.0)
    best_gap = np.where(cone, dist, np.inf).min(axis=0, initial=np.inf)
    gap_terms = np.clip(best_gap / config.d_ref, 0.0, 1.0)  # no leading neighbor: inf -> 1
    had_neighbors = bool(in_range.any())

    # any window of 2n-1 or more samples averages the whole path at every sample
    window = max(1, int(round(min(config.smooth_window / dt, 2 * n - 1))))
    if window % 2 == 0:
        window += 1
    smoothed = _smooth_path(focal.positions, window)
    dev = np.hypot(*(focal.positions - smoothed).T)
    # only samples with a full smoothing window count; the shrinking edge
    # windows lag the path and would charge straight motion for its speed
    half = window // 2
    core = dev[half : n - half] if n > 2 * half else dev
    s_center = float(np.sqrt(np.mean(core * core))) / config.w_ref

    v_nei = float(np.mean(rel_speed_terms)) if had_neighbors else 0.0
    s_front = float(np.mean(gap_terms)) if had_neighbors else 1.0
    x = TdbmFeatureVector(
        s_center=s_center,
        v_nei=v_nei,
        s_front=s_front,
        v_avg=float(np.mean(speed)) / config.v_ref,
        j_l=float(np.mean(np.abs(jerk[1:-1]))) / config.j_ref,
        had_neighbors=had_neighbors,
    )
    if not np.all(np.isfinite(x.as_array())):
        raise TrajectoryError(f"scene {scene.scene_id!r}: non-finite TDBM features "
                              f"{x.as_array()[:5].tolist()}")
    return x


def tdbm_score(x: TdbmFeatureVector) -> StyleScores:
    """Score the six style classes: s = B . (features, 1)."""
    col = x.as_array()
    if not np.all(np.isfinite(col)):
        raise ValueError("non-finite feature vector")
    return StyleScores(scores=B_MATRIX @ col)


def tdbm_classify(scores: StyleScores, had_neighbors: bool) -> StyleClass:
    """Argmax style class, ties toward the more aggressive (lower ordinal).

    Without neighbors the relative-speed features are meaningless and the
    class is overridden to THREATENING.
    """
    if not had_neighbors:
        return StyleClass.THREATENING
    return StyleClass(int(np.argmax(scores.scores)))
