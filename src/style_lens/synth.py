"""Seeded synthetic scenario generator.

Two scene families with ground-truth style labels: yellow-light stop/go
decisions (bimodal outcome from near-identical histories) and straight-road
cruise scenes whose speed-oscillation amplitude is tied to the style's
acceleration/jerk envelope. All randomness flows from per-scene child seeds,
so corpora are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .traj import Scene, TrajectorySample

DT = 0.1           # s, output sampling step
DURATION = 6.0     # s, scene length
N_STEPS = int(round(DURATION / DT)) + 1  # samples per scene
REACT_TIME = 0.2   # s, minimum delay before any maneuver begins
COMFORT_DECEL = 3.0   # m/s^2, preferred braking level; harder only when forced
STOP_MARGIN = 0.95    # fraction of the available gap the stop plan may use


@dataclass(frozen=True)
class StyleParams:
    label: str
    go_bias: float       # decision offset: go iff v0*t_r + go_bias*d0 >= d0
    a_max: float         # m/s^2, forward acceleration envelope
    b_max: float         # m/s^2, braking envelope
    j_max: float         # m/s^3, jerk envelope
    noise_sigma: float   # m, position noise

    def __post_init__(self):
        if min(self.a_max, self.b_max, self.j_max) <= 0 or self.noise_sigma < 0:
            raise ValueError(f"invalid style params for {self.label!r}")


DEFAULT_PARAMS = {
    "aggressive": StyleParams("aggressive", go_bias=0.9, a_max=2.5, b_max=9.0,
                              j_max=12.0, noise_sigma=0.005),
    "normal": StyleParams("normal", go_bias=0.45, a_max=1.2, b_max=9.0,
                          j_max=12.0, noise_sigma=0.005),
    "timid": StyleParams("timid", go_bias=0.0, a_max=0.8, b_max=9.0,
                         j_max=12.0, noise_sigma=0.005),
}

DEFAULT_YELLOW_MIX = {"aggressive": 0.5, "timid": 0.5}
DEFAULT_CRUISE_MIX = {"aggressive": 0.5, "normal": 0.5}

MDSI_NAMES = {"aggressive": "risky", "normal": "careful", "timid": "patient"}


def check_mix(mix: dict) -> None:
    """Raise ValueError unless the style fractions are finite, nonnegative and sum to 1."""
    f = list(mix.values())
    if not f or not np.isfinite(f).all() or min(f) < 0 or abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"mix fractions must be finite, nonnegative and sum to 1, got {mix}")


def _draw_labels(mix: dict, n: int, rng) -> list:
    labels = sorted(mix)
    probs = np.array([mix[l] for l in labels])
    return [labels[i] for i in rng.choice(len(labels), size=n, p=probs)]


def _generate(n, mix, params, seed, make_scene):
    """The seeded loop both families share; returns [(Scene, true label)].

    Labels come from the root generator; each scene draws its split, then
    everything else, from its own child seed."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_mix(mix)
    params = DEFAULT_PARAMS if params is None else params
    labels = _draw_labels(mix, n, np.random.default_rng(seed))
    out = []
    for i, (label, ss) in enumerate(zip(labels, np.random.SeedSequence(seed).spawn(n))):
        rng = np.random.default_rng(ss)
        split = "train" if rng.random() < 0.8 else "test"
        out.append((make_scene(i, label, params, rng, split), label))
    return out


def _jerk_limited_profile(v0, t_act, a_target, j_max):
    """Integrate speed toward an acceleration target under a jerk limit.

    The target is 0 before t_act and a_target from then on. Speed is clamped
    at 0 (vehicle stays stopped). Returns the positions x."""
    v = v0
    x = 0.0
    a = 0.0
    xs = np.empty(N_STEPS)
    for i in range(N_STEPS):
        xs[i] = x
        a_tgt = a_target if i * DT >= t_act - 1e-9 else 0.0
        da = min(max(a_tgt - a, -j_max * DT), j_max * DT)
        a = a + da
        v_new = v + a * DT
        if v_new < 0.0:
            v_new = 0.0
            a = 0.0
        x = x + 0.5 * (v + v_new) * DT
        v = v_new
    return xs


def _noisy_focal(t, x, sigma, rng):
    """The focal track at (x, 0), with Gaussian noise of sigma on x, then y."""
    y = np.zeros(len(t))
    if sigma > 0:
        x = x + rng.normal(0.0, sigma, len(t))
        y = y + rng.normal(0.0, sigma, len(t))
    return TrajectorySample(agent_id="focal", timestamps=t,
                            positions=np.column_stack([x, y]))


def _stop_decel(v0, gap, b_max, j_max):
    """Smallest braking level that stops within STOP_MARGIN * gap, accounting
    for the jerk ramp-up distance; clipped to the braking envelope."""
    budget = STOP_MARGIN * gap
    a = COMFORT_DECEL
    for _ in range(8):
        ramp_extra = v0 * a / (2.0 * j_max)
        need = v0 * v0 / (2.0 * max(budget - ramp_extra, 1e-3))
        a = min(max(need, 0.5), b_max)
    return a


def _yellow_light_scene(i, label, styles, rng, split):
    params = styles[label]
    d0 = rng.uniform(30.0, 60.0)
    v0 = rng.uniform(10.0, 18.0)
    t_r = rng.uniform(1.0, 3.0)
    go = v0 * t_r + params.go_bias * d0 >= d0
    if go:
        # jerk-limited acceleration toward the line, after the reaction delay
        xs = _jerk_limited_profile(v0, REACT_TIME + 0.3, params.a_max, params.j_max)
    else:
        # brake as late as the comfortable level allows, harder when forced
        gap_needed = v0 * v0 / (2.0 * COMFORT_DECEL) / STOP_MARGIN
        t_b = float(np.clip((d0 - gap_needed) / v0, REACT_TIME, 3.0))
        gap = d0 - v0 * t_b
        a_brake = _stop_decel(v0, gap, params.b_max, params.j_max)
        xs = _jerk_limited_profile(v0, t_b, -a_brake, params.j_max)

    t = DT * np.arange(N_STEPS)
    focal = _noisy_focal(t, xs - d0, params.noise_sigma, rng)  # stop line at x = 0
    return Scene(scene_id=f"yellow-{i:05d}", focal_agent_id="focal", agents=(focal,),
                 split=split, highway=False)


def gen_yellow_light(n, mix=None, params=None, seed=0):
    """Generate n yellow-light stop/go scenes; returns [(Scene, true label)].

    The focal agent approaches a stop line at x=0 from distance d0 ~ U[30,60]
    at v0 ~ U[10,18]; the light changes at t_r ~ U[1,3]. The go/stop decision
    is go iff v0*t_r + go_bias*d0 >= d0, so outcome is ambiguous given the
    observed history but strongly correlated with style.
    """
    mix = dict(DEFAULT_YELLOW_MIX if mix is None else mix)
    return _generate(n, mix, params, seed, _yellow_light_scene)


def _cruise_scene(i, label, styles, rng, split, mdsi_confusion, all_labels):
    params = styles[label]
    t = DT * np.arange(N_STEPS)
    # speed oscillation whose accel/jerk amplitudes sit inside the envelope
    a_amp = 0.8 * params.a_max
    omega = min(params.j_max / params.a_max, 4.0) * 0.8
    amp = a_amp / omega
    phase = rng.uniform(0.0, 2.0 * np.pi)
    v0 = rng.uniform(12.0, 18.0) if label == "aggressive" else rng.uniform(8.0, 14.0)
    x = v0 * t - (amp / omega) * (np.cos(omega * t + phase) - np.cos(phase))

    gap = rng.uniform(15.0, 25.0)
    lead_x = x[0] + gap + v0 * t
    lead = TrajectorySample(agent_id="lead", timestamps=t,
                            positions=np.column_stack([lead_x, np.zeros(N_STEPS)]))
    focal = _noisy_focal(t, x, params.noise_sigma, rng)

    mdsi = None
    if mdsi_confusion is not None:
        if rng.random() < 1.0 - mdsi_confusion:
            mdsi = MDSI_NAMES[label]
        else:
            others = [MDSI_NAMES[l] for l in all_labels if l != label] or [MDSI_NAMES[label]]
            mdsi = others[rng.integers(len(others))]

    return Scene(scene_id=f"cruise-{i:05d}", focal_agent_id="focal", agents=(focal, lead),
                 split=split, highway=None, mdsi_label=mdsi)


def gen_cruise(n, mix=None, params=None, seed=0, mdsi_confusion=0.2):
    """Generate n car-following cruise scenes; returns [(Scene, true label)].

    Aggressive styles oscillate harder (higher accel variance, jerk and
    gamma) and drive faster, but speed itself stays out of the clustering
    features. Set mdsi_confusion=None to omit MDSI-style labels.
    """
    mix = dict(DEFAULT_CRUISE_MIX if mix is None else mix)
    return _generate(n, mix, params, seed, partial(_cruise_scene, mdsi_confusion=mdsi_confusion,
                                                   all_labels=sorted(mix)))
