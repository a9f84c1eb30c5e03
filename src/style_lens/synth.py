"""Seeded synthetic scenario generator.

Two scene families with ground-truth style labels: yellow-light stop/go
decisions (bimodal outcome from near-identical histories) and straight-road
cruise scenes whose speed-oscillation amplitude is tied to the style's
acceleration/jerk envelope. All randomness flows from per-scene child seeds,
so corpora are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traj import Scene, TrajectorySample

DT = 0.1           # s, output sampling step
DURATION = 6.0     # s, scene length
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


def _draw_split(rng) -> str:
    return "train" if rng.random() < 0.8 else "test"


def _jerk_limited_profile(v0, t_acts, a_targets, j_max, n_steps):
    """Integrate speed under piecewise acceleration targets with a jerk limit.

    t_acts/a_targets: sorted activation times and the acceleration target in
    force from each; target is 0 before the first. Speed is clamped at 0
    (vehicle stays stopped). Returns (positions_x, speeds)."""
    v = v0
    x = 0.0
    a = 0.0
    xs = np.empty(n_steps)
    vs = np.empty(n_steps)
    for i in range(n_steps):
        t = i * DT
        xs[i] = x
        vs[i] = v
        a_tgt = 0.0
        for ta, at in zip(t_acts, a_targets):
            if t >= ta - 1e-9:
                a_tgt = at
        da = min(max(a_tgt - a, -j_max * DT), j_max * DT)
        a = a + da
        v_new = v + a * DT
        if v_new < 0.0:
            v_new = 0.0
            a = 0.0
        x = x + 0.5 * (v + v_new) * DT
        v = v_new
    return xs, vs


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


def _yellow_light_scene(i, label, params: StyleParams, rng, split):
    d0 = rng.uniform(30.0, 60.0)
    v0 = rng.uniform(10.0, 18.0)
    t_r = rng.uniform(1.0, 3.0)
    go = v0 * t_r + params.go_bias * d0 >= d0
    n_steps = int(round(DURATION / DT)) + 1

    if go:
        # jerk-limited acceleration toward the line, after the reaction delay
        xs, vs = _jerk_limited_profile(
            v0, [REACT_TIME + 0.3], [params.a_max], params.j_max, n_steps
        )
    else:
        # brake as late as the comfortable level allows, harder when forced
        gap_needed = v0 * v0 / (2.0 * COMFORT_DECEL) / STOP_MARGIN
        t_b = float(np.clip((d0 - gap_needed) / v0, REACT_TIME, 3.0))
        gap = d0 - v0 * t_b
        a_brake = _stop_decel(v0, gap, params.b_max, params.j_max)
        xs, vs = _jerk_limited_profile(v0, [t_b], [-a_brake], params.j_max, n_steps)

    t = DT * np.arange(n_steps)
    x = xs - d0  # stop line at x = 0
    y = np.zeros(n_steps)
    if params.noise_sigma > 0:
        x = x + rng.normal(0.0, params.noise_sigma, n_steps)
        y = y + rng.normal(0.0, params.noise_sigma, n_steps)
    focal = TrajectorySample(agent_id="focal", timestamps=t,
                             positions=np.column_stack([x, y]))
    scene = Scene(
        scene_id=f"yellow-{i:05d}",
        focal_agent_id="focal",
        agents=(focal,),
        split=split,
        highway=False,
    )
    return scene, label


def gen_yellow_light(n, mix=None, params=None, seed=0):
    """Generate n yellow-light stop/go scenes; returns [(Scene, true label)].

    The focal agent approaches a stop line at x=0 from distance d0 ~ U[30,60]
    at v0 ~ U[10,18]; the light changes at t_r ~ U[1,3]. The go/stop decision
    is go iff v0*t_r + go_bias*d0 >= d0, so outcome is ambiguous given the
    observed history but strongly correlated with style.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    mix = dict(DEFAULT_YELLOW_MIX if mix is None else mix)
    params = dict(DEFAULT_PARAMS if params is None else params)
    check_mix(mix)
    root = np.random.default_rng(seed)
    labels = _draw_labels(mix, n, root)
    children = np.random.SeedSequence(seed).spawn(n)
    out = []
    for i, (label, ss) in enumerate(zip(labels, children)):
        rng = np.random.default_rng(ss)
        out.append(_yellow_light_scene(i, label, params[label], rng, _draw_split(rng)))
    return out


def _cruise_scene(i, label, params: StyleParams, rng, split, mdsi_confusion, all_labels):
    n_steps = int(round(DURATION / DT)) + 1
    t = DT * np.arange(n_steps)
    # speed oscillation whose accel/jerk amplitudes sit inside the envelope
    a_amp = 0.8 * params.a_max
    omega = min(params.j_max / params.a_max, 4.0) * 0.8
    amp = a_amp / omega
    phase = rng.uniform(0.0, 2.0 * np.pi)
    v0 = rng.uniform(12.0, 18.0) if label == "aggressive" else rng.uniform(8.0, 14.0)
    x = v0 * t - (amp / omega) * (np.cos(omega * t + phase) - np.cos(phase))
    y = np.zeros(n_steps)

    gap = rng.uniform(15.0, 25.0)
    lead_x = x[0] + gap + v0 * t
    lead = TrajectorySample(agent_id="lead", timestamps=t,
                            positions=np.column_stack([lead_x, np.zeros(n_steps)]))

    if params.noise_sigma > 0:
        x = x + rng.normal(0.0, params.noise_sigma, n_steps)
        y = y + rng.normal(0.0, params.noise_sigma, n_steps)
    focal = TrajectorySample(agent_id="focal", timestamps=t,
                             positions=np.column_stack([x, y]))

    mdsi = None
    if mdsi_confusion is not None:
        if rng.random() < 1.0 - mdsi_confusion:
            mdsi = MDSI_NAMES[label]
        else:
            others = [MDSI_NAMES[l] for l in all_labels if l != label] or [MDSI_NAMES[label]]
            mdsi = others[rng.integers(len(others))]

    scene = Scene(
        scene_id=f"cruise-{i:05d}",
        focal_agent_id="focal",
        agents=(focal, lead),
        split=split,
        highway=None,
        mdsi_label=mdsi,
    )
    return scene, label


def gen_cruise(n, mix=None, params=None, seed=0, mdsi_confusion=0.2):
    """Generate n car-following cruise scenes; returns [(Scene, true label)].

    Aggressive styles oscillate harder (higher accel variance, jerk and
    gamma) and drive faster, but speed itself stays out of the clustering
    features. Set mdsi_confusion=None to omit MDSI-style labels.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    mix = dict(DEFAULT_CRUISE_MIX if mix is None else mix)
    params = dict(DEFAULT_PARAMS if params is None else params)
    check_mix(mix)
    root = np.random.default_rng(seed)
    labels = _draw_labels(mix, n, root)
    children = np.random.SeedSequence(seed).spawn(n)
    all_labels = sorted(mix)
    out = []
    for i, (label, ss) in enumerate(zip(labels, children)):
        rng = np.random.default_rng(ss)
        out.append(
            _cruise_scene(i, label, params[label], rng, _draw_split(rng),
                          mdsi_confusion, all_labels)
        )
    return out
