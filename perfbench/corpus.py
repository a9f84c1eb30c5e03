"""Dense-traffic cruise corpus for the report-dense workload.

Each scene of a seeded `gen_cruise` draw keeps its own lead vehicle and gains
0 to MAX_EXTRA adjacent-lane agents. The extra agents are focal tracks taken
from a second seeded `gen_cruise` draw, moved sideways by whole lanes and
shifted along the road, so the number of neighbors TDBM has to scan varies
from scene to scene.
"""

from __future__ import annotations

import numpy as np

from style_lens import Scene, TrajectorySample, gen_cruise

MAX_EXTRA = 6
LANE_WIDTH = 3.5        # m
LANES = (-2, -1, 1, 2)  # lateral lane offsets an extra agent may take
MAX_SHIFT = 30.0        # m, largest shift along the road
DONOR_SEED_OFFSET = 1_000_003


def dense_cruise(n: int, seed: int):
    """Return (scenes, neighbors per scene) for an n-scene dense corpus."""
    base = gen_cruise(n, seed=seed)
    rng = np.random.default_rng([seed, DONOR_SEED_OFFSET])
    extra = rng.integers(0, MAX_EXTRA + 1, size=n)
    donors = gen_cruise(int(extra.sum()), seed=seed + DONOR_SEED_OFFSET)
    scenes, neighbor_counts, d = [], [], 0
    for (scene, _label), k in zip(base, extra):
        agents = list(scene.agents)
        for j in range(int(k)):
            track = donors[d][0].focal
            d += 1
            lane = LANES[int(rng.integers(len(LANES)))]
            offset = np.array([rng.uniform(-MAX_SHIFT, MAX_SHIFT), lane * LANE_WIDTH])
            agents.append(TrajectorySample(
                agent_id=f"adj-{j + 1}",
                timestamps=track.timestamps,
                positions=track.positions + offset,
            ))
        scenes.append(Scene(
            scene_id=scene.scene_id,
            focal_agent_id=scene.focal_agent_id,
            agents=tuple(agents),
            split=scene.split,
            highway=scene.highway,
            mdsi_label=scene.mdsi_label,
        ))
        neighbor_counts.append(len(agents) - 1)
    return scenes, neighbor_counts
