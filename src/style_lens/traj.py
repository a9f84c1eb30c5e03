"""Trajectory and scene data model, interchange I/O, resampling, derivatives."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

VALID_SPLITS = ("train", "val", "test")
# meta-CSV highway spellings; a missing column or empty cell means unknown
_CSV_HIGHWAY = {None: None, "": None, "true": True, "True": True, "1": True,
                "false": False, "False": False, "0": False}


class StyleLensError(ValueError):
    """Base of the package's errors: bad input or a request it cannot serve."""


class TrajectoryError(StyleLensError):
    """Raised for malformed trajectory or scene data, or an unreadable input file."""


@dataclass(frozen=True)
class TrajectorySample:
    """Timestamped 2-D track of a single agent.

    Timestamps are seconds, strictly increasing; positions are meters.
    Heading (radians) is optional and carried through resampling.
    """

    agent_id: str
    timestamps: np.ndarray
    positions: np.ndarray
    heading: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        p = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "positions", p)
        if p.ndim != 2 or p.shape[1] != 2:
            raise TrajectoryError(f"agent {self.agent_id!r}: positions must be (n, 2)")
        if t.ndim != 1 or len(t) != len(p):
            raise TrajectoryError(
                f"agent {self.agent_id!r}: timestamps and positions length mismatch"
            )
        if not (np.isfinite(t).all() and np.isfinite(p).all()):
            raise TrajectoryError(f"agent {self.agent_id!r}: non-finite coordinates")
        steps = t[1:] - t[:-1]
        if not (steps > 0).all():
            raise TrajectoryError(
                f"agent {self.agent_id!r}: timestamps not strictly increasing"
            )
        if self.heading is not None:
            h = np.asarray(self.heading, dtype=float)
            object.__setattr__(self, "heading", h)
            if h.ndim != 1:
                raise TrajectoryError(f"agent {self.agent_id!r}: heading must be 1-D, "
                                      f"got shape {h.shape}")
            if len(h) != len(t):
                raise TrajectoryError(f"agent {self.agent_id!r}: heading length mismatch")
            if not np.isfinite(h).all():
                raise TrajectoryError(f"agent {self.agent_id!r}: non-finite heading")
        # for dt and resampling; not fields, so ==, repr and replace see none of it
        first, spread = (steps[0], steps.max() - steps.min()) if len(steps) else (np.nan, np.nan)
        object.__setattr__(self, "first_step", float(first))
        object.__setattr__(self, "step_spread", float(spread))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def dt(self) -> float:
        """Inter-sample spacing; raises if not uniform to 1e-9 s."""
        if len(self) < 2:
            raise TrajectoryError("trajectory has a single sample")
        if self.step_spread > 1e-9:
            raise TrajectoryError(f"non-uniform sampling (spread {self.step_spread:.3e} s)")
        return self.first_step


@dataclass(frozen=True)
class Scene:
    """One traffic scene: a focal agent plus any neighbors, with metadata."""

    scene_id: str
    focal_agent_id: str
    agents: tuple
    split: str = "train"
    highway: Optional[bool] = None
    mdsi_label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.split not in VALID_SPLITS:
            raise TrajectoryError(f"scene {self.scene_id!r}: bad split {self.split!r}")
        if self.highway is not None and not isinstance(self.highway, bool):
            raise TrajectoryError(f"scene {self.scene_id!r}: highway must be a bool or "
                                  f"null, got {self.highway!r}")
        if self.mdsi_label is not None and not isinstance(self.mdsi_label, str):
            raise TrajectoryError(f"scene {self.scene_id!r}: mdsi_label must be a string "
                                  f"or null, got {self.mdsi_label!r}")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise TrajectoryError(f"scene {self.scene_id!r}: duplicate agent_id")
        if sum(1 for a in self.agents if a.agent_id == self.focal_agent_id) != 1:
            raise TrajectoryError(
                f"scene {self.scene_id!r}: focal agent {self.focal_agent_id!r} "
                "not present exactly once"
            )

    @property
    def focal(self) -> TrajectorySample:
        for a in self.agents:
            if a.agent_id == self.focal_agent_id:
                return a
        raise TrajectoryError("focal agent missing")  # unreachable after validation

    @property
    def neighbors(self) -> list:
        return [a for a in self.agents if a.agent_id != self.focal_agent_id]


def _agent_from_record(rec: dict) -> TrajectorySample:
    heading, aid, t, x, y = rec.get("heading"), rec["agent_id"], rec["t"], rec["x"], rec["y"]
    for name, value in (("t", t), ("x", x), ("y", y)):
        if not isinstance(value, list):
            raise TrajectoryError(f"agent {aid!r}: {name} must be a list, "
                                  f"not {type(value).__name__}")
        if len(value) != len(t):
            raise TrajectoryError(f"agent {aid!r}: t has {len(t)} samples, "
                                  f"{name} has {len(value)}")
    return TrajectorySample(aid, np.asarray(t, dtype=float), np.array((x, y), dtype=float).T.copy(),
                            None if heading is None else np.asarray(heading, dtype=float))


def scene_to_record(scene: Scene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "focal_agent_id": scene.focal_agent_id,
        "split": scene.split,
        "highway": scene.highway,
        "mdsi_label": scene.mdsi_label,
        "agents": [
            {
                "agent_id": a.agent_id,
                "t": a.timestamps.tolist(),
                "x": a.positions[:, 0].tolist(),
                "y": a.positions[:, 1].tolist(),
                "heading": None if a.heading is None else a.heading.tolist(),
            }
            for a in scene.agents
        ],
    }


def scene_from_record(rec: dict) -> Scene:
    return Scene(
        scene_id=rec["scene_id"],
        focal_agent_id=rec["focal_agent_id"],
        agents=tuple(_agent_from_record(a) for a in rec["agents"]),
        split=rec.get("split", "train"),
        highway=rec.get("highway"),
        mdsi_label=rec.get("mdsi_label"),
    )


def load_scenes(path, format: str = "jsonl") -> list:
    """Load scenes from the interchange format; see save_scenes for the schema.

    Malformed records raise TrajectoryError naming the offending line.
    """
    if format == "jsonl":
        return _load_jsonl(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {format!r}")


# what parsing a bad record raises, a failed check (TrajectoryError) included
READ_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _bad_input(where, exc, noun="key") -> TrajectoryError:
    """exc, raised parsing the record at `where`, as a TrajectoryError naming it."""
    what = f"no {exc.args[0]!r} {noun}" if isinstance(exc, KeyError) else exc
    return TrajectoryError(f"{where}: {what}")


def _load_jsonl(path) -> list:
    scenes = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                scenes.append(scene_from_record(json.loads(line)))
            except READ_ERRORS as exc:
                raise _bad_input(f"{path}, line {lineno}", exc) from exc
    return scenes


def _load_csv(path) -> list:
    """Long-format CSV: scene_id,agent_id,t,x,y plus an optional sidecar
    metadata CSV (<path>.meta.csv) with scene_id,focal_agent_id,split,highway,mdsi_label.

    A bad agent track names the file and scene; a bad scene names its meta line."""
    def sample(rec):
        key = rec["scene_id"], rec["agent_id"]
        return key, (float(rec["t"]), float(rec["x"]), float(rec["y"]))

    tracks = {}   # (scene_id, agent_id) -> [(t, x, y), ...], in order of first row
    for key, txy in read_csv(path, sample):
        tracks.setdefault(key, []).append(txy)
    agents = {}   # scene_id -> [TrajectorySample, ...], in order of first row
    for (sid, aid), samples in tracks.items():
        arr = np.asarray(sorted(samples), dtype=float)
        try:
            agent = TrajectorySample(agent_id=aid, timestamps=arr[:, 0], positions=arr[:, 1:3])
        except TrajectoryError as exc:
            raise TrajectoryError(f"{path}, scene {sid!r}: {exc}") from exc
        agents.setdefault(sid, []).append(agent)

    def scene(meta):  # a meta row, or {"scene_id": sid} for a scene without one
        sid = meta["scene_id"]
        if sid not in agents:  # a meta row of a scene the agent CSV does not have
            return None
        if meta.get("highway") not in _CSV_HIGHWAY:
            raise TrajectoryError("highway must be empty, true/True/1 or false/False/0, "
                                  f"got {meta['highway']!r}")
        return Scene(
            scene_id=sid,
            focal_agent_id=meta.get("focal_agent_id", agents[sid][0].agent_id),
            agents=tuple(agents[sid]),
            split=meta.get("split", "train"),
            highway=_CSV_HIGHWAY[meta.get("highway")],
            mdsi_label=meta.get("mdsi_label") or None,
        )

    try:  # built by read_csv's parse, so that a bad meta value names its line
        described = {s.scene_id: s for s in read_csv(str(path) + ".meta.csv", scene) if s}
    except FileNotFoundError:
        described = {}
    return [described.get(sid) or scene({"scene_id": sid}) for sid in agents]


def _utf8_lines(fh, path):
    """The lines of fh, a text file opened with errors="surrogateescape"; a
    line holding bytes that are not UTF-8 raises TrajectoryError naming the
    file and the physical line."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:  # each undecodable byte is a lone surrogate
                byte = ord(line[exc.start]) - 0xDC00
                raise TrajectoryError(f"{path}, line {lineno}: byte {byte:#04x} at "
                                      f"character {exc.start + 1} is not UTF-8") from None
        yield line


def read_csv(path, parse) -> list:
    """parse(record) of each data row of a headed CSV file, a record being a
    dict from column name to text. A missing column, a short or long row or a
    bad value (parse raising one of READ_ERRORS) raises TrajectoryError naming
    the file and the physical line."""
    out = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        for rec in reader:  # reader.line_num is the physical line, blank lines included
            try:
                if None in rec or None in rec.values():  # csv's marks of a long or short row
                    raise ValueError("wrong number of fields")
                out.append(parse(rec))
            except READ_ERRORS as exc:
                raise _bad_input(f"{path}, line {reader.line_num}", exc, "column") from exc
    return out


def read_json(path, from_dict):
    """from_dict(record) of the JSON object in a file; bad JSON, a missing or bad
    key, or a key that the built object's to_dict() lacks raises TrajectoryError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
            obj = from_dict(record)
            unknown = sorted(set(record) - obj.to_dict().keys())
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}")
        except READ_ERRORS as exc:
            raise _bad_input(path, exc) from exc
    return obj


def shaped(name, values, shape) -> np.ndarray:
    """values as a float array of the given shape, else ValueError naming it."""
    array = np.asarray(values, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array


def write_json(path, record, **fmt) -> None:
    """Write record as UTF-8 JSON text, json.dumps(record, **fmt), and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, **fmt) + "\n")


def write_csv(path, columns, rows, header_lines=()) -> None:
    """Write a table as UTF-8 with \\n line ends: each header line, the column
    names, then str() of each row's values (so floats are shortest round-trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def save_scenes(scenes: Sequence[Scene], path) -> None:
    """Write scenes as interchange JSONL: UTF-8 text, one scene per line, each
    a JSON object of this form (numbers are JSON floats):

        {"scene_id": str, "focal_agent_id": str, "split": "train" | "val" | "test",
         "highway": true | false | null, "mdsi_label": str | null,
         "agents": [{"agent_id": str, "t": [s, ...], "x": [m, ...], "y": [m, ...],
                     "heading": [rad, ...] | null}, ...]}

    t, x, y and heading hold one finite number per sample, and t strictly
    increases. load_scenes also reads a line that leaves out split (then
    "train"), highway, mdsi_label or heading (then null), and skips blank
    lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            fh.write(json.dumps(scene_to_record(scene)) + "\n")


def resample_uniform(traj: TrajectorySample, dt: float) -> TrajectorySample:
    """Linearly resample to a uniform grid t0, t0+dt, ... up to the last timestamp."""
    if dt <= 0:
        raise TrajectoryError(f"dt must be positive, got {dt}")
    if len(traj) < 2:
        raise TrajectoryError("need at least 2 samples to resample")
    t = traj.timestamps
    # identity short-circuit keeps already-uniform inputs bit-identical
    if abs(traj.step_spread) <= 1e-12 and abs(traj.first_step - dt) <= 1e-12:
        return traj
    n = int(math.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
    new_t = t[0] + dt * np.arange(n)
    x = np.interp(new_t, t, traj.positions[:, 0])
    y = np.interp(new_t, t, traj.positions[:, 1])
    heading = None
    if traj.heading is not None:
        heading = np.interp(new_t, t, traj.heading)
    return TrajectorySample(
        agent_id=traj.agent_id,
        timestamps=new_t,
        positions=np.column_stack([x, y]),
        heading=heading,
    )


def derivatives(traj: TrajectorySample):
    """Speed / acceleration / jerk signals via central differences.

    Speed is the norm of the centrally-differenced velocity; accel and jerk
    are successive central differences of the scalar speed (longitudinal).
    Endpoints use one-sided first-order differences so all three outputs
    have the same length as the trajectory.
    """
    if len(traj) < 4:
        raise TrajectoryError(f"need >= 4 samples for derivatives, got {len(traj)}")
    dt = traj.dt  # raises on non-uniform spacing
    vel = central_diff(traj.positions, dt)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    accel = central_diff(speed, dt)
    jerk = central_diff(accel, dt)
    return speed, accel, jerk


def central_diff(y: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0 of a uniformly sampled signal: central differences
    inside, one-sided first-order differences at the two endpoints."""
    out = np.empty_like(y)
    out[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    out[0] = (y[1] - y[0]) / dt
    out[-1] = (y[-1] - y[-2]) / dt
    return out
