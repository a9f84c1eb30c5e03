import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from style_lens import (
    Scene,
    TrajectoryError,
    TrajectorySample,
    derivatives,
    load_scenes,
    resample_uniform,
    save_scenes,
)
from style_lens.tdbm import _uniformize
from style_lens.traj import VALID_SPLITS, scene_from_record, scene_to_record

from conftest import make_scene, make_traj


class TestDataModel:
    def test_positions_shape_enforced(self):
        with pytest.raises(TrajectoryError):
            TrajectorySample("a", np.arange(3.0), np.zeros((3, 3)))

    def test_timestamps_strictly_increasing(self):
        with pytest.raises(TrajectoryError, match="increasing"):
            TrajectorySample("a", np.array([0.0, 2.0, 1.0]), np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(TrajectoryError, match="finite"):
            TrajectorySample("a", np.arange(3.0),
                             np.array([[0, 0], [np.nan, 0], [1, 0]]))

    def test_duplicate_agent_id_rejected(self):
        a = make_traj("x", [0, 1, 2])
        b = make_traj("x", [0, 1, 2])
        with pytest.raises(TrajectoryError, match="duplicate"):
            Scene("s", "x", (a, b))

    def test_focal_must_be_present(self):
        with pytest.raises(TrajectoryError, match="focal"):
            Scene("s", "missing", (make_traj("x", [0, 1, 2]),))

    @pytest.mark.parametrize("heading,what", [
        (np.zeros((3, 1)), "heading must be 1-D"),
        (0.5, "heading must be 1-D"),
        (np.array([0.0, np.nan, 0.0]), "non-finite heading"),
        (np.zeros(4), "heading length mismatch"),
    ], ids=["column", "scalar", "nan", "too-long"])
    def test_bad_heading_rejected(self, heading, what):
        with pytest.raises(TrajectoryError, match=what):
            TrajectorySample("a", np.arange(3.0), np.zeros((3, 2)), heading)

    def test_dt_non_uniform_raises(self):
        tr = TrajectorySample("a", np.array([0.0, 1.0, 3.0]), np.zeros((3, 2)))
        with pytest.raises(TrajectoryError, match="non-uniform"):
            tr.dt


class TestInterchange:
    def test_jsonl_round_trip_two_agents(self, tmp_path):
        scene = make_scene(
            "s1",
            make_traj("focal", [0, 1, 2], [0, 0.5, 1.0]),
            neighbors=[make_traj("nbr", [5, 6, 7])],
            split="test",
            highway=True,
            mdsi_label="risky",
        )
        path = tmp_path / "scenes.jsonl"
        save_scenes([scene], path)
        loaded = load_scenes(path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.scene_id == "s1"
        assert len(got.agents) == 2
        assert got.split == "test"
        assert got.highway is True
        assert got.mdsi_label == "risky"
        np.testing.assert_array_equal(got.focal.positions, scene.focal.positions)
        np.testing.assert_array_equal(got.agents[1].positions,
                                      scene.agents[1].positions)

    def test_out_of_order_timestamps_error_names_line(self, tmp_path):
        good = scene_to_record(make_scene("ok", make_traj("f", [0, 1, 2])))
        bad = scene_to_record(make_scene("bad", make_traj("f", [0, 1, 2])))
        bad["agents"][0]["t"] = [0.0, 2.0, 1.0]
        path = tmp_path / "scenes.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(TrajectoryError, match="line 2"):
            load_scenes(path)

    def test_non_numeric_coordinate_error_names_line(self, tmp_path):
        good = scene_to_record(make_scene("ok", make_traj("f", [0, 1, 2])))
        bad = scene_to_record(make_scene("bad", make_traj("f", [0, 1, 2])))
        bad["agents"][0]["x"] = ["zz", 1, 2]
        path = tmp_path / "scenes.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(good) + "\n")
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(TrajectoryError, match=re.escape(f"{path}, line 2")):
            load_scenes(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_scenes(path) == []

    def test_record_round_trip_preserves_heading(self):
        tr = make_traj("f", [0, 1, 2, 3], heading=np.array([0.0, 0.1, 0.2, 0.3]))
        scene = make_scene("s", tr)
        back = scene_from_record(scene_to_record(scene))
        np.testing.assert_array_equal(back.focal.heading, tr.heading)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "scenes.csv"
        with open(path, "w") as fh:
            fh.write("scene_id,agent_id,t,x,y\n")
            for t in range(4):
                fh.write(f"s0,f,{t}.0,{t}.0,0.0\n")
            for t in range(4):
                fh.write(f"s0,n,{t}.0,{t + 5}.0,0.0\n")
        scenes = load_scenes(path, format="csv")
        assert len(scenes) == 1
        assert {a.agent_id for a in scenes[0].agents} == {"f", "n"}

    def test_csv_bad_value_names_line(self, tmp_path):
        path = tmp_path / "scenes.csv"
        path.write_text("scene_id,agent_id,t,x,y\ns0,f,0.0,zero,0.0\n")
        with pytest.raises(TrajectoryError, match="line 2"):
            load_scenes(path, format="csv")


def _jsonl(**scene_fields):
    rec = scene_to_record(make_scene("s0", make_traj("f", [0, 1, 2, 3])))
    rec.update(scene_fields)
    return {"scenes.jsonl": json.dumps(rec) + "\n"}


def _csv(rows, meta=None):
    files = {"scenes.csv": "scene_id,agent_id,t,x,y\n" + rows}
    if meta is not None:
        files["scenes.csv.meta.csv"] = meta
    return files


FOUR_ROWS = "".join(f"s0,f,{t}.0,{t}.0,0.0\n" for t in range(4))
FOCAL_RECORD = _jsonl()["scenes.jsonl"]
FOCAL_AGENT = json.loads(FOCAL_RECORD)["agents"][0]
# the bytes 0xff 0xfe, which are not UTF-8, as text that write_text(...,
# errors="surrogateescape") writes back as those bytes
NOT_UTF8 = b"\xff\xfe".decode("utf-8", "surrogateescape")

# (files, the file the error must name, a pattern the message must contain)
BAD_INPUTS = {
    "jsonl-highway-string": (_jsonl(highway="false"), "scenes.jsonl, line 1", "highway"),
    "jsonl-mdsi-not-string": (_jsonl(mdsi_label=3), "scenes.jsonl, line 1", "mdsi_label"),
    "csv-duplicate-t": (_csv(FOUR_ROWS + "s0,f,3.0,9.0,0.0\n"), "scenes.csv, scene 's0'",
                        "increasing"),
    "csv-nan-t": (_csv("s0,f,nan,0.0,0.0\n" + FOUR_ROWS), "scenes.csv, scene 's0'",
                  "non-finite"),
    "meta-no-scene-id": (_csv(FOUR_ROWS, "id,split\ns0,train\n"),
                         "scenes.csv.meta.csv, line 2", "scene_id"),
    "meta-bad-split": (_csv(FOUR_ROWS, "scene_id,split\ns0,dev\n"),
                       "scenes.csv.meta.csv, line 2", "split"),
    "meta-unknown-focal": (_csv(FOUR_ROWS, "scene_id,focal_agent_id\ns0,ghost\n"),
                           "scenes.csv.meta.csv, line 2", "ghost"),
    "meta-highway-yes": (_csv(FOUR_ROWS, "scene_id,highway\ns0,yes\n"),
                         "scenes.csv.meta.csv, line 2", "highway"),
    # csv.DictReader skips blank lines; the error names the physical line
    "csv-bad-t-after-blank-line": (_csv("s0,f,0.0,0.0,0.0\n\ns0,f,zero,1.0,0.0\n"),
                                   "scenes.csv, line 4", "zero"),
    "meta-bad-split-after-blank-line": (_csv(FOUR_ROWS, "scene_id,split\ns1,train\n\ns0,dev\n"),
                                        "scenes.csv.meta.csv, line 4", "split"),
    "jsonl-agent-not-object": (_jsonl(agents=[None]), "scenes.jsonl, line 1", "attribute"),
    "jsonl-int-too-large": (_jsonl(agents=[{"agent_id": "f", "t": [0, 10**400], "x": [0, 1],
                                            "y": [0, 1]}], focal_agent_id="f"),
                            "scenes.jsonl, line 1", "too large"),
    "csv-row-too-long": (_csv(FOUR_ROWS + "s0,f,4.0,4.0,0.0,9\n"), "scenes.csv, line 6",
                         "wrong number of fields"),
    "meta-row-too-short": (_csv(FOUR_ROWS, "scene_id,split\ns0\n"),
                           "scenes.csv.meta.csv, line 2", "wrong number of fields"),
    "jsonl-heading-column": (_jsonl(agents=[dict(FOCAL_AGENT, heading=[[0.0]] * 4)]),
                             "scenes.jsonl, line 1", "heading must be 1-D"),
    "jsonl-heading-scalar": (_jsonl(agents=[dict(FOCAL_AGENT, heading=0.5)]),
                             "scenes.jsonl, line 1", "heading must be 1-D"),
    "jsonl-heading-nan": (_jsonl(agents=[dict(FOCAL_AGENT, heading=[0.0, float("nan"), 0.0,
                                                                    0.0])]),
                          "scenes.jsonl, line 1", "non-finite heading"),
    "jsonl-not-utf8": ({"scenes.jsonl": FOCAL_RECORD + FOCAL_RECORD.replace('"s0"',
                                                                            f'"s{NOT_UTF8}"')},
                       "scenes.jsonl, line 2", "byte 0xff at character"),
    "csv-not-utf8": (_csv(FOUR_ROWS + f"s{NOT_UTF8},f,0.0,0.0,0.0\n"), "scenes.csv, line 6",
                     "byte 0xff at character 2 is not UTF-8"),
    "meta-not-utf8": (_csv(FOUR_ROWS, f"scene_id,split\ns0,train\ns{NOT_UTF8},train\n"),
                      "scenes.csv.meta.csv, line 3", "is not UTF-8"),
    "jsonl-y-too-short": (_jsonl(agents=[dict(FOCAL_AGENT, y=[0.0] * 3)]),
                          "scenes.jsonl, line 1", "agent 'f': t has 4 samples, y has 3"),
    "jsonl-t-too-long": (_jsonl(agents=[dict(FOCAL_AGENT, t=[0.0, 1.0, 2.0, 3.0, 4.0])]),
                         "scenes.jsonl, line 1", "agent 'f': t has 5 samples, x has 4"),
    "jsonl-x-not-list": (_jsonl(agents=[dict(FOCAL_AGENT, x=1.0)]), "scenes.jsonl, line 1",
                         "agent 'f': x must be a list, not float"),
    "jsonl-no-y": (_jsonl(agents=[{k: v for k, v in FOCAL_AGENT.items() if k != "y"}]),
                   "scenes.jsonl, line 1", "no 'y' key"),
}


@pytest.mark.parametrize("files,where,what", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_names_its_location(tmp_path, files, where, what):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    data = min(files)  # scenes.csv or scenes.jsonl, not the meta sidecar
    with pytest.raises(TrajectoryError, match=re.escape(f"{tmp_path / where}")) as err:
        load_scenes(tmp_path / data, format=data.rsplit(".", 1)[1])
    assert what in str(err.value)


NAMES = st.text("abfxyz019_-", min_size=1, max_size=3)


@st.composite
def scene_lists(draw):
    """1-3 scenes of 1-2 agents with 1-4 samples; hypothesis draws the shape
    and metadata, a seeded generator the numbers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenes = []
    for sid in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        agents = []
        for aid in draw(st.lists(NAMES, min_size=1, max_size=2, unique=True)):
            n = draw(st.integers(1, 4))
            t = rng.uniform(-1e3, 1e3) + np.cumsum(rng.uniform(1e-3, 10.0, n))
            xy = rng.normal(0.0, 10.0 ** rng.integers(-3, 7), (n, 2))
            heading = rng.normal(size=n) if draw(st.booleans()) else None
            agents.append(TrajectorySample(aid, t, xy, heading))
        scenes.append(Scene(sid, draw(st.sampled_from(agents)).agent_id, agents,
                            split=draw(st.sampled_from(VALID_SPLITS)),
                            highway=draw(st.sampled_from([None, True, False])),
                            mdsi_label=draw(st.none() | NAMES)))
    return scenes


def records(scenes):
    return [scene_to_record(s) for s in scenes]


@settings(max_examples=40, deadline=None)
@given(scenes=scene_lists())
def test_save_then_load_gives_back_equal_scenes(tmp_path_factory, scenes):
    path = tmp_path_factory.mktemp("round_trip") / "scenes.jsonl"
    save_scenes(scenes, path)
    assert records(load_scenes(path)) == records(scenes)


def csv_files(scenes):
    """The long-format CSV and its meta sidecar for `scenes`; CSV carries no heading."""
    rows = [f"{s.scene_id},{a.agent_id},{t!r},{x!r},{y!r}" for s in scenes for a in s.agents
            for t, (x, y) in zip(a.timestamps.tolist(), a.positions.tolist())]
    meta = [f"{s.scene_id},{s.focal_agent_id},{s.split},"
            f"{'' if s.highway is None else str(s.highway).lower()},{s.mdsi_label or ''}"
            for s in scenes]
    return {"scenes.csv": "\n".join(["scene_id,agent_id,t,x,y"] + rows) + "\n",
            "scenes.csv.meta.csv": "\n".join(
                ["scene_id,focal_agent_id,split,highway,mdsi_label"] + meta) + "\n"}


# text spliced into a record: JSON and CSV punctuation, number parts and any
# other character but a line break, so a record stays one physical line
JUNK = st.text(st.sampled_from(list(',"{}[]:.-+e0123456789 truefalsnainf'))
               | st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
               max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def json_slots(value):
    """(container, key) of every field and every list item that is a
    container, nested in a JSON record; number items are left to JUNK."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        if isinstance(value, dict) or isinstance(item, (dict, list)):
            yield value, key
        if isinstance(item, (dict, list)):
            yield from json_slots(item)


@st.composite
def json_corruption(draw, rec):
    """rec with one nested value replaced or deleted, or one key added."""
    container, key = draw(st.sampled_from(list(json_slots(rec))))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        container[key] = draw(JSON_VALUES)
    elif action == "delete":
        del container[key]
    elif isinstance(container, dict):
        container[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    return json.dumps(rec)


LOCATION = re.compile(r"(?P<file>[^,]+), (?:line (?P<line>\d+)|scene '.*'): ")


@settings(max_examples=100, deadline=None)
@given(scenes=scene_lists(), target=st.sampled_from(["scenes.jsonl", "scenes.csv",
                                                     "scenes.csv.meta.csv"]),
       data=st.data())
def test_corrupt_record_names_its_location(tmp_path_factory, scenes, target, data):
    """Loading a file with one corrupt record either succeeds or raises
    TrajectoryError naming a file and a physical line, or the scene of a bad
    track; the line is the corrupt one. A quote opens a CSV field that may run
    on to a later line, and csv numbers a record by its last line."""
    files = csv_files(scenes)
    files["scenes.jsonl"] = "".join(json.dumps(rec) + "\n" for rec in records(scenes))
    lines = files[target].split("\n")[:-1]
    first = 0 if target == "scenes.jsonl" else 1   # CSVs keep their header
    k = data.draw(st.integers(first, len(lines) - 1))
    if target == "scenes.jsonl" and data.draw(st.booleans()):
        lines[k] = data.draw(json_corruption(json.loads(lines[k])))
        junk = ""
    else:
        i = data.draw(st.integers(0, len(lines[k])))
        j = data.draw(st.integers(i, len(lines[k])))
        junk = data.draw(JUNK)
        lines[k] = lines[k][:i] + junk + lines[k][j:]
    files[target] = "\n".join(lines) + "\n"
    folder = tmp_path_factory.mktemp("corrupt")
    for name, text in files.items():
        (folder / name).write_text(text, encoding="utf-8")
    fmt = "jsonl" if target == "scenes.jsonl" else "csv"
    try:
        load_scenes(folder / f"scenes.{fmt}", format=fmt)
    except TrajectoryError as exc:
        where = LOCATION.match(str(exc))
        assert where, str(exc)
        assert where["file"] in {str(folder / name) for name in files}
        if where["file"] == str(folder / target) and where["line"]:
            last = len(lines) if '"' in junk and fmt == "csv" else k + 1
            assert k + 1 <= int(where["line"]) <= last, str(exc)


def reference_checks(agent_id, timestamps, positions, heading):
    """The message TrajectorySample raised for these inputs when it ran
    np.diff/np.all on every check, or None where it accepted them."""
    t = np.asarray(timestamps, dtype=float)
    p = np.asarray(positions, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        return f"agent {agent_id!r}: positions must be (n, 2)"
    if t.ndim != 1 or len(t) != len(p):
        return f"agent {agent_id!r}: timestamps and positions length mismatch"
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        return f"agent {agent_id!r}: non-finite coordinates"
    if len(t) >= 2 and not np.all(np.diff(t) > 0):
        return f"agent {agent_id!r}: timestamps not strictly increasing"
    if heading is not None and len(np.asarray(heading, dtype=float)) != len(t):
        return f"agent {agent_id!r}: heading length mismatch"
    return None


def reference_dt(t):
    """TrajectorySample.dt as np.diff/np.ptp computed it on every call."""
    steps = np.diff(t)
    if len(steps) == 0:
        raise TrajectoryError("trajectory has a single sample")
    if np.ptp(steps) > 1e-9:
        raise TrajectoryError(f"non-uniform sampling (spread {np.ptp(steps):.3e} s)")
    return float(steps[0])


def reference_identities(t, dt):
    """Whether _uniformize(traj, dt) and resample_uniform(traj, dt) returned
    traj itself, by their np.diff/np.ptp tests (for two or more samples)."""
    steps = np.diff(t)
    return (np.ptp(steps) <= 1e-9,
            abs(np.ptp(steps)) <= 1e-12 and abs(steps[0] - dt) <= 1e-12)


@st.composite
def track_inputs(draw):
    """(timestamps, positions, heading, grid step): grids with steps jittered
    around the 1e-12 and 1e-9 tolerances, or free timestamps with repeats and
    reversals; now and then a non-finite value, or positions or a heading of
    the wrong shape."""
    def rare():
        return draw(st.integers(0, 9)) == 0

    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.1, 0.25, 1.0]))
        t = draw(st.floats(-100, 100)) + step * np.arange(n)
        if n and draw(st.booleans()):
            jitter = draw(st.sampled_from([1e-13, 5e-13, 2e-12, 5e-10, 2e-9, 1e-3]))
            t[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1])) * jitter
    else:
        step = 0.1
        t = np.array(draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
        if draw(st.booleans()):
            t.sort()
    rows = n + 1 if rare() else n
    positions = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * rows,
                                       max_size=2 * rows))).reshape(rows, 2)
    for values in (t, positions.reshape(-1)):
        if len(values) and rare():
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from([np.nan,
                                                                                 -np.inf]))
    if rare():
        positions = np.zeros((rows, 3))
    heading = np.zeros(n + 1) if rare() else draw(st.sampled_from([None, np.zeros(n)]))
    return t, positions, heading, step


@settings(max_examples=300, deadline=None)
@given(track=track_inputs())
def test_validation_and_steps_match_the_reference(track):
    """Validation accepts and rejects what the np.diff/np.all checks did, with
    the same message, and dt, _uniformize and resample_uniform decide from
    the kept steps as np.diff/np.ptp on every call did."""
    t, positions, heading, step = track
    expected = reference_checks("a", t, positions, heading)
    try:
        tr = TrajectorySample("a", t, positions, heading)
    except TrajectoryError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    try:
        want = reference_dt(t)
    except TrajectoryError as exc:
        with pytest.raises(TrajectoryError, match=re.escape(str(exc))):
            tr.dt
    else:
        assert tr.dt == want
    if len(t) < 2:
        with pytest.raises(TrajectoryError, match="at least 2 samples"):
            _uniformize(tr, step)
    else:
        got = _uniformize(tr, step) is tr, resample_uniform(tr, step) is tr
        assert got == reference_identities(t, step)


class TestResample:
    def test_midpoint_interpolation(self):
        tr = TrajectorySample("a", np.array([0.0, 1.0]),
                              np.array([[0.0, 0.0], [2.0, 0.0]]))
        out = resample_uniform(tr, 0.5)
        np.testing.assert_allclose(out.timestamps, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(out.positions,
                                   [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_already_uniform_is_identity(self):
        tr = make_traj("a", np.arange(5.0), dt=0.1)
        out = resample_uniform(tr, 0.1)
        assert out is tr  # bitwise identical, same object

    def test_single_sample_errors(self):
        tr = TrajectorySample("a", np.array([0.0]), np.zeros((1, 2)))
        with pytest.raises(TrajectoryError):
            resample_uniform(tr, 0.1)

    def test_nonpositive_dt_errors(self):
        tr = make_traj("a", [0, 1, 2])
        with pytest.raises(TrajectoryError):
            resample_uniform(tr, 0.0)

    def test_irregular_grid_linear_values(self):
        t = np.array([0.0, 0.3, 1.0, 1.4, 2.0])
        tr = TrajectorySample("a", t, np.column_stack([2.0 * t + 1.0, -t]))
        out = resample_uniform(tr, 0.25)
        # linear motion survives linear resampling exactly (up to fp rounding)
        np.testing.assert_allclose(out.positions[:, 0], 2.0 * out.timestamps + 1.0)
        np.testing.assert_allclose(out.positions[:, 1], -out.timestamps)


class TestDerivatives:
    def test_constant_velocity(self):
        tr = make_traj("a", [0.0, 1.0, 2.0, 3.0], dt=1.0)
        speed, accel, jerk = derivatives(tr)
        np.testing.assert_allclose(speed, [1, 1, 1, 1])
        np.testing.assert_allclose(accel, 0.0, atol=1e-12)
        np.testing.assert_allclose(jerk, 0.0, atol=1e-12)

    def test_quadratic_interior_speeds_exact(self):
        t = np.arange(5.0)
        tr = make_traj("a", 0.5 * t**2, dt=1.0)
        speed, _, _ = derivatives(tr)
        # central differences are exact on quadratics: v = t on the interior
        np.testing.assert_allclose(speed[1:-1], [1.0, 2.0, 3.0])

    def test_matches_np_gradient_oracle(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(20, 2)).cumsum(axis=0)
        tr = TrajectorySample("a", 0.5 * np.arange(20.0), pos)
        speed, accel, jerk = derivatives(tr)
        vel = np.gradient(pos, 0.5, axis=0, edge_order=1)
        speed_o = np.hypot(vel[:, 0], vel[:, 1])
        accel_o = np.gradient(speed_o, 0.5, edge_order=1)
        jerk_o = np.gradient(accel_o, 0.5, edge_order=1)
        np.testing.assert_allclose(speed, speed_o, atol=1e-12)
        np.testing.assert_allclose(accel, accel_o, atol=1e-12)
        np.testing.assert_allclose(jerk, jerk_o, atol=1e-12)

    def test_three_samples_error(self):
        with pytest.raises(TrajectoryError, match="4 samples"):
            derivatives(make_traj("a", [0, 1, 2]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=(12, 2))
        t = 0.1 * np.arange(12.0)
        a = TrajectorySample("a", t, pos)
        b = TrajectorySample("a", t, pos + np.array([123.0, -55.0]))
        for xa, xb in zip(derivatives(a), derivatives(b)):
            np.testing.assert_allclose(xa, xb, atol=1e-9)

    @given(
        vx=st.floats(-20, 20),
        vy=st.floats(-20, 20),
        n=st.integers(4, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_motion_has_constant_speed(self, vx, vy, n):
        t = 0.1 * np.arange(n)
        tr = TrajectorySample("a", t, np.column_stack([vx * t, vy * t]))
        speed, accel, jerk = derivatives(tr)
        np.testing.assert_allclose(speed, np.hypot(vx, vy), atol=1e-9)
        np.testing.assert_allclose(accel, 0.0, atol=1e-8)
        np.testing.assert_allclose(jerk, 0.0, atol=1e-7)

    def test_second_order_convergence_on_curved_path(self):
        # cubic y(t) with unit x-speed; pointwise interior error drops 4x per halving
        def err_at(dt, t0=1.5):
            t = np.arange(1.0, 2.0 + dt / 2, dt)
            tr = TrajectorySample("a", t, np.column_stack([t, t**3]))
            _, accel, _ = derivatives(tr)
            i = int(round((t0 - 1.0) / dt))
            true = 18.0 * t0**3 / np.sqrt(1.0 + 9.0 * t0**4)
            return abs(accel[i] - true)

        e1, e2, e3 = err_at(0.05), err_at(0.025), err_at(0.0125)
        assert e1 / e2 >= 3.9
        assert e2 / e3 >= 3.9
