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
from style_lens.traj import scene_from_record, scene_to_record

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
}


@pytest.mark.parametrize("files,where,what", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_names_its_location(tmp_path, files, where, what):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    data = min(files)  # scenes.csv or scenes.jsonl, not the meta sidecar
    with pytest.raises(TrajectoryError, match=re.escape(f"{tmp_path / where}")) as err:
        load_scenes(tmp_path / data, format=data.rsplit(".", 1)[1])
    assert what in str(err.value)


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
