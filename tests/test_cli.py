import filecmp
import json

import numpy as np
import pytest

from style_lens.cli import main
from style_lens.embed import EmbeddingBank
from style_lens.forecast import ForecastModel
from style_lens.kdsc import ClusterModel
from style_lens.tdbm import STYLE_LABELS, TdbmConfig


@pytest.fixture
def workspace(tmp_path):
    main(["synth", "--kind", "yellow-light", "--n", "30", "--seed", "1",
          "--out", str(tmp_path / "yellow.jsonl"),
          "--labels", str(tmp_path / "yellow_labels.csv")])
    main(["synth", "--kind", "cruise", "--n", "40", "--seed", "2",
          "--out", str(tmp_path / "cruise.jsonl")])
    return tmp_path


def test_synth_outputs(workspace):
    lines = (workspace / "yellow.jsonl").read_text().splitlines()
    assert len(lines) == 30
    rec = json.loads(lines[0])
    assert rec["focal_agent_id"] == "focal"
    labels = (workspace / "yellow_labels.csv").read_text().splitlines()
    assert labels[0] == "scene_id,label"
    assert len(labels) == 31


def test_features_and_tdbm_schemas(workspace):
    main(["features", "--in", str(workspace / "cruise.jsonl"),
          "--out", str(workspace / "features.csv")])
    lines = (workspace / "features.csv").read_text().splitlines()
    assert lines[0] == ("scene_id,agent_id,mean_speed,max_speed,var_speed,"
                        "mean_accel,max_abs_accel,var_accel,mean_jerk,var_jerk,gamma")
    assert len(lines) == 41

    main(["tdbm", "--in", str(workspace / "cruise.jsonl"),
          "--out", str(workspace / "tdbm.csv")])
    lines = (workspace / "tdbm.csv").read_text().splitlines()
    head = lines[0].split(",")
    assert head[:8] == ["scene_id", "agent_id", "s_center", "v_nei", "s_front",
                        "v_avg", "j_l", "had_neighbors"]
    assert head[8:14] == [f"score_{lbl}" for lbl in STYLE_LABELS]
    assert head[14] == "class"
    for line in lines[1:]:
        assert line.split(",")[-1] in STYLE_LABELS


def test_kdsc_fit_and_assignments(workspace):
    main(["features", "--in", str(workspace / "cruise.jsonl"),
          "--out", str(workspace / "features.csv")])
    main(["kdsc", "--features", str(workspace / "features.csv"), "--k", "2",
          "--out", str(workspace / "model.json"),
          "--assignments", str(workspace / "assign.csv")])
    model = ClusterModel.load(workspace / "model.json")
    assert model.k == 2
    assert set(model.labels.values()) == {"aggressive", "normal"}
    lines = (workspace / "assign.csv").read_text().splitlines()
    assert lines[0] == "scene_id,agent_id,cluster,label"
    assert len(lines) == 41


def test_train_eval_report_pipeline(workspace):
    main(["train-embed", "--in", str(workspace / "yellow.jsonl"),
          "--labels", str(workspace / "yellow_labels.csv"),
          "--fusion", "early", "--epochs", "3", "--modes", "1",
          "--hidden", "8", "--dim", "4", "--seed", "0",
          "--model", str(workspace / "fc.json"),
          "--bank", str(workspace / "bank.json")])
    assert (workspace / "fc.json").exists()
    assert (workspace / "bank.json").exists()

    main(["eval", "--in", str(workspace / "yellow.jsonl"),
          "--labels", str(workspace / "yellow_labels.csv"),
          "--model", str(workspace / "fc.json"),
          "--bank", str(workspace / "bank.json"),
          "--out", str(workspace / "metrics.csv")])
    lines = (workspace / "metrics.csv").read_text().splitlines()
    assert lines[0] == "style,model,brierFDE,minADE,minFDE,MissRate,n"
    assert lines[-1].startswith("Overall,early,")
    styles = {l.split(",")[0] for l in lines[1:]}
    assert {"aggressive", "timid", "Overall"} <= styles

    main(["report", "--in", str(workspace / "cruise.jsonl"),
          "--out-dir", str(workspace / "reports"), "--svg"])
    for name in ("style_histogram.csv", "kinematics_boxplots.csv",
                 "mdsi_tdbm_heatmap.csv", "style_histogram.svg"):
        assert (workspace / "reports" / name).exists()


def test_synth_and_features_deterministic(tmp_path):
    for tag in ("a", "b"):
        main(["synth", "--kind", "cruise", "--n", "15", "--seed", "9",
              "--out", str(tmp_path / f"scenes_{tag}.jsonl")])
        main(["features", "--in", str(tmp_path / f"scenes_{tag}.jsonl"),
              "--out", str(tmp_path / f"features_{tag}.csv")])
    assert filecmp.cmp(tmp_path / "scenes_a.jsonl", tmp_path / "scenes_b.jsonl",
                       shallow=False)
    assert filecmp.cmp(tmp_path / "features_a.csv", tmp_path / "features_b.csv",
                       shallow=False)


def test_custom_mix_flag(tmp_path):
    main(["synth", "--kind", "cruise", "--n", "10",
          "--mix", "aggressive=1.0",
          "--out", str(tmp_path / "s.jsonl"),
          "--labels", str(tmp_path / "l.csv")])
    lines = (tmp_path / "l.csv").read_text().splitlines()[1:]
    assert all(l.endswith(",aggressive") for l in lines)


def test_eval_conditions_on_the_trained_style_rows(workspace):
    w = workspace
    main(["train-embed", "--in", str(w / "yellow.jsonl"), "--labels", str(w / "yellow_labels.csv"),
          "--fusion", "early", "--epochs", "3", "--modes", "1", "--hidden", "8", "--dim", "4",
          "--model", str(w / "fc.json"), "--bank", str(w / "bank.json")])
    assert json.loads((w / "bank.json").read_text())["style_names"] == ["aggressive", "timid"]

    # a timid-only corpus and label file: timid must keep its training row z=1
    labels = (w / "yellow_labels.csv").read_text().splitlines()
    timid = {line.split(",")[0] for line in labels[1:] if line.endswith(",timid")}
    (w / "timid_labels.csv").write_text(
        "\n".join([labels[0]] + [l for l in labels[1:] if l.endswith(",timid")]) + "\n")
    (w / "timid.jsonl").write_text("".join(
        line + "\n" for line in (w / "yellow.jsonl").read_text().splitlines()
        if json.loads(line)["scene_id"] in timid))

    def evaluate(corpus, label_file, out):
        main(["eval", "--in", str(w / corpus), "--labels", str(w / label_file),
              "--model", str(w / "fc.json"), "--bank", str(w / "bank.json"),
              "--out", str(w / out)])
        rows = [l.split(",") for l in (w / out).read_text().splitlines()[1:]]
        return {r[0]: r[2:] for r in rows}

    full = evaluate("yellow.jsonl", "yellow_labels.csv", "full.csv")
    only = evaluate("timid.jsonl", "timid_labels.csv", "timid.csv")
    assert only["timid"] == only["Overall"] == full["timid"]

    # a scene without a label, or with a style the bank never saw, names the scene
    missing = next(l.split(",")[0] for l in labels[1:] if l.endswith(",aggressive"))
    with pytest.raises(SystemExit, match=f"no label for scene '{missing}'"):
        evaluate("yellow.jsonl", "timid_labels.csv", "bad.csv")
    (w / "odd_labels.csv").write_text((w / "timid_labels.csv").read_text()
                                      .replace(",timid", ",reckless"))
    with pytest.raises(SystemExit, match=r"scene '.*': style 'reckless'"):
        evaluate("timid.jsonl", "odd_labels.csv", "bad.csv")


@pytest.mark.parametrize("text,error", [
    ("scene_id,style\ns0,timid\n", "line 2: no 'label' column"),
    ("scene_id,label\ns0,timid\ns1\n", "line 3: wrong number of fields"),
])
def test_train_embed_label_errors_name_the_line(workspace, text, error):
    (workspace / "styles.csv").write_text(text)
    with pytest.raises(SystemExit, match=rf"styles\.csv, {error}"):
        main(["train-embed", "--in", str(workspace / "yellow.jsonl"),
              "--labels", str(workspace / "styles.csv"), "--epochs", "1",
              "--model", str(workspace / "fc.json")])


def test_kdsc_features_errors_name_the_line(workspace):
    main(["features", "--in", str(workspace / "cruise.jsonl"),
          "--out", str(workspace / "features.csv")])
    lines = (workspace / "features.csv").read_text().splitlines()

    def kdsc(text):
        (workspace / "bad.csv").write_text(text)
        main(["kdsc", "--features", str(workspace / "bad.csv"),
              "--out", str(workspace / "model.json")])

    with pytest.raises(SystemExit, match=r"bad\.csv, line 2: no 'agent_id' column"):
        kdsc("scene_id,style\ns0,timid\n")
    row = lines[3].split(",")
    row[2] = "fast"
    with pytest.raises(SystemExit, match=r"bad\.csv, line 4: could not convert"):
        kdsc("\n".join(lines[:3] + [",".join(row)]) + "\n")


MODEL = ForecastModel.init(H=8, T=12, M=1, hidden=4, D=4, fusion="early")


def _json_loader_cases():
    """One param (loader, JSON content or None for a missing file, reason) per
    fault of each JSON input: --config, --model, --bank and --kdsc-model."""
    valid = {
        "config": TdbmConfig().to_dict(),
        "model": MODEL.to_dict(),
        "bank": EmbeddingBank.init(num_styles=2, K=1, D=4).to_dict(),
        "kdsc": ClusterModel(feature_names=("mean_speed",), mean=np.zeros(1), std=np.ones(1),
                             merge_history=(), k=1, centroids=np.zeros((1, 1))).to_dict(),
    }
    # an unknown key in place of a known one, and a needed key deleted; every
    # TdbmConfig field has a default, so a config can leave any out and a bad
    # value stands in
    renamed = {"config": ("d_ref", "d_reff", "unexpected keyword argument 'd_reff'"),
               "model": ("T", "horizon", "no 'T' key"),
               "bank": ("styles", "rows", "no 'styles' key"),
               "kdsc": ("feature_names", "features", "no 'feature_names' key")}
    deleted = {"model": "W1", "bank": "D", "kdsc": "k"}
    # an optional key misspelled must name itself, not load as the key's default
    misspelled = {"model": "input_scale", "bank": "style_names", "kdsc": "labels"}
    for loader, d in valid.items():
        old, new, reason = renamed[loader]
        cases = {"unknown-key": ({new if k == old else k: v for k, v in d.items()}, reason)}
        if loader == "config":
            cases["bad-value"] = ({"d_ref": 0.0}, "d_ref must be finite and > 0")
        else:
            key = deleted[loader]
            cases["missing-key"] = ({k: v for k, v in d.items() if k != key}, f"no {key!r}")
            key = misspelled[loader]
            cases["misspelled-optional-key"] = (
                {k[:-1] if k == key else k: v for k, v in d.items()},
                f"unknown key {key[:-1]!r}")
        cases["bad-json"] = ("{", "Expecting property name")
        cases["missing-file"] = (None, "No such file or directory")
        for fault, (content, reason) in cases.items():
            yield pytest.param(loader, content, reason, id=f"{loader}-{fault}")


@pytest.mark.parametrize("loader,content,reason", _json_loader_cases())
def test_bad_json_input_exits_naming_the_file(workspace, loader, content, reason):
    w = workspace
    bad = w / f"{loader}.json"
    if content is not None:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
    MODEL.save(w / "fc.json")
    evaluate = ["eval", "--in", str(w / "yellow.jsonl"), "--labels", str(w / "yellow_labels.csv"),
                "--out", str(w / "m.csv")]
    argv = {"config": ["tdbm", "--in", str(w / "cruise.jsonl"), "--config", str(bad),
                       "--out", str(w / "t.csv")],
            "model": evaluate + ["--model", str(bad)],
            "bank": evaluate + ["--model", str(w / "fc.json"), "--bank", str(bad)],
            "kdsc": ["report", "--in", str(w / "cruise.jsonl"), "--kdsc-model", str(bad),
                     "--out-dir", str(w / "r")]}[loader]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    message = str(exit_.value)
    assert str(bad) in message and reason in message, message
    if content is not None:
        assert message.startswith(f"{bad}: ")


@pytest.mark.parametrize("mix,error", [
    ("aggressive", "part 'aggressive': expected style=fraction"),
    ("aggressive=x", "part 'aggressive=x': could not convert string to float: 'x'"),
    ("fast=1.0", "part 'fast=1.0': unknown style 'fast'"),
    ("aggressive=0.5,aggressive=0.5", "part 'aggressive=0.5': style 'aggressive' given twice"),
])
def test_bad_mix_exits_naming_the_part(tmp_path, mix, error):
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--kind", "cruise", "--n", "3", "--mix", mix,
              "--out", str(tmp_path / "s.jsonl")])
    assert str(exit_.value) == f"--mix {error}; the styles are aggressive, normal, timid"


@pytest.mark.parametrize("mix", ["aggressive=0.5", "aggressive=nan,normal=0.5",
                                 "aggressive=-0.5,normal=1.5", "aggressive=inf"])
def test_out_of_range_mix_exits_naming_the_flag(tmp_path, mix):
    with pytest.raises(SystemExit) as exit_:
        main(["synth", "--kind", "cruise", "--n", "3", "--mix", mix,
              "--out", str(tmp_path / "s.jsonl")])
    assert str(exit_.value).startswith(
        f"--mix {mix!r}: mix fractions must be finite, nonnegative and sum to 1")


# the bytes 0xff 0xfe, which are not UTF-8, as text that write_text(...,
# errors="surrogateescape") writes back as those bytes
NOT_UTF8 = b"\xff\xfe".decode("utf-8", "surrogateescape")


@pytest.mark.parametrize("kind", ["jsonl", "agent-csv", "meta-csv", "labels", "features"])
def test_non_utf8_input_exits_naming_the_line(workspace, kind):
    """Bytes that are not UTF-8 in a scene id, on line 3 of each kind of input."""
    w = workspace
    main(["features", "--in", str(w / "cruise.jsonl"), "--out", str(w / "features.csv")])
    jsonl = (w / "cruise.jsonl").read_text().splitlines(keepends=True)[:3]
    features = (w / "features.csv").read_text().splitlines(keepends=True)[:3]
    agents = "scene_id,agent_id,t,x,y\n" + "".join(f"s0,f,{t}.0,{t}.0,0.0\n" for t in range(4))
    bad_id = f"s{NOT_UTF8}"
    files, argv = {
        "jsonl": ({"bad.jsonl": "".join(jsonl[:2]) + jsonl[2].replace("cruise-", bad_id)},
                  ["features", "--in", str(w / "bad.jsonl"), "--out", str(w / "f.csv")]),
        "agent-csv": ({"bad.csv": agents.replace("s0,f,1.0", f"{bad_id},f,1.0")},
                      ["features", "--format", "csv", "--in", str(w / "bad.csv"),
                       "--out", str(w / "f.csv")]),
        "meta-csv": ({"s.csv": agents, "s.csv.meta.csv": f"scene_id,split\ns0,train\n"
                      f"{bad_id},test\n"},
                     ["features", "--format", "csv", "--in", str(w / "s.csv"),
                      "--out", str(w / "f.csv")]),
        "labels": ({"bad.csv": (w / "yellow_labels.csv").read_text().replace(
                        "yellow-00001", bad_id)},
                   ["train-embed", "--in", str(w / "yellow.jsonl"), "--labels",
                    str(w / "bad.csv"), "--epochs", "1", "--model", str(w / "fc.json")]),
        "features": ({"bad.csv": "".join(features[:2]) + features[2].replace("cruise-", bad_id)},
                     ["kdsc", "--features", str(w / "bad.csv"), "--out", str(w / "m.json")]),
    }[kind]
    for name, text in files.items():
        (w / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    bad = w / ("s.csv.meta.csv" if kind == "meta-csv" else min(files))
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert str(exit_.value).startswith(f"{bad}, line 3: byte 0xff at character "), exit_.value
