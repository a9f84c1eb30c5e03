import contextlib
import filecmp
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# more values out of range, each named in the message
OUT_OF_RANGE_VALUES = {
    "config": {
        "string-value": ({"neighbor_radius": "x"},
                         "neighbor_radius must be finite and >= 0, not 'x'"),
        "zero-step": ({"resample_dt": 0}, "resample_dt must be finite and > 0, not 0"),
        "negative-angle": ({"cone_half_angle": -1}, "cone_half_angle must be in [0, pi], not -1"),
    },
    "kdsc": {
        "unknown-feature": ({"feature_names": ["bogus"]}, "feature subset ['bogus'] must name "),
        "centroids-shape": ({"centroids": [[0, 0]]}, "centroids has shape (1, 2), expected (1, 1)"),
        "zero-std": ({"std": [0.0]}, "std must be > 0, got [0.0]"),
        "label-id": ({"labels": {"1": "aggressive"}}, "label ids must lie in [0, 1), not [1]"),
    },
}


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
        for fault, (change, reason) in OUT_OF_RANGE_VALUES.get(loader, {}).items():
            cases[fault] = (dict(d, **change), reason)
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


def _one_line_exit(argv, capsys):
    """(status, message) of main(argv), which must exit: status 1 with its
    one-line message, or argparse's status 2 with the last line it printed."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    code = exit_.value.code
    if code == 2:
        return 2, capsys.readouterr().err.strip().splitlines()[-1]
    assert isinstance(code, str) and "\n" not in code, code
    return 1, code


@pytest.mark.parametrize("command,option,value,bound", [
    pytest.param(*case, id=f"{case[0]}{case[1]}={case[2]}") for case in [
        ("synth", "--n", "-1", ">= 0"),
        ("synth", "--seed", "-5", ">= 0"),
        ("train-embed", "--epochs", "-3", ">= 1"),
        ("train-embed", "--modes", "0", ">= 1"),
        ("train-embed", "--hidden", "0", ">= 1"),
        ("train-embed", "--history", "0", ">= 1"),
        ("train-embed", "--horizon", "0", ">= 1"),
        ("train-embed", "--dim", "0", ">= 1"),
        ("train-embed", "--seed", "-1", ">= 0"),
        ("train-embed", "--lr", "nan", "> 0"),
        ("train-embed", "--lr", "0", "> 0"),
        ("train-embed", "--lr", "inf", "> 0"),
        ("eval", "--miss-threshold", "nan", ">= 0"),
        ("eval", "--miss-threshold", "-1", ">= 0"),
        ("eval", "--miss-threshold", "1e999", ">= 0"),
    ]])
def test_out_of_range_flag_exits_naming_it(tmp_path, capsys, command, option, value, bound):
    """argparse rejects the value before any file is read."""
    out = str(tmp_path / "out")
    argv = {"synth": ["--kind", "cruise", "--n", "3", "--out", out],
            "train-embed": ["--in", "c.jsonl", "--model", out],
            "eval": ["--in", "c.jsonl", "--model", "fc.json", "--out", out]}[command]
    argv = [command, *argv, option, value]
    assert _one_line_exit(argv, capsys) == (
        2, f"style-lens {command}: error: argument {option}: must be finite and {bound}, "
           f"not {value!r}")


def _bank(D, names=("aggressive", "timid")):
    bank = EmbeddingBank.init(num_styles=2, K=1, D=D)
    bank.style_names = names
    return bank.to_dict()


# (id, {file: JSON record or raw text}, argv tail after the corpus arguments,
#  the one-line message with {w} for the workspace)
EVAL_FAULTS = [
    ("fusion-model-without-bank", {"fc.json": MODEL.to_dict()}, ["--model", "fc.json"],
     "fusion='early' requires an embedding bank of D=4"),
    ("model-H-1e999", {"fc.json": json.dumps(MODEL.to_dict()).replace('"H": 8', '"H": 1e999'),
                       "bank.json": _bank(4)}, ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/fc.json: cannot convert float infinity to integer"),
    ("bank-D-1e999", {"fc.json": MODEL.to_dict(),
                      "bank.json": json.dumps(_bank(4)).replace('"D": 4', '"D": 1e999')},
     ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/bank.json: cannot convert float infinity to integer"),
    ("model-W1-row-removed", {"fc.json": dict(MODEL.to_dict(), W1=MODEL.to_dict()["W1"][1:]),
                              "bank.json": _bank(4)},
     ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/fc.json: W1 has shape (3, 16), expected (4, 16)"),
    ("model-H-disagrees", {"fc.json": dict(MODEL.to_dict(), H=9), "bank.json": _bank(4)},
     ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/fc.json: W1 has shape (4, 16), expected (4, 18)"),
    ("bank-D-disagrees", {"fc.json": MODEL.to_dict(), "bank.json": dict(_bank(16), D=3)},
     ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/bank.json: e_k has shape (2, 1, 16), expected (2, 1, 3)"),
    ("bank-style-names-short", {"fc.json": MODEL.to_dict(), "bank.json": _bank(4, ["timid"])},
     ["--model", "fc.json", "--bank", "bank.json"],
     "{w}/bank.json: style_names has 1 entries, expected num_styles=2"),
    ("bank-D-differs-from-model", {"fc.json": MODEL.to_dict(), "bank.json": _bank(16)},
     ["--model", "fc.json", "--bank", "bank.json"],
     "fusion='early' requires an embedding bank of D=4, not D=16"),
]


@pytest.mark.parametrize("files,tail,message", [pytest.param(*case[1:], id=case[0])
                                                for case in EVAL_FAULTS])
def test_bad_model_or_bank_exits_with_one_line(workspace, capsys, files, tail, message):
    w = workspace
    for name, content in files.items():
        (w / name).write_text(content if isinstance(content, str) else json.dumps(content))
    argv = ["eval", "--in", str(w / "yellow.jsonl"), "--labels", str(w / "yellow_labels.csv"),
            "--out", str(w / "m.csv")] + [str(w / a) if a.endswith(".json") else a for a in tail]
    assert _one_line_exit(argv, capsys) == (1, message.format(w=w))
    assert not (w / "m.csv").exists()


def test_bad_k_exits_with_one_line(workspace, capsys):
    w = workspace
    main(["features", "--in", str(w / "cruise.jsonl"), "--out", str(w / "features.csv")])
    kdsc = ["kdsc", "--features", str(w / "features.csv"), "--out", str(w / "k.json")]
    assert _one_line_exit(kdsc + ["--k", "0"], capsys) == (1, "k=0 out of range for n=40")
    assert _one_line_exit(kdsc + ["--k", "500"], capsys) == (
        1, "need at least k=500 points, got 40")


def test_empty_corpus_exits_with_one_line(workspace, capsys):
    w = workspace
    empty = w / "empty.jsonl"
    empty.write_text("")
    MODEL.save(w / "fc.json")
    EmbeddingBank.from_dict(_bank(4)).save(w / "bank.json")
    train = ["train-embed", "--epochs", "1", "--model", str(w / "out.json")]
    none = "scenes, none with the H+T=20 samples that a forecast example needs"
    assert _one_line_exit(train + ["--in", str(empty)], capsys) == (1, f"{empty}: 0 {none}")
    assert not (w / "out.json").exists()
    # every scene shorter than H+T: the same rule, after the count of skipped scenes
    assert _one_line_exit(train + ["--in", str(w / "yellow.jsonl"), "--history", "100"],
                          capsys) == (1, f"{w / 'yellow.jsonl'}: 30 scenes, none with the "
                                         "H+T=112 samples that a forecast example needs")
    assert _one_line_exit(["eval", "--in", str(empty), "--model", str(w / "fc.json"), "--bank",
                           str(w / "bank.json"), "--out", str(w / "m.csv")],
                          capsys) == (1, f"{empty}: 0 {none}")
    assert _one_line_exit(["report", "--in", str(empty), "--out-dir", str(w / "r")],
                          capsys) == (1, "cannot build a histogram from zero scenes")


@pytest.mark.parametrize("agent,reason", [
    ({"t": [0.0, 1.0], "x": [1.0, 2.0], "y": [1.0]}, "t has 2 samples, y has 1"),
    ({"t": [0.0, 1.0], "x": 1.0, "y": [1.0, 2.0]}, "x must be a list, not float"),
], ids=["y-too-short", "x-not-a-list"])
def test_mismatched_jsonl_track_exits_naming_the_field(tmp_path, capsys, agent, reason):
    record = {"scene_id": "s", "focal_agent_id": "a", "agents": [dict(agent, agent_id="a")]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    argv = ["features", "--in", str(path), "--out", str(tmp_path / "f.csv")]
    assert _one_line_exit(argv, capsys) == (1, f"{path}, line 1: agent 'a': {reason}")


# each subcommand's numeric options with a small valid value; the property
# gives one or two of them a value drawn from those below
NUMERIC_OPTIONS = {
    "synth": {"--n": "2", "--seed": "0"},
    "kdsc": {"--k": "2"},
    "train-embed": {"--epochs": "1", "--seed": "0", "--lr": "0.01", "--history": "8",
                    "--horizon": "12", "--modes": "1", "--hidden": "4", "--dim": "2"},
    "eval": {"--miss-threshold": "2.0"},
    "report": {"--n-min": "5"},
}
OUT_OF_RANGE = ["-1", "0", "nan", "inf", "-inf", "1e999", "-1e999"]
# every option also draws HUGE, above sys.maxsize: an int flag checked by
# _number rejects it, and the rest end in a one-line exit
HUGE = "100000000000000000000"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The arguments besides the numeric options of each subcommand, over a
    three-scene corpus and a small model trained on it."""
    w = tmp_path_factory.mktemp("tiny")
    corpus, labels, model, bank = (str(w / n) for n in ("y.jsonl", "l.csv", "fc.json", "b.json"))
    main(["synth", "--kind", "yellow-light", "--n", "3", "--seed", "1", "--out", corpus,
          "--labels", labels])
    main(["features", "--in", corpus, "--out", str(w / "f.csv")])
    main(["train-embed", "--in", corpus, "--labels", labels, "--epochs", "1", "--modes", "1",
          "--hidden", "4", "--dim", "2", "--model", model, "--bank", bank])
    data = ["--in", corpus, "--labels", labels]
    return {"synth": ["--kind", "cruise", "--out", str(w / "s.jsonl")],
            "kdsc": ["--features", str(w / "f.csv"), "--out", str(w / "k.json")],
            "train-embed": data + ["--model", str(w / "fc2.json"), "--bank", str(w / "b2.json")],
            "eval": data + ["--model", model, "--bank", bank, "--out", str(w / "m.csv")],
            "report": ["--in", corpus, "--out-dir", str(w / "r")]}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_numeric_options_never_raise_past_main(tiny, data):
    """Any mix of out-of-range, NaN, infinite and huge numeric options ends in
    exit 0, argparse's status 2 or a one-line exit message: never another
    exception."""
    command = data.draw(st.sampled_from(sorted(NUMERIC_OPTIONS)))
    options = NUMERIC_OPTIONS[command]
    bad = data.draw(st.sets(st.sampled_from(sorted(options)), min_size=1, max_size=2))
    argv = [command, *tiny[command]]
    for option, valid in options.items():
        values = OUT_OF_RANGE + [HUGE]
        argv += [option, data.draw(st.sampled_from(values), label=option) if option in bad
                 else valid]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            main(argv)
        except SystemExit as exc:
            if exc.code == 2:
                assert "error: argument" in err.getvalue()
            else:
                assert isinstance(exc.code, str) and "\n" not in exc.code, exc.code


# (id, command, options after the `tiny` arguments with {tmp} for a scratch
#  directory, exit status, the start of the one-line message)
SUBSET_SIZE_AND_FEATURE_FAULTS = [
    ("config-v-ref-denormal", "report", ["--tdbm-config", "{tmp}/vref.json"], 1,
     "scene 'yellow-00000': non-finite TDBM features ["),
    ("subset-unknown", "kdsc", ["--subset", "bogus"], 1,
     "feature subset ['bogus'] must name one or more distinct features from mean_speed, "),
    ("subset-repeated", "kdsc", ["--subset", "gamma,gamma"], 1,
     "feature subset ['gamma', 'gamma'] must name one or more distinct features from "),
    ("synth-n-huge", "synth", ["--n", HUGE], 2,
     f"style-lens synth: error: argument --n: must be at most 9223372036854775807, not '{HUGE}'"),
    ("train-hidden-huge", "train-embed", ["--hidden", HUGE], 2,
     "style-lens train-embed: error: argument --hidden: must be at most 9223372036854775807"),
    ("train-hidden-1e12", "train-embed", ["--hidden", str(10**12)], 1,
     "W1 (1000000000000, 16), b1 (1000000000000,), P (1000000000000, 16), "),
    ("train-dim-1e12", "train-embed", ["--dim", str(10**12)], 1,
     "e_k (2, 1, 1000000000000), e_c (2, 2, 1000000000000) would hold 6000000000000 floats, "
     "more than 134217728 (1 GiB)"),
]


@pytest.mark.parametrize("command,options,status,message", [
    pytest.param(*case[1:], id=case[0]) for case in SUBSET_SIZE_AND_FEATURE_FAULTS])
def test_bad_subset_size_or_feature_exits_with_one_line(tiny, tmp_path, capsys, command, options,
                                                       status, message):
    (tmp_path / "vref.json").write_text(json.dumps({"v_ref": 1e-320}))
    argv = [command, *tiny[command], *(o.format(tmp=tmp_path) for o in options)]
    got_status, got = _one_line_exit(argv, capsys)
    assert got_status == status and got.startswith(message), got


def test_huge_smooth_window_smooths_over_the_whole_path(tiny, tmp_path):
    corpus = tiny["report"][1]
    for window in (1e308, 100.0):
        (tmp_path / "cfg.json").write_text(json.dumps({"smooth_window": window}))
        main(["tdbm", "--in", corpus, "--config", str(tmp_path / "cfg.json"),
              "--out", str(tmp_path / f"t{window}.csv")])
    assert filecmp.cmp(tmp_path / "t1e+308.csv", tmp_path / "t100.0.csv", shallow=False)
