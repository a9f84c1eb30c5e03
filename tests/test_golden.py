"""Pinned output bytes and forecast numbers.

The README walkthrough must write the same bytes as the SHA-256 digests in
golden_digests.json: both synthetic corpora and every analytic CSV. Training
output is pinned by value, not bytes, since BLAS kernels may round differently
on another CPU: the walkthrough's metrics.csv must match METRICS to a relative
1e-9. The clustering demo must reproduce demos/output/ exactly. A digest or a
pinned number may change only in a change that means to change that output.
"""

import filecmp
import hashlib
import importlib.util
import json
import pathlib

import pytest

from style_lens import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_digests.json").read_text())
DEMO_OUTPUT = ROOT / "demos" / "output"

# the README walkthrough; {d} is the output directory
WALKTHROUGH = [
    "synth --kind yellow-light --n 600 --seed 7 --out {d}/yellow.jsonl"
    " --labels {d}/yellow_labels.csv",
    "synth --kind cruise --n 400 --seed 42 --out {d}/cruise.jsonl",
    "features --in {d}/cruise.jsonl --out {d}/features.csv",
    "tdbm --in {d}/cruise.jsonl --out {d}/tdbm.csv",
    "kdsc --features {d}/features.csv --k 2 --out {d}/kdsc.json"
    " --assignments {d}/assign.csv",
    "train-embed --in {d}/yellow.jsonl --labels {d}/yellow_labels.csv --fusion early"
    " --modes 1 --epochs 200 --lr 0.02 --model {d}/fc.json --bank {d}/bank.json",
    "eval --in {d}/yellow.jsonl --labels {d}/yellow_labels.csv --model {d}/fc.json"
    " --bank {d}/bank.json --out {d}/metrics.csv",
    "report --in {d}/cruise.jsonl --kdsc-model {d}/kdsc.json --out-dir {d}/reports --svg",
]

# the walkthrough's metrics.csv: style -> (brierFDE, minADE, minFDE, MissRate, n)
METRICS = {
    "aggressive": (0.14286441802423727, 0.07878320669781444, 0.14286441802423727, 0.0, 288),
    "timid": (1.2199851356188607, 0.5067501359459663, 1.2199851356188607,
              0.1987179487179487, 312),
    "Overall": (0.7029671911734415, 0.3013260099068534, 0.7029671911734415,
                0.10333333333333333, 600),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for command in WALKTHROUGH:
        cli.main(command.format(d=out).split())
    return out


@pytest.mark.parametrize("rel", sorted(GOLDEN), ids=str)
def test_walkthrough_digest(walkthrough, rel):
    assert sha256(walkthrough / rel) == GOLDEN[rel]


def test_walkthrough_metrics(walkthrough):
    lines = (walkthrough / "metrics.csv").read_text().splitlines()
    assert lines[0] == "style,model,brierFDE,minADE,minFDE,MissRate,n"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [(style, "early") for style in METRICS]
    for style, *values in (r[:1] + r[2:] for r in rows):
        assert [float(v) for v in values] == pytest.approx(METRICS[style], rel=1e-9), style


def test_digests_agree_with_benchmark():
    bench = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    shared = bench["cli-walkthrough"]["0"]
    assert set(shared) < set(GOLDEN)
    assert {rel: GOLDEN[rel] for rel in shared} == shared


def test_clustering_demo_reproduces_output(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "clustering_demo", ROOT / "demos" / "clustering_demo.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.OUT_DIR = str(tmp_path)
    demo.main()
    committed = sorted(p.name for p in DEMO_OUTPUT.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert filecmp.cmp(tmp_path / name, DEMO_OUTPUT / name, shallow=False), name
