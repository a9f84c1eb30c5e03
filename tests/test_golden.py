"""Pinned analytic output bytes.

The README walkthrough's cruise half (synth, features, tdbm, kdsc, report)
must write the same bytes as the SHA-256 digests in golden_digests.json, and
the clustering demo must reproduce demos/output/ exactly. A digest may change
only in a change that means to change that output.
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

# the README walkthrough's cruise commands; {d} is the output directory
WALKTHROUGH = [
    "synth --kind cruise --n 400 --seed 42 --out {d}/cruise.jsonl",
    "features --in {d}/cruise.jsonl --out {d}/features.csv",
    "tdbm --in {d}/cruise.jsonl --out {d}/tdbm.csv",
    "kdsc --features {d}/features.csv --k 2 --out {d}/kdsc.json"
    " --assignments {d}/assign.csv",
    "report --in {d}/cruise.jsonl --kdsc-model {d}/kdsc.json --out-dir {d}/reports --svg",
]


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
