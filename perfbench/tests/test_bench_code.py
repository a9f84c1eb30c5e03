"""Tests of the benchmark's own code: span arithmetic, the dense corpus and
the artifact checks. Run with `python3 -m pytest perfbench/tests`."""

import json
import os

import pytest

import checks
import run
import tracing
from corpus import MAX_EXTRA, dense_cruise
from tracing import Span


def _tree():
    spans = [
        Span(0, None, "bench.iteration", 0.0, 10.0),
        Span(1, 0, "cli.tdbm", 1.0, 4.0),
        Span(2, 1, "tdbm.build_tdbm_features", 2.0, 3.0),
        Span(3, 0, "cli.train-embed", 5.0, 9.0),
        Span(4, 3, "traj.load_scenes", 6.0, 7.0),
        Span(5, 3, "forecast.train", 6.5, 8.0),   # overlaps span 4 by 0.5 s
    ]
    counters = {("embed.lookup", 3): (100, 0.5)}
    return spans, counters


def test_self_time_is_duration_minus_covered_children_and_counters():
    spans, counters = _tree()
    own = tracing.self_times(spans, counters)
    # root: 10 - (3 + 4); span 3: 4 - union(6..8) - counted 0.5
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0, 5: 1.5})


def test_layer_self_times_add_up_to_the_root():
    spans, counters = _tree()
    layers = tracing.layer_self_times(spans, counters)
    assert layers["cli"] == pytest.approx(3.5)
    assert layers["embed"] == pytest.approx(0.5)
    assert layers["forecast"] == pytest.approx(1.5)
    # the overlap of spans 4 and 5 is counted once in their parent, twice below
    assert sum(layers.values()) == pytest.approx(10.0 + 0.5)


def test_covered_clips_and_merges_intervals():
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 1, 5.5) == pytest.approx(2.5)
    assert tracing.covered([], 0, 1) == 0.0


def test_tracer_nests_spans_and_counts_frequent_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer("t", clock=lambda: float(next(ticks)))
    with tracer.span("bench.iteration"):
        tracer.call("cli.kdsc", None, lambda: None, (), {})
        for _ in range(3):
            tracer.count("embed.lookup", lambda: None, (), {})
    root, child = tracer.spans
    assert child.parent == root.id and root.parent is None
    assert tracer.counters[("embed.lookup", root.id)][0] == 3


def test_install_wraps_every_point_and_uninstall_restores():
    import style_lens.cli as cli

    original = cli.load_scenes
    undo, missing = tracing.install(tracing.Tracer("t"))
    try:
        assert missing == []
        assert cli.load_scenes is not original
    finally:
        tracing.uninstall(undo)
    assert cli.load_scenes is original


def test_missing_wrap_point_is_a_failed_check(monkeypatch):
    gone = ("style_lens.report", "no_such_function", "tdbm.no_such_function", None)
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (gone,))
    undo, missing = tracing.install(tracing.Tracer("t"))
    tracing.uninstall(undo)
    assert missing == ["style_lens.report.no_such_function"]
    out = checks.wrap_checks(["style_lens.cli.load_scenes", *missing], missing)
    assert [c.ok for c in out] == [True, False]


def test_dense_corpus_is_byte_identical_for_a_seed(tmp_path):
    from style_lens import save_scenes

    paths = []
    for i, seed in enumerate((5, 5, 6)):
        scenes, neighbors = dense_cruise(30, seed)
        assert all(1 <= k <= 1 + MAX_EXTRA for k in neighbors)
        assert neighbors == [len(s.neighbors) for s in scenes]
        paths.append(tmp_path / f"corpus-{i}.jsonl")
        save_scenes(scenes, paths[-1])
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other


def _artifacts(tmp_path):
    (tmp_path / "reports").mkdir()
    for rel in checks.DIGESTED["report-dense"]:
        (tmp_path / rel).write_text(f"# header\ncol\n{rel}\n", encoding="utf-8")
    return checks.artifact_digests("report-dense", str(tmp_path), str(tmp_path))


def test_perturbed_artifact_is_a_failed_check_not_an_exception(tmp_path):
    expected = _artifacts(tmp_path)
    assert all(c.ok for c in checks.digest_checks(expected, str(tmp_path), str(tmp_path)))
    (tmp_path / "tdbm.csv").write_text("# header\ncol\nperturbed\n", encoding="utf-8")
    os.remove(tmp_path / "reports/style_histogram.csv")
    result = {c.name: c.ok for c in checks.digest_checks(expected, str(tmp_path),
                                                        str(tmp_path))}
    assert result.pop("digest tdbm.csv") is False
    assert result.pop("digest reports/style_histogram.csv") is False
    assert all(result.values())


def test_malformed_artifacts_fail_their_checks(tmp_path):
    _artifacts(tmp_path)
    out = checks.workload_checks("report-dense", str(tmp_path), str(tmp_path), 0, 10, {})
    assert any(not c.ok for c in out)
    out = checks.workload_checks("kdsc-ward", str(tmp_path), str(tmp_path), 0, 10, {})
    assert not any(c.ok for c in out)


def test_tdbm_row_oracle():
    x = {"s_center": 0.1, "v_nei": -0.2, "s_front": 0.7, "v_avg": 0.9, "j_l": 0.3}
    scores = checks.B_MATRIX @ [*x.values(), 1.0]
    row = {k: repr(v) for k, v in x.items()}
    row.update({f"score_{label}": repr(float(s))
                for label, s in zip(checks.STYLE_LABELS, scores)})
    best = checks.STYLE_LABELS[int(scores.argmax())]
    wrong = next(label for label in checks.STYLE_LABELS if label != best)
    row.update(had_neighbors="true", **{"class": best})
    assert checks.run_check("row", checks._tdbm_row, row).ok
    assert not checks.run_check("row", checks._tdbm_row, {**row, "class": wrong}).ok
    assert not checks.run_check("row", checks._tdbm_row, {**row, "score_timid": "0.5"}).ok
    assert checks.run_check("row", checks._tdbm_row,
                            {**row, "had_neighbors": "false", "class": "threatening"}).ok


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.per_layer_names()]


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert run.highest_percentile(3) == 50
    assert run.highest_percentile(100) == 90
    assert run.highest_percentile(1000) == 99
