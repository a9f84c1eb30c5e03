"""Spans and counters for the traced benchmark run, and the per-layer
arithmetic on them.

The traced run wraps public style-lens functions at the module attribute
their callers look them up by (for example `style_lens.cli.load_scenes`), so
the program itself is unchanged. Each wrapped call becomes a span: name,
start, end, parent and a few call attributes. Calls made about 10^4 times or
more per run become a counter instead (a call count and summed time per
parent span), which keeps span memory and tracing overhead small.

A span name is `<layer>.<function>`; layers are named after the package
modules: traj, kinematics, tdbm, kdsc, embed, forecast, synth, report (which
includes stats and svg) and cli.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

LAYERS = ("traj", "kinematics", "tdbm", "kdsc", "embed", "forecast", "synth",
          "report", "cli")
ROOT_SPAN = "bench.iteration"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id, parent, name, start=0.0, end=0.0, attrs=None):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.attrs = start, end, attrs or {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and counters of one run in memory; `dump` writes them."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counters = {}   # (name, parent span id) -> [calls, seconds]
        self._stack = []

    def _open(self, name):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    @contextmanager
    def span(self, name, **attrs):
        span = self._open(name)
        span.attrs.update(attrs)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def call(self, name, attrs_fn, fn, args, kwargs):
        span = self._open(name)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if attrs_fn is not None:
            span.attrs.update(attrs_fn(args, kwargs, result))
        return result

    def count(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            entry = self.counters.setdefault((name, parent), [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs]
                          for s in self.spans],
                "counters": [[name, parent, calls, secs]
                             for (name, parent), (calls, secs) in self.counters.items()],
            }, fh)


class NullTracer:
    """Stand-in for the untraced run: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name, **attrs):
        yield None


def load_trace(path):
    """Read a dumped trace back as (spans, counters)."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    spans = [Span(*rec) for rec in d["spans"]]
    counters = {(name, parent): (calls, secs)
                for name, parent, calls, secs in d["counters"]}
    return spans, counters


# ---------------------------------------------------------------------------
# Wrap points


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _load_attrs(args, kwargs, result):
    return {"scenes": len(result), "bytes": _size(args[0])}


def _save_attrs(args, kwargs, result):
    return {"bytes": _size(args[1])}


def _tdbm_attrs(args, kwargs, result):
    scene = args[0]
    live = sum(1 for a in scene.neighbors if len(a) >= 2)
    return {"neighbor_samples": len(scene.focal) * live,
            "no_neighbors": int(not result.had_neighbors)}


def _fit_attrs(args, kwargs, result):
    return {"n": len(args[0]), "merges": len(result.merge_history)}


def _train_attrs(args, kwargs, result):
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 100)
    return {"examples": len(args[0]), "epochs": epochs}


def _examples_attrs(args, kwargs, result):
    return {"skipped": result[1]}


def _evaluate_attrs(args, kwargs, result):
    return {"examples": len(args[0])}


def _report_attrs(args, kwargs, result):
    return {"scenes": len(args[0]), "artifacts": len(result),
            "bytes": sum(_size(p) for p in result)}


# (module, attribute, span name, attribute function). A function bound in
# several modules is wrapped in each, because callers look it up there.
WRAPS = (
    ("style_lens.cli", "load_scenes", "traj.load_scenes", _load_attrs),
    ("style_lens.cli", "save_scenes", "traj.save_scenes", _save_attrs),
    ("style_lens.cli", "gen_yellow_light", "synth.gen_yellow_light", None),
    ("style_lens.cli", "gen_cruise", "synth.gen_cruise", None),
    ("style_lens.report", "extract_features", "kinematics.extract_features", None),
    ("style_lens.embed", "extract_features", "kinematics.extract_features", None),
    ("style_lens.cli", "build_tdbm_features", "tdbm.build_tdbm_features", _tdbm_attrs),
    ("style_lens.report", "build_tdbm_features", "tdbm.build_tdbm_features", _tdbm_attrs),
    ("style_lens.embed", "build_tdbm_features", "tdbm.build_tdbm_features", _tdbm_attrs),
    ("style_lens.cli", "fit_kdsc", "kdsc.fit_kdsc", _fit_attrs),
    ("style_lens.cli", "label_clusters", "kdsc.label_clusters", None),
    ("style_lens.cli", "assign", "kdsc.assign", None),
    ("style_lens.report", "assign", "kdsc.assign", None),
    ("style_lens.embed", "assign", "kdsc.assign", None),
    ("style_lens.forecast", "lookup", "embed.lookup", None),
    ("style_lens.forecast", "bank_gradients", "embed.bank_gradients", None),
    ("style_lens.cli", "examples_from_scenes", "forecast.examples_from_scenes",
     _examples_attrs),
    ("style_lens.cli", "train", "forecast.train", _train_attrs),
    ("style_lens.cli", "evaluate", "forecast.evaluate", _evaluate_attrs),
    ("style_lens.cli", "run_report", "report.run_report", _report_attrs),
    ("style_lens.report", "quantile_inclusive", "report.stats.quantile_inclusive", None),
    ("style_lens.report", "welch_t_test", "report.stats.welch_t_test", None),
    ("style_lens.svg", "write_bar_chart", "report.svg.write_bar_chart", None),
    ("style_lens.svg", "write_boxplots", "report.svg.write_boxplots", None),
    ("style_lens.svg", "write_heatmap", "report.svg.write_heatmap", None),
    ("style_lens.svg", "write_split_histograms", "report.svg.write_split_histograms",
     None),
)

# Called once per training example per epoch (about 1.2e5 times in the CLI
# walkthrough), so they are counted rather than spanned.
COUNTED = frozenset({"embed.lookup", "embed.bank_gradients"})


def install(tracer):
    """Wrap every wrap point the program has; returns (undo list, missing).

    `missing` names the wrap points the program no longer has. Their spans
    would read 0, so run.py counts each one as a failed check."""
    undo, missing = [], []
    for module_name, attr, name, attrs_fn in WRAPS:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if name in COUNTED:
            def wrapped(*args, __fn=fn, __name=name, **kwargs):
                return tracer.count(__name, __fn, args, kwargs)
        else:
            def wrapped(*args, __fn=fn, __name=name, __attrs=attrs_fn, **kwargs):
                return tracer.call(__name, __attrs, __fn, args, kwargs)
        setattr(module, attr, functools.wraps(fn)(wrapped))
        undo.append((module, attr, fn))
    return undo, missing


def uninstall(undo):
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Analysis


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, counters):
    """Self time per span id: its duration minus the part its child spans
    cover, minus the summed time of counters recorded directly under it."""
    children, counted = {}, {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    for (_name, parent), (_calls, secs) in counters.items():
        counted[parent] = counted.get(parent, 0.0) + secs
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        - counted.get(s.id, 0.0)
        for s in spans
    }


def layer_self_times(spans, counters):
    """Self seconds per layer; counters count fully toward their own layer."""
    out = {layer: 0.0 for layer in LAYERS}
    own = self_times(spans, counters)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    for (name, _parent), (_calls, secs) in counters.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + secs
    return out


def _inside(spans, ancestor_name):
    """Ids of spans that have an ancestor named `ancestor_name`."""
    by_id = {s.id: s for s in spans}
    out = set()
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor_name:
                out.add(s.id)
                break
            p = by_id[p].parent
    return out


CLI_COMMANDS = ("synth", "features", "tdbm", "kdsc", "train-embed", "eval", "report")


def layer_metrics(spans, counters, scenes, setup_spans=()):
    """Per-layer metrics of one traced iteration.

    `scenes` is the workload's corpus size, the base of the per-scene ratios.
    `setup_spans` are the spans of the traced set-up; only synthesis time is
    taken from them, because synthesis is set-up work on two workloads."""

    def total(name, key=None):
        sel = [s for s in spans if s.name == name]
        return sum(s.attrs.get(key, 0) for s in sel) if key else sum(
            s.duration for s in sel)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def counter(name):
        n = sum(c for (k, _p), (c, _s) in counters.items() if k == name)
        secs = sum(t for (k, _p), (_c, t) in counters.items() if k == name)
        return n, secs

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = layer_self_times(spans, counters)
    root = [s for s in spans if s.name == ROOT_SPAN]
    wall = root[0].duration if root else 0.0
    in_report = _inside(spans, "report.run_report")
    report_builds = sum(1 for s in spans
                        if s.name == "tdbm.build_tdbm_features" and s.id in in_report)
    build_calls = calls("tdbm.build_tdbm_features")
    build_s = total("tdbm.build_tdbm_features")
    lookup_calls, lookup_s = counter("embed.lookup")
    train_s = total("forecast.train")
    epochs = total("forecast.train", "epochs")
    example_epochs = sum(s.attrs.get("examples", 0) * s.attrs.get("epochs", 0)
                         for s in spans if s.name == "forecast.train")
    m = {
        "traj.load_s": total("traj.load_scenes"),
        "traj.scenes_loaded": total("traj.load_scenes", "scenes"),
        "traj.bytes_read": total("traj.load_scenes", "bytes"),
        "traj.save_s": total("traj.save_scenes"),
        "traj.bytes_written": total("traj.save_scenes", "bytes"),
        "kinematics.extract_s": total("kinematics.extract_features"),
        "kinematics.extract_calls": calls("kinematics.extract_features"),
        "kinematics.extract_per_scene": ratio(calls("kinematics.extract_features"), scenes),
        "tdbm.build_s": build_s,
        "tdbm.build_calls": build_calls,
        "tdbm.builds_per_scene": ratio(report_builds, total("report.run_report", "scenes")),
        "tdbm.ms_per_build": 1000.0 * ratio(build_s, build_calls),
        "tdbm.neighbor_samples": total("tdbm.build_tdbm_features", "neighbor_samples"),
        "tdbm.no_neighbor_overrides": total("tdbm.build_tdbm_features", "no_neighbors"),
        "kdsc.fit_s": total("kdsc.fit_kdsc"),
        "kdsc.fit_n": total("kdsc.fit_kdsc", "n"),
        "kdsc.merges": total("kdsc.fit_kdsc", "merges"),
        "kdsc.assign_calls": calls("kdsc.assign"),
        "kdsc.assign_s": total("kdsc.assign"),
        "embed.lookup_calls": lookup_calls,
        "embed.bank_gradient_calls": counter("embed.bank_gradients")[0],
        "embed.lookup_s": lookup_s,
        "forecast.train_s": train_s,
        "forecast.epoch_s": ratio(train_s, epochs),
        "forecast.example_epochs": example_epochs,
        "forecast.example_epochs_per_s": ratio(example_epochs, train_s),
        "forecast.skipped_scenes": total("forecast.examples_from_scenes", "skipped"),
        "forecast.evaluate_s": total("forecast.evaluate"),
        "forecast.evaluate_examples": total("forecast.evaluate", "examples"),
        "report.svg_s": sum(s.duration for s in spans
                            if s.name.startswith("report.svg.")),
        "report.artifacts": total("report.run_report", "artifacts"),
        "report.bytes_written": total("report.run_report", "bytes"),
        "synth.gen_s": sum(s.duration for s in list(spans) + list(setup_spans)
                           if s.layer == "synth"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["trace.self_sum_s"] = sum(selfs[layer] for layer in LAYERS)
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    return m
