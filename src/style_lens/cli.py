"""style-lens command line interface.

Subcommands: synth, features, tdbm, kdsc, train-embed, eval, report.
All outputs are byte-identical across runs given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys

from .embed import EmbeddingBank, StyleIndex, context_classify
from .forecast import ForecastError, ForecastModel, evaluate, examples_from_scenes, train
from .kdsc import DEFAULT_SUBSET, ClusterModel, assign, fit_kdsc, label_clusters
from .kinematics import FEATURE_NAMES, KinematicFeatures
from .report import classify_scenes_tdbm, run_report, scene_features
from .synth import DEFAULT_PARAMS, check_mix, gen_cruise, gen_yellow_light
from .tdbm import STYLE_LABELS, TdbmConfig, build_tdbm_features, tdbm_classify, tdbm_score
from .traj import StyleLensError, load_scenes, read_csv, save_scenes, write_csv


def _parse_mix(text):
    """`style=fraction,...` of `synth --mix`; a bad part exits naming it."""
    mix = {}
    for part in text.split(","):
        name, eq, frac = part.partition("=")
        name = name.strip()
        try:
            if not eq:
                raise ValueError("expected style=fraction")
            if name not in DEFAULT_PARAMS:
                raise ValueError(f"unknown style {name!r}")
            if name in mix:
                raise ValueError(f"style {name!r} given twice")
            mix[name] = float(frac)
        except ValueError as exc:
            raise StyleLensError(f"--mix part {part!r}: {exc}; the styles are "
                                 + ", ".join(DEFAULT_PARAMS)) from exc
    try:
        check_mix(mix)
    except ValueError as exc:
        raise StyleLensError(f"--mix {text!r}: {exc}") from exc
    return mix


def _number(kind, low, strict=False):
    """argparse type= for a finite `kind` value >= low, or > low if strict, and
    for an int at most sys.maxsize; for any other value argparse exits with
    status 2 naming the flag."""
    def parse(text):
        value = kind(text)
        if kind is int and value > sys.maxsize:
            raise argparse.ArgumentTypeError(f"must be at most {sys.maxsize}, not {text!r}")
        if not (low < value if strict else low <= value) or value == float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and {'>' if strict else '>='} "
                                             f"{low}, not {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _tdbm_config(path):
    return TdbmConfig.load(path) if path else TdbmConfig()


def cmd_synth(args):
    gen = {"yellow-light": gen_yellow_light, "cruise": gen_cruise}[args.kind]
    mix = _parse_mix(args.mix) if args.mix else None
    pairs = gen(args.n, mix=mix, seed=args.seed)
    save_scenes([scene for scene, _ in pairs], args.out)
    if args.labels:
        write_csv(args.labels, ["scene_id", "label"],
                  [(scene.scene_id, label) for scene, label in pairs])
    print(f"wrote {len(pairs)} scenes to {args.out}")


def cmd_features(args):
    scenes = load_scenes(args.infile, args.format)
    config = _tdbm_config(args.config)

    def row(scene):
        f = scene_features(scene, config)
        return scene.scene_id, scene.focal_agent_id, *(getattr(f, n) for n in FEATURE_NAMES)

    write_csv(args.out, ["scene_id", "agent_id", *FEATURE_NAMES], map(row, scenes))
    print(f"wrote features for {len(scenes)} scenes to {args.out}")


def cmd_tdbm(args):
    scenes = load_scenes(args.infile, args.format)
    config = _tdbm_config(args.config)

    def row(scene):
        x = build_tdbm_features(scene, config)
        s = tdbm_score(x)
        return (scene.scene_id, scene.focal_agent_id, x.s_center, x.v_nei, x.s_front, x.v_avg,
                x.j_l, str(x.had_neighbors).lower(), *(float(v) for v in s.scores),
                tdbm_classify(s, x.had_neighbors).label)

    columns = ["scene_id", "agent_id", "s_center", "v_nei", "s_front", "v_avg", "j_l",
               "had_neighbors", *(f"score_{label}" for label in STYLE_LABELS), "class"]
    write_csv(args.out, columns, map(row, scenes))
    print(f"classified {len(scenes)} scenes to {args.out}")


def cmd_kdsc(args):
    rows = read_csv(args.features, lambda rec: (
        (rec["scene_id"], rec["agent_id"]),
        KinematicFeatures(**{n: float(rec[n]) for n in FEATURE_NAMES})))
    ids, feats = [key for key, _ in rows], [f for _, f in rows]
    subset = tuple(args.subset.split(",")) if args.subset else DEFAULT_SUBSET
    model = fit_kdsc(feats, k=args.k, feature_subset=subset)
    if args.k == 2:
        model = label_clusters(model, feats)
    model.save(args.out)
    if args.assignments:
        clusters = [assign(model, f) for f in feats]
        write_csv(args.assignments, ["scene_id", "agent_id", "cluster", "label"],
                  [(sid, aid, cid, model.labels.get(cid, ""))
                   for (sid, aid), cid in zip(ids, clusters)])
    print(f"fitted k={args.k} model on {len(feats)} points, saved to {args.out}")


def _scene_styles(scenes, args):
    """Style name per scene and the bank's style names in row order: the
    ground-truth labels of --labels when given, else the TDBM classes."""
    if not args.labels:
        return classify_scenes_tdbm(scenes, _tdbm_config(args.tdbm_config)), STYLE_LABELS
    label_map = dict(read_csv(args.labels, lambda rec: (rec["scene_id"], rec["label"])))
    for scene in scenes:
        if scene.scene_id not in label_map:
            raise StyleLensError(f"{args.labels}: no label for scene {scene.scene_id!r}")
    return [label_map[s.scene_id] for s in scenes], tuple(sorted(set(label_map.values())))


def _style_indices(scenes, styles, names):
    """Bank index per scene: z is the row of the scene's style in `names`."""
    name_to_z = {name: z for z, name in enumerate(names)}
    for scene, style in zip(scenes, styles):
        if style not in name_to_z:
            raise StyleLensError(f"scene {scene.scene_id!r}: style {style!r} is not one of "
                                 f"the bank's styles {list(names)}")
    return [StyleIndex(z=name_to_z[style], k=0, c=context_classify(scene))
            for scene, style in zip(scenes, styles)]


def _examples(args, scenes, H, T, indices, styles=None):
    """The forecast examples of the scenes read from --in; none exits naming it."""
    examples, skipped = examples_from_scenes(scenes, H, T, indices, styles)
    if skipped:
        print(f"skipped {skipped} scenes shorter than H+T", file=sys.stderr)
    if not examples:
        raise ForecastError(f"{args.infile}: {len(scenes)} scenes, none with the H+T={H + T} "
                            "samples that a forecast example needs")
    return examples


def cmd_train_embed(args):
    scenes = load_scenes(args.infile, args.format)
    styles, names = _scene_styles(scenes, args)
    indices = _style_indices(scenes, styles, names)
    examples = _examples(args, scenes, args.history, args.horizon, indices)
    bank = EmbeddingBank.init(num_styles=len(names), K=1, D=args.dim, seed=args.seed)
    bank.style_names = names
    model = ForecastModel.init(
        H=args.history, T=args.horizon, M=args.modes, hidden=args.hidden,
        D=args.dim, fusion=args.fusion, seed=args.seed,
    )
    model, bank, losses = train(
        examples, model, bank if args.fusion != "none" else None,
        epochs=args.epochs, lr=args.lr, seed=args.seed,
    )
    model.save(args.model)
    if args.bank:
        bank.save(args.bank)
    print(f"trained fusion={args.fusion} for {args.epochs} epochs, "
          f"final loss {losses[-1]:.6f}")


def cmd_eval(args):
    scenes = load_scenes(args.infile, args.format)
    model = ForecastModel.load(args.model)
    bank = EmbeddingBank.load(args.bank) if args.bank else None
    styles, names = _scene_styles(scenes, args)
    if bank is not None:  # the bank's rows are indexed by the styles it was trained on
        names = bank.style_names
    indices = _style_indices(scenes, styles, names)
    examples = _examples(args, scenes, model.H, model.T, indices, styles)
    rows = evaluate(examples, model, bank, miss_threshold=args.miss_threshold)
    write_csv(args.out, ["style", "model", "brierFDE", "minADE", "minFDE", "MissRate", "n"],
              [(r.style, model.fusion, r.brierFDE, r.minADE, r.minFDE, r.MissRate, r.n)
               for r in rows])
    print(f"wrote metrics for {len(examples)} scenes to {args.out}")


def cmd_report(args):
    scenes = load_scenes(args.infile, args.format)
    kdsc_model = ClusterModel.load(args.kdsc_model) if args.kdsc_model else None
    written = run_report(scenes, args.out_dir, _tdbm_config(args.tdbm_config), kdsc_model,
                         n_min=args.n_min, svg=args.svg)
    for path in written:
        print(f"wrote {path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="style-lens",
        description="Driving-style analytics: TDBM scoring, KDSC clustering, "
        "style-conditioned forecasting, synthetic corpora, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene corpus")
    p.add_argument("--kind", choices=["yellow-light", "cruise"], required=True)
    p.add_argument("--n", type=_number(int, 0), required=True)
    p.add_argument("--mix", default=None, help="e.g. aggressive=0.5,timid=0.5")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", default=None, help="optional ground-truth label CSV")
    p.set_defaults(func=cmd_synth)

    def add_io(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    p = sub.add_parser("features", help="extract kinematic features per scene")
    add_io(p)
    p.add_argument("--config", default=None, help="TDBM/feature config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("tdbm", help="TDBM feature construction, scores and classes")
    add_io(p)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tdbm)

    p = sub.add_parser("kdsc", help="fit the kinematic style clustering model")
    p.add_argument("--features", required=True, help="features CSV from `features`")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--subset", default=None,
                   help="comma-separated feature names (default 4-feature subset)")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--assignments", default=None, help="optional assignments CSV")
    p.set_defaults(func=cmd_kdsc)

    p = sub.add_parser("train-embed", help="train the forecaster and embedding bank")
    add_io(p)
    p.add_argument("--fusion", choices=["none", "early", "late"], default="early")
    p.add_argument("--bank", default=None, help="output bank JSON")
    p.add_argument("--model", required=True, help="output model JSON")
    p.add_argument("--labels", default=None, help="ground-truth style labels CSV")
    p.add_argument("--tdbm-config", default=None)
    p.add_argument("--epochs", type=_number(int, 1), default=100)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--lr", type=_number(float, 0, strict=True), default=1e-2)
    p.add_argument("--history", type=_number(int, 1), default=8)
    p.add_argument("--horizon", type=_number(int, 1), default=12)
    p.add_argument("--modes", type=_number(int, 1), default=6)
    p.add_argument("--hidden", type=_number(int, 1), default=64)
    p.add_argument("--dim", type=_number(int, 1), default=16)
    p.set_defaults(func=cmd_train_embed)

    p = sub.add_parser("eval", help="evaluate a trained model, metrics by style")
    add_io(p)
    p.add_argument("--model", required=True)
    p.add_argument("--bank", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--tdbm-config", default=None)
    p.add_argument("--miss-threshold", type=_number(float, 0), default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="emit the analysis report CSVs")
    add_io(p)
    p.add_argument("--tdbm-config", default=None)
    p.add_argument("--kdsc-model", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    """Run one subcommand. A bad flag value exits with argparse's status 2; a
    package error or a file that cannot be opened exits with status 1 and one line."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (StyleLensError, OSError) as exc:
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":
    main()
