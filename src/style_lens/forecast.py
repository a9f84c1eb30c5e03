"""Desk-scale multimodal trajectory forecaster.

A two-layer network (tanh encoder, per-mode linear regression heads plus a
mode-probability head) stands in for a full transformer backbone; the point
is the style-conditioning mechanism, which is backbone-agnostic. The style
vector from the embedding bank is injected either into the encoder
pre-activation (early fusion) or the decoder input (late fusion). All
gradients are hand-derived so training is bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .embed import EmbeddingBank, StyleIndex, bank_gradients, lookup
from .tdbm import StyleClass

FUSION_MODES = ("none", "early", "late")
DEFAULT_MISS_THRESHOLD = 2.0  # m, final-displacement miss cutoff
BATCH_SIZE = 32  # training examples per gradient step


class ForecastError(ValueError):
    pass


@dataclass
class ForecastModel:
    H: int = 8
    T: int = 12
    M: int = 6
    hidden: int = 64
    D: int = 16
    fusion: str = "none"
    seed: int = 0
    input_scale: float = 0.1   # history offsets are meters; keep tanh unsaturated
    W1: np.ndarray = None   # hidden x 2H
    b1: np.ndarray = None
    P: np.ndarray = None    # hidden x D, style projection
    W2: np.ndarray = None   # M x 2T x hidden
    b2: np.ndarray = None   # M x 2T
    W3: np.ndarray = None   # M x hidden, mode logits
    b3: np.ndarray = None

    @classmethod
    def init(cls, H=8, T=12, M=6, hidden=64, D=16, fusion="none", seed=0,
             input_scale=0.1) -> "ForecastModel":
        if fusion not in FUSION_MODES:
            raise ForecastError(f"fusion must be one of {FUSION_MODES}, got {fusion!r}")
        rng = np.random.default_rng(seed)

        def uni(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        return cls(
            H=H, T=T, M=M, hidden=hidden, D=D, fusion=fusion, seed=seed,
            input_scale=input_scale,
            W1=uni((hidden, 2 * H), 2 * H),
            b1=np.zeros(hidden),
            P=uni((hidden, D), D),
            W2=uni((M, 2 * T, hidden), hidden),
            b2=np.zeros((M, 2 * T)),
            W3=uni((M, hidden), hidden),
            b3=np.zeros(M),
        )

    def to_dict(self) -> dict:
        return {
            "H": self.H, "T": self.T, "M": self.M, "hidden": self.hidden,
            "D": self.D, "fusion": self.fusion, "seed": self.seed,
            "input_scale": self.input_scale,
            "W1": self.W1.tolist(), "b1": self.b1.tolist(), "P": self.P.tolist(),
            "W2": self.W2.tolist(), "b2": self.b2.tolist(),
            "W3": self.W3.tolist(), "b3": self.b3.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForecastModel":
        return cls(
            H=int(d["H"]), T=int(d["T"]), M=int(d["M"]), hidden=int(d["hidden"]),
            D=int(d["D"]), fusion=d["fusion"], seed=int(d["seed"]),
            input_scale=float(d.get("input_scale", 0.1)),
            W1=np.asarray(d["W1"], dtype=float), b1=np.asarray(d["b1"], dtype=float),
            P=np.asarray(d["P"], dtype=float),
            W2=np.asarray(d["W2"], dtype=float), b2=np.asarray(d["b2"], dtype=float),
            W3=np.asarray(d["W3"], dtype=float), b3=np.asarray(d["b3"], dtype=float),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ForecastModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class Forecast:
    modes: np.ndarray   # M x T x 2 future offsets from last observed position
    probs: np.ndarray   # M, nonnegative, sums to 1


@dataclass(frozen=True)
class MetricsRow:
    style: str
    brierFDE: float
    minADE: float
    minFDE: float
    MissRate: float
    n: int


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _forward(model: ForecastModel, history: np.ndarray, style_vec):
    x = model.input_scale * history.reshape(-1)
    u = model.W1 @ x + model.b1
    if model.fusion == "early":
        u = u + model.P @ style_vec
    h = np.tanh(u)
    d = h
    if model.fusion == "late":
        d = h + model.P @ style_vec
    traj = model.W2 @ d + model.b2            # M x 2T
    logits = model.W3 @ d + model.b3
    return x, h, d, traj, logits


def predict(model: ForecastModel, history: np.ndarray, style_vec=None) -> Forecast:
    """Multimodal forecast from H observed offsets (relative to the last
    observed position)."""
    history = np.asarray(history, dtype=float)
    if history.shape != (model.H, 2):
        raise ForecastError(f"history shape {history.shape} != ({model.H}, 2)")
    if model.fusion != "none" and style_vec is None:
        raise ForecastError(f"fusion={model.fusion!r} requires a style vector")
    if model.fusion == "none":
        style_vec = np.zeros(model.D)
    _, _, _, traj, logits = _forward(model, history, np.asarray(style_vec, dtype=float))
    return Forecast(modes=traj.reshape(model.M, model.T, 2), probs=_softmax(logits))


def wta_loss(forecast: Forecast, gt: np.ndarray):
    """Winner-takes-all loss: squared displacement of the best mode plus
    cross-entropy pushing probability mass onto it.

    Returns (loss, grad_modes, grad_logits, best_mode). grad_modes is zero
    outside the best mode; grad_logits assumes probs = softmax(logits).
    Ties in mode selection go to the lower index.
    """
    gt = np.asarray(gt, dtype=float)
    M, T, _ = forecast.modes.shape
    if gt.shape != (T, 2):
        raise ForecastError(f"ground truth shape {gt.shape} != ({T}, 2)")
    sq = np.sum((forecast.modes - gt[None]) ** 2, axis=(1, 2))  # per-mode total sq disp
    best = int(np.argmin(sq))
    reg = sq[best] / T
    ce = -float(np.log(max(forecast.probs[best], 1e-300)))
    grad_modes = np.zeros_like(forecast.modes)
    grad_modes[best] = 2.0 * (forecast.modes[best] - gt) / T
    onehot = np.zeros(M)
    onehot[best] = 1.0
    grad_logits = forecast.probs - onehot
    return reg + ce, grad_modes, grad_logits, best


@dataclass(frozen=True)
class TrainingExample:
    history: np.ndarray          # H x 2 offsets
    future: np.ndarray           # T x 2 offsets
    index: Optional[StyleIndex] = None
    style: Optional[str] = None  # reporting label for evaluate()


def examples_from_scenes(scenes, H: int, T: int, indices=None, styles=None):
    """Slice focal trajectories into (history, future) offset pairs.

    Offsets are relative to the last observed position, which makes the whole
    pipeline translation invariant. Scenes shorter than H+T are skipped; the
    skip count is returned alongside the examples.
    """
    examples = []
    skipped = 0
    for i, scene in enumerate(scenes):
        pos = scene.focal.positions
        if len(pos) < H + T:
            skipped += 1
            continue
        origin = pos[H - 1]
        examples.append(
            TrainingExample(
                history=pos[:H] - origin,
                future=pos[H : H + T] - origin,
                index=None if indices is None else indices[i],
                style=None if styles is None else styles[i],
            )
        )
    return examples, skipped


def _zero_grads(model: ForecastModel):
    return {
        "W1": np.zeros_like(model.W1), "b1": np.zeros_like(model.b1),
        "P": np.zeros_like(model.P),
        "W2": np.zeros_like(model.W2), "b2": np.zeros_like(model.b2),
        "W3": np.zeros_like(model.W3), "b3": np.zeros_like(model.b3),
    }


def _backward(model, x, h, d, style_vec, grad_traj_flat, grad_logits, grads):
    """Accumulate parameter gradients; returns the style-vector gradient."""
    grads["W2"] += grad_traj_flat[:, :, None] * d[None, None, :]
    grads["b2"] += grad_traj_flat
    grads["W3"] += np.outer(grad_logits, d)
    grads["b3"] += grad_logits
    g_d = np.einsum("mo,moh->h", grad_traj_flat, model.W2) + model.W3.T @ grad_logits
    g_style = np.zeros(model.D)
    if model.fusion == "late":
        grads["P"] += np.outer(g_d, style_vec)
        g_style += model.P.T @ g_d
    g_u = g_d * (1.0 - h * h)
    if model.fusion == "early":
        grads["P"] += np.outer(g_u, style_vec)
        g_style += model.P.T @ g_u
    grads["W1"] += np.outer(g_u, x)
    grads["b1"] += g_u
    return g_style


def train(
    examples: Sequence[TrainingExample],
    model: ForecastModel,
    bank: Optional[EmbeddingBank] = None,
    epochs: int = 100,
    lr: float = 1e-2,
    seed: int = 0,
):
    """Mini-batch gradient descent with a fixed step and seeded shuffling.

    Mutates and returns (model, bank); bank factor rows receive gradients
    through the lookup when fusion is enabled. Returns the per-epoch mean
    training loss as the third element.
    """
    if model.fusion != "none" and bank is None:
        raise ForecastError(f"fusion={model.fusion!r} requires an embedding bank")
    rng = np.random.default_rng(seed)
    n = len(examples)
    losses = []
    for _epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            grads = _zero_grads(model)
            bank_acc = {}
            for idx in batch:
                ex = examples[idx]
                if model.fusion == "none":
                    style_vec = np.zeros(model.D)
                else:
                    style_vec, _ = lookup(bank, ex.index)
                x, h, d, traj, logits = _forward(model, ex.history, style_vec)
                fc = Forecast(modes=traj.reshape(model.M, model.T, 2), probs=_softmax(logits))
                loss, g_modes, g_logits, _best = wta_loss(fc, ex.future)
                epoch_loss += loss
                g_style = _backward(
                    model, x, h, d, style_vec, g_modes.reshape(model.M, -1), g_logits, grads
                )
                if model.fusion != "none":
                    g_ek, g_ec = bank_gradients(bank, ex.index, g_style)
                    key = (ex.index.z, ex.index.k, ex.index.c)
                    if key not in bank_acc:
                        bank_acc[key] = [np.zeros(model.D), np.zeros(model.D)]
                    bank_acc[key][0] += g_ek
                    bank_acc[key][1] += g_ec
            scale = lr / len(batch)
            model.W1 -= scale * grads["W1"]
            model.b1 -= scale * grads["b1"]
            model.P -= scale * grads["P"]
            model.W2 -= scale * grads["W2"]
            model.b2 -= scale * grads["b2"]
            model.W3 -= scale * grads["W3"]
            model.b3 -= scale * grads["b3"]
            for (z, k, c), (g_ek, g_ec) in sorted(bank_acc.items()):
                bank.e_k[z][k] -= scale * g_ek
                bank.e_c[z][c] -= scale * g_ec
        losses.append(epoch_loss / max(n, 1))
    return model, bank, losses


def _scene_metrics(model, bank, ex: TrainingExample, miss_threshold: float):
    if model.fusion == "none":
        style_vec = None
    else:
        style_vec, _ = lookup(bank, ex.index)
    fc = predict(model, ex.history, style_vec)
    disp = np.linalg.norm(fc.modes - ex.future[None], axis=2)  # M x T
    ade = disp.mean(axis=1)
    fde = disp[:, -1]
    best = int(np.argmin(fde))
    min_fde = float(fde[best])
    return {
        "minADE": float(ade.min()),
        "minFDE": min_fde,
        "miss": float(min_fde > miss_threshold),
        "brierFDE": min_fde + (1.0 - float(fc.probs[best])) ** 2,
    }


def evaluate(
    examples: Sequence[TrainingExample],
    model: ForecastModel,
    bank: Optional[EmbeddingBank] = None,
    miss_threshold: float = DEFAULT_MISS_THRESHOLD,
) -> List[MetricsRow]:
    """Per-style and Overall metric rows (style taken from each example)."""
    if not examples:
        raise ForecastError("cannot evaluate an empty dataset")
    if model.fusion != "none" and bank is None:
        raise ForecastError(f"fusion={model.fusion!r} requires an embedding bank")
    per_scene = [_scene_metrics(model, bank, ex, miss_threshold) for ex in examples]

    def row(style: str, idxs) -> MetricsRow:
        sub = [per_scene[i] for i in idxs]
        return MetricsRow(
            style=style,
            brierFDE=float(np.mean([s["brierFDE"] for s in sub])),
            minADE=float(np.mean([s["minADE"] for s in sub])),
            minFDE=float(np.mean([s["minFDE"] for s in sub])),
            MissRate=float(np.mean([s["miss"] for s in sub])),
            n=len(sub),
        )

    rows = []
    ordered_styles = [c.label for c in StyleClass]
    seen = {ex.style for ex in examples if ex.style is not None}
    # keep ordinal order for known styles, then any other labels lexically
    labels = [s for s in ordered_styles if s in seen]
    labels += sorted(s for s in seen if s not in ordered_styles)
    for style in labels:
        idxs = [i for i, ex in enumerate(examples) if ex.style == style]
        if idxs:
            rows.append(row(style, idxs))
    rows.append(row("Overall", list(range(len(examples)))))
    return rows
