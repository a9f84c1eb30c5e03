"""Desk-scale multimodal trajectory forecaster.

A two-layer network (tanh encoder, per-mode linear regression heads plus a
mode-probability head) stands in for a full transformer backbone; the point
is the style-conditioning mechanism, which is backbone-agnostic. The style
vector from the embedding bank is injected either into the encoder
pre-activation (early fusion) or the decoder input (late fusion).

One batched forward pass over B x 2H histories serves predict (B=1), each
training mini-batch and the whole evaluation set. The backward pass is
written by hand over the batch with matrix products, so training is
bit-reproducible; bank rows get their gradients through one lookup and one
bank_gradients call per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .embed import (EmbeddingBank, ForecastError, StyleIndex, bank_gradients, check_size,
                    lookup)
from .tdbm import style_order
from .traj import read_json, shaped, write_json

FUSION_MODES = ("none", "early", "late")
DEFAULT_MISS_THRESHOLD = 2.0  # m, final-displacement miss cutoff
BATCH_SIZE = 32  # training examples per gradient step


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
        shapes = cls.shapes(H, T, M, hidden, D)
        check_size(shapes)
        rng = np.random.default_rng(seed)

        def draw(name, shape):  # biases start at zero; a weight's fan-in is its last axis
            bound = 1.0 / np.sqrt(shape[-1])
            return np.zeros(shape) if name[0] == "b" else rng.uniform(-bound, bound, size=shape)

        return cls(H=H, T=T, M=M, hidden=hidden, D=D, fusion=fusion, seed=seed,
                   input_scale=input_scale,
                   **{name: draw(name, shape) for name, shape in shapes.items()})

    @staticmethod
    def shapes(H, T, M, hidden, D) -> dict:
        """The shape of each weight array of a model with these dimensions."""
        return {"W1": (hidden, 2 * H), "b1": (hidden,), "P": (hidden, D),
                "W2": (M, 2 * T, hidden), "b2": (M, 2 * T), "W3": (M, hidden), "b3": (M,)}

    def to_dict(self) -> dict:
        dims = {"H": self.H, "T": self.T, "M": self.M, "hidden": self.hidden, "D": self.D}
        return {**dims, "fusion": self.fusion, "seed": self.seed, "input_scale": self.input_scale,
                **{name: getattr(self, name).tolist() for name in self.shapes(**dims)}}

    @classmethod
    def from_dict(cls, d: dict) -> "ForecastModel":
        dims = {name: int(d[name]) for name in ("H", "T", "M", "hidden", "D")}
        return cls(**dims, fusion=d["fusion"], seed=int(d["seed"]),
                   input_scale=float(d.get("input_scale", 0.1)),
                   **{name: shaped(name, d[name], shape)
                      for name, shape in cls.shapes(**dims).items()})

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ForecastModel":
        return read_json(path, cls.from_dict)


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
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward(model: ForecastModel, x: np.ndarray, style: np.ndarray):
    """Forward pass over a batch: x is B x 2H scaled histories, style is
    B x D (read only under fusion). Returns (h, d, Forecast with B x M x T x 2
    modes and B x M probs)."""
    u = x @ model.W1.T + model.b1
    if model.fusion == "early":
        u = u + style @ model.P.T
    h = np.tanh(u)
    d = h + style @ model.P.T if model.fusion == "late" else h
    traj = d @ model.W2.reshape(-1, model.hidden).T + model.b2.reshape(-1)
    logits = d @ model.W3.T + model.b3
    return h, d, Forecast(modes=traj.reshape(-1, model.M, model.T, 2), probs=_softmax(logits))


def predict(model: ForecastModel, history: np.ndarray, style_vec=None) -> Forecast:
    """Multimodal forecast from H observed offsets (relative to the last
    observed position)."""
    history = np.asarray(history, dtype=float)
    if history.shape != (model.H, 2):
        raise ForecastError(f"history shape {history.shape} != ({model.H}, 2)")
    if model.fusion != "none" and style_vec is None:
        raise ForecastError(f"fusion={model.fusion!r} requires a style vector")
    style = np.zeros(model.D) if style_vec is None else np.asarray(style_vec, dtype=float)
    fc = _forward(model, model.input_scale * history.reshape(1, -1), style[None])[2]
    return Forecast(modes=fc.modes[0], probs=fc.probs[0])


def wta_loss(forecast: Forecast, gt: np.ndarray):
    """Winner-takes-all loss: squared displacement of the best mode plus
    cross-entropy pushing probability mass onto it.

    Returns (loss, grad_modes, grad_logits, best_mode). grad_modes is zero
    outside the best mode; grad_logits assumes probs = softmax(logits).
    Ties in mode selection go to the lower index. Leading batch axes of
    modes (... x M x T x 2), probs and gt (... x T x 2) carry through.
    """
    gt = np.asarray(gt, dtype=float)
    modes, probs = forecast.modes, forecast.probs
    M, T = modes.shape[-3:-1]
    if gt.shape != modes.shape[:-3] + (T, 2):
        raise ForecastError(f"ground truth shape {gt.shape} != {modes.shape[:-3] + (T, 2)}")
    diff = modes - gt[..., None, :, :]
    sq = np.sum(diff ** 2, axis=(-2, -1))  # per-mode total sq disp
    best = np.argmin(sq, axis=-1)
    onehot = (np.arange(M) == best[..., None]).astype(float)
    reg = np.sum(onehot * sq, axis=-1) / T
    ce = -np.log(np.maximum(np.sum(onehot * probs, axis=-1), 1e-300))
    grad_modes = onehot[..., None, None] * (2.0 * diff / T)
    return reg + ce, grad_modes, probs - onehot, best


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


def _stack(model: ForecastModel, examples: Sequence[TrainingExample]):
    """Scaled histories (n x 2H), futures (n x T x 2) and, under fusion, the
    examples' bank indices as one StyleIndex of int arrays (else None)."""
    n = len(examples)
    history = np.array([ex.history for ex in examples], dtype=float).reshape(n, 2 * model.H)
    future = np.array([ex.future for ex in examples], dtype=float).reshape(n, model.T, 2)
    index = None
    if model.fusion != "none":
        zkc = np.array([(ex.index.z, ex.index.k, ex.index.c) for ex in examples], dtype=int)
        index = StyleIndex(*zkc.reshape(n, 3).T)
    return model.input_scale * history, future, index


def _style(model: ForecastModel, bank, index, n: int) -> np.ndarray:
    """n x D conditioning vectors: the bank's, or zeros without fusion."""
    return np.zeros((n, model.D)) if index is None else lookup(bank, index)[0]


def _check_bank(model: ForecastModel, bank) -> None:
    if model.fusion != "none" and getattr(bank, "D", None) != model.D:
        raise ForecastError(f"fusion={model.fusion!r} requires an embedding bank of D="
                            f"{model.D}" + ("" if bank is None else f", not D={bank.D}"))


def train(
    examples: Sequence[TrainingExample],
    model: ForecastModel,
    bank: Optional[EmbeddingBank] = None,
    epochs: int = 100,
    lr: float = 1e-2,
    seed: int = 0,
):
    """Mini-batch gradient descent with a fixed step and seeded shuffling.

    Each step descends the mean WTA loss of one batch. Mutates and returns
    (model, bank); bank factor rows receive gradients through the lookup when
    fusion is enabled. Returns the per-epoch mean training loss as the third
    element.
    """
    _check_bank(model, bank)
    rng = np.random.default_rng(seed)
    n = len(examples)
    x_all, future_all, index_all = _stack(model, examples)
    losses = []
    for _epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            index = None if index_all is None else StyleIndex(
                index_all.z[batch], index_all.k[batch], index_all.c[batch])
            x, style = x_all[batch], _style(model, bank, index, len(batch))
            h, d, fc = _forward(model, x, style)
            loss, g_modes, g_logits, _best = wta_loss(fc, future_all[batch])
            epoch_loss += loss.sum()
            # backward: g_fused is the gradient at the layer the style enters
            g_traj = g_modes.reshape(len(batch), -1)
            g_d = g_traj @ model.W2.reshape(-1, model.hidden) + g_logits @ model.W3
            g_u = g_d * (1.0 - h * h)
            g_fused = g_u if model.fusion == "early" else g_d
            scale = lr / len(batch)
            if index is not None:  # before the step, as it reads the pre-step P
                g_ek, g_ec = bank_gradients(bank, index, g_fused @ model.P)
                for table, row, g in ((bank.e_k, index.k, g_ek), (bank.e_c, index.c, g_ec)):
                    acc = np.zeros_like(table)
                    np.add.at(acc, (index.z, row), g)
                    table -= scale * acc
            model.W1 -= scale * (g_u.T @ x)
            model.b1 -= scale * g_u.sum(axis=0)
            model.P -= scale * (g_fused.T @ style)
            model.W2 -= scale * (g_traj.T @ d).reshape(model.W2.shape)
            model.b2 -= scale * g_traj.sum(axis=0).reshape(model.b2.shape)
            model.W3 -= scale * (g_logits.T @ d)
            model.b3 -= scale * g_logits.sum(axis=0)
        losses.append(epoch_loss / max(n, 1))
    return model, bank, losses


def evaluate(
    examples: Sequence[TrainingExample],
    model: ForecastModel,
    bank: Optional[EmbeddingBank] = None,
    miss_threshold: float = DEFAULT_MISS_THRESHOLD,
) -> List[MetricsRow]:
    """Per-style and Overall metric rows (style taken from each example)."""
    if not examples:
        raise ForecastError("cannot evaluate an empty dataset")
    _check_bank(model, bank)
    x, future, index = _stack(model, examples)
    fc = _forward(model, x, _style(model, bank, index, len(examples)))[2]
    disp = np.linalg.norm(fc.modes - future[:, None], axis=3)  # n x M x T
    fde = disp[:, :, -1]
    best = np.argmin(fde, axis=1)
    rows_n = np.arange(len(examples))
    min_fde = fde[rows_n, best]
    per_scene = {
        "brierFDE": min_fde + (1.0 - fc.probs[rows_n, best]) ** 2,
        "minADE": disp.mean(axis=2).min(axis=1),
        "minFDE": min_fde,
        "MissRate": (min_fde > miss_threshold).astype(float),
    }
    styles = np.array([ex.style for ex in examples], dtype=object)

    def row(style: str, mask) -> MetricsRow:
        return MetricsRow(style=style, n=int(mask.sum()),
                          **{k: float(v[mask].mean()) for k, v in per_scene.items()})

    rows = [row(style, styles == style) for style in style_order(set(styles) - {None})]
    return rows + [row("Overall", np.ones(len(examples), dtype=bool))]
