"""Factorized style-context embedding bank.

Each style z owns two factor matrices: per-cluster rows e_k[z] (K x D) and
per-context rows e_c[z] (2 x D), stored as one Z x K x D and one Z x 2 x D
array. The scalar table E = e_k[z] . e_c[z]^T indexes a (cluster, context)
pair; the conditioning vector handed to the forecaster is the elementwise
factor interaction, whose sum is exactly the table entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kdsc import ClusterModel, assign
from .kinematics import extract_features
from .tdbm import TdbmConfig, _uniformize, build_tdbm_features, tdbm_classify, tdbm_score
from .traj import StyleLensError, read_json, shaped, write_json

NON_HIGHWAY, HIGHWAY = 0, 1
V_HIGHWAY = 16.7  # m/s, ~60 km/h: mean focal speed at or above it is highway
MAX_FLOATS = 2 ** 27  # 1 GiB of float64, the most one model or bank may hold


class ForecastError(StyleLensError):
    pass


def check_size(shapes: dict) -> None:
    """ForecastError, before anything is allocated, if arrays of these shapes
    would hold more than MAX_FLOATS floats in all."""
    total = sum(math.prod(shape) for shape in shapes.values())
    if total > MAX_FLOATS:
        sizes = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        raise ForecastError(f"{sizes} would hold {total} floats, more than {MAX_FLOATS} (1 GiB)")


@dataclass(frozen=True)
class StyleIndex:
    """One bank index, or a batch of them when each field is an int array."""

    z: int  # style class id
    k: int  # intra-style cluster id
    c: int  # 0 = non-highway, 1 = highway


@dataclass
class EmbeddingBank:
    num_styles: int = 6
    K: int = 3
    D: int = 16
    seed: int = 0
    e_k: np.ndarray = None  # Z x K x D
    e_c: np.ndarray = None  # Z x 2 x D
    style_names: tuple = ()  # style name of each row z; empty if unknown

    @classmethod
    def init(cls, num_styles: int = 6, K: int = 3, D: int = 16, seed: int = 0) -> "EmbeddingBank":
        shapes = cls.shapes(num_styles, K, D)
        check_size(shapes)
        rng = np.random.default_rng(seed)
        e_k = rng.uniform(-0.1, 0.1, size=shapes["e_k"])
        e_c = rng.uniform(-0.1, 0.1, size=shapes["e_c"])
        return cls(num_styles=num_styles, K=K, D=D, seed=seed, e_k=e_k, e_c=e_c)

    @staticmethod
    def shapes(num_styles, K, D) -> dict:
        """The shape of each factor array of a bank with these dimensions."""
        return {"e_k": (num_styles, K, D), "e_c": (num_styles, 2, D)}

    def validate_index(self, idx: StyleIndex) -> None:
        z, k, c = (np.asarray(v) for v in (idx.z, idx.k, idx.c))
        if not np.all((0 <= z) & (z < self.num_styles) & (0 <= k) & (k < self.K)
                      & ((c == 0) | (c == 1))):
            raise IndexError(f"index {idx} out of range for bank "
                             f"(|Z|={self.num_styles}, K={self.K})")

    def to_dict(self) -> dict:
        return {
            "num_styles": self.num_styles,
            "K": self.K,
            "D": self.D,
            "seed": self.seed,
            "style_names": list(self.style_names),
            "styles": [
                {"e_k": ek.tolist(), "e_c": ec.tolist()}
                for ek, ec in zip(self.e_k, self.e_c)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingBank":
        Z, K, D = (int(d[name]) for name in ("num_styles", "K", "D"))
        names = tuple(d.get("style_names", ()))
        if names and len(names) != Z:
            raise ValueError(f"style_names has {len(names)} entries, expected num_styles={Z}")
        return cls(num_styles=Z, K=K, D=D, seed=int(d.get("seed", 0)), style_names=names,
                   **{name: shaped(name, [s[name] for s in d["styles"]], shape)
                      for name, shape in cls.shapes(Z, K, D).items()})

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "EmbeddingBank":
        return read_json(path, cls.from_dict)


def lookup(bank: EmbeddingBank, idx: StyleIndex):
    """Conditioning vector (factor interaction) and its scalar table entry;
    a batched index gives a B x D array of vectors and B entries."""
    bank.validate_index(idx)
    vector = bank.e_k[idx.z, idx.k] * bank.e_c[idx.z, idx.c]
    return vector, vector.sum(axis=-1)


def bank_gradients(bank: EmbeddingBank, idx: StyleIndex, upstream: np.ndarray):
    """Gradients of upstream . lookup vector wrt the two touched factor rows.

    Returns (grad_e_k_row, grad_e_c_row), each shaped like upstream (D, or
    B x D for a batched index); all untouched rows have zero gradient by
    construction.
    """
    bank.validate_index(idx)
    upstream = np.asarray(upstream, dtype=float)
    return upstream * bank.e_c[idx.z, idx.c], upstream * bank.e_k[idx.z, idx.k]


def context_classify(scene) -> int:
    """Highway flag wins; otherwise threshold the mean focal speed."""
    if scene.highway is not None:
        return HIGHWAY if scene.highway else NON_HIGHWAY
    focal = scene.focal
    span = focal.timestamps[-1] - focal.timestamps[0]
    if span <= 0:
        return NON_HIGHWAY
    dist = np.sum(np.hypot(*np.diff(focal.positions, axis=0).T))
    return HIGHWAY if dist / span >= V_HIGHWAY else NON_HIGHWAY


def style_index(
    scene,
    tdbm_config: TdbmConfig,
    cluster_models: dict,
    fallback_model: Optional[ClusterModel] = None,
) -> StyleIndex:
    """Compose the three non-differentiable classifiers into a bank index.

    cluster_models maps style class id -> fitted ClusterModel; styles absent
    from the map use the shared fallback model (k stays 0 if none exists).
    """
    x = build_tdbm_features(scene, tdbm_config)
    z = int(tdbm_classify(tdbm_score(x), x.had_neighbors))
    model = cluster_models.get(z, fallback_model)
    if model is None:
        k = 0
    else:
        focal = _uniformize(scene.focal, tdbm_config.resample_dt)
        k = assign(model, extract_features(focal))
    c = context_classify(scene)
    return StyleIndex(z=z, k=k, c=c)
