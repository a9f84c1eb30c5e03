"""The traced benchmark wraps package functions at fixed module attributes
(`perfbench/tracing.py`, `WRAPS`). A refactor that drops or moves one makes
its spans read 0, so every wrap point is checked here, without perfbench."""

import importlib
import importlib.util
import pathlib
from collections import Counter

import numpy as np
import pytest

from style_lens import EmbeddingBank, ForecastModel, StyleIndex, TrainingExample, forecast

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.WRAPS]


@pytest.mark.parametrize("module_name,attr", load_wraps(), ids=lambda v: v)
def test_wrap_point_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_counted_wrap_points_are_called_once_per_batch(monkeypatch):
    """train looks up and back-propagates into the bank once per batch, and
    evaluate looks up once, through the forecast module's attributes."""
    calls = Counter()
    for name in ("lookup", "bank_gradients"):
        def counted(*args, __fn=getattr(forecast, name), __name=name):
            calls[__name] += 1
            return __fn(*args)
        monkeypatch.setattr(forecast, name, counted)
    rng = np.random.default_rng(0)
    examples = [TrainingExample(history=rng.normal(size=(3, 2)), future=rng.normal(size=(2, 2)),
                                index=StyleIndex(0, 0, i % 2))
                for i in range(forecast.BATCH_SIZE + 5)]
    model = ForecastModel.init(H=3, T=2, M=2, hidden=4, D=3, fusion="early")
    bank = EmbeddingBank.init(num_styles=1, K=1, D=3)
    forecast.train(examples, model, bank, epochs=3)
    assert calls == {"lookup": 6, "bank_gradients": 6}
    forecast.evaluate(examples, model, bank)
    assert calls == {"lookup": 7, "bank_gradients": 6}
