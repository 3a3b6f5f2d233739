"""The benchmark's per-layer metrics can all be computed at this commit.

perfbench/ finds the callables it traces at run time, and a metric whose
span is gone is reported as absent, so deleting or renaming a public
callable fails no other test. These tests read perfbench/ and
BENCHMARK.json; they change neither.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name: str):
    """perfbench/<name>.py, loaded as perfbench_<name> without putting
    perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def metrics():
    return _perfbench("metrics")


def test_every_span_a_metric_needs_is_traced(metrics):
    tracing = _perfbench("tracing")
    spans = {
        name
        for layer in tracing.LAYERS
        for _, _, name, _ in tracing._public_callables(
            importlib.import_module(f"{tracing.PACKAGE}.{layer}"))
    }
    needed = {span for metric in metrics.PER_LAYER for span in metric.needs}
    assert sorted(needed - spans) == []


def test_every_declared_metric_is_defined(metrics):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 38
    assert sorted(declared) == sorted(metric.name for metric in metrics.PER_LAYER)
