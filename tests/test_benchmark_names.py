"""The functions that BENCHMARK.json's per-layer metrics name still exist.

The traced benchmark run wraps every public function of each ssrqec module
and reads each timed metric (``<module>.<function>.s``, ``.self_s`` or
``.calls``) off those wrappers, so a metric whose function was renamed or
removed fails that run with a KeyError.  This test reads BENCHMARK.json and
changes nothing.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SUFFIXES = (".self_s", ".s", ".calls")


def timed_metrics() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [n for n in names if n.endswith(SUFFIXES)]


def test_some_metrics_are_timed():
    assert timed_metrics()


@pytest.mark.parametrize("metric", timed_metrics())
def test_metric_names_a_public_function(metric):
    stem = next(metric[:-len(s)] for s in SUFFIXES if metric.endswith(s))
    module_name, function = stem.split(".")
    module = importlib.import_module(f"ssrqec.{module_name}")
    obj = getattr(module, function, None)
    assert not function.startswith("_") and inspect.isfunction(obj), metric
    assert obj.__module__ == module.__name__, metric
