"""The benchmark tracer's targets must name functions the package still has."""

from __future__ import annotations

import importlib.util
import os

import lieclassical
import lieclassical.cli  # noqa: F401  (loads every traced module, as the benchmark worker does)

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    for module, attr, _ in tracer.TARGETS:
        owner = getattr(lieclassical, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"
    for layer in tracer.WHOLE_LAYERS:
        assert getattr(lieclassical, layer)
