"""The benchmark's tracer looks library functions up by name; keep those names resolvable."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up here
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for traced in tracing.TRACED:
        assert callable(getattr(importlib.import_module(traced.module), traced.attr, None)), traced.name
