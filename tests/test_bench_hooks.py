"""The bench tracer wraps eongp entry points by name; a rename must fail
here, not only in traced bench runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_entry_points_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr in spans.ENTRY_POINTS
               if not hasattr(importlib.import_module(f"eongp.{module}"),
                              attr)]
    assert spans.ENTRY_POINTS and not missing
