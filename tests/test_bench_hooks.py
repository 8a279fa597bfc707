"""The bench tracer wraps eongp entry points by name and reads sizes off
their arguments; a rename must fail here, not only in traced bench runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from eongp import gp, psa
from eongp.model import load_instance, partition_traffic
from eongp.routing import solve_routing

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_entry_points_exist(spans):
    missing = [f"{module}.{attr}" for module, attr in spans.ENTRY_POINTS
               if not hasattr(importlib.import_module(f"eongp.{module}"),
                              attr)]
    assert spans.ENTRY_POINTS and not missing


def test_solve_sizes_are_read_off_a_pinned_form(spans, data_dir):
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = partition_traffic(inst.demands, 100e9, 3, seed=0)
    routing = solve_routing(inst.topology, requests, "spr",
                            span_km=inst.physics.span_km)
    base = gp.ConvexForm(psa.build_program(routing, inst.physics,
                                           inst.scenario))
    form = gp.fix_variable(base, {psa.c_var(0): 2.0})
    assert form.n == base.n - 1
    seen = spans._observe("gp.solve", (form,), gp.solve(form))
    assert (seen["vars"], seen["cons"]) == (form.n, form.m)
