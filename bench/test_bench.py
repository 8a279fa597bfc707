"""Tests of the benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, covered, layer_metrics, self_times  # noqa: E402


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert covered([]) == 0


def test_self_time_of_nested_spans():
    tree = [Span("root", 0, 10),
            Span("child", 2, 8, parent=0),
            Span("grandchild", 3, 5, parent=1)]
    # each span loses only its direct children's time
    assert self_times(tree) == [4, 4, 2]
    assert sum(self_times(tree)) == tree[0].duration


def test_self_time_with_overlapping_siblings():
    tree = [Span("root", 0, 10),
            Span("a", 1, 6, parent=0),
            Span("b", 4, 12, parent=0),    # overlaps a and ends past root
            Span("c", -2, 0.5, parent=0)]  # starts before root
    # children cover [0, 0.5] and [1, 10] of the root
    assert self_times(tree)[0] == pytest.approx(0.5)


def _pass(solves, assigns):
    """Root span with gp.solve spans (duration, iterations) under heuristic
    spans (rounds, pins)."""
    tree = [Span("pass", 0.0, 100.0)]
    t = 0.0
    for rounds, pins in assigns:
        tree.append(Span("heuristic.assign", t, t + 40.0, parent=0,
                         attrs={"rounds": rounds, "pins": pins}))
        parent = len(tree) - 1
        for duration, iterations in solves:
            tree.append(Span("gp.solve", t, t + duration, parent=parent,
                             attrs={"iterations": iterations,
                                    "optimal": True}))
            t += duration
        t = tree[parent].end
    return tree


def test_ms_per_iter_and_pins_per_round_carry_their_base():
    metrics = layer_metrics(_pass([(2.0, 10), (3.0, 15)],
                                  [(4, 36), (2, 36)]))
    assert metrics["gp.solve.iterations"] == 50
    assert metrics["gp.solve.busy_s"] == pytest.approx(10.0)
    assert metrics["gp.solve.ms_per_iter"] == pytest.approx(1e3 * 10.0 / 50)
    assert metrics["heuristic.rounds"] == 6
    assert metrics["heuristic.pins"] == 72
    assert metrics["heuristic.pins_per_round"] == pytest.approx(12.0)
    assert metrics["heuristic.assign.self_s"] == pytest.approx(80.0 - 10.0)
    assert metrics["trace.untraced_gap_s"] == pytest.approx(20.0)


def test_one_root_per_operation():
    first = _pass([(2.0, 10)], [(1, 3)])
    second = [Span(s.name, s.start + 100.0, s.end + 100.0,
                   parent=None if s.parent is None else s.parent + len(first),
                   attrs=s.attrs) for s in first]
    metrics = layer_metrics(first + second)
    assert metrics["trace.wall_s"] == pytest.approx(200.0)
    assert metrics["trace.untraced_gap_s"] == pytest.approx(2 * 60.0)
    assert metrics["gp.solve.busy_s"] == pytest.approx(4.0)


def test_rescale_lays_operations_end_to_end():
    op = [Span("operation", 5.0, 9.0), Span("gp.solve", 6.0, 7.0, parent=0)]
    assert run.rescale(op, 10.0, 0.5) == pytest.approx(12.0)
    assert (op[1].start, op[1].end) == pytest.approx((10.5, 11.0))


def test_probe_rescales_to_the_reference_speed():
    p = probe.Probe()
    p.samples = [1.0, 2 * probe.REF_S, 2 * probe.REF_S, 4 * probe.REF_S]
    # median sample twice the reference: half speed, the probe's own
    # time taken out
    assert p.factor(1) == pytest.approx(0.5)
    assert p.scaled(1.0, 1) == pytest.approx(
        0.5 * (1.0 - 8 * probe.REF_S))
    with pytest.raises(RuntimeError):
        p.factor(4)


def test_ratio_without_base_is_nan():
    assert math.isnan(spans.ratio(1.0, 0))


def test_wrappers_record_spans_and_come_off():
    from eongp import gp, heuristic, routing

    original = routing.solve_routing
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert heuristic.solve_routing is not original
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped()
        program = gp.assemble(
            gp.Posynomial((gp.Monomial.make(1.0, [("x", -1.0)]),)),
            [("cap", gp.Posynomial((gp.Monomial.make(0.5, [("x", 1.0)]),)))])
        assert gp.solve(program).status == "optimal"
    finally:
        spans.uninstall(patches)
    spans.assert_unwrapped()
    assert heuristic.solve_routing is original
    assert routing.solve_routing is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "gp.solve" and "gp.ConvexForm" in names
    child = names.index("gp.ConvexForm")
    assert tracer.spans[child].parent == 0
    assert tracer.spans[0].attrs["iterations"] > 0


def _run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["full_scale", "relax_round", "oracle"])
def test_unused_seed_runs_every_workload(workload):
    result = _run(workload, 7, 0)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["end_to_end"]}


def test_traced_run_reports_every_layer():
    result = _run("oracle", 7, 1)
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["per_layer"]}
    assert result["metrics"]["gp.solve.calls"]["value"] >= 10 * 36
