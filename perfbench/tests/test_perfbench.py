"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_child_coverage():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],       # child of a
        ["c", 2.0, 3.0, 1],       # grandchild: not subtracted from a
        ["d", 3.0, 6.0, 0],       # overlaps b by 1: covered once
        ["e", 9.0, 12.0, 0],      # runs past a's end: clipped to 1
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 6, 2, 1, 3, 3])


def test_self_time_ignores_parents_outside_the_window():
    spans = [["outer", 0.0, 10.0, -1], ["x", 1.0, 3.0, 0], ["y", 1.5, 2.5, 1]]
    assert tracing.self_times(spans, lo=1) == pytest.approx([1.0, 1.0])


def test_tail_has_ten_samples_beyond_it():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct, n = stats.tail(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10

    value, pct, n = stats.tail([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)

    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_end_to_end_reports_every_declared_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics, info = stats.end_to_end([1.0, 2.0, 3.0], [0.5, 0.7, 0.6],
                                     [0.1 * (i + 1) for i in range(20)],
                                     4.0, 120.0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert metrics["setup_s"] == 2.0 and metrics["cold_s"] == 0.6
    assert metrics["ops_per_s"] == 5.0
    assert info == {"tail_percentile": 50.0, "warm_ops": 20}


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _FailingWorkload:
    """Each op takes one clock second; ops 3 and 5 fail, in op and in check."""

    def __init__(self, clock):
        self.clock = clock

    def make_input(self, i, traced=False):
        return i

    def op(self, i):
        self.clock.now += 1.0
        if i == 3:
            raise RuntimeError("forced op failure")
        return i

    def check(self, i, out):
        if i == 5:
            raise workloads.CheckFailed("forced check failure")


def test_forced_failures_raise_fail_frac():
    clock = _FakeClock()
    wl = _FailingWorkload(clock)
    loop = worker.closed_loop(lambda i: worker.attempt(wl, i, clock=clock),
                              seconds=8.0, clock=clock, min_ops=1)
    assert loop["attempted"] == 8 and loop["failed"] == 2
    assert len(loop["warm_s"]) == 6 and loop["window_s"] == 8.0
    assert stats.fail_frac(loop["failed"], loop["attempted"]) == 0.25


def test_closed_loop_waits_for_enough_samples():
    clock = _FakeClock()

    def op(i):
        clock.now += 1.0
        return True, 1.0

    loop = worker.closed_loop(op, seconds=2.0, clock=clock, min_ops=11)
    assert loop["attempted"] == 11


def test_import_seconds_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:        40 |         70 |   scipy.linalg",
        "import time:         5 |          5 |     sympy.core",
        "import time:        15 |         20 |   sympy",
        "import time:        30 |        150 | oscinv",
    ])
    got = tracing.import_seconds(text)
    assert got == pytest.approx({"oscinv": 150e-6, "sympy": 20e-6,
                                 "scipy": 100e-6})


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
    names = [m["name"] for m in spec["per_layer"]]
    assert list(layer_map) == names
    workload_names = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        for wls in entry["moves"].values():
            assert set(wls) <= workload_names

    per_op = tracing.op_layer_metrics([], 0, 0, {})
    extra = {"basis.build_s", "trace.overhead_frac", "import.oscinv_s",
             "import.sympy_s", "import.scipy_s"}
    assert set(per_op) | extra == set(names)


def test_tracer_routes_imported_names_and_restores_them():
    oscinv = pytest.importorskip("oscinv")
    from oscinv import forward, quadrature

    original = quadrature.cumulative_oscillatory
    tr = tracing.Tracer()
    tr.install()
    try:
        assert forward.cumulative_oscillatory is not original
        basis = oscinv.build_dirichlet_interval_basis(math.pi, 2)
        oscinv.solve_direct(basis, "sin(x)", "1 + cos(tau)", 50.0, T=0.5)
    finally:
        tr.uninstall()
    assert forward.cumulative_oscillatory is original
    assert quadrature.cumulative_oscillatory is original

    m = tracing.op_layer_metrics(tr.spans, 0, len(tr.spans), tr.counts)
    # two modes, each with the slow pass and two sidebands of harmonic 1
    assert m["quadrature.passes"] == 6
    assert m["forward.solve.calls"] == 1
    assert m["sources.split.calls"] == 1
    assert m["basis.mode_traces.calls"] == 1
    roots = [s for s in tr.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["basis.build_dirichlet_interval_basis",
                                     "forward.solve_direct"]
    total_self = sum(tracing.self_times(tr.spans))
    assert total_self == pytest.approx(
        sum(end - start for _, start, end, _ in roots))


def test_seeds_change_coefficients_not_sizes():
    a, b = workloads.roundtrip_configs(1, 0), workloads.roundtrip_configs(2, 0)
    assert a != b
    assert workloads.roundtrip_configs(1, 0) == a
    for ca, cb in zip(a, b):
        assert ca["basis"] == cb["basis"] and ca["grid"] == cb["grid"]
        assert ca["omega"] == cb["omega"]
        x0 = ca["observation"]["x0"]
        assert abs(x0 - math.pi / 2) <= workloads.X0_HALF_WIDTH
    fs = [workloads.ForwardScale(s) for s in range(20)]
    assert len({w.c for w in fs}) == 20
    for w in fs:
        assert math.sin(w.x0) + w.c * math.sin(3 * w.x0) > 0.5

