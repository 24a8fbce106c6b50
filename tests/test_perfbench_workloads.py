"""The benchmark's workloads run against the library as it stands.

``perfbench/workloads.py`` passes the public entries the grids it holds (the
node array ``u.grid`` and the value ``make_time_grid`` returns) and checks
every result it times, so a change to those entries that breaks the
benchmark fails here first.  The module is loaded from its file as it is,
one op per workload at the benchmark's seed.
"""

import pathlib
import types

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # compiled from its text, so that no bytecode is written beside it
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
         module.__dict__)
    return module


@pytest.mark.parametrize("name", ["forward_scale", "order_sweep_callable",
                                  "roundtrip_cli"])
def test_one_benchmark_op_passes_its_check(workloads, tmp_path, name):
    work = workloads.make(name, 7, str(tmp_path))
    work.setup()
    inp = work.make_input(0)
    work.check(inp, work.op(inp))
