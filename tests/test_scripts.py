import importlib.util
import pathlib

import numpy as np

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_admissibility_sweep_rows(capsys):
    sweep = _load("admissibility_sweep")
    assert sweep.main(["--modes", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "drive r0 = 1, M = 4"
    rows = [ln.split() for ln in lines[2:]]
    t0 = np.array([1, 2, 3, 5, 6, 2 * np.pi - 0.05, 2 * np.pi, 7])
    np.testing.assert_allclose([float(r[0]) for r in rows], t0, atol=5e-5)
    # r0 = 1: lam_m Lambda_m(t0) = 1 - cos(m t0) for the modes m = 1..4
    response = 1.0 - np.cos(np.outer(np.arange(1, 5), t0))
    np.testing.assert_allclose([float(r[1]) for r in rows],
                               response.min(axis=0), rtol=1e-6, atol=1e-12)
    # the worst mode is a tie at t0 = 2 pi, where every response is rounding
    worst = [int(r[2]) for r in rows]
    argmin = response.argmin(axis=0) + 1
    assert [w for i, w in enumerate(worst) if i != 6] \
        == [int(m) for i, m in enumerate(argmin) if i != 6]
    dead = [r[3:] for r in rows]
    # every mode dies at t0 = 2 pi, and only there
    assert dead[6] == ["<-", "4", "dead", "mode(s)"]
    assert all(not d for i, d in enumerate(dead) if i != 6)


def test_bench_pairs_verdicts():
    pairs = _load("bench_pairs")
    parent = [2.70, 2.72, 2.75, 2.69, 2.80, 2.71, 2.74, 2.73, 2.76, 2.70]
    faster = [v - 0.4 for v in parent]
    got = pairs.compare(parent, faster, "lower", 0.25)
    assert got["change_wins"] == 10 and got["verdict"] == "better"
    assert got["parent"]["median"] == 2.725
    assert got["gap_over_parent_iqr"] > 1
    # nine wins of ten still count; eight do not
    nine = faster[:9] + [parent[9] + 0.01]
    assert pairs.compare(parent, nine, "lower", 0.25)["verdict"] == "better"
    eight = faster[:8] + [parent[8] + 0.01, parent[9] + 0.01]
    assert pairs.compare(parent, eight, "lower", 0.25)["verdict"] \
        == "within bound"
    # a higher-is-better metric read the other way round
    assert pairs.compare(parent, [v + 1.0 for v in parent], "higher",
                         0.25)["verdict"] == "better"
    slower = [v * 1.3 for v in parent]
    assert pairs.compare(parent, slower, "lower", 0.25)["verdict"] \
        == "worse beyond bound"
    # fewer than ten pairs claim nothing
    assert pairs.compare(parent[:9], faster[:9], "lower", 0.25)["verdict"] \
        == "within bound"
    # a spread wider than the bound leaves a small rise unresolved
    noisy = [1.0, 2.0, 1.0, 2.0]
    assert pairs.compare(noisy, [1.1, 2.1, 1.1, 2.1], "lower", 0.1)[
        "verdict"] == "unresolved"
