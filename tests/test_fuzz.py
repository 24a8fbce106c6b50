"""The exit-code contract under single-leaf mutations of every input file.

Each leaf of the five sample configs (the output keys aside) and of five
``--data`` files is replaced, in turn, by each of a fixed list of bad
values, and deleted once; every mutation runs through ``cli.main``
in-process.  Whatever the input, a run must exit 0, 1 or 2; an exit 2
prints exactly one line on stderr; no warning is raised; and an exit-0 run
writes no ``nan`` or ``inf`` into its reports.  A leaf is a value that is
not a dict and not a list of dicts, so a list of numbers (``omega``,
``lengths``, ``phi0.grid``) is mutated as a whole.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import re
import shutil
import warnings

import numpy as np
import pytest

from oscinv.cli import main

PI = math.pi
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

DELETE = object()
BAD_VALUES = (math.nan, math.inf, -math.inf, 1e308, 1e-300, 0, -1, 10 ** 9,
              "", "junk", [], [1, 2], "1/t", "exp(1000*t)", "nan", None, True,
              {}, "t^0.5", 3.5, "x*t", DELETE)

NONFINITE = re.compile(r"(?<![A-Za-z_])-?(nan|inf)(?![A-Za-z_])", re.I)


def _leaves(node, path=()):
    """Paths of the leaves under a JSON node, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and all(
            isinstance(v, dict) for v in node):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, value in items for p in _leaves(value, path + (key,))]


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations(doc, skip=("output",)):
    for path in _leaves(doc):
        if path[0] not in skip:
            for value in BAD_VALUES:
                yield path, value


def _run(argv, out_dir):
    """(exit code, how the run of argv breaks the contract or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv + ["--output-dir", str(out_dir)])
        except Exception as exc:                  # a traceback
            return None, f"{type(exc).__name__}: {exc}"
    if caught:
        return code, f"warning: {caught[0].message}"
    if code not in (0, 1, 2):
        return code, f"exit {code}"
    lines = err.getvalue().strip().splitlines()
    if code == 2 and len(lines) != 1:
        return code, f"exit 2 with {len(lines)} stderr lines"
    if code == 0:
        for path in sorted(out_dir.glob("*")):
            if NONFINITE.search(path.read_text()):
                return code, f"exit 0 with a non-finite number in {path.name}"
    return code, None


def _label(path, value):
    shown = "deleted" if value is DELETE else json.dumps(value)
    return f"{'.'.join(map(str, path))}={shown}"


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        CONFIGS.glob("*.json")))
def test_config_mutations_keep_the_exit_code_contract(tmp_path, name):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = tmp_path / "cfg.json"
    broken = []
    for path, value in _mutations(doc):
        cfg.write_text(json.dumps(_mutated(doc, path, value)))
        _, why = _run(["study", "--config", str(cfg)], tmp_path / "out")
        if why:
            broken.append(f"{_label(path, value)}: {why}")
    assert broken == []


# u0(x, t) of the sample configs in closed form.  Mode m of the interval
# [0, pi] has y_m = sqrt(2/pi) sin(m x) and lam_m = m**2; from rest,
# a'' + m**2 a = 1 + t gives a_m(t) = (1 + t - cos(m t))/m**2
# - sin(m t)/m**3, and a'' + a = exp(-t) (1 + t) gives
# exp(-t) (1 + t/2) - cos(t) + sin(t)/2.
_PHI0_DRIVE = "exp(-t)*(1 + t/2) - cos(t) + sin(t)/2"


def _a(m, t):
    return (1 + t - math.cos(m * t)) / m ** 2 - math.sin(m * t) / m ** 3


# f = sin(x) + 0.3 sin(3x): its final-time snapshot at t0 = 3
_PSI_TERMS = ((1, 1.0 * _a(1, 3.0)), (3, 0.3 * _a(3, 3.0)))
_PSI_EXPR = " + ".join(f"{c!r}*sin({m}*x)" for m, c in _PSI_TERMS)
_PSI_COEFFS = [0.0] * 8
for _m, _c in _PSI_TERMS:
    _PSI_COEFFS[_m - 1] = _c * math.sqrt(PI / 2)
_PSI_POINTS = np.linspace(0.0, PI, 65)
_PSI_VALUES = sum(c * np.sin(m * _PSI_POINTS) for m, c in _PSI_TERMS)

_PHI0_GRID = np.linspace(0.0, 3.0, 301)
_CHI_DRIVE = [{"harmonic": 1, "kind": "cos", "coeff": "-(1 + t/2)*exp(-t)"}]

# --data file -> (command, sample config, data); each runs at exit 0
DATA = {
    "invert1_phi0_expr": ("invert1", "roundtrip_drive", {
        "x0": PI / 2, "phi0": {"expr": _PHI0_DRIVE, "T": 3.0, "h": 1e-3},
        "chi": _CHI_DRIVE}),
    "invert1_phi0_sampled": ("invert1", "roundtrip_drive", {
        "x0": PI / 2,
        "phi0": {"grid": _PHI0_GRID.tolist(),
                 "values": [float(np.exp(-t) * (1 + t / 2) - np.cos(t)
                                  + np.sin(t) / 2) for t in _PHI0_GRID]},
        "chi": _CHI_DRIVE}),
    "invert2_psi_expr": ("invert2", "roundtrip_amplitude", {
        "t0": 3.0, "psi": {"expr": _PSI_EXPR}}),
    "invert2_psi_coeffs": ("invert2", "roundtrip_amplitude", {
        "t0": 3.0, "psi": {"coeffs": _PSI_COEFFS}}),
    "invert3_psi_points": ("invert3", "roundtrip_combined", {
        "x0": PI / 2, "t0": 3.0,
        "psi": {"points": _PSI_POINTS.tolist(),
                "values": _PSI_VALUES.tolist()},
        "chi": [{"harmonic": 1, "kind": "cos", "coeff": "-0.7*(1 + t/2)"}],
        "chi_grid": {"T": 3.0, "h": 1e-2}}),
}


def _data_run(tmp_path, name, data):
    command, config, _ = DATA[name]
    dpath = tmp_path / "data.json"
    dpath.write_text(json.dumps(data))
    return [command, "--config", str(CONFIGS / f"{config}.json"),
            "--data", str(dpath)]


@pytest.mark.parametrize("name", sorted(DATA))
def test_data_files_run(tmp_path, name):
    assert _run(_data_run(tmp_path, name, DATA[name][2]),
                tmp_path / "out") == (0, None)


@pytest.mark.parametrize("name", sorted(DATA))
def test_data_mutations_keep_the_exit_code_contract(tmp_path, name):
    doc = DATA[name][2]
    broken = []
    for path, value in _mutations(doc, skip=()):
        argv = _data_run(tmp_path, name, _mutated(doc, path, value))
        _, why = _run(argv, tmp_path / "out")
        if why:
            broken.append(f"{_label(path, value)}: {why}")
    assert broken == []


# values past the fixed list that overflow later: a t0 whose mode
# responses Lambda_m(t0) overflow, and a psi whose recovered amplitude does
EXTREMES = [("invert2_psi_coeffs", ("t0",), t0)
            for t0 in (1e20, 1e100, 1e160)] + [
    ("invert3_psi_points", ("t0",), 1e100),
    ("invert2_psi_expr", ("psi", "expr"), "1e307"),
    ("invert2_psi_expr", ("psi", "expr"), "1e307*sin(8*x)")]


@pytest.mark.parametrize("name, path, value", EXTREMES, ids=[
    f"{name}-{_label(path, value)}" for name, path, value in EXTREMES])
def test_data_extremes_keep_the_exit_code_contract(tmp_path, name, path,
                                                    value):
    argv = _data_run(tmp_path, name, _mutated(DATA[name][2], path, value))
    assert _run(argv, tmp_path / "out")[1] is None
