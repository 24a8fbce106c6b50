"""The benchmark's workloads: seeded inputs, the timed op and its check.

A workload is built from ``--seed`` alone.  Seeds perturb coefficients only
(the amplitude weight ``c``, the fast drive envelope slope ``b`` and the
observation point ``x0`` near pi/2) inside ranges that keep every
admissibility condition: f(x0) = sin(x0) + c sin(3 x0) stays above 0.5, and
the slow drive 1 + t always has more weight at t0 = 3 than at 0.  Sizes
never depend on the seed.

Each workload has ``setup()`` (input generation and basis build),
``make_input(i, traced)`` (untimed, per op), ``op(inp)`` (the timed call),
``check(inp, out)``, which raises ``CheckFailed`` when the output is wrong,
and ``take_drive_calls()``, the scalar calls into the benchmark's drive
callable since the last take (only counted for traced inputs).
The library is reached through module attributes at call time
(``oscinv.solve_direct``), so the tracer sees the benchmark's own calls.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

C_RANGE = (0.2, 0.4)         # amplitude weight of sin(3x)
B_RANGE = (0.4, 0.6)         # slope of the cos(tau) envelope 1 + b t
X0_HALF_WIDTH = 0.1          # x0 in pi/2 +- this

# forward_scale: sup distance between the direct x0 trace and the order-2
# expansion.  The remainder is o(omega^-2); at omega = 1000 it measures
# 0.8e-9 to 1.1e-9 over seeds 0-3 against a trace of size 1.28, while the
# omega^-2 terms themselves are of size 1e-6.  1e-8 leaves a factor of ten
# above the first and a factor of a hundred below the second.
FORWARD_EXPANSION_TOL = 1e-8
# order_sweep_callable: the thresholds of configs/order_study.json
SLOPE_ORDER0_MAX = -0.9
SLOPE_ORDER2_MAX = -2.5


class CheckFailed(Exception):
    """An op returned a result that fails its correctness check."""


def _draw(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


def _amplitude(c):
    return f"exp(-t)*(sin(x) + {c!r}*sin(3*x))"


def make_drive(b, counter=None):
    """The drive 1 + t + (1 + b t) cos(tau) + 0.4 sin(2 tau) as a callable.

    With ``counter`` (a one-element list) every scalar call adds one to it.
    The formula is repeated in the counting version so that counting costs
    one increment per call, not a second Python call.
    """
    if counter is None:
        def drive(t, tau):
            return 1.0 + t + (1.0 + b * t) * math.cos(tau) \
                + 0.4 * math.sin(2.0 * tau)
        return drive

    def counted(t, tau):
        counter[0] += 1
        return 1.0 + t + (1.0 + b * t) * math.cos(tau) \
            + 0.4 * math.sin(2.0 * tau)
    return counted


class ForwardScale:
    """ROADMAP scale case: one solve_direct at M=64, omega=1000, T=3."""

    omega = 1000.0
    T = 3.0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.c = _draw(rng, *C_RANGE)
        self.b = _draw(rng, *B_RANGE)
        self.x0 = math.pi / 2 + _draw(rng, -X0_HALF_WIDTH, X0_HALF_WIDTH)
        self.f = _amplitude(self.c)
        self.r = f"1 + t + (1 + {self.b!r}*t)*cos(tau) + 0.4*sin(2*tau)"
        self.first = None
        self.composite = None

    def setup(self):
        import oscinv
        self.basis = oscinv.build_dirichlet_interval_basis(math.pi, 64)

    def make_input(self, i, traced=False):
        return None

    def take_drive_calls(self):
        return 0

    def op(self, inp):
        import oscinv
        return oscinv.solve_direct(self.basis, self.f, self.r, self.omega,
                                   T=self.T)

    def _expansion_trace(self, grid):
        # built after the first op so that it warms no cache the op would
        # otherwise fill itself
        import oscinv
        exp2 = oscinv.build_expansion(self.basis, self.f, self.r, grid)
        phi0, phi1, phi2, chi = exp2.trace_components(self.x0, grid)
        w = self.omega
        return (phi0.values + phi1.values / w
                + (phi2.values + chi.evaluate(grid, w * grid)) / w ** 2)

    def check(self, inp, u):
        if self.first is None:
            self.first = u.coeffs.copy()
            self.composite = self._expansion_trace(u.grid)
        elif not np.array_equal(u.coeffs, self.first):
            raise CheckFailed("solve_direct result differs from the first op")
        err = float(np.max(np.abs(u.trace_at(self.x0).values - self.composite)))
        if not err <= FORWARD_EXPANSION_TOL:
            raise CheckFailed(f"x0 trace is {err:.3e} from the order-2 "
                              f"expansion (tolerance {FORWARD_EXPANSION_TOL})")


class OrderSweepCallable:
    """Two-scale order study through the library, with a callable drive."""

    omegas = (50.0, 100.0, 200.0, 400.0)
    T = 3.0
    n_tau = 64

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.c = _draw(rng, *C_RANGE)
        self.b = _draw(rng, *B_RANGE)
        self.f = _amplitude(self.c)
        self.drive = make_drive(self.b)
        self.drive_calls = [0]
        self.counted_drive = make_drive(self.b, self.drive_calls)

    def setup(self):
        import oscinv
        self.basis = oscinv.build_sturm_liouville_basis(
            "1 + x/2", "x", math.pi, 8, grid_n=8000)
        self.ref_grid = oscinv.make_time_grid(
            self.T, omega=max(self.omegas), points_per_period=32)

    def make_input(self, i, traced=False):
        return self.counted_drive if traced else self.drive

    def take_drive_calls(self):
        n, self.drive_calls[0] = self.drive_calls[0], 0
        return n

    def op(self, drive):
        import oscinv
        exp2 = oscinv.build_expansion(self.basis, self.f, drive, self.ref_grid,
                                      n_tau=self.n_tau)
        res0, res2 = [], []
        for w in self.omegas:
            u = oscinv.solve_direct(self.basis, self.f, drive, w, T=self.T,
                                    n_tau=self.n_tau)
            res0.append(oscinv.residual_norm(u, exp2, w, order=0))
            res2.append(oscinv.residual_norm(u, exp2, w, order=2))
        return (oscinv.fit_slope(self.omegas, res0),
                oscinv.fit_slope(self.omegas, res2))

    def check(self, inp, slopes):
        s0, s2 = slopes
        if not (s0 <= SLOPE_ORDER0_MAX and s2 <= SLOPE_ORDER2_MAX):
            raise CheckFailed(f"slopes {s0:.4g}, {s2:.4g} above the limits "
                              f"{SLOPE_ORDER0_MAX}, {SLOPE_ORDER2_MAX}")


def roundtrip_configs(seed, i):
    """The three round-trip configs of op ``i``, drawn from (seed, i)."""
    rng = np.random.default_rng([seed, i])
    c = _draw(rng, *C_RANGE)
    b = _draw(rng, *B_RANGE)
    x0 = math.pi / 2 + _draw(rng, -X0_HALF_WIDTH, X0_HALF_WIDTH)
    basis = {"domain": "interval", "lengths": [math.pi], "M": 32}
    f_static = f"sin(x) + {c!r}*sin(3*x)"
    r1 = [{"harmonic": 1, "kind": "cos", "coeff": f"1 + {b!r}*t"}]
    return [
        {"basis": basis, "study": "roundtrip1", "omega": 100,
         "source": {"f": _amplitude(c), "r0": "1 + t", "r1": r1},
         "grid": {"T": 3.0, "trace_h": 1e-4},
         "observation": {"x0": x0}},
        {"basis": basis, "study": "roundtrip2", "omega": 100,
         "source": {"f": f_static, "r0": "1 + t"},
         "grid": {"T": 3.0, "trace_h": 2e-4},
         "observation": {"x0": x0, "t0": 3.0}},
        {"basis": basis, "study": "roundtrip3", "omega": [100, 400],
         "source": {"f": f_static, "r0": "1 + t", "r1": r1},
         "grid": {"T": 3.0, "points_per_period": 32, "trace_h": 2e-4},
         "observation": {"x0": x0, "t0": 3.0}},
    ]


class RoundtripCli:
    """The three inverse round trips through ``oscinv.cli.main`` in-process."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.out_dir = os.path.join(workdir, "cli_out")

    def setup(self):
        import oscinv.cli  # noqa: F401  (the op calls it by attribute)
        os.makedirs(self.out_dir, exist_ok=True)

    def take_drive_calls(self):
        return 0

    def make_input(self, i, traced=False):
        paths = []
        for cfg in roundtrip_configs(self.seed, i):
            cfg["output"] = {"prefix": cfg["study"]}
            path = os.path.join(self.workdir, f"{cfg['study']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            paths.append(path)
        return paths

    def op(self, paths):
        import oscinv.cli
        return [oscinv.cli.main(["study", "--config", p,
                                 "--output-dir", self.out_dir])
                for p in paths]

    def check(self, paths, codes):
        if codes != [0] * len(paths):
            raise CheckFailed(f"cli exit codes {codes}")


def make(name, seed, workdir):
    if name == "forward_scale":
        return ForwardScale(seed)
    if name == "order_sweep_callable":
        return OrderSweepCallable(seed)
    if name == "roundtrip_cli":
        return RoundtripCli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
