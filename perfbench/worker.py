"""One workload process: set up, run the cold op, then warm ops back to back.

Started by ``run.py`` from the checkout root with the package on PYTHONPATH
and BLAS pinned to one thread.  Modes:

- ``probe``: set up and run the cold op only (one set-up and cold sample);
- ``main``: set up, cold op, then a closed loop of warm ops for ``--seconds``;
- ``traced``: as ``main``, with the span tracer installed around set-up, the
  cold op and every other warm op; the warm ops in between run untraced, and
  the two groups give the tracing overhead.  The spans are written to
  ``--spans`` at the end.

The last line on stdout is one JSON object with the samples.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import stats
import tracing

MIN_WARM_OPS = stats.TAIL_BEYOND + 1     # the tail needs them
LOOP_DEADLINE_S = 120.0    # no op starts later than this after process start


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def cache_sizes():
    """L2 and L3 sizes of cpu0 as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def environment():
    import numpy
    import scipy
    import sympy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache": cache_sizes(),
        "blas_threads": blas_threads(),
    }


def attempt(workload, i, tracer=None, clock=time.perf_counter):
    """Run op ``i`` and then its check; returns ``(passed, op seconds)``.

    With a tracer, it is installed around the op only, so the check's own
    calls into the library are not recorded.
    """
    inp = workload.make_input(i, traced=tracer is not None)
    if tracer is not None:
        tracer.install()
    t0 = clock()
    try:
        out = workload.op(inp)
        ok = True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    dt = clock() - t0
    if tracer is not None:
        tracer.uninstall()
    if ok:
        try:
            workload.check(inp, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
    return ok, dt


def closed_loop(run_op, seconds, clock=time.perf_counter,
                min_ops=MIN_WARM_OPS, deadline=None):
    """Call ``run_op(i)`` for i = 1, 2, ... back to back, one at a time.

    Starts no op once ``seconds`` have passed and at least ``min_ops`` ops
    have passed their check, nor after ``deadline`` (a ``clock`` value).
    ``run_op`` returns ``(passed, op seconds)``.  Returns the durations of
    the passed ops, the attempted and failed counts, and the wall time from
    the loop's start to the end of its last op.
    """
    start = clock()
    passed, attempted, failed = [], 0, 0
    while True:
        now = clock()
        if now - start >= seconds and len(passed) >= min_ops:
            break
        if deadline is not None and now >= deadline:
            break
        attempted += 1
        ok, dt = run_op(attempted)
        if ok:
            passed.append(dt)
        else:
            failed += 1
    return {"warm_s": passed, "attempted": attempted, "failed": failed,
            "window_s": clock() - start}


def traced_loop(workload, tracer, seconds, deadline):
    """Warm loop whose odd ops are traced and even ops are not."""
    per_op, traced_s, plain_s = [], [], []

    def run_op(i):
        if i % 2 == 0:
            ok, dt = attempt(workload, i)
            if ok:
                plain_s.append(dt)
            return ok, dt
        before = tracer.counts.copy()
        lo = len(tracer.spans)
        workload.take_drive_calls()
        ok, dt = attempt(workload, i, tracer)
        counts = tracer.counts - before
        counts["sources.drive_calls"] = workload.take_drive_calls()
        if ok:
            per_op.append(tracing.op_layer_metrics(tracer.spans, lo,
                                                   len(tracer.spans), counts))
            traced_s.append(dt)
        return ok, dt

    loop = closed_loop(run_op, seconds, min_ops=2, deadline=deadline)
    if not per_op or not plain_s:
        raise RuntimeError("no traced or untraced warm op passed its check")
    # times are medians over the traced ops; counts come from the first
    # traced op, whose inputs the seed fixes, so they repeat exactly (round
    # trips bring new expressions every op and their compile counts differ)
    metrics = {k: statistics.median(m[k] for m in per_op) if k.endswith("_s")
               else per_op[0][k] for k in per_op[0]}
    metrics["trace.overhead_frac"] = \
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    loop["traced_ops"] = len(per_op)
    return loop, metrics


def write_spans(path, spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "names": names,
                   "spans": [[index[n], a, b, p] for n, a, b, p in spans]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("probe", "main", "traced"),
                    required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    import oscinv  # noqa: F401  (the import is part of set-up)
    import workloads

    workload = workloads.make(args.workload, args.seed, args.workdir)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    workload.setup()
    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if tracer is not None:
        tracer.uninstall()
        build_s = tracing.build_seconds(tracer.spans, 0, len(tracer.spans))

    ok, cold_s = attempt(workload, 0, tracer)
    result.update(cold_s=cold_s, attempted=1, failed=0 if ok else 1)
    deadline = t_start + LOOP_DEADLINE_S
    if args.mode == "main":
        loop = closed_loop(lambda i: attempt(workload, i), args.seconds,
                           deadline=deadline)
    elif args.mode == "traced":
        loop, metrics = traced_loop(workload, tracer, args.seconds, deadline)
        result["layers"] = dict(metrics, **{"basis.build_s": build_s})
        if args.spans:
            write_spans(args.spans, tracer.spans)
    if args.mode != "probe":
        result["attempted"] += loop.pop("attempted")
        result["failed"] += loop.pop("failed")
        result.update(loop)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
