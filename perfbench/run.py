"""oscinv benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload forward_scale --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Each workload runs as a closed loop with one
client: ops go back to back in a fresh single process, with the package taken
from ``src/`` and BLAS pinned to one thread.

``--trace 0`` measures with tracing off.  It starts ``PROBES`` processes that
each set up and run the cold op, then the main process, which also runs warm
ops for ``--seconds``.  ``setup_s`` and ``cold_s`` are medians over all of
these processes; the warm metrics come from the main process.  ``--trace 1``
starts ``python -X importtime`` for the import metrics and one traced
process for the per-layer metrics (see ``layer_map.json`` for what each one
should move).

Every op's output is checked; a failed op counts in ``failed``.  Human-readable
lines, the environment and ``fail_frac`` come first; the last line of stdout
is the JSON result.  Records and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing

PROBES = 4             # cold processes besides the main one
IMPORT_SAMPLES = 3     # python -X importtime runs in a traced run
RUN_BUDGET_S = 170.0   # every child must end within this from our start

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """A child process failed or the run ran out of time."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # the single-threaded baseline: no more BLAS threads than one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # sympy orders some terms by hash; a fixed seed keeps counts repeatable
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd, deadline):
    """Run ``cmd`` from the root; returns (stdout, stderr).  Waits for it."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[:3])} timed out") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}")
    return proc.stdout, proc.stderr


def run_worker(args, mode, deadline, spans=None):
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(WORKDIR)]
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    out, _ = run_child(cmd, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def measure(args, deadline):
    """End-to-end metrics: PROBES cold processes, then the main process."""
    procs = [run_worker(args, "probe", deadline) for _ in range(PROBES)]
    main = run_worker(args, "main", deadline)
    procs.append(main)
    metrics, info = stats.end_to_end(
        setup_s=[p["setup_s"] for p in procs],
        cold_s=[p["cold_s"] for p in procs],
        warm_s=main["warm_s"], window_s=main["window_s"],
        peak_rss_mb=main["peak_rss_mb"])
    info["processes"] = len(procs)
    return procs, main, metrics, info


def measure_layers(args, deadline):
    """Per-layer metrics: import times, then one traced process."""
    samples = {pkg: [] for pkg in ("oscinv", "sympy", "scipy")}
    for _ in range(IMPORT_SAMPLES):
        _, err = run_child([sys.executable, "-X", "importtime", "-c",
                            "import oscinv"], deadline)
        for pkg, sec in tracing.import_seconds(err, tuple(samples)).items():
            samples[pkg].append(sec)
    spans = str(WORKDIR / f"spans-{args.workload}.json")
    main = run_worker(args, "traced", deadline, spans=spans)
    metrics = dict(main["layers"])
    for pkg, secs in samples.items():
        metrics[f"import.{pkg}_s"] = statistics.median(secs)
    return [main], main, metrics, {"traced_ops": main["traced_ops"],
                                   "spans_file": spans}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    WORKDIR.mkdir(exist_ok=True)

    try:
        # fails early unless the package imports from this checkout's src/,
        # and compiles its bytecode before anything is timed
        run_child([sys.executable, "-c",
                   "import sys, oscinv; "
                   "sys.exit(not oscinv.__file__.startswith(sys.argv[1]))",
                   str(ROOT / "src")], deadline)
        run = measure_layers if args.trace else measure
        procs, main_proc, metrics, info = run(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in declared}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, rec in out.items():
        print(f"  {name:36s} {rec['value']:.6g} {rec['unit']}")
    frac = stats.fail_frac(failed, attempted)
    print(f"  {'fail_frac':36s} {frac:.6g} 1   ({failed}/{attempted} ops)")
    print("  " + json.dumps(info))
    print("env " + json.dumps(main_proc["env"], sort_keys=True))
    record = {"args": vars(args), "env": main_proc["env"], "info": info,
              "metrics": out, "fail_frac": frac,
              "attempted": attempted, "failed": failed,
              "processes": [{k: v for k, v in p.items()
                             if k not in ("env", "layers")} for p in procs]}
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
