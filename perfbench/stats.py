"""Arithmetic on op samples: medians, the tail percentile and failure shares."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: ``value`` is the sorted sample with
    exactly ``beyond`` samples after it and ``percentile`` the share of
    samples at or below it, in percent.  Raises ValueError when there are
    not more than ``beyond`` samples.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    k = n - beyond - 1
    return sorted(samples)[k], 100.0 * (k + 1) / n, n


def fail_frac(failed, attempted):
    if attempted < 1:
        raise ValueError("no op was attempted")
    return failed / attempted


def end_to_end(setup_s, cold_s, warm_s, window_s, peak_rss_mb):
    """The end-to-end metrics of one run, keyed by name.

    ``setup_s`` and ``cold_s`` hold one sample per fresh process, ``warm_s``
    the durations of the warm ops that passed their check, and ``window_s``
    the wall time from the start of the warm loop to the end of its last op.
    """
    value, pct, n = tail(warm_s)
    return {
        "setup_s": statistics.median(setup_s),
        "cold_s": statistics.median(cold_s),
        "op_s.p50": statistics.median(warm_s),
        "op_s.tail": value,
        "ops_per_s": len(warm_s) / window_s,
        "peak_rss_mb": peak_rss_mb,
    }, {"tail_percentile": pct, "warm_ops": n}
