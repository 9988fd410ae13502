"""Order statistics shared by the run and the steadiness check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10

# End-to-end metrics, in BENCHMARK.json order, reported on every workload.
END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_iou", "frac"),
    ("stable_frac", "frac"),
)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    With nearest-rank percentiles the p-th percentile of n sorted samples is
    the one at 0-based rank ceil(p n / 100) - 1, which leaves n - 1 - rank
    samples beyond it.  Ten or more remain up to rank n - 11, that is up to
    p = 100 (n - 10) / n.  Returns (percentile, value).
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - TAIL_BEYOND - 1]


def summary(values: list[float]) -> dict:
    """Median, quartiles and the quartile spread as a share of the median."""
    if len(values) == 1:
        v = values[0]
        return {"n": 1, "median": v, "q1": v, "q3": v, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else (0.0 if q3 == q1 else float("inf"))
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}
