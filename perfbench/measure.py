"""Pure statistics helpers of the benchmark (no repro import).

* the tail-percentile rule: the highest whole percentile with at least
  ten samples beyond it;
* host-calibration normalisation into reference-host seconds, and the
  calibration a stream request is normalised by;
* the open-loop replay that turns measured service times into the
  highest sustainable Poisson rate under a latency limit;
* quartiles and the ``--compare`` classification.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10

#: the calibration kernel's time on the reference host, in seconds (the
#: median of its runs on a 2-vCPU Linux x86-64 VM under CPython 3.11);
#: reference-host seconds = raw seconds x REFERENCE_CALIBRATION_S / host
REFERENCE_CALIBRATION_S = 0.0025


def nearest_rank(ordered: list[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of sorted ``ordered``."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """``(pct, value, beyond)``: the highest whole percentile (50..99)
    whose nearest-rank value still has ``TAIL_BEYOND`` samples above it.

    With fewer than ``2 * TAIL_BEYOND`` samples no such percentile
    exists; the median is returned and ``beyond`` says how thin it is.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    best = 50
    for pct in range(50, 100):
        if n - max(1, math.ceil(pct / 100.0 * n)) >= TAIL_BEYOND:
            best = pct
    rank = max(1, math.ceil(best / 100.0 * n))
    return best, ordered[rank - 1], n - rank


def to_reference(raw_seconds: float, host_calibration_s: float) -> float:
    """Raw seconds on this host -> reference-host seconds."""
    return raw_seconds * REFERENCE_CALIBRATION_S / host_calibration_s


def bracketing_mean(samples: list[tuple[float, float]], at: float) -> float:
    """The mean of the last calibration sample taken at or before ``at``
    and the first one after it; ``samples`` are ``(clock, value)`` pairs
    in clock order, the first before and the last after every ``at``."""
    index = bisect.bisect_right([clock for clock, _value in samples], at)
    return (samples[index - 1][1] + samples[index][1]) / 2


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


# -- open-loop replay ------------------------------------------------------------


def unit_interarrivals(seed: int, count: int) -> list[float]:
    """Seeded Exp(1) interarrival gaps; divided by a rate they give a
    Poisson arrival process, the same draws for every rate (coupling)."""
    rng = random.Random(seed)
    return [rng.expovariate(1.0) for _ in range(count)]


def replay_latencies(service_times: list[float], rate: float,
                     unit_gaps: list[float]) -> list[float]:
    """Latencies of a single FIFO server fed Poisson arrivals at
    ``rate`` whose jobs take ``service_times`` (cycled in order):
    Lindley's recursion ``W' = max(0, W + S - A)``."""
    wait = 0.0
    out = []
    count = len(service_times)
    for i, gap in enumerate(unit_gaps):
        service = service_times[i % count]
        out.append(wait + service)
        wait = max(0.0, wait + service - gap / rate)
    return out


def sustained_rate(service_times: list[float], limit_s: float, pct: int,
                   unit_gaps: list[float], iterations: int = 40) -> float:
    """Highest arrival rate whose replayed ``pct``-th percentile latency
    meets ``limit_s`` with utilisation below one (no growing backlog).

    The coupled arrivals make the replayed tail monotone in the rate,
    so bisection finds the boundary.  Returns 0.0 when even a vanishing
    rate misses the limit (a single job slower than the limit).
    """
    mean = statistics.fmean(service_times)

    def meets(rate: float) -> bool:
        latencies = sorted(replay_latencies(service_times, rate, unit_gaps))
        return nearest_rank(latencies, pct) <= limit_s

    high = 1.0 / mean  # utilisation 1: the backlog grows from here on
    low = high * 1e-6
    if not meets(low):
        return 0.0
    for _ in range(iterations):
        middle = (low + high) / 2
        if meets(middle):
            low = middle
        else:
            high = middle
    return low


# -- comparison ------------------------------------------------------------------


def classify(prev: list[float], cur: list[float], better: str,
             bound: float) -> str:
    """``improved``, ``same``, ``worse`` or ``unresolved`` for one
    (metric, workload): ``cur`` runs against ``prev`` runs.

    * worse: the median moved the wrong way by more than ``bound`` of
      the previous median;
    * improved: the median moved the right way by more than the previous
      runs' interquartile distance, and at least nine tenths of all
      (cur, prev) pairs favour ``cur`` (ties count for neither);
    * unresolved: the previous runs spread wider than ``bound`` and not
      every current run beats every previous run;
    * same: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(prev)
    _c1, c_med, _c3 = quartiles(cur)
    # positive = worse, in units of the previous median
    if p_med:
        change = sign * (c_med - p_med) / abs(p_med)
    else:
        change = sign * (c_med - p_med) * math.inf if c_med != p_med else 0.0
    if change > bound:
        return "worse"
    wins = sum(1 for c in cur for p in prev if sign * (p - c) > 0)
    if (change < 0 and abs(c_med - p_med) > (p3 - p1)
            and wins >= 0.9 * len(cur) * len(prev)):
        return "improved"
    all_better = all(sign * (p - c) > 0 for c in cur for p in prev)
    if spread(prev) > bound and not all_better:
        return "unresolved"
    return "same"
