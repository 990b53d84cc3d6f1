#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload qsq-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare PREV.jsonl [--current CUR.jsonl]

A run prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  Every run also appends its full
record (raw and reference-host values, calibration, tail percentile and
sample count) to ``.perfbench/runs.jsonl``; a traced run writes its
spans to ``.perfbench/spans-<workload>.jsonl.gz``.  Timings are in
reference-host seconds (see ``measure.to_reference``).

The command exits 1 when any answer fails its oracle check, and 2 when
the program under test is missing.  ``--compare`` sets two run files
side by side per (metric, workload) and exits 1 when a metric got worse
by more than its bound.  ``CATALOG.md`` defines every metric.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: fresh processes timed per run for ``setup_s``
SETUP_PROBES = 7
#: Exp(1) draws of the open-loop replay behind ``sustained_rate_aps``
REPLAY_ARRIVALS = 20000
#: report-only metrics that ``--compare`` also classifies, seed by seed:
#: they are deterministic for a seed and can legitimately be 0
REPORT_ONLY = {"error_rate": ("fraction", "lower"),
               "partial_fraction": ("fraction", "lower")}

sys.path.insert(0, str(HERE))
from measure import (classify, quartiles, spread,  # noqa: E402
                     sustained_rate, tail_percentile, to_reference,
                     unit_interarrivals)


def load_catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def program_available() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload: str) -> None:
    """The child side of ``setup_s``: import, build, open, say ready."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import setup_ready
    setup_ready(workload)
    print("ready", flush=True)


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """Process start -> first operation ready, in fresh processes: each
    probe's raw seconds and the mean of the calibration samples taken
    just before and just after it."""
    from calibrate import Calibration
    calibration = Calibration()
    probes = []
    try:
        before = calibration.sample()
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--setup-probe", workload],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.communicate(timeout=120)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
            if line.strip() != "ready" or child.returncode != 0:
                raise RuntimeError(f"setup probe failed ({child.returncode})")
            after = calibration.sample()
            probes.append((elapsed, (before + after) / 2))
            before = after
    finally:
        calibration.close()
    return probes


# -- metrics --------------------------------------------------------------------


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sum_counter(samples, name: str) -> int:
    return sum(sample.counters.get(name, 0) for sample in samples)


def outcome(data) -> tuple[int, int, list[str]]:
    """Operations attempted, operations failed, and their errors.  A
    stream session's final oracle check counts as one operation."""
    operations = data.samples + data.extra.get("session_checks", [])
    errors = [s.error for s in operations if s.error]
    return len(operations), sum(not s.ok for s in operations), errors


def _raw(seconds: float, _calibration: float) -> float:
    return seconds


def timings(workload, ok: list, setup: list[tuple[float, float]], seed: int,
            scale) -> tuple[dict, tuple[int, int, int]]:
    """The timing metrics of the successful operations ``ok``, each time
    passed through ``scale(seconds, calibration)``; and the tail's
    (percentile, samples, samples beyond)."""
    from workloads import StreamWorkload
    stream = isinstance(workload, StreamWorkload)
    latencies = [scale(s.latency, s.calibration) for s in ok]
    if stream:
        # each round is a fresh service and fresh sessions: the tail is
        # the median of the rounds' tails, so one round's burst of host
        # noise does not set it
        rounds: dict[int, list[float]] = {}
        for sample, latency in zip(ok, latencies):
            rounds.setdefault(sample.round, []).append(latency)
        tails = [tail_percentile(values) for values in rounds.values()]
        tail = statistics.median(value for _pct, value, _beyond in tails)
        shape = (min(p for p, _value, _beyond in tails),
                 min(len(values) for values in rounds.values()),
                 min(b for _p, _value, b in tails))
    else:
        pct, tail, beyond = tail_percentile(latencies)
        shape = (pct, len(latencies), beyond)
    service = [scale(s.busy if stream else s.latency, s.calibration)
               for s in ok]
    capacity = len(service) / sum(service)
    alarms_per_op = sum(s.alarms for s in ok) / len(ok)
    if stream:
        sustained = alarms_per_op * sustained_rate(
            service, workload.limit_s, workload.limit_pct,
            unit_interarrivals(seed, REPLAY_ARRIVALS))
    else:
        # a closed loop has no offered rate: report its capacity
        sustained = alarms_per_op * capacity
    values = {
        "setup_s": statistics.median(scale(raw, calibration)
                                     for raw, calibration in setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "throughput_qps": capacity,
        "sustained_rate_aps": sustained,
    }
    return values, shape


def end_to_end(workload, data, setup: list[tuple[float, float]], seed: int,
               error_rate: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the report-only figures beside them."""
    from workloads import StreamWorkload
    stream = isinstance(workload, StreamWorkload)
    ok = [s for s in data.samples if s.ok and not s.traced]
    values, (pct, tail_samples, beyond) = timings(workload, ok, setup, seed,
                                                  to_reference)
    values["peak_rss_mb"] = data.extra["peak_rss_kb"] / 1024
    checks = data.extra.get("session_checks", [])
    oracle = [to_reference(s.oracle, s.calibration or data.calibration.host_s)
              for s in ok + checks if s.oracle]
    report = {
        "error_rate": error_rate,
        "partial_fraction": (data.extra["partial_sessions"]
                             / data.extra["sessions"] if stream else 0.0),
        "tail_percentile": pct, "tail_samples": tail_samples,
        "tail_beyond": beyond,
        "dedicated_p50_s": _p50(oracle),
        "datalog_dedicated_ratio": (values["latency_p50_s"] / _p50(oracle)
                                    if oracle and not stream else 0.0),
        # the same timings in this host's raw seconds
        "raw": timings(workload, ok, setup, seed, _raw)[0],
        "setup_samples_s": [raw for raw, _cal in setup],
    }
    if not stream:
        report["windows_repeated"] = data.extra["windows_repeated"]
    if stream:
        report["offered_rate_aps"] = workload.offered_rate
        report["latency_limit"] = f"{workload.limit_s} s at p{workload.limit_pct}"
        report["loadgen.lag_max_s"] = data.extra["lag_max_s"]
        report["rounds"] = data.extra["rounds"]
    return values, report


def per_layer(workload, data, catalog: dict) -> dict:
    """Per-layer metrics of a traced run: per-operation self times that
    add up, with the unattributed remainder, to the traced wall time."""
    from spans import LAYER_NAMES, self_times
    from workloads import StreamWorkload
    host = data.calibration.host_s
    stream = isinstance(workload, StreamWorkload)
    traced = [s for s in data.samples if s.traced]
    untraced = [s for s in data.samples if not s.traced]
    count = max(1, len(traced))

    def per_op(raw_seconds: float) -> float:
        return to_reference(raw_seconds, host) / count

    values = {name["name"]: 0.0 for name in catalog["per_layer"]}
    selfs = self_times(data.tracer.spans)
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = per_op(selfs.get(layer, 0.0))
    values["idle.self_s"] = per_op(data.traced_idle)
    values["trace.wall_s"] = per_op(data.traced_wall)
    values["unattributed.self_s"] = (
        values["trace.wall_s"] - values["idle.self_s"]
        - sum(values[f"{layer}.self_s"] for layer in LAYER_NAMES))
    traced_ok = [s.latency for s in traced if s.ok]
    untraced_ok = [s.latency for s in untraced if s.ok]
    if traced_ok and untraced_ok:
        values["trace.overhead_s"] = to_reference(
            _p50(traced_ok) - _p50(untraced_ok), host)
    if stream:
        ops = max(1, len(data.samples))
        values["service.queue_wait_p50_s"] = to_reference(
            _p50([s.latency - s.busy for s in data.samples if s.ok]), host)
        values["service.rehydrations"] = data.extra["service.rehydrations"] / ops
        values["service.evictions"] = data.extra["service.evictions"] / ops
        values["online.peak_table_vectors"] = data.extra["online.peak_table_vectors"]
        values["online.events_materialized"] = (
            data.extra["online.events_materialized"]
            / max(1, data.extra["sessions"]))
        values["snapshot_bytes_max"] = data.tracer.snapshot_bytes_max
        values["loadgen.lag_max_s"] = data.extra["lag_max_s"]
    else:
        ok = [s for s in data.samples if s.ok]
        queries = max(1, len(ok))
        for name in ("qsq_rewritten_rules", "plan.cache_misses", "derivations",
                     "facts_materialized", "plan.bindings_explored",
                     "rules_installed", "delegations_sent", "messages_sent",
                     "tuples_shipped"):
            values[name] = _sum_counter(ok, name) / queries
        hits = _sum_counter(ok, "plan.cache_hits")
        misses = _sum_counter(ok, "plan.cache_misses")
        values["plan.cache_hit_ratio"] = hits / max(1, hits + misses)
        values["plan.cache_size"] = data.extra["plan.cache_size"]
        values["plan.cache_evictions"] = data.extra["plan.cache_evictions"] / queries
        values["join.yield"] = (_sum_counter(ok, "facts_materialized")
                                / max(1, _sum_counter(ok, "plan.bindings_explored")))
        oracle = _p50([s.oracle for s in ok])
        values["datalog_dedicated_ratio"] = (
            _p50([s.latency for s in ok]) / oracle if oracle else 0.0)
    return values


# -- one run --------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    catalog = load_catalog()
    from calibrate import parallel_throughput
    from workloads import WORKLOADS, run_workload
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else setup_seconds(args.workload)
    parallel = parallel_throughput()
    wall_start = time.perf_counter()
    data = run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    wall = time.perf_counter() - wall_start
    attempted, failed, errors = outcome(data)
    if args.trace:
        values = per_layer(workload, data, catalog)
        report = {"error_rate": failed / attempted}
        section = "per_layer"
    else:
        values, report = end_to_end(workload, data, setup, args.seed,
                                    failed / attempted)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in catalog[section]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "report": report,
        "calibration": {"host_s": data.calibration.host_s,
                        "samples_s": data.calibration.samples,
                        "parallel": parallel, "cpu_count": os.cpu_count()},
        "wall_s": wall, "errors": errors[:5],
        # raw per-operation times, for re-analysis without re-running
        "operations": [[s.latency, s.busy, s.calibration, s.traced, s.round]
                       for s in data.samples],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record) + "\n")
    if args.trace:
        data.tracer.write(OUT / f"spans-{args.workload}.jsonl.gz")

    print_report(record, values, units)
    for error in errors[:5]:
        print(f"ERROR: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(record: dict, values: dict, units: dict) -> None:
    report = record["report"]
    cal = record["calibration"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  wall {record['wall_s']:.1f} s")
    print(f"host calibration {cal['host_s'] * 1e3:.3f} ms "
          f"({len(cal['samples_s'])} samples); two-process speedup "
          f"{cal['parallel']['speedup']:.2f} (cpu_count {cal['cpu_count']})")
    for name, unit in units.items():
        raw = report.get("raw", {}).get(name)
        print(f"  {name:28s} {values[name]:14.6g} {unit:10s}"
              + (f" (raw {raw:.6g})" if raw is not None else ""))
    if not record["trace"]:
        print(f"  {'error_rate':28s} {report['error_rate']:14.6g} fraction")
        print(f"  {'partial_fraction':28s} {report['partial_fraction']:14.6g} "
              f"fraction")
        rounds = (f", the median over {report['rounds']} rounds"
                  if "rounds" in report else "")
        print(f"  latency_tail_s is p{report['tail_percentile']} of "
              f"{report['tail_samples']} samples "
              f"({report['tail_beyond']} beyond){rounds}")
        if report["datalog_dedicated_ratio"]:
            print(f"  Datalog/dedicated p50 ratio "
                  f"{report['datalog_dedicated_ratio']:.1f} (ungated)")
    else:
        parts = sum(v for k, v in values.items()
                    if k.endswith(".self_s"))
        print(f"  self times + idle + unattributed = {parts:.6g} s per op "
              f"= trace.wall_s {values['trace.wall_s']:.6g} s per op; "
              f"tracing overhead {values['trace.overhead_s']:+.6g} s at p50")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")


# -- compare --------------------------------------------------------------------


def read_runs(path: Path) -> list[dict]:
    text = path.read_text()
    if text.lstrip().startswith("["):
        return json.loads(text)
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def paired_verdict(prev: dict, cur: dict) -> str:
    """For a metric that is deterministic for a seed (lower is better):
    compare the runs of the seeds both sides ran."""
    seeds = sorted(set(prev) & set(cur))
    if not seeds:
        # one value everywhere (say, no errors on either side) needs no pairs
        single = len(set(prev.values()) | set(cur.values())) == 1
        return "same" if single else "unpaired"
    if any(cur[seed] > prev[seed] for seed in seeds):
        return "worse"
    if any(cur[seed] < prev[seed] for seed in seeds):
        return "improved"
    return "same"


def compare(prev_path: Path, cur_path: Path) -> int:
    catalog = load_catalog()
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in catalog["end_to_end"]}
    bounds.update({name: (unit, better, None)
                   for name, (unit, better) in REPORT_ONLY.items()})

    def table(runs: list[dict]) -> dict:
        """(metric, workload) -> {seed: value} over the untraced runs."""
        out: dict = {}
        for run_ in runs:
            if run_.get("trace"):
                continue
            values = {k: v["value"] for k, v in run_["metrics"].items()}
            values.update({k: run_["report"][k] for k in REPORT_ONLY
                           if k in run_.get("report", {})})
            for name, value in values.items():
                out.setdefault((name, run_["workload"]), {})[run_["seed"]] = value
        return out

    prev, cur = table(read_runs(prev_path)), table(read_runs(cur_path))
    workloads = sorted({w for _n, w in prev} & {w for _n, w in cur})
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    worse = 0
    print(f"{'metric':20s} {'workload':15s} {'unit':10s} "
          f"{'prev q1/median/q3':>34s} {'cur q1/median/q3':>34s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name, (unit, better, bound) in bounds.items():
        for workload in workloads:
            before, after = prev.get((name, workload)), cur.get((name, workload))
            if not before or not after:
                continue
            if bound is None:
                verdict = paired_verdict(before, after)
            else:
                verdict = classify(list(before.values()), list(after.values()),
                                   better, bound)
            worse += verdict == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{name:20s} {workload:15s} {unit:10s} "
                  f"{fmt.format(*quartiles(list(before.values()))):>34s} "
                  f"{fmt.format(*quartiles(list(after.values()))):>34s} "
                  f"{spread(list(before.values())):7.3f} "
                  f"{'seed' if bound is None else format(bound, '6.3f'):>6s}  "
                  f"{verdict} (n={len(before)}/{len(after)})")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, metavar="PREV.jsonl")
    parser.add_argument("--current", type=Path, default=OUT / "runs.jsonl",
                        metavar="CUR.jsonl")
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--oracle-worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.oracle_worker:
        sys.path.insert(0, str(ROOT / "src"))
        from workloads import serve_oracle
        serve_oracle()
        return 0
    if args.compare:
        return compare(args.compare, args.current)
    if not program_available():
        print("perfbench: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
