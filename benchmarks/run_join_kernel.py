#!/usr/bin/env python
"""Join-kernel benchmark runner: the two evaluation tiers compared.

Runs the same workloads through the reference interpreter
(``compiled=False``, the `iter_rule_bindings` path) and the columnar
join kernels generated per rule shape (``compiled=True``,
:mod:`repro.datalog.batch`).  The kernels must produce *identical*
results (fact sets / diagnosis sets / derivation counts) to the
interpreted oracle; the report goes to ``BENCH_join_kernel.json``.

Workloads:

* ``tc_chain``   -- transitive closure over a chain-with-shortcuts graph,
  pure semi-naive bottom-up (the join kernel with no rewriting overhead).
* ``e6_qsq``     -- the E6 telecom diagnosis scenario, centralized QSQ
  (thousands of tiny rewritten rules; stresses plan caching).
* ``e6_dqsq``    -- the same scenario under distributed dQSQ.

Each tier runs twice: the first (cold) run pays plan compilation and
kernel code generation, the second (warm) run measures steady-state
throughput.  Timings are reported but never gated; the runner exits
non-zero only when the kernels diverge from the interpreted oracle --
with or without ``--smoke``.

The runner also validates the static cost model (:mod:`repro.datalog.cost`)
against reality: for tc_chain and the e6 diagnosis program it compares each
rule's *predicted* join cost with the bindings actually explored by that
rule's join kernel over the final database, and fails if the predicted
cost ranking disagrees with the measured one.  ``--cost-only`` runs just
that validation (the CI cost smoke).

Usage::

    PYTHONPATH=src python benchmarks/run_join_kernel.py \\
        [--smoke] [--cost-only] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.datalog import Const, parse_program
from repro.datalog.batch import fire_batched
from repro.datalog.cost import CostModel, estimate_rule
from repro.datalog.database import Database
from repro.datalog.plan import (PlanStats, clear_plan_cache,
                                compile_join_plan, plan_cache_evictions,
                                plan_cache_size)
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.diagnosis import DatalogDiagnosisEngine
from repro.diagnosis.supervisor import SupervisorEncoder
from repro.petri.generators import TelecomSpec, telecom_net
from repro.workloads.alarmgen import simulate_alarms

TC_PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

EDGE = ("edge", None)
PATH = ("path", None)

#: (report label, compiled knob) per tier; "interpreted" is the oracle
TIERS = (("interpreted", False), ("compiled", True))


def _tc_database(nodes: int) -> Database:
    """Chain 0->1->...->n plus shortcut edges every 7 nodes."""
    db = Database()
    for i in range(nodes - 1):
        db.add_ground(EDGE, (Const(i), Const(i + 1)))
    for i in range(0, nodes - 7, 7):
        db.add_ground(EDGE, (Const(i), Const(i + 7)))
    return db


def _measure(run_once):
    """Cold run then warm run; returns (cold_s, warm_s, result)."""
    t0 = time.perf_counter()
    cold_result = run_once()
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_result = run_once()
    warm = time.perf_counter() - t0
    return cold, warm, cold_result, warm_result


def bench_tc(nodes: int) -> dict:
    program = parse_program(TC_PROGRAM)

    def runner(compiled):
        def run_once():
            db = _tc_database(nodes)
            evaluator = SemiNaiveEvaluator(program, compiled=compiled)
            evaluator.run(db)
            return {
                "answers": frozenset(db.facts(PATH)),
                "derivations": evaluator.counters["derivations"],
                "facts": evaluator.counters["facts_materialized"],
                "peak_facts": db.total_facts(),
            }
        return run_once

    clear_plan_cache()
    report = {"name": "tc_chain", "params": {"nodes": nodes}}
    _run_tiers(report, runner)
    _finish(report)
    return report


def bench_e6(mode: str, steps: int) -> dict:
    spec = TelecomSpec(peers=2, ring_length=3, branching=0.3,
                       topology="chain", seed=21)
    petri = telecom_net(spec)
    alarms = simulate_alarms(petri, steps=steps, seed=21)

    def runner(compiled):
        def run_once():
            engine = DatalogDiagnosisEngine(petri, mode=mode, compiled=compiled)
            result = engine.diagnose(alarms)
            return {
                "answers": frozenset(result.diagnoses),
                "derivations": result.counters["derivations"],
                "facts": result.counters["facts_materialized"],
                "peak_facts": result.counters["facts_materialized"],
            }
        return run_once

    clear_plan_cache()
    report = {"name": f"e6_{mode}", "params": {"steps": steps,
                                               "alarms": len(alarms)}}
    _run_tiers(report, runner)
    _finish(report)
    return report


def _run_tiers(report: dict, runner) -> None:
    """Run every tier, record per-variant stats and the equivalence bit.

    Equivalence is judged against the interpreted oracle on both the
    answer set and the derivation count (the tiers must explore the
    same bindings, not merely reach the same fixpoint).
    """
    results = {}
    for label, compiled in TIERS:
        cold, warm, first, second = _measure(runner(compiled))
        results[label] = first
        report[label] = _variant_report(cold, warm, first)
    oracle = results["interpreted"]
    report["equivalent"] = all(
        results[label]["answers"] == oracle["answers"]
        and results[label]["derivations"] == oracle["derivations"]
        for label, _compiled in TIERS[1:])


def _variant_report(cold: float, warm: float, result: dict) -> dict:
    derivations = result["derivations"]
    facts = result["facts"]
    return {
        "cold_s": round(cold, 6),
        "warm_s": round(warm, 6),
        "derivations": derivations,
        "facts_materialized": facts,
        "peak_facts": result["peak_facts"],
        "derivations_per_sec": round(derivations / warm, 1) if warm else None,
        "facts_per_sec": round(facts / warm, 1) if warm else None,
    }


def _finish(report: dict) -> None:
    interp, comp = report["interpreted"], report["compiled"]
    report["speedup_cold"] = round(interp["cold_s"] / comp["cold_s"], 3)
    report["speedup_warm"] = round(interp["warm_s"] / comp["warm_s"], 3)
    status = "OK" if report["equivalent"] else "MISMATCH"
    print(f"{report['name']:12s} interp={interp['warm_s']:.3f}s "
          f"compiled cold={comp['cold_s']:.3f}s warm={comp['warm_s']:.3f}s "
          f"speedup cold={report['speedup_cold']:.2f}x "
          f"warm={report['speedup_warm']:.2f}x "
          f"derivs={comp['derivations']} [{status}]")


# -- cost-model validation ----------------------------------------------------


def _measured_bindings(rule, db: Database) -> int:
    """Run ``rule``'s join kernel over ``db``; bindings explored."""
    stats = PlanStats()
    fire_batched(compile_join_plan(rule), db, None, stats=stats)
    return stats.bindings_explored


def _spearman(xs: list[float], ys: list[float]) -> float | None:
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(vals: list[float]) -> list[float]:
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2
            i = j + 1
        return out
    n = len(xs)
    if n < 3:
        return None
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx)
           * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den if den else None

#: gate thresholds for the cost-model validation.  No uniform
#: estimator gets every pair right on correlated data (real joins die
#: earlier than the expectation), so the gate is statistical: the
#: ranking must be strongly correlated, order-of-magnitude inversions
#: must stay rare, and the predicted-costliest rules must be where the
#: measured work actually is.  A broken estimator (e.g. one ranking
#: rules backwards) fails all three by a wide margin.
MIN_SPEARMAN = 0.5     # rank correlation across all rules
STRONG_RATIO = 8.0     # predicted separation counted as order-of-magnitude
NOISE_FLOOR = 8        # ignore rules below this much measured work
MEASURED_SLACK = 2.0   # tolerated measured inversion on strong pairs
MAX_INVERSION_FRACTION = 0.10   # strong pairs allowed to invert
TOP_FRACTION = 0.2     # predicted-costliest slice that must cover ...
MIN_TOP_COVERAGE = 0.5  # ... this share of total measured bindings


def _validate_ranking(name: str, program, db: Database, params: dict,
                      max_term_depth: int | None = None) -> dict:
    """Predicted rule cost vs. measured plan counters over the final db.

    The gate is *ranking* agreement, not absolute agreement -- ordering
    is what the plan advisor consumes.  Three checks:

    1. Spearman rank correlation between predicted cost and measured
       ``plan.bindings_explored`` across all rules must clear
       ``MIN_SPEARMAN``.
    2. Among rule pairs separated by >= ``STRONG_RATIO`` in predicted
       cost (both above the counting-noise floor), at most
       ``MAX_INVERSION_FRACTION`` may invert by more than
       ``MEASURED_SLACK``.
    3. The top ``TOP_FRACTION`` of rules by predicted cost must cover
       at least ``MIN_TOP_COVERAGE`` of the total measured bindings.
    """
    model = CostModel(program, database=db, max_term_depth=max_term_depth,
                      measured=True)
    rows = []
    for rule in program.proper_rules():
        if not rule.body:
            continue
        predicted = estimate_rule(rule, model).cost.count
        rows.append({
            "rule": str(rule),
            "predicted_cost": round(predicted, 1),
            "measured_bindings": _measured_bindings(rule, db),
        })
    spearman = _spearman([r["predicted_cost"] for r in rows],
                         [float(r["measured_bindings"]) for r in rows])
    strong_pairs = 0
    disagreements = []
    for low in rows:
        for high in rows:
            if (low["predicted_cost"] * STRONG_RATIO
                    > high["predicted_cost"]):
                continue
            if (low["measured_bindings"] < NOISE_FLOOR
                    or high["measured_bindings"] < NOISE_FLOOR):
                continue
            strong_pairs += 1
            if (low["measured_bindings"]
                    > MEASURED_SLACK * high["measured_bindings"]):
                disagreements.append({"predicted_cheaper": low["rule"],
                                      "predicted_costlier": high["rule"]})
    inversion_fraction = (len(disagreements) / strong_pairs
                          if strong_pairs else 0.0)
    total_measured = sum(r["measured_bindings"] for r in rows)
    top_k = max(1, int(len(rows) * TOP_FRACTION))
    by_predicted = sorted(rows, key=lambda r: -r["predicted_cost"])
    top_coverage = (sum(r["measured_bindings"] for r in by_predicted[:top_k])
                    / total_measured if total_measured else 1.0)
    ok = ((spearman is None or spearman >= MIN_SPEARMAN)
          and inversion_fraction <= MAX_INVERSION_FRACTION
          and top_coverage >= MIN_TOP_COVERAGE)
    report = {
        "name": name,
        "params": params,
        "rules": rows,
        "spearman": round(spearman, 3) if spearman is not None else None,
        "strong_pairs": strong_pairs,
        "inversion_fraction": round(inversion_fraction, 4),
        "top_coverage": round(top_coverage, 4),
        "disagreements": disagreements[:20],
        "ranking_ok": ok,
    }
    status = "OK" if ok else "RANK MISMATCH"
    rho = f"{spearman:.2f}" if spearman is not None else "n/a"
    print(f"{name:12s} cost model: {len(rows)} rules, spearman={rho}, "
          f"{len(disagreements)}/{strong_pairs} strong-pair inversions, "
          f"top-{int(TOP_FRACTION * 100)}% covers "
          f"{top_coverage:.0%} of work [{status}]")
    return report


def cost_validate_tc(nodes: int) -> dict:
    program = parse_program(TC_PROGRAM)
    db = _tc_database(nodes)
    SemiNaiveEvaluator(program).run(db)
    return _validate_ranking("tc_chain", program, db, {"nodes": nodes})


def cost_validate_e6(steps: int) -> dict:
    spec = TelecomSpec(peers=2, ring_length=3, branching=0.3,
                       topology="chain", seed=21)
    petri = telecom_net(spec)
    alarms = simulate_alarms(petri, steps=steps, seed=21)
    encoder = SupervisorEncoder(petri, alarms)
    local = encoder.program().local_version()
    # Bottom-up ground truth under the Theorem-4 depth bound (encoding
    # terms nest ~2 levels per alarm); prune_depth keeps it finite.
    depth = 2 * max(1, len(alarms)) + 2
    db = Database()
    budget = EvaluationBudget(max_facts=2_000_000, max_term_depth=depth,
                              prune_depth=True)
    SemiNaiveEvaluator(local, budget).run(db)
    return _validate_ranking("e6_diag", local, db,
                             {"steps": steps, "alarms": len(alarms)},
                             max_term_depth=depth)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (shape check, not perf)")
    parser.add_argument("--cost-only", action="store_true",
                        help="run only the cost-model ranking validation")
    parser.add_argument("--out", default="BENCH_join_kernel.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    nodes = 60 if args.smoke else 240
    steps = 2 if args.smoke else 6

    workloads = []
    if not args.cost_only:
        workloads = [
            bench_tc(nodes),
            bench_e6("qsq", steps),
            bench_e6("dqsq", steps),
        ]

    cost_validation = [
        cost_validate_tc(nodes),
        cost_validate_e6(steps),
    ]

    payload = {
        "benchmark": "join_kernel",
        "smoke": args.smoke,
        "plan_cache_size": plan_cache_size(),
        "plan_cache_evictions": plan_cache_evictions(),
        "workloads": workloads,
        "cost_validation": cost_validation,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = [w["name"] for w in workloads if not w["equivalent"]]
    if failures:
        print(f"EQUIVALENCE MISMATCH in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    rank_failures = [c["name"] for c in cost_validation
                     if not c["ranking_ok"]]
    if rank_failures:
        print(f"COST RANKING MISMATCH in: {', '.join(rank_failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
