"""E10: join-kernel throughput, interpreter vs generated kernels.

Benchmarks the same workloads as ``run_join_kernel.py`` under
pytest-benchmark, parametrized over the ``compiled`` knob so the
interpreted (reference) and compiled (:mod:`repro.datalog.batch`
kernels) paths appear side by side in the benchmark table.  Every benchmark also
asserts result equivalence against the interpreted path -- the timing
comparison is only meaningful if both compute the same model.
"""

import pytest

from repro.datalog import Const, parse_program
from repro.datalog.database import Database
from repro.datalog.plan import clear_plan_cache
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.diagnosis import DatalogDiagnosisEngine
from repro.petri.generators import TelecomSpec, telecom_net
from repro.workloads.alarmgen import simulate_alarms

TC_PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

EDGE = ("edge", None)
PATH = ("path", None)
TC_NODES = 120


def _tc_database() -> Database:
    db = Database()
    for i in range(TC_NODES - 1):
        db.add_ground(EDGE, (Const(i), Const(i + 1)))
    for i in range(0, TC_NODES - 7, 7):
        db.add_ground(EDGE, (Const(i), Const(i + 7)))
    return db


def _tc_paths(compiled: bool):
    db = _tc_database()
    evaluator = SemiNaiveEvaluator(parse_program(TC_PROGRAM), compiled=compiled)
    evaluator.run(db)
    return frozenset(db.facts(PATH)), evaluator.counters


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_tc_closure_throughput(benchmark, compiled):
    clear_plan_cache()
    reference, _ = _tc_paths(compiled=False)

    def run():
        return _tc_paths(compiled)

    paths, counters = benchmark.pedantic(run, rounds=3, iterations=1,
                                         warmup_rounds=1)
    assert paths == reference
    benchmark.extra_info["derivations"] = counters["derivations"]
    benchmark.extra_info["facts_materialized"] = counters["facts_materialized"]


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("mode", ["qsq", "dqsq"])
def test_e6_diagnosis_throughput(benchmark, mode, compiled):
    clear_plan_cache()
    spec = TelecomSpec(peers=2, ring_length=3, branching=0.3,
                       topology="chain", seed=21)
    petri = telecom_net(spec)
    alarms = simulate_alarms(petri, steps=4, seed=21)

    reference = DatalogDiagnosisEngine(petri, mode=mode,
                                       compiled=False).diagnose(alarms)

    def run():
        engine = DatalogDiagnosisEngine(petri, mode=mode, compiled=compiled)
        return engine.diagnose(alarms)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert set(result.diagnoses) == set(reference.diagnoses)
    assert (result.counters["derivations"]
            == reference.counters["derivations"])
    benchmark.extra_info["derivations"] = result.counters["derivations"]
    benchmark.extra_info["alarms"] = len(alarms)
