"""Generated join kernels vs the reference interpreter, plus term interning.

The compiled path (:mod:`repro.datalog.plan` plans run as
:mod:`repro.datalog.batch` kernels) must be a pure performance change: on every engine and every program it computes the
same model, the same answers and the same diagnoses as the interpreted
``iter_rule_bindings`` path it replaces.  These tests pin that on the
paper's running examples (Figure 1 scenarios, the Figure 3 program and
its Figure 4 rewriting) and on the E5 random-net diagnosis suite.

Interning is load-bearing for the compiled path (equality is
identity-first), so the same file checks that terms survive pickling --
the dQSQ wire format -- as the *same* interned objects.
"""

import pickle

import pytest

from repro.datalog import (Database, NaiveEvaluator, Query, SemiNaiveEvaluator,
                           parse_atom, parse_program)
from repro.datalog.naive import load_facts
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.qsqr import qsqr_evaluate
from repro.datalog.term import Const, Func, Var
from repro.diagnosis import DatalogDiagnosisEngine
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.petri.generators import random_safe_net
from repro.workloads.alarmgen import AlarmSequence, simulate_alarms

FIGURE3 = """
r@r(X, Y) :- a@r(X, Y).
r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
t@t(X, Y) :- c@t(X, Y).
a@r("1", "2").
a@r("2", "3").
b@s("2", "x").
b@s("3", "x").
c@t("2", "4").
c@t("3", "5").
c@t("4", "6").
"""

FUNC_RULES = """
nat(z).
nat(s(N)) :- nat(N), N != s(z).
even(z).
even(s(s(N))) :- even(N).
"""


def snapshot(db):
    return {key: frozenset(db.facts(key)) for key in db.relations()
            if db.facts(key)}


class TestBottomUpEquivalence:
    def test_seminaive_figure3_model(self):
        program = parse_program(FIGURE3)
        models = []
        for compiled in (False, True):
            db = Database()
            evaluator = SemiNaiveEvaluator(program, compiled=compiled)
            evaluator.run(db)
            models.append((snapshot(db),
                           evaluator.counters["derivations"]))
        assert models[0] == models[1]

    def test_naive_figure3_model(self):
        program = parse_program(FIGURE3)
        query = Query(parse_atom('r@r("1", Y)'))
        answer_sets = []
        for compiled in (False, True):
            db = Database()
            evaluator = NaiveEvaluator(program, compiled=compiled)
            answer_sets.append(evaluator.answers(db, query))
        assert answer_sets[0] == answer_sets[1]

    def test_seminaive_function_symbols_with_budget(self):
        from repro.datalog.seminaive import EvaluationBudget
        program = parse_program(FUNC_RULES)
        budget = EvaluationBudget(max_term_depth=6, prune_depth=True)
        models = []
        for compiled in (False, True):
            db = Database()
            SemiNaiveEvaluator(program, budget, compiled=compiled).run(db)
            models.append(snapshot(db))
        assert models[0] == models[1]


class TestQsqEquivalence:
    def test_figure4_rewriting_answers(self):
        program = parse_program(FIGURE3)
        db = load_facts(program)
        query = Query(parse_atom('r@r("1", Y)'))
        interp = qsq_evaluate(program, query, db, compiled=False)
        comp = qsq_evaluate(program, query, db, compiled=True)
        assert interp.answers == comp.answers
        assert len(comp.answers) > 0

    def test_qsqr_answers(self):
        program = parse_program(FIGURE3)
        db = load_facts(program)
        query = Query(parse_atom('r@r("1", Y)'))
        interp = qsqr_evaluate(program, query, db, compiled=False)
        comp = qsqr_evaluate(program, query, db, compiled=True)
        assert interp.answers == comp.answers
        assert interp.answer_tables.keys() == comp.answer_tables.keys()


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("scenario", ["bac", "bca", "cba"])
    @pytest.mark.parametrize("mode", ["qsq", "dqsq"])
    def test_figure1_scenarios(self, scenario, mode):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()[scenario])
        results = []
        for compiled in (False, True):
            engine = DatalogDiagnosisEngine(petri, mode=mode,
                                            compiled=compiled)
            results.append(engine.diagnose(alarms))
        assert set(results[0].diagnoses) == set(results[1].diagnoses)
        assert (results[0].materialized_events
                == results[1].materialized_events)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_e5_random_nets(self, seed):
        petri = random_safe_net(seed, branching=0.5)
        alarms = simulate_alarms(petri, steps=4, seed=seed)
        results = []
        for compiled in (False, True):
            engine = DatalogDiagnosisEngine(petri, mode="qsq",
                                            compiled=compiled)
            results.append(engine.diagnose(alarms))
        assert set(results[0].diagnoses) == set(results[1].diagnoses)
        assert (results[0].counters["derivations"]
                == results[1].counters["derivations"])


class TestInterningSurvivesTheWire:
    def test_pickle_reinterns_terms(self):
        term = Func("e", (Const("p1"), Func("s", (Const(0), Const("x"))),
                          Const(3)))
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term
        assert pickle.loads(pickle.dumps(Const("a"))) is Const("a")
        assert pickle.loads(pickle.dumps(Var("X"))) is Var("X")

    def test_facts_payload_roundtrip_deduplicates(self):
        # The dQSQ FACTS message carries bare tuples; after a pickle
        # round-trip (the wire format) the receiver's assume_ground
        # add_all must recognize existing facts as duplicates, which
        # requires the unpickled terms to be the same interned objects.
        key = ("cond", "p1")
        tuples = [(Func("c", (Const(i), Const("p1"))), Const(i % 3))
                  for i in range(8)]
        db = Database()
        assert db.add_all(key, tuples, assume_ground=True) == 8
        wire = pickle.loads(pickle.dumps({"relation": "cond", "peer": "p1",
                                          "tuples": tuples}))
        for sent, received in zip(tuples, wire["tuples"]):
            assert all(a is b for a, b in zip(sent, received))
        assert db.add_all(key, wire["tuples"], assume_ground=True) == 0
        assert db.count(key) == 8
