"""The generated join kernels vs the reference interpreter, on every engine.

``compiled=True`` (:mod:`repro.datalog.batch`) must be a pure
performance change over ``compiled=False``: identical models, answers,
derivation counts and diagnosis sets on every engine and every program.

The same file pins the satellites that ride on the kernel: the bounded
LRU plan cache (eviction recompiles, never changes answers), the
shape-keyed kernel code cache, batch handling of zero-arity relations,
pickled programs re-interning before kernel evaluation (the mp worker
path), the invalid-tier error, and the skip of firings whose join reads
an empty relation (no kernel generated; a later delta still fires).
"""

import pickle

import pytest

import repro
from repro.datalog import (Database, NaiveEvaluator, Query,
                           SemiNaiveEvaluator, parse_atom, parse_program)
from repro.datalog.batch import Batch, fire_batched
from repro.datalog.magic import magic_evaluate
from repro.datalog.naive import load_facts, select
from repro.datalog.plan import (PlanStats, check_compiled, clear_plan_cache,
                                compile_join_plan, plan_cache_evictions,
                                set_plan_cache_limit)
from repro.datalog.qsq import qsq_evaluate
from repro.datalog.qsqr import qsqr_evaluate
from repro.datalog.seminaive import EvaluationBudget, IncrementalEvaluator
from repro.datalog.stratified import StratifiedEvaluator
from repro.datalog.term import Const
from repro.diagnosis import DatalogDiagnosisEngine
from repro.petri.examples import figure1_alarm_scenarios, figure1_net
from repro.workloads.alarmgen import AlarmSequence

TIERS = (False, True)

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

STRATIFIED = """
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
unreachable(X) :- node(X), not reach(X).
source("a").
edge("a", "b").
edge("b", "d").
edge("c", "c").
node("a"). node("b"). node("c"). node("d"). node("e").
"""

ZERO_ARITY = """
seen() :- e(X, Y).
twice() :- e(X, Y), e(Y, Z), X != Z.
p(X) :- e(X, Y), seen().
q(X) :- p(X), twice().
e("1", "2").
e("2", "3").
"""


def snapshot(db):
    return {key: frozenset(db.facts(key)) for key in db.relations()
            if db.facts(key)}


def per_tier(run):
    """Run ``run(compiled)`` for every tier and assert all agree."""
    results = {tier: run(tier) for tier in TIERS}
    assert results[False] == results[True]
    return results[False]


class TestTierEquivalence:
    def test_seminaive_model_and_derivations(self):
        program = parse_program(FIGURE3)

        def run(compiled):
            db = Database()
            evaluator = SemiNaiveEvaluator(program, compiled=compiled)
            evaluator.run(db)
            return snapshot(db), evaluator.counters["derivations"]
        per_tier(run)

    def test_naive_answers(self):
        program = parse_program(FIGURE3)
        query = Query(parse_atom('r@r("1", Y)'))

        def run(compiled):
            return NaiveEvaluator(program, compiled=compiled).answers(
                load_facts(program), query)
        answers = per_tier(run)
        assert answers

    def test_function_symbols_with_depth_prune(self):
        program = parse_program(FUNC_RULES)

        def run(compiled):
            db = Database()
            budget = EvaluationBudget(max_term_depth=6, prune_depth=True)
            SemiNaiveEvaluator(program, budget, compiled=compiled).run(db)
            return snapshot(db)
        model = per_tier(run)
        assert model[("even", None)]

    def test_stratified_negation(self):
        program = parse_program(STRATIFIED)

        def run(compiled):
            db = load_facts(program)
            StratifiedEvaluator(program, compiled=compiled).run(db)
            return snapshot(db)
        model = per_tier(run)
        unreachable = {f[0].value
                       for f in model[("unreachable", None)]}
        assert unreachable == {"c", "e"}

    def test_qsq_qsqr_magic_answers(self):
        program = parse_program(FIGURE3)
        query = Query(parse_atom('r@r("1", Y)'))

        def run(compiled):
            db = load_facts(program)
            qsq = qsq_evaluate(program, query, db, compiled=compiled)
            qsqr = qsqr_evaluate(program, query, db, compiled=compiled)
            magic, _counters, _db = magic_evaluate(program, query, db,
                                                   compiled=compiled)
            assert qsq.answers == qsqr.answers == magic
            return frozenset(qsq.answers)
        answers = per_tier(run)
        assert answers

    def test_incremental_frontier(self):
        # Work arrives in two installments, as at a distributed peer:
        # the persistent frontier must batch each installment's delta.
        rules = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """, check=False)

        def run(compiled):
            db = Database()
            evaluator = IncrementalEvaluator(db, compiled=compiled)
            for rule in rules.proper_rules():
                evaluator.add_rule(rule)
            for pair in (("a", "b"), ("b", "c")):
                db.add(("edge", None), (Const(pair[0]), Const(pair[1])))
            evaluator.run()
            first = snapshot(db)
            db.add(("edge", None), (Const("c"), Const("d")))
            evaluator.run()
            return first, snapshot(db)
        first, second = per_tier(run)
        assert len(second[("path", None)]) > len(first[("path", None)])

    def test_zero_arity_relations(self):
        program = parse_program(ZERO_ARITY, check=False)

        def run(compiled):
            db = load_facts(program)
            SemiNaiveEvaluator(program, compiled=compiled,
                               check=False).run(db)
            return snapshot(db)
        model = per_tier(run)
        assert model[("seen", None)] == frozenset({()})
        assert {f[0].value for f in model[("q", None)]} == {"1", "2"}


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("mode", ["qsq", "dqsq", "bottomup"])
    def test_figure1_all_modes(self, mode):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bac"])
        budget = (EvaluationBudget(max_facts=2_000_000, max_term_depth=8,
                                   prune_depth=True)
                  if mode == "bottomup" else None)

        def run(compiled):
            engine = DatalogDiagnosisEngine(petri, mode=mode, budget=budget,
                                            compiled=compiled)
            result = engine.diagnose(alarms)
            return set(result.diagnoses), result.materialized_events
        diagnoses, _events = per_tier(run)
        assert diagnoses

    def test_runconfig_tier_knob(self):
        petri = figure1_net()
        alarms = AlarmSequence(figure1_alarm_scenarios()["bca"])
        oracle = repro.diagnose(petri, alarms, method="qsq",
                                config=repro.RunConfig(compiled=False))
        kernels = repro.diagnose(petri, alarms, method="qsq",
                                 config=repro.RunConfig(compiled=True))
        assert set(kernels.diagnoses) == set(oracle.diagnoses)


class TestInvalidTier:
    def test_coerce_rejects_unknown_strings(self):
        for value in ("vectorized", "batched", 1, None):
            with pytest.raises(ValueError, match="True or False"):
                check_compiled(value)

    def test_engines_reject_unknown_tier(self):
        program = parse_program(FIGURE3)
        petri = figure1_net()
        for tier in ("jit", "batched"):
            with pytest.raises(ValueError):
                SemiNaiveEvaluator(program, compiled=tier)
            with pytest.raises(ValueError):
                StratifiedEvaluator(program, compiled=tier)
            with pytest.raises(ValueError):
                NaiveEvaluator(program, compiled=tier)
            with pytest.raises(ValueError):
                qsqr_evaluate(program, Query(parse_atom('r@r("1", Y)')),
                              compiled=tier)
            with pytest.raises(ValueError):
                IncrementalEvaluator(Database(), compiled=tier)
            with pytest.raises(ValueError):
                DatalogDiagnosisEngine(petri, compiled=tier)
            with pytest.raises(ValueError):
                repro.RunConfig(compiled=tier)

    def test_valid_tiers_pass_through(self):
        program = parse_program(FIGURE3)
        for tier in (False, True):
            assert check_compiled(tier) is tier
            assert SemiNaiveEvaluator(program, compiled=tier).compiled is tier
            assert repro.RunConfig(compiled=tier).compiled is tier


class TestKernelCodeSharing:
    SHAPES = """
    p(X) :- e(X, "a").
    q(X) :- f(X, "b").
    e("1", "a"). e("2", "b").
    f("3", "a"). f("4", "b").
    """

    def test_same_shape_rules_share_one_code_object(self):
        clear_plan_cache()
        program = parse_program(self.SHAPES)
        db = load_facts(program)
        stats = PlanStats()
        first, second = (compile_join_plan(rule)
                         for rule in program.proper_rules())
        p_rows = fire_batched(first, db, None, stats=stats)
        q_rows = fire_batched(second, db, None, stats=stats)
        assert first.batched_kernel is not second.batched_kernel
        assert first.batched_kernel.__code__ is second.batched_kernel.__code__
        assert stats.shape_hits == 1
        # each closure keeps its own relation keys and constants
        assert p_rows == [(Const("1"),)]
        assert q_rows == [(Const("4"),)]

    def test_evaluator_counts_shape_hits_and_derives_separately(self):
        clear_plan_cache()
        program = parse_program(self.SHAPES)
        db = load_facts(program)
        evaluator = SemiNaiveEvaluator(program)
        evaluator.run(db)
        assert evaluator.counters["plan.shape_hits"] == 1
        assert set(db.facts(("p", None))) == {(Const("1"),)}
        assert set(db.facts(("q", None))) == {(Const("4"),)}

    def test_clear_plan_cache_empties_the_code_cache(self):
        program = parse_program(self.SHAPES)
        rule = next(program.proper_rules())
        clear_plan_cache()
        warm = PlanStats()
        fire_batched(compile_join_plan(rule), Database(), None, stats=warm)
        fire_batched(compile_join_plan(rule, order=(0,)), Database(), None,
                     stats=warm)
        assert warm.shape_hits == 1
        clear_plan_cache()
        cold = PlanStats()
        fire_batched(compile_join_plan(rule), Database(), None, stats=cold)
        assert cold.shape_hits == 0


class TestLruPlanCache:
    def test_eviction_never_changes_answers(self):
        # A cache of 2 entries forces evictions on a program with more
        # distinct rules than slots: every firing beyond the cap
        # recompiles, and the model must not notice.
        program = parse_program(FIGURE3)
        reference = Database()
        SemiNaiveEvaluator(program).run(reference)

        previous = set_plan_cache_limit(2)
        try:
            clear_plan_cache()
            before = plan_cache_evictions()
            db = Database()
            SemiNaiveEvaluator(program).run(db)
            assert snapshot(db) == snapshot(reference)
            assert plan_cache_evictions() > before
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()

    def test_shrinking_limit_evicts_immediately(self):
        program = parse_program(FIGURE3)
        previous = set_plan_cache_limit(16384)
        try:
            clear_plan_cache()
            db = Database()
            SemiNaiveEvaluator(program, compiled=True).run(db)
            before = plan_cache_evictions()
            set_plan_cache_limit(1)
            assert plan_cache_evictions() > before
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()

    def test_eviction_counter_surfaces_in_evaluator_counters(self):
        program = parse_program(FIGURE3)
        previous = set_plan_cache_limit(2)
        try:
            clear_plan_cache()
            evaluator = SemiNaiveEvaluator(program, compiled=True)
            evaluator.run(Database())
            evaluator.flush_stats()
            assert evaluator.counters["plan.cache_evictions"] > 0
        finally:
            set_plan_cache_limit(previous)
            clear_plan_cache()


class TestBatchBlock:
    def test_round_trip_and_zero_arity_length(self):
        rows = [(Const("a"), Const(1)), (Const("b"), Const(2))]
        batch = Batch.from_rows(rows)
        assert batch.arity == 2 and len(batch) == 2
        assert batch.rows() == rows
        empty_width = Batch.from_rows([(), (), ()], arity=0)
        assert len(empty_width) == 3
        assert empty_width.rows() == [(), (), ()]
        assert not Batch(2)

    def test_extend(self):
        batch = Batch.from_rows([(Const("a"),)])
        batch.extend(Batch.from_rows([(Const("b"),)]))
        assert batch.rows() == [(Const("a"),), (Const("b"),)]


class TestPickledProgramsBatchCleanly:
    def test_program_reinterns_then_batches(self):
        # The mp worker path: a program crosses a process boundary as a
        # pickle, its terms re-intern on arrival (identity-first equality
        # must keep holding), and batched evaluation of the clone must
        # match the original.  The pickle round-trip here exercises the
        # same __reduce__ machinery a forked worker runs on import.
        program = parse_program(FIGURE3)
        clone = pickle.loads(pickle.dumps(program))
        for original, copied in zip(program.proper_rules(),
                                    clone.proper_rules()):
            assert all(a is b for a, b in
                       zip(original.head.args, copied.head.args))

        db_original, db_clone = Database(), Database()
        SemiNaiveEvaluator(program, compiled=True).run(db_original)
        SemiNaiveEvaluator(clone, compiled=True).run(db_clone)
        assert snapshot(db_original) == snapshot(db_clone)

    def test_batched_facts_interoperate_with_pickled_tuples(self):
        # Tuples that crossed the wire must batch-insert as duplicates
        # of locally derived facts (add_batch relies on interning).
        key = ("cond", None)
        rows = [(Const(i), Const(i % 3)) for i in range(8)]
        db = Database()
        assert db.add_batch(key, rows).length == 8
        wire = pickle.loads(pickle.dumps(rows))
        assert db.add_batch(key, wire).length == 0
        assert db.count(key) == 8


class TestEmptyRelationSkip:
    """A firing whose join reads an empty relation is skipped before its
    kernel is generated; a later delta on that relation still fires it."""

    LATE = """
    p(X) :- e(X), f(X).
    f(X) :- g(X).
    g(X) :- h(X).
    e("1"). e("2"). h("1").
    """

    def test_skipped_firing_generates_no_kernel(self):
        clear_plan_cache()
        program = parse_program("""
        p(X) :- e(X), f(X).
        e("1").
        """)
        rule = next(program.proper_rules())
        evaluator = SemiNaiveEvaluator(program, compiled=True)
        db = Database()
        evaluator.run(db)
        assert db.count(("p", None)) == 0
        plan = compile_join_plan(rule)
        assert plan.join_keys == (("e", None), ("f", None))
        assert plan.batched_kernel is None
        assert evaluator.counters["plan.empty_skips"] >= 1

    def test_relation_filled_in_a_later_round(self):
        def run(compiled):
            db = Database()
            evaluator = SemiNaiveEvaluator(parse_program(self.LATE),
                                           compiled=compiled)
            evaluator.run(db)
            return snapshot(db), evaluator.counters["derivations"]

        clear_plan_cache()
        model, _derivations = per_tier(run)
        assert model[("p", None)] == frozenset({(Const("1"),)})

    def test_round_zero_skips_are_counted(self):
        clear_plan_cache()
        evaluator = SemiNaiveEvaluator(parse_program(self.LATE), compiled=True)
        evaluator.run(Database())
        # round 0 skips p (f empty) and f (g empty)
        assert evaluator.counters["plan.empty_skips"] >= 2

    def test_incremental_rule_before_its_facts(self):
        # The dQSQ peer pattern: a rule is installed while a relation it
        # joins is empty; the facts arrive from outside between fixpoints.
        def run(compiled):
            db = Database()
            evaluator = IncrementalEvaluator(db, compiled=compiled)
            for rule in parse_program("""
            p(X, Z) :- e(X, Y), f(Y, Z).
            e("1", "2"). e("2", "3").
            """).rules:
                evaluator.add_rule(rule)
            evaluator.run()
            assert db.count(("p", None)) == 0
            db.add_all(("f", None), [(Const("2"), Const("9")),
                                     (Const("3"), Const("8"))])
            evaluator.run()
            return snapshot(db)

        model = per_tier(run)
        assert model[("p", None)] == frozenset({(Const("1"), Const("9")),
                                                (Const("2"), Const("8"))})
