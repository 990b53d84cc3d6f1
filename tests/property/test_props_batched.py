"""Property-based tests: the two evaluation tiers agree.

Random stratified programs (random EDBs, randomly selected rule
subsets, including negation in a later stratum) must reach identical
fixpoints under the reference interpreter (``compiled=False``) and the
generated columnar join kernels (``compiled=True``).  A second property
pins the mp worker path: programs that cross a pickle boundary
re-intern and then kernel-evaluate to the same fixpoint as the
originals.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.datalog import (Database, Query, SemiNaiveEvaluator, parse_atom,
                           parse_program, qsq_evaluate)
from repro.datalog.stratified import StratifiedEvaluator
from repro.datalog.term import Const

TIERS = (False, True)

NODES = [f"n{i}" for i in range(6)]

edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    min_size=0, max_size=12)

#: optional positive rules; any subset joined with the base TC rules is
#: a valid stratum-0 program
OPTIONAL_RULES = [
    'sg(X, X) :- node(X).',
    'sg(X, Y) :- edge(U, X), sg(U, V), edge(V, Y).',
    'tri(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).',
    'fan(X, Z) :- edge(X, Y), edge(X, Z), Y != Z.',
]

#: optional stratum-1 rules: negation over the stratum-0 fixpoint
OPTIONAL_NEGATION = [
    'isolated(X) :- node(X), not touched(X).',
    'nopath(X, Y) :- node(X), node(Y), not path(X, Y).',
]

BASE_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
touched(X) :- edge(X, Y).
touched(Y) :- edge(X, Y).
"""

rule_subsets = st.tuples(
    st.lists(st.sampled_from(OPTIONAL_RULES), max_size=4, unique=True),
    st.lists(st.sampled_from(OPTIONAL_NEGATION), max_size=2, unique=True))


def database_from(edge_list):
    db = Database()
    for source, target in edge_list:
        db.add(("edge", None), (Const(source), Const(target)))
    for node in NODES:
        db.add(("node", None), (Const(node),))
    return db


def snapshot(db):
    return {key: frozenset(db.facts(key)) for key in db.relations()
            if db.facts(key)}


class TestTiersAgree:
    @settings(max_examples=30, deadline=None)
    @given(edges, rule_subsets)
    def test_random_stratified_programs(self, edge_list, subsets):
        positive, negative = subsets
        text = BASE_RULES + "\n".join(positive) + "\n" + "\n".join(negative)
        program = parse_program(text)
        fixpoints = []
        for compiled in TIERS:
            db = database_from(edge_list)
            StratifiedEvaluator(program, compiled=compiled).run(db)
            fixpoints.append(snapshot(db))
        assert fixpoints[0] == fixpoints[1]

    @settings(max_examples=25, deadline=None)
    @given(edges, st.sampled_from(NODES))
    def test_qsq_demand_driven(self, edge_list, source):
        program = parse_program(BASE_RULES)
        query = Query(parse_atom(f'path("{source}", Y)'))
        answer_sets = []
        for compiled in TIERS:
            db = database_from(edge_list)
            answer_sets.append(
                qsq_evaluate(program, query, db, compiled=compiled).answers)
        assert answer_sets[0] == answer_sets[1]

    @settings(max_examples=20, deadline=None)
    @given(edges, rule_subsets)
    def test_pickled_program_batches_identically(self, edge_list, subsets):
        # The forked-worker path: the program round-trips through
        # pickle (terms re-intern via __reduce__), then the kernel
        # tier must compute the same fixpoint from the clone.
        positive, negative = subsets
        text = BASE_RULES + "\n".join(positive) + "\n" + "\n".join(negative)
        program = parse_program(text)
        clone = pickle.loads(pickle.dumps(program))

        db = database_from(edge_list)
        StratifiedEvaluator(program, compiled=False).run(db)
        db_clone = database_from(edge_list)
        StratifiedEvaluator(clone, compiled=True).run(db_clone)
        assert snapshot(db) == snapshot(db_clone)

    @settings(max_examples=25, deadline=None)
    @given(edges)
    def test_batched_matches_independent_reference(self, edge_list):
        # Independent oracle: Warshall closure in plain Python.
        program = parse_program("""
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = database_from(edge_list)
        SemiNaiveEvaluator(program, compiled=True).run(db)

        reach = {n: set() for n in NODES}
        for source, target in edge_list:
            reach[source].add(target)
        changed = True
        while changed:
            changed = False
            for node in NODES:
                extra = set()
                for mid in reach[node]:
                    extra |= reach[mid]
                if not extra <= reach[node]:
                    reach[node] |= extra
                    changed = True

        derived = {(f[0].value, f[1].value) for f in db.facts(("path", None))}
        expected = {(a, b) for a in NODES for b in reach[a]}
        assert derived == expected
