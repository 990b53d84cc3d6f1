"""The memo on the shared per-rule QSQ walk (``rewrite_rule`` / ``resume_rule``).

A walk is a pure function of the rule (or remainder), the adornment, the
supplementary namer and each body atom's IDB and remote verdicts; the
memo keys on exactly that.  These tests pin that a warm memo changes no
rewritten rule, that rules differing only in their sup naming never
share an entry, that callers may mutate what they get, and that the memo
rides on the plan cache's bound and clearing.
"""

import pytest

from repro.datalog import Query, parse_program, qsq, qsq_rewrite
from repro.datalog.adornment import Adornment
from repro.datalog.atom import Atom
from repro.datalog.plan import clear_plan_cache, set_plan_cache_limit
from repro.datalog.qsq import Figure4Sup, Remainder, resume_rule, rewrite_rule
from repro.diagnosis.supervisor import SUPERVISOR, SupervisorEncoder
from repro.distributed import DqsqEngine
from repro.distributed.dqsq import _LocatedSup
from repro.distributed.transport import SimTransportRuntime
from repro.workloads.scenarios import get_scenario

SCENARIOS = ("figure1-bac", "telecom-small")

PROGRAM = """
p(X, Y) :- a(X, Z), q(Z, W), b(W, Y), X != W.
q(X, Y) :- e(X, Y).
"""


def encoded(scenario):
    petri, alarms = get_scenario(scenario).instantiate()
    encoder = SupervisorEncoder(petri, alarms, SUPERVISOR)
    return encoder.program(), encoder.query_atom()


def qsq_rules(scenario):
    program, query_atom = encoded(scenario)
    rewriting = qsq_rewrite(program.local_version(), Query(Atom(
        f"{query_atom.relation}@{query_atom.peer}", query_atom.args, None)))
    return list(rewriting.program.rules)


def dqsq_rules(scenario):
    program, query_atom = encoded(scenario)
    runtime = SimTransportRuntime()
    DqsqEngine(program, None, transport=runtime).query(Query(query_atom))
    network = runtime.network
    return {name: list(network.handler(name).checkpoint()["rules"])
            for name in sorted(network.peers())}


def texts(rules):
    return [str(rule) for rule in rules]


def walk_parts():
    program = parse_program(PROGRAM)
    return (program.rules_for("p", None)[0], Adornment("bf"),
            program.idb_relations())


@pytest.fixture(autouse=True)
def cold_memo():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestColdEqualsWarm:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_centralized_qsq(self, scenario):
        cold = qsq_rules(scenario)
        warm = qsq_rules(scenario)
        assert texts(warm) == texts(cold)
        # the warm rewriting hands back the very rule objects of the cold
        # one (the EDB facts are copied from each freshly encoded program)
        assert all(a is b for a, b in zip(warm, cold) if not a.is_fact())

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_dqsq_installed_rules(self, scenario):
        cold = dqsq_rules(scenario)
        warm = dqsq_rules(scenario)
        assert {peer: texts(rules) for peer, rules in warm.items()} == {
            peer: texts(rules) for peer, rules in cold.items()}


class TestNamingIsPartOfTheKey:
    def test_namers_compare_by_value(self):
        assert Figure4Sup(3) == Figure4Sup(3)
        assert hash(Figure4Sup(3)) == hash(Figure4Sup(3))
        assert _LocatedSup("a.p.bf.0", "a") == _LocatedSup("a.p.bf.0", "a")
        assert _LocatedSup("a.p.bf.0", "a") != _LocatedSup("a.p.bf.0", "b")

    def test_rule_counters_never_share(self):
        rule, adornment, idb = walk_parts()
        first = rewrite_rule(rule, adornment, idb, Figure4Sup(1))
        second = rewrite_rule(rule, adornment, idb, Figure4Sup(2))
        assert {r.head.relation for r in first.rules} & {
            r.head.relation for r in second.rules} == {"p^bf", "in-q^bf"}
        assert first.rules[0].head.relation == "sup_1_0"
        assert second.rules[0].head.relation == "sup_2_0"

    def test_peers_never_share(self):
        rule, adornment, idb = walk_parts()
        here = rewrite_rule(rule, adornment, idb, _LocatedSup("u", "a"))
        there = rewrite_rule(rule, adornment, idb, _LocatedSup("u", "b"))
        assert here.rules[0].head.peer == "a"
        assert there.rules[0].head.peer == "b"
        other = rewrite_rule(rule, adornment, idb, _LocatedSup("v", "a"))
        assert other.rules[0].head.relation != here.rules[0].head.relation

    def test_verdicts_never_share(self):
        rule, adornment, idb = walk_parts()
        sup = Figure4Sup(1)
        whole = rewrite_rule(rule, adornment, idb, sup)
        no_idb = rewrite_rule(rule, adornment, set(), sup)
        assert len(no_idb.rules) == len(whole.rules) - 1   # no demand rule
        cut = rewrite_rule(rule, adornment, idb, sup,
                           is_remote=lambda atom: atom.relation == "b")
        assert whole.remainder is None and cut.remainder is not None


class TestHitsAreFresh:
    def test_mutating_a_result_leaves_the_next_hit_alone(self):
        rule, adornment, idb = walk_parts()
        sup = Figure4Sup(1)
        first = rewrite_rule(rule, adornment, idb, sup)
        expected = list(first.rules), list(first.demanded)
        first.rules.clear()
        first.demanded.append(("junk", None, adornment))
        second = rewrite_rule(rule, adornment, idb, sup)
        assert (second.rules, second.demanded) == expected
        second.rules.insert(0, expected[0][-1])
        third = rewrite_rule(rule, adornment, idb, sup)
        assert third.rules == expected[0]
        assert all(a is b for a, b in zip(third.rules, expected[0]))

    def test_resume_hits_are_fresh(self):
        rule, adornment, idb = walk_parts()
        sup = Figure4Sup(1)
        cut = rewrite_rule(rule, adornment, idb, sup,
                           is_remote=lambda atom: atom.relation == "b")
        rest = cut.remainder
        assert isinstance(rest, Remainder)
        first = resume_rule(rest, idb, sup)
        expected = list(first.rules)
        first.rules.pop()
        assert resume_rule(rest, idb, sup).rules == expected


class TestBoundAndClearing:
    def test_limit_bounds_the_memo(self):
        rule, adornment, idb = walk_parts()
        previous = set_plan_cache_limit(2)
        try:
            clear_plan_cache()
            first = rewrite_rule(rule, adornment, idb, Figure4Sup(1))
            for rule_id in (2, 3, 4):
                rewrite_rule(rule, adornment, idb, Figure4Sup(rule_id))
                assert len(qsq._WALKS) <= 2
            # the first entry was evicted: the walk runs again, equal but new
            again = rewrite_rule(rule, adornment, idb, Figure4Sup(1))
            assert again.rules == first.rules
            assert again.rules[0] is not first.rules[0]
        finally:
            set_plan_cache_limit(previous)

    def test_clearing_the_plan_cache_empties_the_memo(self):
        rule, adornment, idb = walk_parts()
        first = rewrite_rule(rule, adornment, idb, Figure4Sup(1))
        assert rewrite_rule(rule, adornment, idb,
                            Figure4Sup(1)).rules[0] is first.rules[0]
        clear_plan_cache()
        assert len(qsq._WALKS) == 0
        assert rewrite_rule(rule, adornment, idb,
                            Figure4Sup(1)).rules[0] is not first.rules[0]
