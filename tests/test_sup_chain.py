"""The one QSQ rule construction shared by centralized QSQ and dQSQ.

Two properties of :func:`repro.datalog.qsq.rewrite_rule` /
:func:`~repro.datalog.qsq.resume_rule`:

* **sup-schema parity** -- every supplementary relation that both
  centralized QSQ on ``P_local`` and dQSQ build for the same (rule,
  adornment, chain position) has the same columns in the same order;
* **cut-and-resume** -- cutting the walk at any body atom and resuming
  from the returned remainder emits exactly the rules of the walk that
  is never cut (dQSQ's rule (†) changes where the rules live, not what
  they are).
"""

import pytest

from repro.datalog import Query, parse_atom, parse_program, qsq_rewrite
from repro.datalog.adornment import Adornment
from repro.datalog.atom import Atom
from repro.datalog.naive import load_facts
from repro.datalog.qsq import resume_rule, rewrite_rule
from repro.diagnosis.supervisor import SUPERVISOR, SupervisorEncoder
from repro.distributed import DDatalogProgram, DqsqEngine
from repro.distributed.transport import SimTransportRuntime
from repro.workloads.scenarios import get_scenario

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

SchemaKey = tuple[str, int, str, int]   # (local relation, rule index, adornment, j)


def qsq_sup_schemas(dd: DDatalogProgram,
                    query_atom: Atom) -> dict[SchemaKey, tuple[str, ...]]:
    """Sup columns built by centralized QSQ on the local version."""
    local = dd.local_version()
    rewriting = qsq_rewrite(local, Query(Atom(f"{query_atom.relation}@{query_atom.peer}",
                                              query_atom.args, None)))
    columns = {rule.head.relation: rule.head.args for rule in rewriting.program.rules
               if rule.head.relation in rewriting.sup_index}
    out = {}
    for name, (rule, adornment, j) in rewriting.sup_index.items():
        index = next(i for i, candidate in
                     enumerate(local.rules_for(rule.head.relation, None))
                     if candidate is rule)
        out[(rule.head.relation, index, adornment.pattern, j)] = tuple(
            str(v) for v in columns[name])
    return out


def dqsq_sup_schemas(dd: DDatalogProgram, edb,
                     query_atom: Atom) -> dict[SchemaKey, tuple[str, ...]]:
    """Sup columns installed at the peers of one dQSQ run."""
    runtime = SimTransportRuntime()
    DqsqEngine(dd, edb, transport=runtime).query(Query(query_atom))
    network = runtime.network
    out = {}
    for name in network.peers():
        for rule in network.handler(name).checkpoint()["rules"]:
            head = rule.head
            if not head.relation.startswith("sup["):
                continue
            uid, _sep, j = head.relation[4:].rpartition("]")
            peer, rest = uid.split(".", 1)
            rest, index = rest.rsplit(".", 1)
            relation, pattern = rest.rsplit(".", 1)
            out[(f"{relation}@{peer}", int(index), pattern, int(j))] = tuple(
                str(v) for v in head.args)
    return out


def assert_parity(dd: DDatalogProgram, edb, query_atom: Atom) -> None:
    centralized = qsq_sup_schemas(dd, query_atom)
    distributed = dqsq_sup_schemas(dd, edb, query_atom)
    assert distributed
    # QSQ rewrites eagerly, dQSQ only what gets demanded.
    assert set(distributed) <= set(centralized)
    differing = {key: (centralized[key], columns)
                 for key, columns in distributed.items()
                 if centralized[key] != columns}
    assert not differing


class TestSupSchemaParity:
    def test_figure3(self):
        program = parse_program(FIGURE3)
        assert_parity(DDatalogProgram(program), load_facts(program),
                      parse_atom('r@r("1", Y)'))

    def test_figure1_bac(self):
        petri, alarms = get_scenario("figure1-bac").instantiate()
        encoder = SupervisorEncoder(petri, alarms, SUPERVISOR)
        assert_parity(encoder.program(), None, encoder.query_atom())


class TestCutAndResume:
    PROGRAM = """
    p(X, Y) :- a(X, Z), q(Z, W), b(W, U), q(U, Y), X != W, Z != Y.
    q(X, Y) :- e(X, Y).
    """

    def walk_parts(self):
        program = parse_program(self.PROGRAM)
        rule = program.rules_for("p", None)[0]
        return rule, Adornment("bf"), program.idb_relations()

    @staticmethod
    def sup(j, columns):
        return Atom(f"sup_{j}", columns)

    def test_uncut_walk_shape(self):
        rule, adornment, idb = self.walk_parts()
        whole = rewrite_rule(rule, adornment, idb, self.sup)
        assert whole.remainder is None
        # sup_0, 4 joins, 2 demand rules (the q atoms), the answer rule
        assert len(whole.rules) == 1 + 4 + 2 + 1
        assert [str(v) for v in whole.rules[0].head.args] == ["X"]
        # X != W is checked at the join of q(Z, W), Z != Y at the last join
        checked = {str(r.head.relation): [str(c) for c in r.inequalities]
                   for r in whole.rules if r.inequalities}
        assert set(checked) == {"sup_2", "sup_4"}

    @pytest.mark.parametrize("cut", [0, 1, 2, 3])
    def test_resume_equals_uncut(self, cut):
        rule, adornment, idb = self.walk_parts()
        whole = rewrite_rule(rule, adornment, idb, self.sup)
        remote = rule.body[cut]
        first = rewrite_rule(rule, adornment, idb, self.sup,
                             is_remote=lambda atom: atom is remote)
        rest = first.remainder
        assert rest is not None
        assert rest.position == cut + 1
        assert rest.atoms == tuple(rule.body[cut:])
        # every inequality not yet ground before the cut travels along
        assert len(rest.inequalities) == (2 if cut <= 1 else 1)
        second = resume_rule(rest, idb, self.sup)
        assert second.remainder is None
        assert first.rules + second.rules == whole.rules
        assert first.demanded + second.demanded == whole.demanded
