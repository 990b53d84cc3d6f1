"""Semi-naive bottom-up evaluation with resource budgets.

Semi-naive evaluation restricts each join so that at least one IDB body
atom is matched against the *delta* of the previous round, avoiding
rediscovery of old facts.  It computes the same minimal model as naive
evaluation (a property-tested invariant) and is the workhorse under the
QSQ and Magic-Set rewritings: the paper's Figure-4 program is itself a
Datalog program, and evaluating it semi-naively *is* the QSQ evaluation.

Because dDatalog has function symbols, fixpoints may be infinite; the
:class:`EvaluationBudget` makes every run either terminate, raise
:class:`~repro.errors.BudgetExceeded`, or -- in ``prune_depth`` mode --
terminate with an explicitly truncated model (the Section-4.4 gadget
"bounding the depth of the unfolding").

On the kernel tier a firing whose join reads an empty relation (a
non-delta body atom with no facts yet) is skipped before its kernel runs
or is generated, and counted as ``plan.empty_skips``.  The join would
have yielded nothing, and a later delta on that relation fires the rule
at that position, so the fixpoint is unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.datalog.atom import Atom
from repro.datalog.batch import Batch, fire_batched
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.evalutil import derive_head, iter_rule_bindings
from repro.datalog.plan import PlanStats, check_compiled, plan_for
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.term import Term, term_depth
from repro.errors import BudgetExceeded
from repro.utils.counters import Counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.datalog.cost import PlanAdvisor


@dataclass(frozen=True)
class EvaluationBudget:
    """Resource limits for a bottom-up run.

    ``max_term_depth`` bounds the nesting depth of derived head terms.
    With ``prune_depth=False`` (default) exceeding it raises
    :class:`BudgetExceeded`; with ``prune_depth=True`` too-deep facts are
    silently dropped, yielding a depth-bounded model (the unfolding-depth
    gadget of Section 4.4).
    """

    max_iterations: int = 10_000
    max_facts: int = 2_000_000
    max_term_depth: int | None = None
    prune_depth: bool = False

    def prunes_atom(self, atom: Atom) -> bool:
        """True when the atom is over-deep and pruning mode is on."""
        return self.prunes_fact(atom.args)

    def prunes_fact(self, args: Sequence[Term]) -> bool:
        """Depth check on a bare argument tuple (the shared insertion path)."""
        if self.max_term_depth is None:
            return False
        depth = max((term_depth(a) for a in args), default=0)
        if depth <= self.max_term_depth:
            return False
        if self.prune_depth:
            return True
        raise BudgetExceeded("term_depth", self.max_term_depth)


class BottomUpEvaluator:
    """What the bottom-up evaluators share: the tier switch and one fire path.

    The tier decides only how a firing produces head tuples: the
    generated kernel of :mod:`repro.datalog.batch` (``compiled=True``) or
    the reference interpreter's ``iter_rule_bindings`` + ``derive_head``
    (``compiled=False``).  Depth pruning, the ``derivations`` /
    ``pruned_deep_facts`` / ``facts_materialized`` counters, the
    ``max_facts`` check and insertion are written once, in :meth:`_fire`.
    """

    def __init__(self, budget: EvaluationBudget | None = None,
                 compiled: bool = True,
                 advisor: "PlanAdvisor | None" = None) -> None:
        self.budget = budget or EvaluationBudget()
        self.counters = Counters()
        self.compiled = check_compiled(compiled)
        #: optional cost-based join-order advisor (repro.datalog.cost);
        #: consulted once per (rule, delta) on plan-cache misses
        self._advisor = advisor
        self._plan_stats = PlanStats()
        #: id-keyed plan map (see repro.datalog.plan.plan_for)
        self._plans: dict = {}

    def flush_stats(self) -> None:
        """Flush pending plan counters into :attr:`counters` (idempotent).

        Runs flush at every fixpoint; the transports call this at
        collection time so plan work done since the last successful
        fixpoint (e.g. a run aborted by ``BudgetExceeded``) still lands
        in the per-peer counters instead of dying with the worker.
        """
        self._plan_stats.flush_into(self.counters)

    def _fire(self, rule: Rule, db: Database,
              delta_position: int | None = None, delta: Batch | None = None,
              out_delta: dict[RelationKey, Batch] | None = None) -> bool:
        """Fire ``rule`` once; True when it added a fact.

        With ``delta_position`` set, that body atom joins only ``delta``
        (the semi-naive restriction); the new facts are appended to
        ``out_delta`` when given.  Derived heads are buffered and
        inserted only after the join completes: inserting mid-join would
        extend the very fact lists being iterated and make a single
        firing run away on recursive rules with function symbols.
        """
        if self.compiled:
            plan = plan_for(self._plans, self._plan_stats, rule,
                            delta_position, advisor=self._advisor)
            # A join over an empty relation yields nothing: skip it before
            # its kernel runs (or is generated).  A later delta on that
            # relation fires the rule at that position.
            for join_key in plan.join_keys:
                if not db.facts(join_key):
                    self._plan_stats.empty_skips += 1
                    return False
            key = plan.head_key
            rows = fire_batched(plan, db, delta, stats=self._plan_stats)
        else:
            key = rule.head.key()
            delta_facts = delta.rows() if delta is not None else ()
            rows = [derive_head(rule, binding).args
                    for binding in iter_rule_bindings(
                        rule, db, delta_position=delta_position,
                        delta_facts=delta_facts)]
        if not rows:
            return False
        self.counters.add("derivations", len(rows))
        budget = self.budget
        if budget.max_term_depth is not None:
            kept = [args for args in rows if not budget.prunes_fact(args)]
            if len(kept) < len(rows):
                self.counters.add("pruned_deep_facts", len(rows) - len(kept))
            rows = kept
        fresh = db.add_batch(key, rows)
        if not fresh:
            return False
        self.counters.add("facts_materialized", fresh.length)
        if db.total_facts() > budget.max_facts:
            raise BudgetExceeded("facts", budget.max_facts)
        if out_delta is not None:
            existing = out_delta.get(key)
            if existing is None:
                out_delta[key] = fresh
            else:
                existing.extend(fresh)
        return True


class IncrementalEvaluator(BottomUpEvaluator):
    """Semi-naive evaluation with a persistent frontier.

    Built for the distributed engines: a peer's rule set *grows* over
    time (lazy rewriting installs fragments; delegations arrive) and its
    fact store receives external tuples between fixpoints.  The
    evaluator keeps a per-relation cursor into the (append-only) fact
    lists: every fact beyond the cursor is an unprocessed delta, and
    every newly added rule fires once against the full store before
    joining the delta regime.  Repeated calls to :meth:`run` therefore
    cost time proportional to the *new* work, not to the whole history.
    """

    def __init__(self, db: Database, budget: EvaluationBudget | None = None,
                 compiled: bool = True,
                 advisor: "PlanAdvisor | None" = None) -> None:
        super().__init__(budget, compiled, advisor)
        self.db = db
        self._rules: list[Rule] = []
        self._seen_rules: set[Rule] = set()
        self._pending_rules: list[Rule] = []
        self._by_body: dict[RelationKey, list[tuple[Rule, int]]] = defaultdict(list)
        self._cursor: dict[RelationKey, int] = {}
        self._log_position = 0

    def reset(self, db: Database) -> None:
        """Rebind to a fresh database and drop every derived structure.

        The checkpoint/restore path on the distributed peers calls this
        instead of constructing a new evaluator.  Crucially it clears the
        compiled-plan cache: plans are keyed by ``id(rule)``
        (see :func:`repro.datalog.plan.plan_for`), and after a restore
        the re-installed rule objects are *new* allocations -- a stale
        entry whose key id got recycled by the allocator would hand back
        a plan compiled for a different rule, silently probing the wrong
        indexes.  Counters survive: recovery work is real work.
        """
        self.db = db
        self._plans.clear()
        self._plan_stats = PlanStats()
        self._rules = []
        self._seen_rules = set()
        self._pending_rules = []
        self._by_body = defaultdict(list)
        self._cursor = {}
        self._log_position = 0

    def add_rule(self, rule: Rule) -> bool:
        """Register a rule; facts go straight to the store."""
        if rule in self._seen_rules:
            return False
        self._seen_rules.add(rule)
        if rule.is_fact():
            if self.db.add_atom(rule.head):
                self.counters.add("facts_materialized")
            return True
        self._pending_rules.append(rule)
        return True

    def run(self) -> None:
        """Process pending rules and unprocessed facts to a fixpoint."""
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.budget.max_iterations:
                raise BudgetExceeded("iterations", self.budget.max_iterations)
            progressed = False
            pending, self._pending_rules = self._pending_rules, []
            for rule in pending:
                self._rules.append(rule)
                for position, atom in enumerate(rule.body):
                    self._by_body[atom.key()].append((rule, position))
                self._fire(rule, self.db)
                progressed = True
            # Only relations named in the change-log suffix can have new
            # facts: no full scan over the (large) relation space.
            log = self.db.change_log()
            touched: dict[RelationKey, None] = {}
            for key in log[self._log_position:]:
                touched[key] = None
            self._log_position = len(log)
            for key in touched:
                facts = self.db.facts(key)
                start = self._cursor.get(key, 0)
                if start >= len(facts):
                    continue
                # Transpose the key's new facts once; every rule with a
                # matching body atom joins the same columnar block.
                delta = Batch.from_rows(facts[start:])
                self._cursor[key] = len(facts)
                progressed = True
                for rule, position in self._by_body.get(key, ()):
                    self._fire(rule, self.db, position, delta)
            if not progressed:
                self.flush_stats()
                return


class SemiNaiveEvaluator(BottomUpEvaluator):
    """Semi-naive fixpoint evaluation of a program over a database."""

    def __init__(self, program: Program,
                 budget: EvaluationBudget | None = None,
                 compiled: bool = True, check: bool = True,
                 advisor: "PlanAdvisor | None" = None) -> None:
        super().__init__(budget, compiled, advisor)
        self.program = program
        if check:
            from repro.datalog.analysis import check_program
            check_program(program, context="seminaive",
                          depth_bounded=self.budget.max_term_depth is not None,
                          counters=self.counters)
        self._idb: set[RelationKey] = program.idb_relations()

    def run(self, db: Database) -> Database:
        """Evaluate to fixpoint in place; returns ``db``.

        Round 0 fires every rule against the initial database; each later
        round joins the previous round's new facts.  A round's delta is a
        per-relation :class:`Batch`: ``Database.add_batch`` returns the
        genuinely new facts already transposed, so the next round's delta
        needs no re-layout.
        """
        for fact in self.program.facts():
            if db.add_atom(fact.head):
                self.counters.add("facts_materialized")

        rules = [r for r in self.program.proper_rules()]
        rules_by_body: dict[RelationKey, list[tuple[Rule, int]]] = defaultdict(list)
        for rule in rules:
            for position, atom in enumerate(rule.body):
                rules_by_body[atom.key()].append((rule, position))

        delta: dict[RelationKey, Batch] = {}
        for rule in rules:
            self._fire(rule, db, out_delta=delta)
        iterations = 0
        while delta:
            iterations += 1
            if iterations > self.budget.max_iterations:
                raise BudgetExceeded("iterations", self.budget.max_iterations)
            next_delta: dict[RelationKey, Batch] = {}
            for key, batch in delta.items():
                for rule, position in rules_by_body.get(key, ()):
                    self._fire(rule, db, position, batch, next_delta)
            delta = next_delta
        self.counters.add("iterations", iterations)
        self.flush_stats()
        return db

    def answers(self, db: Database, query: Query) -> set[Fact]:
        """Evaluate and return the facts matching the query atom."""
        from repro.datalog.naive import select
        self.run(db)
        return select(db, query.atom)

