"""Query-Sub-Query as a program rewriting (Figure 4 of the paper).

The crux of QSQ is to minimize the number of tuples derived by rewriting
the program, given a query, around *binding propagation*:

* for each adorned IDB relation ``R^ad`` an input relation ``in-R^ad``
  accumulates the demands (bound-argument tuples);
* for each rule and body position a *supplementary relation* ``sup_i_j``
  accumulates the variable bindings relevant at that position;
* each IDB body atom contributes a demand rule feeding the callee's input
  relation, and a join rule extending the supplementary relation.

Evaluating the rewritten program semi-naively *is* the QSQ evaluation:
it computes the correct answers while materializing only the demanded
portion of each relation, and -- unlike plain Datalog -- stays finite on
function-symbol programs whenever the demanded portion is finite
(Proposition 1 instantiates this for the diagnosis program).

The construction generalizes the textbook one to function terms in
heads and bodies: a bound head position whose argument is a function term
binds all the term's variables (the demand tuple is ground, so matching
it against the pattern instantiates them).

:func:`rewrite_rule` and :func:`resume_rule` are the one per-rule
construction, shared with dQSQ (:mod:`repro.distributed.dqsq`).  They walk
a rule's body left to right and fix every supplementary schema by one
column rule: ``sup_0`` keeps the bound head variables in head order;
each later ``sup_j`` keeps the still-needed columns of ``sup_{j-1}``,
then the variables body atom ``j`` binds first, in argument order.  The
walk stops at the first atom a caller-supplied predicate marks remote
and returns the rest of the rule as a :class:`Remainder` -- dQSQ's rule
(†).  Centralized QSQ never stops it.

Both are memoized.  A walk reads only the rule (or remainder), the
adornment, the supplementary namer (a value: :class:`Figure4Sup` here,
dQSQ's located namer there) and, per body atom, the IDB and remote
verdicts; that tuple is the memo key.  In the diagnosis program the rules
barely change between alarm windows, so a later query gets back the very
``Rule`` objects of the first, and the plan and kernel caches find them
by identity.  The memo shares the plan cache's LRU bound
(:func:`~repro.datalog.plan.set_plan_cache_limit`) and is emptied by
:func:`~repro.datalog.plan.clear_plan_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Sequence, cast

from repro.datalog.adornment import (Adornment, adorned_name, bound_head_vars,
                                     input_name, place_inequalities)
from repro.datalog.atom import Atom, Inequality
from repro.datalog.database import Database, Fact, RelationKey
from repro.datalog.naive import select
from repro.datalog.plan import bounded_cache, lru_put
from repro.datalog.rule import Program, Query, Rule
from repro.datalog.seminaive import EvaluationBudget, SemiNaiveEvaluator
from repro.datalog.term import Var, first_occurrences
from repro.utils.counters import Counters

AdornedKey = tuple[str, str | None, Adornment]
#: names a supplementary relation: (chain position, columns) -> its atom
SupNamer = Callable[[int, tuple[Var, ...]], Atom]


@dataclass
class QsqRewriting:
    """The result of rewriting a program for a query."""

    original: Program
    query: Query
    program: Program
    answer_atom: Atom
    seed: Atom | None
    adorned_relations: list[AdornedKey] = field(default_factory=list)
    sup_index: dict[str, tuple[Rule, Adornment, int]] = field(default_factory=dict)

    def sup_relation_names(self) -> list[str]:
        return sorted(self.sup_index)

    def relation_kinds(self) -> dict[str, str]:
        """Classify every rewritten relation: 'sup', 'input', 'adorned' or 'edb'."""
        kinds: dict[str, str] = {}
        for relation, peer, adornment in self.adorned_relations:
            kinds[adorned_name(relation, adornment)] = "adorned"
            kinds[input_name(relation, adornment)] = "input"
        for name in self.sup_index:
            kinds[name] = "sup"
        for relation, _peer in self.program.all_relations():
            kinds.setdefault(relation, "edb")
        return kinds


def qsq_rewrite(program: Program, query: Query) -> QsqRewriting:
    """Rewrite ``program`` for ``query`` following the QSQ construction."""
    idb = program.idb_relations()
    out = Program()
    rewriting = QsqRewriting(original=program, query=query, program=out,
                             answer_atom=query.atom, seed=None)

    query_key = (query.atom.relation, query.atom.peer)
    if query_key not in idb:
        # The query targets an EDB relation: nothing to rewrite.  Keep the
        # EDB fact rules so evaluation can still load them.
        for fact in program.facts():
            out.add(fact)
        return rewriting

    query_adornment = Adornment.from_atom(query.atom)
    rewriting.answer_atom = Atom(adorned_name(query.atom.relation, query_adornment),
                                 query.atom.args, query.atom.peer)
    seed_args = query_adornment.select_bound(query.atom.args)
    rewriting.seed = Atom(input_name(query.atom.relation, query_adornment),
                          seed_args, query.atom.peer)

    # Keep EDB facts available.
    for fact in program.facts():
        if fact.head.key() not in idb:
            out.add(fact)

    seen: set[AdornedKey] = set()
    agenda: list[AdornedKey] = [(query.atom.relation, query.atom.peer, query_adornment)]
    rule_counter = 0
    while agenda:
        entry = agenda.pop()
        if entry in seen:
            continue
        seen.add(entry)
        rewriting.adorned_relations.append(entry)
        relation, peer, adornment = entry
        for rule in program.rules_for(relation, peer):
            rule_counter += 1
            rewritten = rewrite_rule(rule, adornment, idb,
                                     Figure4Sup(rule_counter))
            for new_rule in rewritten.rules:
                out.add(new_rule)
            if rule.body:
                for j in range(len(rule.body) + 1):
                    rewriting.sup_index[_figure4_sup_name(rule_counter, j)] = (
                        rule, adornment, j)
            agenda.extend(d for d in rewritten.demanded if d not in seen)
    return rewriting


def _figure4_sup_name(rule_id: int, position: int) -> str:
    return f"sup_{rule_id}_{position}"


@dataclass(frozen=True)
class Figure4Sup:
    """Figure 4's unlocated ``sup_i_j`` names for rule ``i`` (a value, so
    it can be part of the rewriting memo's key)."""

    rule_id: int

    def __call__(self, position: int, columns: tuple[Var, ...]) -> Atom:
        return Atom(_figure4_sup_name(self.rule_id, position), columns)


@dataclass(frozen=True)
class Remainder:
    """The unwalked rest of a rule: everything resuming the walk needs.

    ``sup`` is the last supplementary atom built; joining ``atoms[0]``
    builds the supplementary relation at chain position ``position``.
    """

    head: Atom                               #: the adorned answer atom
    sup: Atom
    position: int
    atoms: tuple[Atom, ...]                  #: body atoms still to join
    inequalities: tuple[Inequality, ...]     #: inequalities not yet checked


@dataclass
class RuleRewriting:
    """What one walk emitted, and where it stopped."""

    rules: list[Rule]
    #: adorned IDB relations the emitted demand rules feed
    demanded: list[AdornedKey]
    #: the rest of the rule, when the walk stopped at a remote atom
    remainder: Remainder | None = None


#: walks per (rule, adornment, namer, verdicts) and per (remainder,
#: namer, verdicts)
_WALKS = bounded_cache()


def _memoized(key: tuple, walk: Callable[[], RuleRewriting]) -> RuleRewriting:
    """The memo's copy of ``key``'s walk, in fresh lists: callers mutate
    what they get."""
    hit = _WALKS.get(key)
    if hit is None:
        hit = walk()
        lru_put(_WALKS, key, replace(hit, rules=list(hit.rules),
                                     demanded=list(hit.demanded)))
        return hit
    _WALKS.move_to_end(key)
    return replace(hit, rules=list(hit.rules), demanded=list(hit.demanded))


def _verdicts(atoms: Sequence[Atom], idb: Collection[RelationKey],
              is_remote: Callable[[Atom], bool] | None) -> tuple:
    """Everything a walk asks of ``idb`` and ``is_remote``."""
    return (tuple(atom.key() in idb for atom in atoms),
            None if is_remote is None else tuple(map(is_remote, atoms)))


def rewrite_rule(rule: Rule, adornment: Adornment, idb: Collection[RelationKey],
                 sup_atom: SupNamer,
                 is_remote: Callable[[Atom], bool] | None = None) -> RuleRewriting:
    """The QSQ rules of ``rule`` under ``adornment``: the ``sup_0`` rule
    reading the demand, then the walk of :func:`resume_rule`.

    ``idb`` holds the relations to demand (the others are joined as they
    are); ``sup_atom`` names the supplementary relations.
    """
    return _memoized(
        (rule, adornment, sup_atom, _verdicts(rule.body, idb, is_remote)),
        lambda: _rewrite_rule(rule, adornment, idb, sup_atom, is_remote))


def _rewrite_rule(rule: Rule, adornment: Adornment, idb: Collection[RelationKey],
                  sup_atom: SupNamer,
                  is_remote: Callable[[Atom], bool] | None) -> RuleRewriting:
    head = rule.head
    in_atom = Atom(input_name(head.relation, adornment),
                   adornment.select_bound(head.args), head.peer)
    answer = Atom(adorned_name(head.relation, adornment), head.args, head.peer)
    if not rule.body:
        # An IDB fact (e.g. the unfolding-roots rules of Section 4.1):
        # answer the demand directly.
        return RuleRewriting([Rule(answer, [in_atom])], [])
    bound = bound_head_vars(head, adornment)
    placement = place_inequalities(rule.inequalities, bound, rule.body)
    sup0 = sup_atom(0, bound)
    walk = _resume_rule(
        Remainder(answer, sup0, 1, tuple(rule.body),
                  tuple(c for here in placement[1:] for c in here)),
        idb, sup_atom, is_remote)
    walk.rules.insert(0, Rule(sup0, [in_atom], placement[0]))
    return walk


def resume_rule(remainder: Remainder, idb: Collection[RelationKey],
                sup_atom: SupNamer,
                is_remote: Callable[[Atom], bool] | None = None) -> RuleRewriting:
    """Walk ``remainder`` left to right: per body atom, a demand rule (IDB
    atoms only) and the join rule building the next supplementary
    relation, each inequality checked at the first join where it is
    ground; then the answer rule.  Stops before the first atom
    ``is_remote`` accepts and returns the rest."""
    return _memoized(
        (remainder, sup_atom, _verdicts(remainder.atoms, idb, is_remote)),
        lambda: _resume_rule(remainder, idb, sup_atom, is_remote))


def _resume_rule(remainder: Remainder, idb: Collection[RelationKey],
                 sup_atom: SupNamer,
                 is_remote: Callable[[Atom], bool] | None) -> RuleRewriting:
    head, atoms = remainder.head, remainder.atoms
    current = remainder.sup
    columns = cast("tuple[Var, ...]", current.args)
    placement = place_inequalities(remainder.inequalities, columns, atoms)
    # needed[k]: the variables read after the join of atoms[k] -- by the
    # head, by later atoms, or by inequalities checked at later joins.
    later = set(head.variables())
    needed: list[frozenset[Var]] = []
    for k in range(len(atoms) - 1, -1, -1):
        needed.append(frozenset(later))
        later.update(atoms[k].variables())
        for constraint in placement[k + 1]:
            later.update(constraint.variables())
    needed.reverse()

    rules: list[Rule] = []
    demanded: list[AdornedKey] = []
    for k, atom in enumerate(atoms):
        if is_remote is not None and is_remote(atom):
            return RuleRewriting(rules, demanded, Remainder(
                head, current, remainder.position + k, atoms[k:],
                tuple(c for here in placement[k + 1:] for c in here)))
        if atom.key() in idb:
            body_adornment = Adornment.from_atom(atom, columns)
            rules.append(Rule(Atom(input_name(atom.relation, body_adornment),
                                   body_adornment.select_bound(atom.args), atom.peer),
                              [current]))
            demanded.append((atom.relation, atom.peer, body_adornment))
            join_atom = Atom(adorned_name(atom.relation, body_adornment),
                             atom.args, atom.peer)
        else:
            join_atom = atom
        columns = _sup_columns(columns, atom, needed[k])
        nxt = sup_atom(remainder.position + k, columns)
        rules.append(Rule(nxt, [current, join_atom], placement[k + 1]))
        current = nxt
    rules.append(Rule(head, [current]))
    return RuleRewriting(rules, demanded)


def _sup_columns(previous: Sequence[Var], atom: Atom,
                needed: Collection[Var]) -> tuple[Var, ...]:
    """The column rule: the still-needed columns of the previous
    supplementary relation, then the variables ``atom`` binds first, in
    argument order."""
    return tuple(v for v in first_occurrences((*previous, *atom.variables()))
                 if v in needed)


@dataclass
class QsqResult:
    """Answers plus instrumentation from a QSQ evaluation."""

    answers: set[Fact]
    rewriting: QsqRewriting
    database: Database
    counters: Counters

    def materialized_by_kind(self) -> dict[str, int]:
        """Facts materialized, grouped by relation kind (sup/input/adorned/edb)."""
        kinds = self.rewriting.relation_kinds()
        totals: dict[str, int] = {}
        for (relation, _peer), count in self.database.snapshot_counts().items():
            kind = kinds.get(relation, "edb")
            totals[kind] = totals.get(kind, 0) + count
        return totals


def qsq_evaluate(program: Program, query: Query, db: Database | None = None,
                 budget: EvaluationBudget | None = None,
                 compiled: bool = True, check: bool = True) -> QsqResult:
    """Rewrite ``program`` for ``query`` and evaluate semi-naively.

    ``db`` holds the EDB facts (program fact-rules are loaded too); it is
    copied, so the caller's store is untouched.
    """
    if check:
        from repro.datalog.analysis import check_program
        check_program(program, query, context="qsq",
                      depth_bounded=(budget is not None
                                     and budget.max_term_depth is not None))
    rewriting = qsq_rewrite(program, query)
    work_db = db.copy() if db is not None else Database()
    if rewriting.seed is not None:
        work_db.add_atom(rewriting.seed)
    # The rewriting is machine-generated from an already-checked program.
    evaluator = SemiNaiveEvaluator(rewriting.program, budget, compiled=compiled,
                                   check=False)
    evaluator.run(work_db)
    answers = select(work_db, rewriting.answer_atom)
    counters = Counters()
    counters.merge(evaluator.counters)
    counters.add("qsq_rewritten_rules", len(rewriting.program.rules))
    counters.add("qsq_adorned_relations", len(rewriting.adorned_relations))
    return QsqResult(answers=answers, rewriting=rewriting, database=work_db,
                     counters=counters)
