"""Compiled join plans: what the generated join kernels are built from.

``iter_rule_bindings`` (:mod:`repro.datalog.evalutil`) is a clean
recursive interpreter, but it re-derives the bound index positions of
every body atom on every call, copies a ``dict`` binding per candidate
fact and re-walks pattern terms with generic matching.  Every solver in
this reproduction -- semi-naive, QSQ/magic (rewritings evaluated
semi-naively), dQSQ (incremental evaluators at each peer) and QSQR --
funnels through that join, so this module compiles each :class:`Rule`
once into a :class:`JoinPlan`, from which :mod:`repro.datalog.batch`
generates the rule's join kernel:

* variables get integer **slots** (locals ``s0``, ``s1``, ... of the
  generated kernel);
* each body atom becomes a :class:`JoinStep` with the **index positions
  precomputed** (constants, already-bound variables, and function terms
  whose variables are all bound -- the last is *more* selective than the
  interpreter, which only indexes structurally ground arguments);
* the body is **reordered most-bound-first** (greedy, ties broken by the
  written order); the semi-naive delta atom is pinned first;
* the **inequality schedule is baked in** at compile time (the earliest
  step after which both sides are ground, by the same
  :func:`~repro.datalog.adornment.place_inequalities` the QSQ rewriting
  uses), as are the negated-atom checks and the head-tuple builders.

Plans are cached per ``(rule, delta_position, order)`` -- ``order`` is
``None`` for the greedy default and an explicit permutation when a
:class:`~repro.datalog.cost.PlanAdvisor` picks the cost-based order
instead.  Kernel code objects are cached beside them, keyed on the
generated source text, so every rule of one shape shares one
``compile()``; both caches, and the QSQ rewriting memo
(:func:`bounded_cache`), share one LRU bound.  A plan also lists the
relations its non-delta steps read (``join_keys``), so the evaluators
can skip a firing while one of them is empty.  :class:`PlanStats`
exposes index hit/miss and bindings-explored counts so the perf
trajectory is measurable (``plan.*`` counters).

There are two evaluation tiers.  ``compiled=True`` runs the generated
kernels; ``compiled=False`` runs the interpreter, which is kept as the
executable specification, and the property suite asserts bit-identical
models between the two.  :class:`QsqrRulePlan` at the end of the module
is QSQR's own (non-reordered) plan, run tuple at a time by
:mod:`repro.datalog.qsqr`.  Both plans compile each body atom with the
one per-atom step ``_compile_atom`` (scan ops, index probe positions and
values, residual ops).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from types import CodeType
from typing import TYPE_CHECKING, Sequence

from repro.datalog.adornment import Adornment, place_inequalities
from repro.datalog.atom import Atom, Inequality
from repro.datalog.rule import Rule
from repro.datalog.term import Func, Term, Var, first_occurrences, variables_of
from repro.utils.counters import Counters

if TYPE_CHECKING:
    from repro.datalog.batch import Kernel
    from repro.datalog.database import Fact, RelationKey
    from repro.datalog.cost import PlanAdvisor


def check_compiled(value: bool) -> bool:
    """Validate the evaluation-tier knob: ``False`` selects the reference
    interpreter (:func:`~repro.datalog.evalutil.iter_rule_bindings`, the
    executable specification), ``True`` the generated join kernels of
    :mod:`repro.datalog.batch`.  Both compute identical fixpoints (a
    property-tested invariant); they differ only in speed.
    """
    if value is False or value is True:
        return value
    raise ValueError(f"compiled must be True or False; got {value!r}")


# -- term-level compilation ------------------------------------------------------
#
# Match programs are nested tuples interpreted against a slot array:
#   ("c", term)                  ground term: value must equal it
#   ("s", slot)                  value must equal the bound slot
#   ("w", slot)                  first occurrence: write value into slot
#   ("f", name, arity, subops)   destructure a non-ground function term
#
# Builders construct ground terms from slots:
#   ("c", term) | ("s", slot) | ("f", name, subbuilders)


def compile_term_match(term: Term, slot_of: dict[Var, int],
                       seen: set[Var]) -> tuple:
    """Compile ``term`` into a match program; ``seen`` tracks bound vars."""
    if isinstance(term, Var):
        slot = slot_of[term]
        if term in seen:
            return ("s", slot)
        seen.add(term)
        return ("w", slot)
    if term._ground:
        return ("c", term)
    # a non-ground function term
    return ("f", term.name, len(term.args),
            tuple(compile_term_match(a, slot_of, seen) for a in term.args))


def run_term_match(op: tuple, value: Term, slots: list) -> bool:
    """Run a compiled match program against a ground ``value``."""
    kind = op[0]
    if kind == "w":
        slots[op[1]] = value
        return True
    if kind == "s":
        bound = slots[op[1]]
        return bound is value or bound == value
    if kind == "c":
        expected = op[1]
        return expected is value or expected == value
    # "f"
    if type(value) is not Func or value.name != op[1] or len(value.args) != op[2]:
        return False
    for sub, arg in zip(op[3], value.args):
        if not run_term_match(sub, arg, slots):
            return False
    return True


def compile_builder(term: Term, slot_of: dict[Var, int]) -> tuple:
    """Compile ``term`` into a ground-term builder over slots."""
    if isinstance(term, Var):
        return ("s", slot_of[term])
    if term._ground:
        return ("c", term)
    return ("f", term.name, tuple(compile_builder(a, slot_of) for a in term.args))


def run_builder(builder: tuple, slots: list) -> Term:
    """Build a ground term from slots (interned Func construction)."""
    kind = builder[0]
    if kind == "s":
        return slots[builder[1]]
    if kind == "c":
        return builder[1]
    return Func(builder[1], tuple(run_builder(b, slots) for b in builder[2]))


def run_fact_ops(ops: tuple, fact: Fact, slots: list) -> bool:
    """Run per-position ops -- ("store"/"check"/"const"/"match", pos, ...)."""
    for op in ops:
        kind = op[0]
        if kind == "store":
            slots[op[2]] = fact[op[1]]
        elif kind == "check":
            bound = slots[op[2]]
            value = fact[op[1]]
            if bound is not value and bound != value:
                return False
        elif kind == "const":
            expected = op[2]
            value = fact[op[1]]
            if expected is not value and expected != value:
                return False
        elif not run_term_match(op[2], fact[op[1]], slots):  # "match"
            return False
    return True


def ineqs_hold(checks: tuple, slots: list) -> bool:
    for left, right in checks:
        if run_builder(left, slots) == run_builder(right, slots):
            return False
    return True


# -- plan structure --------------------------------------------------------------


class PlanStats:
    """Cheap per-evaluator accumulators, flushed into a Counters bag.

    Attribute increments keep the join loop free of dict lookups; the
    evaluator flushes the deltas under ``plan.*`` counter names.
    """

    _FIELDS = ("bindings_explored", "index_hits", "index_misses",
               "full_scans", "delta_scans", "empty_skips", "cache_hits",
               "cache_misses", "cache_evictions", "shape_hits",
               "advisor_rules", "advisor_reorders",
               "advisor_predicted_bindings")

    __slots__ = _FIELDS + ("_flushed",)

    def __init__(self) -> None:
        self.bindings_explored = 0
        self.index_hits = 0
        self.index_misses = 0
        self.full_scans = 0
        self.delta_scans = 0
        #: firings skipped because a non-delta body relation was empty
        self.empty_skips = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: kernel compiles served by the shape-keyed code cache
        self.shape_hits = 0
        #: rules whose join order a PlanAdvisor chose (advisor_reorders of
        #: them differing from the greedy default); advisor_predicted_bindings
        #: accumulates the advisor's cost predictions so the benchmark gate
        #: can compare them against the measured bindings_explored
        self.advisor_rules = 0
        self.advisor_reorders = 0
        self.advisor_predicted_bindings = 0
        self._flushed: dict[str, int] = {}

    def flush_into(self, counters: Counters) -> None:
        """Add the not-yet-flushed deltas to ``counters`` (idempotent)."""
        for name in self._FIELDS:
            value = getattr(self, name)
            previous = self._flushed.get(name, 0)
            if value > previous:
                counters.add("plan." + name, value - previous)
                self._flushed[name] = value


class JoinStep:
    """One body atom, compiled: source selection plus match programs."""

    __slots__ = ("position", "key", "use_delta", "scan_ops", "residual_ops",
                 "index_positions", "index_values", "single_slot", "ineqs")

    def __init__(self, position: int, key: RelationKey, use_delta: bool,
                 scan_ops: tuple, residual_ops: tuple,
                 index_positions: tuple[int, ...], index_values: tuple,
                 ineqs: tuple) -> None:
        self.position = position
        self.key = key
        self.use_delta = use_delta
        self.scan_ops = scan_ops
        self.residual_ops = residual_ops
        self.index_positions = index_positions
        self.index_values = index_values
        #: fast path for the overwhelmingly common probe shape -- a single
        #: index position fed by one bound slot (no builder allocation)
        self.single_slot = (index_values[0][1]
                            if len(index_values) == 1 and index_values[0][0] == "s"
                            else None)
        self.ineqs = ineqs


class JoinPlan:
    """A rule compiled for bottom-up evaluation (optionally delta-restricted)."""

    __slots__ = ("rule", "delta_position", "steps", "join_keys", "pre_checks",
                 "negated", "head_key", "head_builders", "batched_kernel")

    def __init__(self, rule: Rule, delta_position: int | None = None,
                 order: Sequence[int] | None = None) -> None:
        self.rule = rule
        self.delta_position = delta_position
        #: lazily generated columnar kernel (repro.datalog.batch); caching
        #: it here lets the shared plan cache amortize codegen too
        self.batched_kernel: Kernel | None = None
        if order is None:
            order = _order_body(rule, delta_position)
        else:
            order = list(order)
            if sorted(order) != list(range(len(rule.body))):
                raise ValueError(
                    f"join order {order} is not a permutation of the "
                    f"{len(rule.body)} body positions of {rule}")
            if delta_position is not None and (
                    not order or order[0] != delta_position):
                raise ValueError(
                    f"join order {order} must start with the delta "
                    f"position {delta_position} (semi-naive soundness)")
        slot_of = _assign_slots(rule, order)

        # Schedule inequalities at the earliest execution step where both
        # sides are ground; variable-free constraints run once up front.
        placement = place_inequalities(rule.inequalities, (),
                                       [rule.body[p] for p in order])
        self.pre_checks = _compile_ineqs(placement[0], slot_of)

        steps: list[JoinStep] = []
        bound: set[Var] = set()
        for k, position in enumerate(order):
            atom = rule.body[position]
            use_delta = (position == delta_position)
            scan_ops, residual_ops, index_positions, index_values, bound = (
                _compile_atom(atom, slot_of, bound, probe=not use_delta))
            steps.append(JoinStep(
                position=position, key=atom.key(), use_delta=use_delta,
                scan_ops=scan_ops, residual_ops=residual_ops,
                index_positions=index_positions, index_values=index_values,
                ineqs=_compile_ineqs(placement[k + 1], slot_of)))
        self.steps = tuple(steps)
        #: the relations the non-delta steps read: while any is empty, a
        #: firing joins nothing (the evaluators skip it)
        self.join_keys = tuple(dict.fromkeys(
            step.key for step in steps if not step.use_delta))

        self.negated = tuple(
            (atom.key(), tuple(compile_builder(a, slot_of) for a in atom.args))
            for atom in rule.negated)
        self.head_key = rule.head.key()
        self.head_builders = tuple(compile_builder(a, slot_of)
                                   for a in rule.head.args)

    def __repr__(self) -> str:
        order = [s.position for s in self.steps]
        return (f"JoinPlan({self.rule!s}, order={order}, "
                f"delta={self.delta_position})")


# -- compilation helpers ---------------------------------------------------------


def _arg_bound(arg: Term, bound: set[Var]) -> bool:
    """Whether an argument is usable for an index probe given bound vars."""
    if isinstance(arg, Var):
        return arg in bound
    if arg._ground:
        return True
    return all(v in bound for v in variables_of(arg))


def _compile_atom(atom: Atom, slot_of: dict[Var, int], bound: set[Var],
                  probe: bool) -> tuple[tuple, tuple, tuple[int, ...], tuple, set[Var]]:
    """Compile one body atom, matched after the variables ``bound``.

    Returns its scan ops, then -- when ``probe`` allows an index probe
    and some position is indexable -- the ops left over after the probe,
    the probe positions and their value builders (else the scan ops and
    two empty tuples), and finally the variables bound after the atom.
    """
    seen = set(bound)
    scan_ops: list[tuple] = []
    indexable: dict[int, tuple] = {}
    for i, arg in enumerate(atom.args):
        op = compile_term_match(arg, slot_of, seen)
        kind = op[0]
        if kind == "w":
            scan_ops.append(("store", i, op[1]))
        elif kind == "s":
            scan_ops.append(("check", i, op[1]))
        elif kind == "c":
            scan_ops.append(("const", i, op[1]))
        else:
            scan_ops.append(("match", i, op))
        # A position is usable for the index probe only when its value is
        # computable *before* iterating this atom's facts: ground, or built
        # from variables bound by earlier steps.  A variable's repeat
        # occurrence within the same atom does NOT qualify -- its slot is
        # written by the very fact being probed for.
        if probe and _arg_bound(arg, bound):
            indexable[i] = compile_builder(arg, slot_of)
    ops = tuple(scan_ops)
    if not indexable:
        return ops, ops, (), (), seen
    positions = tuple(sorted(indexable))
    return (ops, tuple(op for op in ops if op[1] not in indexable), positions,
            tuple(indexable[i] for i in positions), seen)


def _compile_ineqs(inequalities: Sequence[Inequality],
                   slot_of: dict[Var, int]) -> tuple:
    return tuple((compile_builder(c.left, slot_of), compile_builder(c.right, slot_of))
                 for c in inequalities)


def _order_body(rule: Rule, delta_position: int | None) -> list[int]:
    """Most-bound-first greedy body order; the delta atom is pinned first.

    The score of a candidate atom is the number of argument positions an
    index probe could use; ties fall back to the written order (the
    paper's sideways-information-passing reading).
    """
    remaining = list(range(len(rule.body)))
    order: list[int] = []
    bound: set[Var] = set()
    if delta_position is not None:
        order.append(delta_position)
        remaining.remove(delta_position)
        bound.update(rule.body[delta_position].variables())
    while remaining:
        best = remaining[0]
        best_score = -1
        for position in remaining:
            atom = rule.body[position]
            score = sum(1 for arg in atom.args if _arg_bound(arg, bound))
            if score > best_score:
                best, best_score = position, score
        order.append(best)
        remaining.remove(best)
        bound.update(rule.body[best].variables())
    return order


def _assign_slots(rule: Rule, order: Sequence[int]) -> dict[Var, int]:
    """Slot numbers for every rule variable, in execution-order occurrence."""
    slot_of: dict[Var, int] = {}
    for position in order:
        for var in rule.body[position].variables():
            if var not in slot_of:
                slot_of[var] = len(slot_of)
    for var in rule.variables():
        if var not in slot_of:
            slot_of[var] = len(slot_of)
    return slot_of


# -- the plan cache --------------------------------------------------------------

#: plans per (rule, delta_position); a bounded LRU so long-running
#: processes that keep generating fresh rewritten rules (every dQSQ
#: diagnosis mints unique sup-relations) cannot grow it without bound,
#: while hot plans (recursive rules fired every round) stay resident
_PLAN_CACHE: OrderedDict[tuple[Rule, int | None, tuple[int, ...] | None],
                         JoinPlan] = OrderedDict()
_PLAN_CACHE_MAX = 16384
_PLAN_CACHE_EVICTIONS = 0
#: kernel code objects per generated source text (same LRU bound): the
#: kernel generator moves every relation key, constant and function name
#: into the closure environment, so rules that differ only in those
#: generate the same source and share one ``compile()``
_KERNEL_CODE: OrderedDict[str, CodeType] = OrderedDict()
#: the caches besides the plan cache that share its LRU bound and its
#: clearing: the kernel code cache and those made by :func:`bounded_cache`
_BOUNDED: list[OrderedDict] = [_KERNEL_CODE]


def bounded_cache() -> OrderedDict:
    """A new LRU map bounded by :func:`set_plan_cache_limit` and emptied
    by :func:`clear_plan_cache` (fill it with :func:`lru_put`)."""
    cache: OrderedDict = OrderedDict()
    _BOUNDED.append(cache)
    return cache


def lru_put(cache: OrderedDict, key: object, value: object) -> None:
    """Insert into a bounded cache, evicting the least recently used entry
    when it is full (hits refresh with ``cache.move_to_end``)."""
    if len(cache) >= _PLAN_CACHE_MAX:
        cache.popitem(last=False)
    cache[key] = value


def compile_join_plan(rule: Rule, delta_position: int | None = None,
                      counters: Counters | None = None,
                      stats: PlanStats | None = None,
                      order: tuple[int, ...] | None = None) -> JoinPlan:
    """The cached compiled plan for ``rule`` (optionally delta-restricted).

    Hits refresh the entry's LRU position; a miss that overflows the
    capacity evicts the least-recently-used plan (recorded under
    ``plan.cache_evictions``).  Eviction only ever costs recompilation:
    plans are pure functions of ``(rule, delta_position, order)``, so
    answers are unaffected (a regression-tested invariant).  ``order``,
    when given (by a :class:`~repro.datalog.cost.PlanAdvisor`), overrides
    the greedy most-bound-first body order.
    """
    global _PLAN_CACHE_EVICTIONS
    key = (rule, delta_position, order)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = JoinPlan(rule, delta_position, order)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
            _PLAN_CACHE_EVICTIONS += 1
            if stats is not None:
                stats.cache_evictions += 1
            if counters is not None:
                counters.add("plan.cache_evictions")
        _PLAN_CACHE[key] = plan
        if counters is not None:
            counters.add("plan.cache_misses")
    else:
        _PLAN_CACHE.move_to_end(key)
        if counters is not None:
            counters.add("plan.cache_hits")
    return plan


def kernel_code(source: str, stats: PlanStats | None = None) -> CodeType:
    """The cached code object of a generated kernel source (``plan.shape_hits``)."""
    code = _KERNEL_CODE.get(source)
    if code is None:
        code = compile(source, "<batched-kernel>", "exec")
        lru_put(_KERNEL_CODE, source, code)
    else:
        _KERNEL_CODE.move_to_end(source)
        if stats is not None:
            stats.shape_hits += 1
    return code


def plan_for(cache: dict, stats: PlanStats, rule: Rule,
             delta_position: int | None,
             advisor: "PlanAdvisor | None" = None) -> JoinPlan:
    """Two-level plan lookup for an evaluator's fire loop.

    ``cache`` is the evaluator's own dict keyed by ``(id(rule),
    delta_position)``: identity keys skip the deep ``Rule.__eq__`` chains
    a per-fire equality lookup would pay.  Misses fall through to the
    shared equality-keyed cache, so structurally equal rules from
    repeated rewritings still share one compilation.  The plan (which
    holds the rule strongly) pins the id for the cache's lifetime.

    ``advisor`` (a :class:`~repro.datalog.cost.PlanAdvisor`) is consulted
    once per evaluator-cache miss: its cost-based join order replaces the
    greedy default, and its prediction lands in the ``advisor_*`` stats so
    runs can audit predicted vs measured ``bindings_explored``.
    """
    key = (id(rule), delta_position)
    plan = cache.get(key)
    if plan is None:
        order: tuple[int, ...] | None = None
        if advisor is not None and len(rule.body) > 1:
            choice = advisor.choice(rule, delta_position)
            order = choice.order
            stats.advisor_rules += 1
            if choice.reordered:
                stats.advisor_reorders += 1
            predicted = choice.predicted.cost.count
            if predicted != float("inf"):
                stats.advisor_predicted_bindings += int(min(predicted, 2**53))
        plan = compile_join_plan(rule, delta_position, stats=stats,
                                 order=order)
        cache[key] = plan
        stats.cache_misses += 1
    else:
        stats.cache_hits += 1
    return plan


def plan_cache_size() -> int:
    return len(_PLAN_CACHE)


def plan_cache_evictions() -> int:
    """Process-lifetime LRU evictions from the shared plan cache."""
    return _PLAN_CACHE_EVICTIONS


def set_plan_cache_limit(limit: int) -> int:
    """Set the shared cache's LRU capacity; returns the previous limit.

    The kernel code cache and every :func:`bounded_cache` (the QSQ
    rewriting memo) share it.  Mainly a test hook (the eviction
    regression suite shrinks the cache to force churn); shrinking evicts
    immediately, oldest first.
    """
    global _PLAN_CACHE_MAX, _PLAN_CACHE_EVICTIONS
    previous = _PLAN_CACHE_MAX
    _PLAN_CACHE_MAX = max(1, limit)
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE_EVICTIONS += 1
    for cache in _BOUNDED:
        while len(cache) > _PLAN_CACHE_MAX:
            cache.popitem(last=False)
    return previous


def clear_plan_cache() -> None:
    """Empty the plan cache, the kernel code cache and every other
    :func:`bounded_cache` -- the QSQ rewriting memo among them (cold runs
    stay cold)."""
    _PLAN_CACHE.clear()
    for cache in _BOUNDED:
        cache.clear()


# -- QSQR rule plans -------------------------------------------------------------


class QsqrStep:
    """One body atom of a QSQR rule plan (original order is semantic)."""

    __slots__ = ("key", "is_idb", "sub_key", "demand_builders", "scan_ops",
                 "residual_ops", "index_positions", "index_values",
                 "single_slot", "ineqs")

    def __init__(self, key: RelationKey, is_idb: bool, sub_key: tuple | None,
                 demand_builders: tuple, scan_ops: tuple, residual_ops: tuple,
                 index_positions: tuple, index_values: tuple,
                 ineqs: tuple) -> None:
        self.key = key
        self.is_idb = is_idb
        self.sub_key = sub_key
        self.demand_builders = demand_builders
        self.scan_ops = scan_ops
        self.residual_ops = residual_ops
        self.index_positions = index_positions
        self.index_values = index_values
        self.single_slot = (index_values[0][1]
                            if len(index_values) == 1 and index_values[0][0] == "s"
                            else None)
        self.ineqs = ineqs


class QsqrRulePlan:
    """A rule compiled for one demand adornment (QSQR's top-down join).

    Unlike :class:`JoinPlan`, the body is **not** reordered: the demands
    QSQR generates (and hence its termination behaviour on
    function-symbol programs) depend on the left-to-right sideways
    information passing, which is part of the algorithm's definition.
    The wins here are the slot bindings, precomputed index positions for
    EDB atoms, statically known sub-demand keys/adornments, and the
    baked-in inequality schedule.
    """

    __slots__ = ("rule", "nslots", "head_match_ops", "pre_checks", "steps",
                 "head_builders")

    def __init__(self, rule: Rule, bound_positions: tuple[int, ...],
                 idb: set[RelationKey]) -> None:
        self.rule = rule
        slot_of = {var: slot for slot, var in enumerate(first_occurrences(
            chain(rule.head.variables(), *(atom.variables() for atom in rule.body))))}
        self.nslots = len(slot_of)

        seen: set[Var] = set()
        self.head_match_ops = tuple(
            compile_term_match(rule.head.args[p], slot_of, seen)
            for p in bound_positions)

        placement = place_inequalities(rule.inequalities, seen, rule.body)
        self.pre_checks = _compile_ineqs(placement[0], slot_of)

        steps: list[QsqrStep] = []
        bound = seen
        for k, atom in enumerate(rule.body):
            is_idb = atom.key() in idb
            sub_key = None
            demand_builders: tuple = ()
            if is_idb:
                adornment = Adornment.from_atom(atom, bound)
                sub_key = (atom.relation, atom.peer, adornment.pattern)
                demand_builders = tuple(
                    compile_builder(atom.args[p], slot_of)
                    for p in adornment.bound_positions())
            scan_ops, residual_ops, index_positions, index_values, bound = (
                _compile_atom(atom, slot_of, bound, probe=not is_idb))
            steps.append(QsqrStep(
                key=atom.key(), is_idb=is_idb, sub_key=sub_key,
                demand_builders=demand_builders, scan_ops=scan_ops,
                residual_ops=residual_ops, index_positions=index_positions,
                index_values=index_values,
                ineqs=_compile_ineqs(placement[k + 1], slot_of)))
        self.steps = tuple(steps)
        self.head_builders = tuple(compile_builder(a, slot_of)
                                   for a in rule.head.args)

    def match_demand(self, bound: Sequence[Term], slots: list) -> bool:
        """Match a ground demand tuple against the bound head positions."""
        for op, value in zip(self.head_match_ops, bound):
            if not run_term_match(op, value, slots):
                return False
        return bool(ineqs_hold(self.pre_checks, slots)) if self.pre_checks else True

    def head_args(self, slots: list) -> Fact:
        return tuple(run_builder(b, slots) for b in self.head_builders)
