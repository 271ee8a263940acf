"""An incremental CDCL SAT solver (conflict-driven clause learning).

This is the reproduction's stand-in for MiniSat/PySAT, used by the
equivalence checker and by the adversary's decamouflaging attacks.  It
implements the standard modern architecture:

* two-literal watching for unit propagation,
* 1UIP conflict analysis with clause learning and non-chronological
  backtracking,
* VSIDS-style activity-based decision heuristics with phase saving,
* geometric restarts with size-based learned-clause database reduction.

The solver works on :class:`repro.sat.cnf.Cnf` formulas with DIMACS-style
integer literals and supports solving under assumptions.

Incremental interface
---------------------

A :class:`SatSolver` is a *live* object, in the MiniSat mould, rather than a
one-shot function over a frozen formula:

* :meth:`SatSolver.add_clause` accepts new clauses at any time — also after
  a :meth:`solve` call.  The solver backtracks to decision level 0, attaches
  watches, simplifies the clause against the level-0 assignment, propagates
  new units, and records permanent unsatisfiability when the addition
  closes the formula.
* :meth:`SatSolver.reserve_vars` / :meth:`SatSolver.new_var` grow the
  per-variable arrays on demand; :meth:`add_clause` auto-grows when a
  clause references a variable beyond the current range.
* Learned clauses, VSIDS activities, and saved phases are all *kept* across
  successive :meth:`solve` calls, so a sequence of related queries (the DIP
  loop of the oracle-guided attack, candidate enumeration, miter checks
  under different activation literals) gets cheaper as the solver warms up.
* Solving under *assumptions* distinguishes "UNSAT under these assumptions"
  (a later call with other assumptions may succeed) from outright
  unsatisfiability of the clause database (permanent: every later call
  fails immediately).

A solver can also *follow* a growing :class:`~repro.sat.cnf.Cnf`: construct
it with ``SatSolver(cnf, follow=True)`` and every subsequent
``cnf.new_var()`` / ``cnf.add_clause()`` is mirrored into the live solver,
so client code keeps a readable CNF record (names, DIMACS export) while the
solver incrementally ingests the formula.

Statistics are kept both cumulatively on the solver (``solver.conflicts``,
``solver.stats()``) and per call on the returned :class:`SatResult`
(``result.conflicts`` is the number of conflicts *this* call needed).

Data layout
-----------

The pure solver keeps MiniSat's layout (Eén & Sörensson, "An Extensible
SAT-solver", SAT 2003) so the interpreter does as little per literal as
it can.  The search itself is fixed: the compiled core in
``repro._native._core`` mirrors it step for step, and the solver-work
counters are pinned in the tests and the benchmark of record.

* Assignments and watch lists are *literal-indexed*: one list of
  ``2 * capacity + 1`` slots each, where literal ``l`` lives at index
  ``l`` and a negative literal reaches its slot through Python's negative
  indexing.  Reading a literal's value is one list lookup, with no
  ``abs`` and no sign flip.  Growth opens a gap between the positive and
  the negative halves, and the capacity at least doubles each time, so
  a follow-mode ``cnf.new_var()`` costs amortised O(1).
* Every unassigned variable has exactly *one live entry* in the VSIDS
  order heap, carrying its current activity.  A backtrack pushes a
  variable only when its live entry is gone or its activity has moved,
  and the live mark is cleared when the pick discards that entry.  Stale
  entries still exist, so the pick discards them lazily, and it returns
  the minimum over valid entries.  The decision sequence is therefore
  the same as with one push per unassignment.
"""

from __future__ import annotations

import heapq
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..faults import fault_fires, faults_enabled
from ..obs import metrics as obs_metrics
from .cnf import Cnf

__all__ = [
    "SatResult",
    "SatSolver",
    "SolveBudget",
    "SolveBudgetExceeded",
    "solve",
    "BUDGET_ENV_VAR",
]

#: Environment variable supplying a default per-call solve budget spec.
BUDGET_ENV_VAR = "REPRO_SOLVE_BUDGET"


class SolveBudgetExceeded(RuntimeError):
    """A solve-dependent answer could not be produced within its budget.

    Raised by clients (equivalence checking, plausibility oracles) whose
    callers need a definite yes/no: an UNKNOWN verdict must never be
    silently coerced into SAT or UNSAT, so it surfaces as this exception
    instead.  The campaign runner classifies it as a *transient* failure
    and retries the job with an escalated budget.
    """


@dataclass(frozen=True)
class SolveBudget:
    """Per-``solve``-call resource limits (``None`` = unlimited).

    A budget turns the solver's open-ended search into an anytime
    computation: when any limit is hit the call returns a result with
    ``status == "unknown"`` instead of running forever.  Limits are per
    call, not cumulative over the solver's lifetime.
    """

    max_conflicts: Optional[int] = None
    max_propagations: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        for name in ("max_conflicts", "max_propagations", "max_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def unbounded(self) -> bool:
        """True when no limit is set (equivalent to no budget at all)."""
        return (
            self.max_conflicts is None
            and self.max_propagations is None
            and self.max_seconds is None
        )

    def scaled(self, factor: float) -> "SolveBudget":
        """A budget with every limit multiplied by ``factor`` (escalation)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return SolveBudget(
            max_conflicts=(
                None if self.max_conflicts is None else max(1, int(self.max_conflicts * factor))
            ),
            max_propagations=(
                None
                if self.max_propagations is None
                else max(1, int(self.max_propagations * factor))
            ),
            max_seconds=None if self.max_seconds is None else self.max_seconds * factor,
        )

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (used to ship budgets to workers)."""
        parts = []
        if self.max_conflicts is not None:
            parts.append(f"conflicts={self.max_conflicts}")
        if self.max_propagations is not None:
            parts.append(f"propagations={self.max_propagations}")
        if self.max_seconds is not None:
            parts.append(f"seconds={self.max_seconds}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "SolveBudget":
        """Parse ``"conflicts=20000,propagations=5e6,seconds=2.5"``."""
        limits: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            key = key.strip()
            if not separator or key not in ("conflicts", "propagations", "seconds"):
                raise ValueError(
                    f"bad solve-budget entry {part!r}; expected "
                    "conflicts=N, propagations=N, or seconds=X"
                )
            limits[key] = float(value)
        return cls(
            max_conflicts=int(limits["conflicts"]) if "conflicts" in limits else None,
            max_propagations=(
                int(limits["propagations"]) if "propagations" in limits else None
            ),
            max_seconds=limits.get("seconds"),
        )

    @classmethod
    def from_environment(cls) -> Optional["SolveBudget"]:
        """Budget from ``REPRO_SOLVE_BUDGET``, or None when unset/empty."""
        raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
        if not raw:
            return None
        budget = cls.from_spec(raw)
        return None if budget.unbounded else budget


@dataclass
class SatResult:
    """Outcome of a SAT call (statistics are per call, not cumulative).

    ``status`` is the three-valued verdict: ``"sat"``, ``"unsat"``, or
    ``"unknown"`` (solve budget exhausted / injected fault).  The historic
    ``satisfiable`` flag is kept in sync for two-valued callers — but an
    UNKNOWN result reports ``satisfiable=False``, so budget-aware callers
    must check :attr:`unknown` before trusting it.
    """

    satisfiable: bool
    model: Dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    status: str = ""

    def __post_init__(self):
        if not self.status:
            self.status = "sat" if self.satisfiable else "unsat"

    @property
    def unknown(self) -> bool:
        """True when the call exhausted its budget without a verdict."""
        return self.status == "unknown"

    def value(self, variable: int) -> Optional[bool]:
        """Value of a variable in the model (None when unconstrained/UNSAT)."""
        return self.model.get(variable)


class SatSolver:
    """Incremental CDCL solver over a growable clause database."""

    def __init__(
        self,
        formula: Optional[Cnf] = None,
        follow: bool = False,
        backend: Optional[str] = None,
    ):
        from .. import backend as backend_mod

        self.backend = backend_mod.active_backend(backend)
        self._core = None
        if self.backend == "native":
            self._core = backend_mod.native_module().SolverCore()
        self._num_vars = 0
        # Slots the literal-indexed arrays hold per polarity; doubles on
        # growth (see reserve_vars).
        self._capacity = 0
        self._clauses: List[List[int]] = []
        self._learned_flags: List[bool] = []
        self._num_learned = 0
        # Problem clauses as added by the client, including units and
        # clauses simplified away at level 0 (which never reach _clauses).
        self._num_problem_clauses = 0
        # Literal-indexed: slot l for literal l, negative literals through
        # Python's negative indexing.  _value[l] is 1 (true), -1 (false) or
        # 0 (unassigned); _watches[l] lists the clauses watching l.
        self._value: List[int] = [0]
        self._watches: List[Optional[List[int]]] = [None]
        # Variable-indexed.  _reason is read only while its variable is
        # assigned (every assignment sets it).
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Lazy max-heap of branching candidates as (-activity, variable)
        # entries; stale entries (assigned variables, outdated activities)
        # are discarded on pop.  Picks the same variable as a linear scan —
        # highest activity, lowest index on ties — in O(log n).
        # _heap_live[v] is the key of v's one live entry (None when v has
        # none), so a backtrack pushes only when v's activity has moved.
        self._order_heap: List[Tuple[float, int]] = []
        self._heap_live: List[Optional[float]] = [None]
        self._queue_head = 0
        self._activity_increment = 1.0
        self._activity_decay = 0.95
        self._trivially_unsat = False

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solve_calls = 0
        self.restarts = 0
        self.budget_exhaustions = 0
        # Budget exhaustions recorded outside the native core (fault
        # injection); added to the core's own count when mirroring.
        self._extra_budget_exhaustions = 0

        if formula is not None:
            self.reserve_vars(formula.num_vars)
            for clause in formula.clauses:
                self.add_clause(clause)
            if follow:
                formula.attach(self)

    # -------------------------------------------------------------- #
    # Variable management
    # -------------------------------------------------------------- #
    @property
    def num_vars(self) -> int:
        """Number of variables the solver currently knows about."""
        return self._num_vars

    def _sync_counters(self) -> None:
        """Mirror the native core's counters onto the Python attributes."""
        core = self._core
        self.conflicts = core.conflicts
        self.decisions = core.decisions
        self.propagations = core.propagations
        self.restarts = core.restarts
        self.budget_exhaustions = (
            core.budget_exhaustions + self._extra_budget_exhaustions
        )
        self._num_vars = core.num_vars
        self._num_learned = core.num_learned
        self._trivially_unsat = bool(core.trivially_unsat)

    def reserve_vars(self, num_vars: int) -> None:
        """Grow the per-variable arrays so variables up to ``num_vars`` exist."""
        if self._core is not None:
            self._core.reserve_vars(num_vars)
            self._num_vars = self._core.num_vars
            return
        grow = num_vars - self._num_vars
        if grow <= 0:
            return
        if num_vars > self._capacity:
            # Open a gap between the positive and the negative slots; the
            # negative ones keep their offset from the end of the list.
            # Watch lists are made as their variables come into range.
            capacity = self._capacity
            new_capacity = max(num_vars, 2 * capacity)
            pad = 2 * (new_capacity - capacity)
            self._value = self._value[: capacity + 1] + [0] * pad + self._value[capacity + 1 :]
            self._watches = (
                self._watches[: capacity + 1] + [None] * pad + self._watches[capacity + 1 :]
            )
            self._capacity = new_capacity
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([False] * grow)
        self._seen.extend([False] * grow)
        self._heap_live.extend([-0.0] * grow)
        watches = self._watches
        for variable in range(self._num_vars + 1, num_vars + 1):
            watches[variable] = []
            watches[-variable] = []
            heapq.heappush(self._order_heap, (-0.0, variable))
        self._num_vars = num_vars

    def new_var(self) -> int:
        """Allocate (and return) a fresh variable."""
        self.reserve_vars(self._num_vars + 1)
        return self._num_vars

    # ---- Cnf follow hooks (see Cnf.attach) ----------------------- #
    def on_new_var(self, variable: int) -> None:
        self.reserve_vars(variable)

    def on_clause(self, clause: Sequence[int]) -> None:
        self.add_clause(clause)

    # -------------------------------------------------------------- #
    # Clause management
    # -------------------------------------------------------------- #
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause to the live solver (allowed between solve calls).

        The clause is simplified against the permanent (level-0) assignment:
        satisfied clauses are dropped, falsified literals are removed, and a
        resulting unit is propagated immediately.  An empty (or fully
        falsified) clause makes the solver permanently UNSAT.
        """
        clause = list(literals)
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
        self._num_problem_clauses += 1
        if self._trivially_unsat:
            return
        if self._core is not None:
            self._core.add_clause(clause)
            self._sync_counters()
            return
        self._backtrack(0)
        if clause:
            self.reserve_vars(max(abs(literal) for literal in clause))
        # Remove duplicates and level-0-falsified literals; drop tautologies
        # and clauses already satisfied at level 0.
        value = self._value
        seen = set()
        cleaned: List[int] = []
        for literal in clause:
            if -literal in seen:
                return
            if literal in seen:
                continue
            if value[literal] == 1:
                return
            if value[literal] == -1:
                continue
            seen.add(literal)
            cleaned.append(literal)
        if not cleaned:
            self._trivially_unsat = True
            return
        if len(cleaned) == 1:
            self._assign(cleaned[0], None)
            if self._propagate() is not None:
                self._trivially_unsat = True
            return
        self._attach_clause(cleaned)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def _attach_clause(self, literals: List[int], learned: bool = False) -> int:
        index = len(self._clauses)
        self._clauses.append(literals)
        self._learned_flags.append(learned)
        if learned:
            self._num_learned += 1
        self._watches[literals[0]].append(index)
        self._watches[literals[1]].append(index)
        return index

    def _assign(self, literal: int, reason: Optional[int]) -> None:
        """Make the unassigned ``literal`` true at the current level."""
        variable = abs(literal)
        self._value[literal] = 1
        self._value[-literal] = -1
        self._level[variable] = len(self._trail_lim)
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)

    # -------------------------------------------------------------- #
    # Unit propagation with two watched literals
    # -------------------------------------------------------------- #
    def _propagate(self) -> Optional[int]:
        # The hot loop: attributes live in locals, _assign is inlined, and
        # the counters are written back however the loop ends.
        trail = self._trail
        clauses = self._clauses
        watches = self._watches
        value = self._value
        level = self._level
        reason = self._reason
        phase = self._phase
        current_level = len(self._trail_lim)
        head = self._queue_head
        propagations = self.propagations
        try:
            while head < len(trail):
                falsified = -trail[head]
                head += 1
                propagations += 1
                watchers = watches[falsified]
                index = 0
                # The list only shrinks below: new watches go to other lists.
                end = len(watchers)
                while index < end:
                    clause_index = watchers[index]
                    clause = clauses[clause_index]
                    # Keep the falsified literal in position 1.  The swaps
                    # move the clause's own int objects: storing the fresh
                    # `falsified` would duplicate one per moved watch.
                    first = clause[0]
                    if first == falsified:
                        first = clause[1]
                        clause[1] = clause[0]
                        clause[0] = first
                    if value[first] == 1:
                        index += 1
                        continue
                    # Look for a new literal to watch.
                    for position in range(2, len(clause)):
                        candidate = clause[position]
                        if value[candidate] != -1:
                            clause[position] = clause[1]
                            clause[1] = candidate
                            watches[candidate].append(clause_index)
                            end -= 1
                            watchers[index] = watchers[end]
                            watchers.pop()
                            break
                    else:
                        # Clause is unit or conflicting.
                        if value[first] == -1:
                            return clause_index
                        variable = first if first > 0 else -first
                        value[first] = 1
                        value[-first] = -1
                        level[variable] = current_level
                        reason[variable] = clause_index
                        phase[variable] = first > 0
                        trail.append(first)
                        index += 1
            return None
        finally:
            self._queue_head = head
            self.propagations = propagations

    # -------------------------------------------------------------- #
    # Conflict analysis (first UIP)
    # -------------------------------------------------------------- #
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        clauses = self._clauses
        level = self._level
        reason = self._reason
        activity = self._activity
        seen = self._seen
        trail = self._trail
        increment = self._activity_increment
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        literal = 0
        clause = clauses[conflict_index]
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            for clause_literal in clause:
                # Skip the literal we are resolving on (the implied literal of
                # the reason clause); everything else is examined.
                if clause_literal == literal:
                    continue
                variable = clause_literal if clause_literal > 0 else -clause_literal
                if seen[variable]:
                    continue
                variable_level = level[variable]
                if variable_level == 0:
                    continue
                seen[variable] = True
                activity[variable] += increment
                if activity[variable] > 1e100:
                    for index in range(1, self._num_vars + 1):
                        activity[index] *= 1e-100
                    increment *= 1e-100
                    self._activity_increment = increment
                    # Every heap key is stale after rescaling.
                    self._rebuild_order_heap()
                if variable_level == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal of the current level on the trail.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                variable = literal if literal > 0 else -literal
                if seen[variable]:
                    break
            seen[variable] = False
            counter -= 1
            if counter == 0:
                break
            clause = clauses[reason[variable]]

        learned[0] = -literal
        # Only the lower-level literals are still marked.
        for clause_literal in learned[1:]:
            seen[abs(clause_literal)] = False
        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Move the highest-level literal (other than the asserting one)
            # to position 1 so it can be watched.
            best = 1
            best_level = level[abs(learned[1])]
            for position in range(2, len(learned)):
                position_level = level[abs(learned[position])]
                if position_level > best_level:
                    best = position
                    best_level = position_level
            learned[1], learned[best] = learned[best], learned[1]
            backtrack_level = best_level
        return learned, backtrack_level

    def _rebuild_order_heap(self) -> None:
        """One live entry per unassigned variable, at its current activity."""
        value = self._value
        activity = self._activity
        live: List[Optional[float]] = [None] * (self._num_vars + 1)
        heap = []
        for variable in range(1, self._num_vars + 1):
            if value[variable] == 0:
                key = -activity[variable]
                live[variable] = key
                heap.append((key, variable))
        heapq.heapify(heap)
        self._order_heap = heap
        self._heap_live = live

    # -------------------------------------------------------------- #
    # Backtracking / restarts
    # -------------------------------------------------------------- #
    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        value = self._value
        activity = self._activity
        live = self._heap_live
        heap = self._order_heap
        boundary = trail_lim[level]
        for index in range(len(trail) - 1, boundary - 1, -1):
            literal = trail[index]
            value[literal] = 0
            value[-literal] = 0
            variable = literal if literal > 0 else -literal
            # An activity only moves while its variable is assigned, so an
            # entry that is still live is still valid.
            key = -activity[variable]
            if live[variable] != key:
                live[variable] = key
                heapq.heappush(heap, (key, variable))
        del trail[boundary:]
        del trail_lim[level:]
        self._queue_head = len(trail)

    def _reduce_learned(self, keep_fraction: float = 0.5) -> None:
        """Drop long, inactive learned clauses (simple size-based policy)."""
        # Only safe at decision level 0 with no active reasons.
        if self._trail_lim or self._num_learned < 2000:
            return
        # Rebuild the watch lists in the same pass, in new-index order
        # (original and short learned clauses, then the newest long ones),
        # after freeing the old ones.
        watches = self._watches
        for literal in range(1, self._num_vars + 1):
            watches[literal].clear()
            watches[-literal].clear()
        kept_clauses: List[List[int]] = []
        kept_flags: List[bool] = []
        long_clauses: List[List[int]] = []
        for clause, learned in zip(self._clauses, self._learned_flags):
            if learned and len(clause) > 4:
                long_clauses.append(clause)
                continue
            index = len(kept_clauses)
            watches[clause[0]].append(index)
            watches[clause[1]].append(index)
            kept_clauses.append(clause)
            kept_flags.append(learned)
        keep_count = int(len(long_clauses) * keep_fraction)
        for clause in long_clauses[len(long_clauses) - keep_count :]:
            index = len(kept_clauses)
            watches[clause[0]].append(index)
            watches[clause[1]].append(index)
            kept_clauses.append(clause)
            kept_flags.append(True)
        self._clauses = kept_clauses
        self._learned_flags = kept_flags
        self._num_learned = sum(kept_flags)
        # No clause needs to survive as a reason: at level 0 the only
        # reasons belong to level-0 assignments, which conflict analysis
        # skips; drop the stale indices all the same.
        self._reason = [None] * (self._num_vars + 1)

    # -------------------------------------------------------------- #
    # Decisions
    # -------------------------------------------------------------- #
    def _pick_branch_variable(self) -> Optional[int]:
        # Stale entries are discarded lazily at the top, so on long-lived
        # solvers the heap can still collect outdated keys; compact it once
        # it clearly outgrows the variable range.
        if len(self._order_heap) > 64 + 4 * self._num_vars:
            self._rebuild_order_heap()
        heap = self._order_heap
        value = self._value
        activity = self._activity
        live = self._heap_live
        while heap:
            key, variable = heap[0]
            if value[variable] == 0 and -key == activity[variable]:
                return variable
            heapq.heappop(heap)
            if live[variable] == key:
                live[variable] = None
        return None

    # -------------------------------------------------------------- #
    # Main loop
    # -------------------------------------------------------------- #
    def solve(
        self, assumptions: Sequence[int] = (), budget: Optional[SolveBudget] = None
    ) -> SatResult:
        """Solve the current clause database, optionally under assumptions.

        Assumptions are literals tried as the first decisions; a failure
        that traces back to them means *UNSAT under these assumptions* and
        leaves the solver usable for later calls, while a conflict at
        decision level 0 proves the clause database itself unsatisfiable
        (every later call returns UNSAT immediately).

        With a :class:`SolveBudget` the call additionally returns a result
        with ``status == "unknown"`` once any limit is hit (checked at
        conflict events, so the unbudgeted hot path pays a single ``is
        None`` test per conflict).  The solver stays usable afterwards —
        re-solving with a larger budget resumes from the learned clauses
        accumulated so far.
        """
        self.solve_calls += 1
        stats_base = (self.conflicts, self.decisions, self.propagations)
        for literal in assumptions:
            if literal == 0:
                raise ValueError("0 is not a valid assumption literal")
            self.reserve_vars(abs(literal))
        if faults_enabled() and fault_fires("solver_unknown"):
            self.budget_exhaustions += 1
            self._extra_budget_exhaustions += 1
            return self._unknown_result(stats_base)
        if self._trivially_unsat:
            return self._unsat_result(stats_base)
        if budget is not None and budget.unbounded:
            budget = None
        if self._core is not None:
            return self._solve_native(assumptions, budget, stats_base)
        deadline = None
        if budget is not None and budget.max_seconds is not None:
            deadline = time.monotonic() + budget.max_seconds
        self._backtrack(0)
        # No pending propagation can exist here: add_clause drains the queue
        # after every unit it enqueues, so any level-0 conflict would already
        # have flagged _trivially_unsat (and one surfacing in the main loop
        # below is handled the same way).

        restart_limit = 100
        conflicts_since_restart = 0
        assumption_queue = list(assumptions)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._trivially_unsat = True
                    return self._unsat_result(stats_base)
                if budget is not None and self._budget_exhausted(
                    budget, stats_base, deadline
                ):
                    self.budget_exhaustions += 1
                    self._backtrack(0)
                    return self._unknown_result(stats_base)
                learned, backtrack_level = self._analyze(conflict)
                self._backtrack(backtrack_level)
                # The asserting literal's variable was assigned above the
                # backtrack level, so it is free now.
                if len(learned) == 1:
                    self._assign(learned[0], None)
                else:
                    clause_index = self._attach_clause(learned, learned=True)
                    self._assign(learned[0], clause_index)
                self._activity_increment /= self._activity_decay
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    self.restarts += 1
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                    self._reduce_learned()
                continue

            # Apply pending assumptions as decisions.
            if len(self._trail_lim) < len(assumption_queue):
                literal = assumption_queue[len(self._trail_lim)]
                value = self._value[literal]
                if value == -1:
                    # Failed under the assumptions only; the clause database
                    # may well be satisfiable under other assumptions.
                    return self._unsat_result(stats_base)
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._assign(literal, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                return self._sat_result(stats_base)
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            phase = self._phase[variable]
            self._assign(variable if phase else -variable, None)

    def _solve_native(
        self,
        assumptions: Sequence[int],
        budget: Optional[SolveBudget],
        stats_base: Tuple[int, int, int],
    ) -> SatResult:
        """Delegate the search to the compiled core (transcript-identical)."""
        max_conflicts = -1
        max_propagations = -1
        max_seconds = -1.0
        if budget is not None:
            if budget.max_conflicts is not None:
                max_conflicts = budget.max_conflicts
            if budget.max_propagations is not None:
                max_propagations = budget.max_propagations
            if budget.max_seconds is not None:
                max_seconds = budget.max_seconds
        status, model = self._core.solve(
            tuple(assumptions), max_conflicts, max_propagations, max_seconds
        )
        self._sync_counters()
        if status == 1:
            return self._sat_result(stats_base, model=model)
        if status == 0:
            return self._unsat_result(stats_base)
        return self._unknown_result(stats_base)

    # -------------------------------------------------------------- #
    # Results / statistics
    # -------------------------------------------------------------- #
    def _budget_exhausted(
        self,
        budget: SolveBudget,
        stats_base: Tuple[int, ...],
        deadline: Optional[float],
    ) -> bool:
        if (
            budget.max_conflicts is not None
            and self.conflicts - stats_base[0] >= budget.max_conflicts
        ):
            return True
        if (
            budget.max_propagations is not None
            and self.propagations - stats_base[2] >= budget.max_propagations
        ):
            return True
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return False

    def stats(self) -> Dict[str, int]:
        """Cumulative statistics over the lifetime of this solver."""
        return {
            "solve_calls": self.solve_calls,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "budget_exhaustions": self.budget_exhaustions,
            "num_vars": self._num_vars,
            "num_clauses": self._num_problem_clauses,
            "learned_clauses": self._num_learned,
        }

    def _note_solve(self, status: str, stats_base: Tuple[int, ...]) -> None:
        obs_metrics.counter("repro_solver_solve_calls_total", status=status)
        deltas = (
            ("repro_solver_conflicts_total", self.conflicts - stats_base[0]),
            ("repro_solver_decisions_total", self.decisions - stats_base[1]),
            ("repro_solver_propagations_total", self.propagations - stats_base[2]),
        )
        for name, delta in deltas:
            if delta:
                obs_metrics.counter(name, delta)

    def _sat_result(
        self,
        stats_base: Tuple[int, ...],
        model: Optional[Dict[int, bool]] = None,
    ) -> SatResult:
        self._note_solve("sat", stats_base)
        if model is None:
            value = self._value
            model = {
                variable: value[variable] == 1
                for variable in range(1, self._num_vars + 1)
                if value[variable] != 0
            }
        return SatResult(
            True,
            model=model,
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )

    def _unsat_result(self, stats_base: Tuple[int, ...]) -> SatResult:
        self._note_solve("unsat", stats_base)
        return SatResult(
            False,
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )

    def _unknown_result(self, stats_base: Tuple[int, ...]) -> SatResult:
        self._note_solve("unknown", stats_base)
        return SatResult(
            False,
            status="unknown",
            conflicts=self.conflicts - stats_base[0],
            decisions=self.decisions - stats_base[1],
            propagations=self.propagations - stats_base[2],
        )


def solve(
    formula: Cnf,
    assumptions: Sequence[int] = (),
    budget: Optional[SolveBudget] = None,
) -> SatResult:
    """Convenience wrapper: build a solver and solve the formula once."""
    return SatSolver(formula).solve(assumptions, budget=budget)
