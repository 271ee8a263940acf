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

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


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
        self._clauses: List[List[int]] = []
        self._learned_flags: List[bool] = []
        self._num_learned = 0
        # Problem clauses as added by the client, including units and
        # clauses simplified away at level 0 (which never reach _clauses).
        self._num_problem_clauses = 0
        self._watches: Dict[int, List[int]] = {}
        self._assign: List[int] = [_UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Lazy max-heap of branching candidates as (-activity, variable)
        # entries; stale entries (assigned variables, outdated activities)
        # are discarded on pop.  Picks the same variable as a linear scan —
        # highest activity, lowest index on ties — in O(log n).
        self._order_heap: List[Tuple[float, int]] = []
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
        self._assign.extend([_UNASSIGNED] * grow)
        self._level.extend([0] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([False] * grow)
        for variable in range(self._num_vars + 1, num_vars + 1):
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
        seen = set()
        cleaned: List[int] = []
        for literal in clause:
            if -literal in seen:
                return
            if literal in seen:
                continue
            value = self._literal_value(literal)
            if value == _TRUE:
                return
            if value == _FALSE:
                continue
            seen.add(literal)
            cleaned.append(literal)
        if not cleaned:
            self._trivially_unsat = True
            return
        if len(cleaned) == 1:
            if not self._enqueue(cleaned[0], None) or self._propagate() is not None:
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
        self._watches.setdefault(literals[0], []).append(index)
        self._watches.setdefault(literals[1], []).append(index)
        return index

    # -------------------------------------------------------------- #
    # Assignment helpers
    # -------------------------------------------------------------- #
    def _literal_value(self, literal: int) -> int:
        value = self._assign[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: Optional[int]) -> bool:
        value = self._literal_value(literal)
        if value == _TRUE:
            return True
        if value == _FALSE:
            return False
        variable = abs(literal)
        self._assign[variable] = _TRUE if literal > 0 else _FALSE
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    # -------------------------------------------------------------- #
    # Unit propagation with two watched literals
    # -------------------------------------------------------------- #
    def _propagate(self) -> Optional[int]:
        while self._queue_head < len(self._trail):
            literal = self._trail[self._queue_head]
            self._queue_head += 1
            self.propagations += 1
            falsified = -literal
            watchers = self._watches.get(falsified, [])
            index = 0
            while index < len(watchers):
                clause_index = watchers[index]
                clause = self._clauses[clause_index]
                # Ensure the falsified literal is in position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._literal_value(first) == _TRUE:
                    index += 1
                    continue
                # Look for a new literal to watch.
                found = False
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if self._literal_value(candidate) != _FALSE:
                        clause[1], clause[position] = clause[position], clause[1]
                        self._watches.setdefault(candidate, []).append(clause_index)
                        watchers[index] = watchers[-1]
                        watchers.pop()
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                if self._literal_value(first) == _FALSE:
                    return clause_index
                self._enqueue(first, clause_index)
                index += 1
        return None

    # -------------------------------------------------------------- #
    # Conflict analysis (first UIP)
    # -------------------------------------------------------------- #
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal = 0
        clause = self._clauses[conflict_index]
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()

        while True:
            for clause_literal in clause:
                # Skip the literal we are resolving on (the implied literal of
                # the reason clause); everything else is examined.
                if literal != 0 and clause_literal == literal:
                    continue
                variable = abs(clause_literal)
                if seen[variable] or self._level[variable] == 0:
                    continue
                seen[variable] = True
                self._bump_activity(variable)
                if self._level[variable] == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next literal of the current level on the trail.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = self._trail[trail_index]
            variable = abs(literal)
            seen[variable] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[variable]
            clause = self._clauses[reason_index]

        learned[0] = -literal
        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Move the highest-level literal (other than the asserting one)
            # to position 1 so it can be watched.
            best = 1
            for position in range(2, len(learned)):
                if self._level[abs(learned[position])] > self._level[abs(learned[best])]:
                    best = position
            learned[1], learned[best] = learned[best], learned[1]
            backtrack_level = self._level[abs(learned[1])]
        return learned, backtrack_level

    def _bump_activity(self, variable: int) -> None:
        self._activity[variable] += self._activity_increment
        if self._activity[variable] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._activity_increment *= 1e-100
            # Every heap key is stale after rescaling.
            self._rebuild_order_heap()

    def _rebuild_order_heap(self) -> None:
        self._order_heap = [
            (-self._activity[index], index)
            for index in range(1, self._num_vars + 1)
            if self._assign[index] == _UNASSIGNED
        ]
        heapq.heapify(self._order_heap)

    def _decay_activities(self) -> None:
        self._activity_increment /= self._activity_decay

    # -------------------------------------------------------------- #
    # Backtracking / restarts
    # -------------------------------------------------------------- #
    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for literal in reversed(self._trail[boundary:]):
            variable = abs(literal)
            self._assign[variable] = _UNASSIGNED
            self._reason[variable] = None
            heapq.heappush(self._order_heap, (-self._activity[variable], variable))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)

    def _reduce_learned(self, keep_fraction: float = 0.5) -> None:
        """Drop long, inactive learned clauses (simple size-based policy)."""
        # Only safe at decision level 0 with no active reasons.
        if self._decision_level() != 0:
            return
        if self._num_learned < 2000:
            return
        # No clause needs to survive as a reason: at level 0 the only
        # reasons belong to level-0 assignments, which conflict analysis
        # skips, and they are all nulled after the rebuild below.
        kept_clauses: List[List[int]] = []
        kept_flags: List[bool] = []
        long_clauses: List[List[int]] = []
        for index, clause in enumerate(self._clauses):
            if not self._learned_flags[index]:
                kept_clauses.append(clause)
                kept_flags.append(False)
            elif len(clause) <= 4:
                kept_clauses.append(clause)
                kept_flags.append(True)
            else:
                long_clauses.append(clause)
        keep_count = int(len(long_clauses) * keep_fraction)
        if keep_count:
            kept_clauses.extend(long_clauses[-keep_count:])
            kept_flags.extend([True] * keep_count)
        self._clauses = kept_clauses
        self._learned_flags = kept_flags
        self._num_learned = sum(kept_flags)
        self._rebuild_watches_and_reasons()

    def _rebuild_watches_and_reasons(self) -> None:
        self._watches = {}
        for index, clause in enumerate(self._clauses):
            if len(clause) >= 2:
                self._watches.setdefault(clause[0], []).append(index)
                self._watches.setdefault(clause[1], []).append(index)
        for variable in range(1, self._num_vars + 1):
            if self._reason[variable] is not None:
                self._reason[variable] = None

    # -------------------------------------------------------------- #
    # Decisions
    # -------------------------------------------------------------- #
    def _pick_branch_variable(self) -> Optional[int]:
        # Stale entries are discarded lazily at the top, so on long-lived
        # solvers the heap can accumulate one tuple per unassignment;
        # compact it once it clearly outgrows the variable range.
        if len(self._order_heap) > 64 + 4 * self._num_vars:
            self._rebuild_order_heap()
        heap = self._order_heap
        while heap:
            negated_activity, variable = heap[0]
            if (
                self._assign[variable] != _UNASSIGNED
                or -negated_activity != self._activity[variable]
            ):
                heapq.heappop(heap)
                continue
            return variable
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
                if self._decision_level() == 0:
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
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._trivially_unsat = True
                        return self._unsat_result(stats_base)
                else:
                    clause_index = self._attach_clause(learned, learned=True)
                    self._enqueue(learned[0], clause_index)
                self._decay_activities()
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
                value = self._literal_value(literal)
                if value == _FALSE:
                    # Failed under the assumptions only; the clause database
                    # may well be satisfiable under other assumptions.
                    return self._unsat_result(stats_base)
                self._trail_lim.append(len(self._trail))
                if value == _UNASSIGNED:
                    self._enqueue(literal, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                return self._sat_result(stats_base)
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            phase = self._phase[variable]
            self._enqueue(variable if phase else -variable, None)

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
            model = {
                variable: self._assign[variable] == _TRUE
                for variable in range(1, self._num_vars + 1)
                if self._assign[variable] != _UNASSIGNED
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
