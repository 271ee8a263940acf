"""CNF formulas.

Variables are positive integers; literals are non-zero integers where a
negative value denotes the complement (the DIMACS convention).  The class is
a thin container used by the Tseitin encoder and the CDCL solver, with
DIMACS import/export for interoperability and debugging.

A formula can have *listeners* attached (see :meth:`Cnf.attach`): every
variable allocation and clause addition is forwarded to them.  This is how a
live :class:`~repro.sat.solver.SatSolver` follows a growing formula
incrementally — the Cnf stays the readable record (names, DIMACS export)
while the solver ingests each addition as it happens.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Cnf"]


class Cnf:
    """A conjunction of clauses over integer variables."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Tuple[int, ...]] = []
        self._names: Dict[str, int] = {}
        self._listeners: List[object] = []

    # -------------------------------------------------------------- #
    # Listeners (incremental solving)
    # -------------------------------------------------------------- #
    def attach(self, listener: object) -> None:
        """Attach a listener notified of every new variable and clause.

        A listener provides ``on_new_var(variable)`` and ``on_clause(clause)``
        callbacks; :class:`~repro.sat.solver.SatSolver` implements both so it
        can follow this formula as it grows.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    # -------------------------------------------------------------- #
    # Variable management
    # -------------------------------------------------------------- #
    def new_var(self, name: Optional[str] = None) -> int:
        """Allocate a fresh variable, optionally registering a name for it."""
        self.num_vars += 1
        variable = self.num_vars
        if name is not None:
            if name in self._names:
                raise ValueError(f"variable name {name!r} already used")
            self._names[name] = variable
        for listener in self._listeners:
            listener.on_new_var(variable)
        return variable

    def var(self, name: str) -> int:
        """Look up a named variable."""
        try:
            return self._names[name]
        except KeyError as exc:
            raise KeyError(f"no variable named {name!r}") from exc

    def has_var(self, name: str) -> bool:
        """Return True if a variable with that name exists."""
        return name in self._names

    def names(self) -> Dict[str, int]:
        """Return a copy of the name -> variable mapping."""
        return dict(self._names)

    # -------------------------------------------------------------- #
    # Clause management
    # -------------------------------------------------------------- #
    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (an iterable of non-zero literals)."""
        clause = tuple(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable; keep
            # it so the solver reports UNSAT rather than silently dropping it.
            self.clauses.append(clause)
            for listener in self._listeners:
                listener.on_clause(clause)
            return
        for literal in clause:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            if abs(literal) > self.num_vars:
                raise ValueError(
                    f"literal {literal} references a variable beyond num_vars={self.num_vars}"
                )
        self.clauses.append(clause)
        for listener in self._listeners:
            listener.on_clause(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add several clauses."""
        for clause in clauses:
            self.add_clause(clause)

    def extend_unit(self, literal: int) -> None:
        """Add a unit clause."""
        self.add_clause([literal])

    @property
    def num_clauses(self) -> int:
        """Number of clauses."""
        return len(self.clauses)

    # -------------------------------------------------------------- #
    # DIMACS
    # -------------------------------------------------------------- #
    def to_dimacs(self) -> str:
        """Serialise to DIMACS CNF text."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(literal) for literal in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        """Parse DIMACS CNF text."""
        formula: Optional[Cnf] = None
        pending: List[int] = []
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed problem line {line!r}")
                formula = cls(int(parts[2]))
                continue
            if formula is None:
                raise ValueError("clause encountered before the problem line")
            for token in line.split():
                value = int(token)
                if value == 0:
                    formula.add_clause(pending)
                    pending = []
                else:
                    pending.append(value)
        if formula is None:
            raise ValueError("no problem line found")
        if pending:
            formula.add_clause(pending)
        return formula

    def __repr__(self) -> str:
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"
