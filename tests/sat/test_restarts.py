"""Tests for the CDCL restart schedule (geometric: the limit grows 1.5x)."""

import random

import pytest

from repro.sat import SatSolver
from repro.sat.solver import SatResult


def _hard_random_formula(solver, seed=9, num_vars=30, num_clauses=128, reverse=False):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    solver.reserve_vars(num_vars)
    for clause in reversed(clauses) if reverse else clauses:
        solver.add_clause(clause)
    return clauses


class TestRestartStrategies:
    def test_default_is_geometric(self, pigeonhole):
        solver = SatSolver(pigeonhole(7, 6))
        assert solver.solve().status == "unsat"
        # The refuting conflict ends the call before the restart check, so
        # only the conflicts before it can trigger a restart.
        restarts, limit, boundary = 0, 100, 100
        while boundary <= solver.conflicts - 1:
            restarts += 1
            limit = int(limit * 1.5)
            boundary += limit
        assert restarts >= 2
        assert solver.restarts == restarts

    def test_unknown_strategy_rejected(self):
        # One search policy: the solver takes no restart or forgetting knob.
        with pytest.raises(TypeError):
            SatSolver(restart_strategy="luby")
        with pytest.raises(TypeError):
            SatSolver(clause_forget=True)

    def test_verdicts_agree_on_random_formulas(self):
        # Feeding the clauses in reverse order sends the search down another
        # path; both runs must reach the same verdict, and SAT models must
        # satisfy every clause.
        for seed in range(6):
            forward = SatSolver()
            clauses = _hard_random_formula(forward, seed=seed)
            backward = SatSolver()
            _hard_random_formula(backward, seed=seed, reverse=True)
            results = [forward.solve(), backward.solve()]
            assert all(isinstance(result, SatResult) for result in results)
            assert results[0].satisfiable == results[1].satisfiable
            for result in results:
                if result.satisfiable:
                    assert all(
                        any(result.model.get(abs(lit)) == (lit > 0) for lit in clause)
                        for clause in clauses
                    )

    def test_restart_counter_in_stats(self):
        solver = SatSolver()
        _hard_random_formula(solver, seed=3, num_vars=40, num_clauses=180)
        solver.solve()
        stats = solver.stats()
        assert stats["restarts"] == solver.restarts
        assert solver.restarts >= 0
