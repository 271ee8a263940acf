"""Unit tests for the Table I style reporting helpers."""

import pytest

from repro.flow import (
    AreaRow,
    format_solver_stats,
    format_table,
    improvement_percent,
)
from repro.flow.report import format_cache_stats


class TestImprovement:
    def test_basic(self):
        assert improvement_percent(100.0, 62.0) == pytest.approx(38.0)
        assert improvement_percent(100.0, 100.0) == pytest.approx(0.0)
        assert improvement_percent(100.0, 120.0) == pytest.approx(-20.0)

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 1.0)


class TestAreaRow:
    def test_improvement_property(self):
        row = AreaRow("PRESENT", 8, random_avg=205, random_best=164, ga_area=118, ga_tm_area=101)
        assert row.improvement == pytest.approx(100 * (164 - 101) / 164)

    def test_as_dict(self):
        row = AreaRow("DES", 2, 257, 217, 200, 195)
        data = row.as_dict()
        assert data["circuit"] == "DES"
        assert data["num_functions"] == 2
        assert data["improvement_percent"] == pytest.approx(row.improvement)


class TestFormatTable:
    def test_layout(self):
        rows = [
            AreaRow("PRESENT", 2, 54, 42, 41, 39),
            AreaRow("DES", 8, 923, 805, 473, 416),
        ]
        text = format_table(rows, title="Table I")
        lines = text.splitlines()
        assert lines[0] == "Table I"
        assert "Circuit" in lines[1]
        assert len(lines) == 2 + 1 + len(rows)
        assert "PRESENT" in lines[3]
        assert "DES" in lines[4]
        # Improvement column for the DES row: (805-416)/805 = 48%.
        assert lines[4].rstrip().endswith("48")

    def test_without_title(self):
        text = format_table([AreaRow("PRESENT", 2, 54, 42, 41, 39)])
        assert text.splitlines()[0].startswith("Circuit")


class TestSolverStats:
    # Golden tables: CLI and benchmark output must not change by a byte.
    def test_from_solver(self):
        from repro.sat import SatSolver

        solver = SatSolver()
        x = solver.new_var()
        solver.add_clause([x])
        solver.solve()
        text = format_solver_stats([("unit", solver.stats())])
        assert text.splitlines()[2].split()[:2] == ["unit", "1"]

    def test_layout(self):
        rows = [
            ("oracle", {"solve_calls": 4, "conflicts": 32, "decisions": 86,
                        "propagations": 639, "learned_clauses": 31}),
            ("DIP loop", {"solve_calls": 5, "conflicts": 0, "decisions": 12,
                          "propagations": 99, "learned_clauses": 0,
                          "num_vars": 55}),
        ]
        assert format_solver_stats(rows, title="solver work") == (
            "solver work\n"
            "Workload                  Calls  Conflicts  Decisions     Props  Learned\n"
            "------------------------------------------------------------------------\n"
            "oracle                        4         32         86       639       31\n"
            "DIP loop                      5          0         12        99        0"
        )

    def test_missing_counters_render_as_zero(self):
        stats = {"solve_calls": 1, "conflicts": 2, "decisions": 3, "propagations": 4}
        assert format_solver_stats([("x", stats)]) == (
            "Workload                  Calls  Conflicts  Decisions     Props  Learned\n"
            "------------------------------------------------------------------------\n"
            "x                             1          2          3         4        0"
        )


class TestCacheStats:
    def test_layout_with_zero_request_row(self):
        rows = [
            ("PRESENT x2", {"evaluations": 40, "genotype_hits": 7,
                            "signature_hits": 3}),
            ("DES x2", {"evaluations": 0, "genotype_hits": 0,
                        "signature_hits": 0}),
        ]
        text = format_cache_stats(
            rows, jobs=2, title="fitness-cache work (GA, parent process):"
        )
        assert text == (
            "fitness-cache work (GA, parent process):\n"
            "Workload                  Synth  GenoHits  SigHits  HitRate  Jobs\n"
            "-----------------------------------------------------------------\n"
            "PRESENT x2                   40         7        3    20.0%     2\n"
            "DES x2                        0         0        0     0.0%     2"
        )
