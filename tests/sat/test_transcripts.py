"""Exact solver-work pins: the CDCL transcript must not drift.

Verdicts alone would survive a change to the branching order, the restart
schedule, or learned-clause reduction; these pins would not.  They hold the
exact conflict/decision/propagation/restart/learned-clause counts on a
seeded SR(n) corpus (replayed through one incremental solver, the query
sequence the generator itself issues) and on pigeonhole PHP(8, 7), whose
refutation crosses the 2000-learned-clause reduction and so covers the
database rebuild.  Both backends produce the same transcript, so the pins
hold under ``REPRO_BACKEND=native`` too.
"""

from __future__ import annotations

from repro.sat.generate import generate_corpus
from repro.sat.solver import SatSolver

KEYS = ("conflicts", "decisions", "propagations", "restarts", "learned_clauses")

# Per pair: (num_vars, incremental replay of the UNSAT member, fresh solve
# of the SAT twin), counts in KEYS order.
CORPUS_TRANSCRIPTS = [
    (65, (0, 1733, 1796, 0, 0), (0, 56, 65, 0, 0)),
    (83, (1, 8140, 10062, 0, 1), (1, 44, 90, 0, 1)),
    (105, (0, 8595, 9928, 0, 0), (0, 67, 105, 0, 0)),
    (133, (0, 6321, 6713, 0, 0), (0, 110, 133, 0, 0)),
    (148, (0, 10720, 11450, 0, 0), (0, 120, 148, 0, 0)),
    (108, (0, 9445, 10682, 0, 0), (0, 69, 108, 0, 0)),
    (70, (0, 4969, 6014, 0, 0), (0, 32, 70, 0, 0)),
    (132, (0, 5370, 5651, 0, 0), (0, 113, 132, 0, 0)),
    (40, (0, 2264, 2667, 0, 0), (0, 14, 40, 0, 0)),
    (149, (0, 20854, 23185, 0, 0), (0, 99, 149, 0, 0)),
]

PHP_8_7_TRANSCRIPT = (4426, 5153, 53210, 7, 2298)


def _counts(solver):
    stats = solver.stats()
    return tuple(stats[key] for key in KEYS)


def test_sr_corpus_transcripts():
    corpus = generate_corpus(10, min_vars=40, max_vars=160, seed=2017)
    observed = []
    for pair in corpus:
        replay = SatSolver()
        replay.reserve_vars(pair.num_vars)
        for clause in pair.unsat_clauses:
            replay.add_clause(clause)
            result = replay.solve()
        assert result.status == "unsat"
        fresh = SatSolver()
        fresh.reserve_vars(pair.num_vars)
        for clause in pair.sat_clauses:
            fresh.add_clause(clause)
        assert fresh.solve().status == "sat"
        observed.append((pair.num_vars, _counts(replay), _counts(fresh)))
    assert observed == CORPUS_TRANSCRIPTS


def test_pigeonhole_8_7_transcript(pigeonhole):
    solver = SatSolver(pigeonhole(8, 7))
    assert solver.solve().status == "unsat"
    assert _counts(solver) == PHP_8_7_TRANSCRIPT
