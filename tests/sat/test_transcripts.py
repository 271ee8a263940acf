"""Exact solver-work pins: the CDCL transcript must not drift.

Verdicts alone would survive a change to the branching order, the restart
schedule, or learned-clause reduction; these pins would not.  They hold the
exact conflict/decision/propagation/restart/learned-clause counts on a
seeded SR(n) corpus (replayed through one incremental solver, the query
sequence the generator itself issues), on pigeonhole PHP(8, 7), whose
refutation crosses the 2000-learned-clause reduction and so covers the
database rebuild, on a random 3-SAT instance long enough to rescale the
VSIDS activities twice, and on a solver that grows its variable range
after it has learned clauses.  The SAT pins also hold a digest of the
model.  Both backends produce the same transcript, so the pins hold under
``REPRO_BACKEND=native`` too.
"""

from __future__ import annotations

import hashlib

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

# Random 3-SAT, 200 variables, 852 clauses, seed 3: satisfiable after
# 9,574 conflicts.  The activity increment passes 1e100 (the rescale) at
# about 4,500 conflicts, so this run rescales twice; PHP(8, 7) stops short.
RESCALE_TRANSCRIPT = (9574, 11417, 369091, 9, 4225)
RESCALE_MODEL_DIGEST = "511fb333006fcf58"

# Random 3-SAT, 80 variables, 330 clauses, seed 4, then grown mid-life:
# (status, counts in KEYS order, num_vars, model digest) after each solve.
GROWTH_TRANSCRIPT = [
    ("sat", (193, 244, 3796, 1, 192), 80, "012c32f945851c0e"),
    ("sat", (193, 588, 4205, 1, 192), 410, "be2c5fc8a6e2e98d"),
    ("unsat", (226, 626, 4974, 1, 224), 410, "e3b0c44298fc1c14"),
    ("sat", (240, 987, 5694, 1, 238), 410, "289512af27e5dbb0"),
]


def _counts(solver):
    stats = solver.stats()
    return tuple(stats[key] for key in KEYS)


def model_digest(model):
    """First 16 hex digits of the SHA-256 of the model as sorted literals."""
    text = " ".join(
        str(variable if value else -variable) for variable, value in sorted(model.items())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def test_activity_rescale_transcript(random_3sat):
    solver = SatSolver(random_3sat(200, 852, 3))
    result = solver.solve()
    assert result.status == "sat"
    assert _counts(solver) == RESCALE_TRANSCRIPT
    assert len(result.model) == 200
    assert model_digest(result.model) == RESCALE_MODEL_DIGEST


def test_growth_mid_life_transcript(random_3sat):
    # After the first solve has learned clauses, the range grows three
    # ways: a follow-mode cnf.new_var() (variable 81), a clause naming
    # variable 300 (past any doubling of the range), and an assumption on
    # the never-seen variable 410.
    cnf = random_3sat(80, 330, 4)
    solver = SatSolver(cnf, follow=True)
    observed = []

    def solve(assumptions=()):
        result = solver.solve(assumptions)
        observed.append(
            (result.status, _counts(solver), solver.num_vars, model_digest(result.model))
        )

    solve()
    fresh = cnf.new_var()
    cnf.add_clause([fresh, 1, -2])
    solver.add_clause([-fresh, 300, 7])
    solve([-fresh, -410])
    solve([fresh, -300])
    solve()
    assert observed == GROWTH_TRANSCRIPT
