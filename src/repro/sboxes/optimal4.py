"""Optimal 4-bit S-boxes (the paper's PRESENT-style workload).

The paper uses the 16 representatives of the optimal 4-bit S-box classes from
Leander and Poschmann (WAIFI 2007) as the set of viable functions.  "Optimal"
means bijective with linearity 8 and differential uniformity 4 — the best
achievable for 4-bit permutations.

We do not transcribe the published class representatives (transcription
errors would be silent); instead this module ships a deterministic set of 16
distinct optimal S-boxes found by a seeded search and verified by the
checkers in :mod:`repro.logic.analysis`.  The first entry is the (exactly
known) PRESENT S-box, which belongs to one of the optimal classes.  The
search utility :func:`find_optimal_sboxes` remains available for generating
alternative workloads.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..logic.analysis import is_optimal_4bit_sbox
from ..logic.boolfunc import BoolFunction
from .present import PRESENT_SBOX

__all__ = [
    "OPTIMAL_SBOXES",
    "optimal_sbox",
    "optimal_sboxes",
    "find_optimal_sboxes",
]


def find_optimal_sboxes(
    count: int,
    seed: int = 2017,
    exclude: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """Search for ``count`` distinct optimal 4-bit S-boxes.

    The search is a seeded rejection sampler over random 4-bit permutations;
    ``find_optimal_sboxes(15, exclude=[PRESENT_SBOX])`` reproduces the tables
    pinned in :data:`OPTIMAL_SBOXES` after the PRESENT S-box.
    """
    rng = random.Random(seed)
    found: List[List[int]] = []
    seen = {tuple(table) for table in (exclude or [])}
    while len(found) < count:
        candidate = list(range(16))
        rng.shuffle(candidate)
        key = tuple(candidate)
        if key in seen:
            continue
        if is_optimal_4bit_sbox(candidate):
            seen.add(key)
            found.append(candidate)
    return found


#: Sixteen distinct optimal 4-bit S-boxes.  Entry 0 is the PRESENT S-box; the
#: remaining fifteen were produced by ``find_optimal_sboxes(15, seed=2017,
#: exclude=[PRESENT_SBOX])`` and are pinned here so the workload is stable
#: (a test checks that the search still reproduces them).
OPTIMAL_SBOXES: List[List[int]] = [
    list(PRESENT_SBOX),
    [10, 3, 13, 15, 0, 4, 8, 14, 7, 12, 1, 5, 9, 6, 2, 11],
    [15, 5, 0, 7, 1, 10, 8, 11, 12, 3, 4, 6, 13, 2, 14, 9],
    [3, 7, 1, 14, 6, 13, 10, 2, 8, 11, 5, 0, 9, 15, 12, 4],
    [4, 11, 2, 9, 6, 15, 10, 14, 8, 7, 0, 3, 13, 1, 5, 12],
    [9, 2, 1, 3, 4, 8, 11, 12, 14, 10, 6, 15, 0, 7, 5, 13],
    [14, 4, 1, 13, 9, 12, 10, 6, 5, 8, 0, 7, 3, 11, 15, 2],
    [6, 14, 9, 8, 12, 3, 15, 13, 4, 10, 0, 11, 7, 2, 1, 5],
    [2, 13, 8, 5, 6, 14, 12, 10, 7, 1, 15, 3, 11, 9, 4, 0],
    [1, 12, 0, 9, 3, 4, 2, 14, 10, 5, 7, 13, 15, 6, 8, 11],
    [0, 10, 7, 5, 6, 8, 9, 12, 4, 15, 1, 3, 2, 13, 14, 11],
    [8, 11, 15, 13, 5, 0, 1, 14, 12, 3, 7, 6, 9, 10, 4, 2],
    [3, 11, 12, 5, 1, 15, 14, 2, 10, 13, 9, 7, 0, 6, 4, 8],
    [5, 15, 3, 13, 12, 10, 0, 1, 6, 2, 11, 4, 7, 8, 14, 9],
    [9, 5, 6, 3, 15, 10, 1, 13, 7, 4, 0, 11, 12, 14, 2, 8],
    [9, 4, 13, 12, 11, 10, 0, 3, 7, 5, 2, 8, 14, 1, 15, 6],
]


def optimal_sbox(index: int, name: Optional[str] = None) -> BoolFunction:
    """Return optimal S-box ``index`` (0..15) as a Boolean function."""
    tables = optimal_sbox_tables()
    if not 0 <= index < len(tables):
        raise IndexError(f"optimal S-box index {index} out of range")
    return BoolFunction.from_lookup(
        tables[index], 4, 4, name=name or f"sbox{index}"
    )


def optimal_sbox_tables() -> List[List[int]]:
    """Return the 16 lookup tables (PRESENT first, then generated ones)."""
    return [list(table) for table in OPTIMAL_SBOXES]


def optimal_sboxes(count: int = 16) -> List[BoolFunction]:
    """Return the first ``count`` optimal S-boxes as Boolean functions."""
    if not 1 <= count <= 16:
        raise ValueError("count must be between 1 and 16")
    return [optimal_sbox(index) for index in range(count)]
