"""The camouflage cell library and function-set matching.

A :class:`CamouflageLibrary` holds the camouflaged variants of the standard
cells and answers the central query of the technology mapper (Alg. 1, line
8): *given a set of required functions over a handful of leaf signals, which
camouflaged cell can implement all of them, and with which leaf-to-pin
assignment?*
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..logic.truthtable import TruthTable
from ..netlist.library import CellLibrary, CellType, standard_cell_library
from .cells import CAMO_PREFIX, CamouflagedCellType, camouflage_cell

__all__ = ["CellMatch", "CamouflageLibrary", "default_camouflage_library"]

#: Cells that are not worth camouflaging (a buffer's cofactors are trivial).
_EXCLUDED_BASE_CELLS = ("BUF",)


@dataclass(frozen=True)
class CellMatch:
    """A successful match of a required function set onto a camouflaged cell.

    ``pin_of_leaf[i]`` is the cell pin index that leaf ``i`` (the i-th
    variable of the required functions) must connect to.  ``realisations``
    maps each required function (as given) to the plausible function of the
    cell — expressed over the cell pins — that implements it.
    """

    cell: CamouflagedCellType
    pin_of_leaf: Tuple[int, ...]
    realisations: Dict[TruthTable, TruthTable]
    cost: float


class CamouflageLibrary:
    """A collection of camouflaged cells with matching queries."""

    def __init__(self, cells: Iterable[CamouflagedCellType], name: str = "camouflage"):
        self.name = name
        self._cells: Dict[str, CamouflagedCellType] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate camouflaged cell {cell.name!r}")
            self._cells[cell.name] = cell

    # -------------------------------------------------------------- #
    # Container protocol
    # -------------------------------------------------------------- #
    def cells(self) -> List[CamouflagedCellType]:
        """All camouflaged cells in insertion order."""
        return list(self._cells.values())

    def __getitem__(self, name: str) -> CamouflagedCellType:
        try:
            return self._cells[name]
        except KeyError as exc:
            raise KeyError(f"no camouflaged cell named {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def max_pins(self) -> int:
        """Largest pin count over all camouflaged cells."""
        return max(cell.num_inputs for cell in self._cells.values())

    def as_cell_library(self, include: Optional[CellLibrary] = None) -> CellLibrary:
        """Return a :class:`CellLibrary` of look-alike cell types.

        When ``include`` is given, its cells are copied in as well (mapped
        netlists may mix camouflaged and ordinary cells).
        """
        cells: List[CellType] = []
        seen = set()
        if include is not None:
            for cell in include.cells():
                cells.append(cell)
                seen.add(cell.name)
        for camo in self._cells.values():
            if camo.name not in seen:
                cells.append(camo.as_cell_type())
        return CellLibrary(f"{self.name}_cells", cells)

    # -------------------------------------------------------------- #
    # Matching
    # -------------------------------------------------------------- #
    def match(
        self,
        required: Sequence[TruthTable],
        max_candidates: int = 0,
    ) -> List[CellMatch]:
        """Find camouflaged cells that can implement every required function.

        The required functions must all share the same (small) number of
        variables — the subtree leaves, in a fixed order.  Matches are
        returned sorted by cell area; ``max_candidates`` limits the list
        (0 means unlimited).
        """
        if not required:
            raise ValueError("at least one required function is needed")
        num_leaves = required[0].num_vars
        for function in required:
            if function.num_vars != num_leaves:
                raise ValueError("required functions must share the same leaf variables")
        unique_required = list(dict.fromkeys(required))

        matches: List[CellMatch] = []
        for cell in sorted(self._cells.values(), key=lambda c: (c.area, c.name)):
            if cell.num_inputs < num_leaves:
                continue
            match = self._match_cell(cell, unique_required, num_leaves)
            if match is not None:
                matches.append(match)
                if max_candidates and len(matches) >= max_candidates:
                    break
        return matches

    def best_match(self, required: Sequence[TruthTable]) -> Optional[CellMatch]:
        """Return the cheapest matching cell, or None when nothing matches."""
        matches = self.match(required, max_candidates=1)
        return matches[0] if matches else None

    def _match_cell(
        self,
        cell: CamouflagedCellType,
        required: List[TruthTable],
        num_leaves: int,
    ) -> Optional[CellMatch]:
        pins = cell.num_inputs
        plausible = cell.plausible
        for chosen_pins in permutations(range(pins), num_leaves):
            realisations: Dict[TruthTable, TruthTable] = {}
            feasible = True
            for function in required:
                lifted = _lift_to_pins(function, chosen_pins, pins)
                if lifted not in plausible:
                    feasible = False
                    break
                realisations[function] = lifted
            if feasible:
                return CellMatch(
                    cell=cell,
                    pin_of_leaf=tuple(chosen_pins),
                    realisations=realisations,
                    cost=cell.area,
                )
        return None


#: (num_vars, bits, pin_of_leaf, num_pins) -> lifted table.  Cell matching
#: lifts the same few leaf functions through the same pin permutations for
#: every tree of every design.  Bounded: cleared wholesale when full.
_LIFT_CACHE: Dict[Tuple[int, int, Tuple[int, ...], int], TruthTable] = {}
_LIFT_CACHE_LIMIT = 1 << 16


def _lift_to_pins(
    function: TruthTable, pin_of_leaf: Tuple[int, ...], num_pins: int
) -> TruthTable:
    """Express a leaf-variable function over the cell-pin variable space."""
    key = (function.num_vars, function.bits, pin_of_leaf, num_pins)
    lifted = _LIFT_CACHE.get(key)
    if lifted is None:
        if function.num_vars == 0:
            lifted = TruthTable.constant(num_pins, bool(function.bits & 1))
        else:
            lifted = function.compose([
                TruthTable.variable(pin_of_leaf[leaf], num_pins)
                for leaf in range(function.num_vars)
            ])
        if len(_LIFT_CACHE) >= _LIFT_CACHE_LIMIT:
            _LIFT_CACHE.clear()
        _LIFT_CACHE[key] = lifted
    return lifted


def default_camouflage_library(
    base_library: Optional[CellLibrary] = None,
    area_overhead: float = 0.0,
) -> CamouflageLibrary:
    """Build the camouflage library from (by default) the standard cells."""
    base_library = base_library or standard_cell_library()
    cells = [
        camouflage_cell(cell, area_overhead=area_overhead)
        for cell in base_library.cells()
        if cell.name not in _EXCLUDED_BASE_CELLS
    ]
    return CamouflageLibrary(cells)
