"""Random camouflaging baseline.

Section I of the paper argues that *random* camouflaging does not help
against an adversary with a list of viable functions: the set of plausible
functions created by randomly replacing gates with look-alike cells is
astronomically unlikely to contain any *other* viable function, so the
adversary simply rules them out one by one.

This module implements that baseline: it takes the synthesised netlist of a
single (true) function, replaces a random subset of its gates with their
camouflaged variants (configured to keep the nominal function), and exposes
the same adversary oracle so the claim can be tested experimentally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..camo.library import CamouflageLibrary, default_camouflage_library
from ..camo.cells import CAMO_PREFIX
from ..logic.boolfunc import BoolFunction
from ..logic.truthtable import TruthTable
from ..netlist.library import CellLibrary
from ..netlist.netlist import Netlist
from ..sat.solver import SolveBudget
from .decamouflage import DecamouflageResult, PlausibleFunctionOracle

__all__ = ["RandomCamouflageResult", "randomly_camouflage", "RandomCamouflagedCircuit"]


@dataclass
class RandomCamouflagedCircuit:
    """A netlist with a random subset of gates replaced by look-alike cells."""

    netlist: Netlist
    camo_library: CamouflageLibrary
    camouflaged_instances: List[str] = field(default_factory=list)
    #: The true (nominal) configuration of every camouflaged instance.
    true_configuration: Dict[str, TruthTable] = field(default_factory=dict)

    def oracle(self, budget: Optional[SolveBudget] = None) -> PlausibleFunctionOracle:
        """Build the adversary's plausibility oracle for this circuit.

        ``budget`` bounds every solve; a query that exhausts it raises
        :class:`~repro.sat.solver.SolveBudgetExceeded`.
        """
        plausible = {
            name: list(self.camo_library[self.netlist.instance(name).cell].plausible)
            for name in self.camouflaged_instances
        }
        return PlausibleFunctionOracle(self.netlist, plausible, budget=budget)

    def is_plausible(
        self, candidate: BoolFunction, budget: Optional[SolveBudget] = None
    ) -> DecamouflageResult:
        """Adversary query: can this circuit implement ``candidate``?"""
        return self.oracle(budget).is_plausible(candidate)

    def area(self) -> float:
        """Netlist area in gate equivalents."""
        return self.netlist.area()


@dataclass
class RandomCamouflageResult:
    """Summary of the random-camouflaging experiment for a set of candidates."""

    circuit: RandomCamouflagedCircuit
    plausible: List[bool]

    @property
    def num_plausible(self) -> int:
        """How many candidate functions the adversary cannot rule out."""
        return sum(1 for flag in self.plausible if flag)


def randomly_camouflage(
    netlist: Netlist,
    fraction: float = 0.5,
    seed: int = 1,
    camo_library: Optional[CamouflageLibrary] = None,
) -> RandomCamouflagedCircuit:
    """Replace a random subset of gates by their camouflaged look-alikes.

    The replaced instances keep their nominal function (the camouflage is
    purely about what the adversary must consider), so the circuit's true
    behaviour is unchanged.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be between 0 and 1")
    camo_library = camo_library or default_camouflage_library(netlist.library)
    rng = random.Random(seed)

    candidates = [
        instance.name
        for instance in netlist.instances
        if f"{CAMO_PREFIX}{netlist.instance(instance.name).cell}" in camo_library
    ]
    count = round(len(candidates) * fraction)
    chosen = set(rng.sample(candidates, count)) if count else set()

    merged_library = camo_library.as_cell_library(include=netlist.library)
    result = Netlist(f"{netlist.name}_randcamo", merged_library)
    for net in netlist.primary_inputs:
        result.add_input(net)
    camouflaged: List[str] = []
    true_config: Dict[str, TruthTable] = {}
    for instance in netlist.topological_order():
        if instance.name in chosen:
            cell_name = f"{CAMO_PREFIX}{instance.cell}"
            new_instance = result.add_instance(
                cell_name, list(instance.inputs), output=instance.output,
                name=instance.name,
            )
            camouflaged.append(new_instance.name)
            true_config[new_instance.name] = netlist.library[instance.cell].function
        else:
            result.add_instance(
                instance.cell, list(instance.inputs), output=instance.output,
                name=instance.name,
            )
    for net in netlist.primary_outputs:
        result.add_output(net)

    return RandomCamouflagedCircuit(
        netlist=result,
        camo_library=camo_library,
        camouflaged_instances=camouflaged,
        true_configuration=true_config,
    )


def random_camouflage_experiment(
    netlist: Netlist,
    candidates: Sequence[BoolFunction],
    fraction: float = 0.5,
    seed: int = 1,
    camo_library: Optional[CamouflageLibrary] = None,
    budget: Optional[SolveBudget] = None,
) -> RandomCamouflageResult:
    """Camouflage randomly and ask the adversary about every candidate."""
    circuit = randomly_camouflage(netlist, fraction=fraction, seed=seed, camo_library=camo_library)
    flags = [bool(circuit.is_plausible(candidate, budget)) for candidate in candidates]
    return RandomCamouflageResult(circuit=circuit, plausible=flags)
