"""Byte-identity guard for Phase II synthesis and Phase III camouflage covering.

The digests are SHA-256 sums of the BLIF text of netlists whose construction
is fully deterministic.  A change to the rewrite planner, the tree mapper or
camouflaged-cell matching that is meant to be a pure speed-up must leave them
untouched; a change that alters the chosen cells must update them on purpose.
"""

import hashlib

import pytest

from repro import obfuscate_with_assignment
from repro.merge import merge_functions
from repro.netlist.blif import write_blif
from repro.sboxes import des_sbox, optimal_sboxes, present_sbox
from repro.synth import synthesize


def _digest(netlist) -> str:
    return hashlib.sha256(write_blif(netlist).encode()).hexdigest()


_FUNCTIONS = {
    "present": present_sbox,
    "des_s1": lambda: des_sbox(0),
    "present_x2": lambda: merge_functions(optimal_sboxes(2)).function,
}

_SYNTHESIS_DIGESTS = {
    "present": "b6ff2e4bbd682cdb0b0f57e956dadc5739df7534a247ce3e72fea38ac0c6732b",
    "des_s1": "ecf359d33500988c0ddd4fa269ed760c95fd05d6ca558355978bc96486e5134d",
    "present_x2": "f1af0d9c549f25913db0d0f72a4a5a842582159aea6bfbb3fe7828029aa0c817",
}


@pytest.mark.parametrize("effort", ["fast", "standard"])
@pytest.mark.parametrize("name", sorted(_FUNCTIONS))
def test_synthesized_netlist_digest(name, effort):
    netlist = synthesize(_FUNCTIONS[name](), effort=effort).netlist
    assert _digest(netlist) == _SYNTHESIS_DIGESTS[name]


def test_camouflaged_netlist_digest():
    result = obfuscate_with_assignment(optimal_sboxes(2), effort="fast")
    assert _digest(result.mapping.netlist) == (
        "f3a0c42272eff2c28fd83d5f8b20a46955aa2efd5fb17c27a69ad218d0a471f6"
    )
