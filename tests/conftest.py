"""Shared fixtures for the test suite.

Expensive artefacts (synthesised netlists, obfuscation runs) are produced
once per session and reused by the integration tests, keeping the suite
fast while still exercising the real flow.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.camo import default_camouflage_library
from repro.flow import obfuscate, obfuscate_with_assignment
from repro.ga import GAParameters
from repro.merge import merge_functions
from repro.netlist import standard_cell_library
from repro.sat import Cnf
from repro.sboxes import des_sboxes, optimal_sboxes, present_sbox
from repro.synth import synthesize
from repro.techmap import camouflage_map


@pytest.fixture(scope="session")
def library():
    """The default standard-cell library."""
    return standard_cell_library()


@pytest.fixture(scope="session")
def camo_library(library):
    """The default camouflage library."""
    return default_camouflage_library(library)


@pytest.fixture(scope="session")
def present():
    """The PRESENT S-box as a BoolFunction."""
    return present_sbox()


@pytest.fixture(scope="session")
def two_sboxes():
    """Two optimal 4-bit S-boxes (the smallest merged workload)."""
    return optimal_sboxes(2)


@pytest.fixture(scope="session")
def four_sboxes():
    """Four optimal 4-bit S-boxes."""
    return optimal_sboxes(4)


@pytest.fixture(scope="session")
def des_pair():
    """Two DES S-boxes."""
    return des_sboxes(2)


@pytest.fixture(scope="session")
def present_netlist(present, library):
    """A synthesised netlist of the PRESENT S-box."""
    return synthesize(present, library=library).netlist


@pytest.fixture(scope="session")
def merged_two(two_sboxes):
    """The merged design of two S-boxes under the identity assignment."""
    return merge_functions(two_sboxes)


@pytest.fixture(scope="session")
def merged_two_synthesis(merged_two, library):
    """Synthesis result of the two-S-box merged design."""
    return synthesize(merged_two.function, library=library, effort="fast")


@pytest.fixture(scope="session")
def camo_mapping_two(merged_two, merged_two_synthesis, camo_library):
    """Phase III mapping of the two-S-box merged design."""
    select_nets = [f"sel[{k}]" for k in range(merged_two.num_selects)]
    return camouflage_map(
        merged_two_synthesis.netlist, select_nets, camo_library=camo_library
    )


@pytest.fixture(scope="session")
def small_obfuscation(two_sboxes):
    """A full (tiny-budget) obfuscation run used by the integration tests."""
    return obfuscate(
        two_sboxes,
        ga_parameters=GAParameters(population_size=4, generations=2, seed=1),
        fitness_effort="fast",
        final_effort="fast",
    )


@pytest.fixture(scope="session")
def pigeonhole():
    """Factory for PHP(p, h): unsatisfiable for p > h, conflict-heavy."""

    def _make(pigeons, holes):
        cnf = Cnf(pigeons * holes)
        var = lambda pigeon, hole: pigeon * holes + hole + 1
        for pigeon in range(pigeons):
            cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
        for hole in range(holes):
            for one in range(pigeons):
                for two in range(one + 1, pigeons):
                    cnf.add_clause([-var(one, hole), -var(two, hole)])
        return cnf

    return _make


@pytest.fixture(scope="session")
def random_3sat():
    """Factory for seeded uniform random 3-SAT over ``num_vars`` variables."""

    def _make(num_vars, num_clauses, seed):
        rng = random.Random(seed)
        cnf = Cnf(num_vars)
        for _ in range(num_clauses):
            chosen = rng.sample(range(1, num_vars + 1), 3)
            cnf.add_clause(
                [variable if rng.random() < 0.5 else -variable for variable in chosen]
            )
        return cnf

    return _make


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return random.Random(12345)


@pytest.fixture
def make_random_netlist(library):
    """Factory fixture for deterministic random netlists."""
    from repro.netlist.generate import random_netlist

    def _make(seed, **kwargs):
        return random_netlist(seed, library, **kwargs)

    return _make


_NATIVE_DIR = Path(__file__).resolve().parent / "native"
_executed_outside_native = 0


def _outside_native(path) -> bool:
    return _NATIVE_DIR not in Path(path).resolve().parents


def pytest_runtest_call(item):
    global _executed_outside_native
    if _outside_native(item.path):
        _executed_outside_native += 1


def pytest_sessionfinish(session, exitstatus):
    """Fail a run that selected ordinary tests but executed none of them.

    Guards against a skip marker leaking out of a directory-scoped hook
    (``tests/native`` skips itself without the compiled extension), which
    once turned the whole suite into skips with exit status 0.
    """
    if exitstatus != pytest.ExitCode.OK or session.config.option.collectonly:
        return
    selected = [item for item in session.items if _outside_native(item.path)]
    if selected and _executed_outside_native == 0:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write_sep(
                "=", f"{len(selected)} tests outside tests/native were selected "
                "but none executed (all skipped)", red=True,
            )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
