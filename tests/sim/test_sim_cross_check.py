"""Cross-checks: packed engine vs row-by-row reference, fuzz vs SAT verdicts.

These are the regression guarantees of the sim subsystem: the word-parallel
engine must agree with :func:`repro.netlist.simulate.simulate_assignment`
bit-for-bit on arbitrary netlists, and every fuzz-before-SAT path must
return exactly the verdict the solver returns.
"""

import random

import pytest

from repro.aig import aig_from_netlist
from repro.attacks import PlausibleFunctionOracle
from repro.logic import BoolFunction, TruthTable
from repro.netlist import Netlist, simulate_assignment, standard_cell_library
from repro.sat import check_netlist_function
from repro.sim import AigSimulator, NetlistSimulator, PatternBatch


def random_netlist(rng, library, num_inputs=4, num_instances=12, name="rand"):
    """Grow a random DAG netlist over the standard-cell library."""
    netlist = Netlist(name, library)
    nets = [netlist.add_input(f"i{k}") for k in range(num_inputs)]
    cells = [cell for cell in library.cells() if cell.num_inputs >= 1]
    for _ in range(num_instances):
        cell = rng.choice(cells)
        inputs = [rng.choice(nets) for _ in range(cell.num_inputs)]
        nets.append(netlist.add_instance(cell.name, inputs).output)
    outputs = rng.sample(nets[num_inputs:], min(3, num_instances))
    for index, net in enumerate(outputs):
        netlist.add_output(net)
    return netlist


def batches_for(rng, num_inputs):
    """Exhaustive plus random batches of 1-400 patterns.

    The fixed sizes cover one pattern, exactly one 64-bit word, one past a
    word boundary and a batch ending mid-way through its third word.
    """
    batches = [PatternBatch.exhaustive(num_inputs)]
    for count in (1, 64, 65, 130, rng.randint(1, 400)):
        batches.append(
            PatternBatch.random(num_inputs, count, seed=rng.randint(0, 10**6))
        )
    return batches


def assert_lanes_match_rowwise(netlist, batch, lanes, cell_functions=None):
    """Every output lane agrees with ``simulate_assignment`` pattern by pattern."""
    for lane in lanes:
        assert lane >> batch.num_patterns == 0, "lane set bits past the batch"
    for position, word in enumerate(batch.words()):
        assignment = {
            net: (word >> index) & 1
            for index, net in enumerate(netlist.primary_inputs)
        }
        values = simulate_assignment(
            netlist, assignment, cell_functions=cell_functions
        )
        for out_index, net in enumerate(netlist.primary_outputs):
            assert (lanes[out_index] >> position) & 1 == values[net], (
                f"mismatch at pattern {position} (word {word}), output {net}"
            )


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_packed_engine_matches_rowwise_reference(seed, library):
    rng = random.Random(seed)
    for num_inputs in (4, 4 + seed):
        netlist = random_netlist(
            rng, library, num_inputs=num_inputs, num_instances=15 + 3 * num_inputs
        )
        simulator = NetlistSimulator(netlist)
        for batch in batches_for(rng, num_inputs):
            assert_lanes_match_rowwise(
                netlist, batch, simulator.output_lanes(batch)
            )


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_packed_engine_matches_rowwise_with_overrides(seed, library):
    rng = random.Random(seed)
    for num_inputs in (3, seed - 4):
        netlist = random_netlist(
            rng, library, num_inputs=num_inputs, num_instances=10 + 3 * num_inputs
        )
        # Override a random subset of instances with random same-arity tables.
        overrides = {}
        for instance in netlist.instances:
            if rng.random() < 0.4:
                arity = len(instance.inputs)
                overrides[instance.name] = TruthTable(
                    arity, rng.getrandbits(1 << arity)
                )
        simulator = NetlistSimulator(netlist)
        words = [rng.getrandbits(num_inputs) for _ in range(rng.randint(1, 400))]
        packed = simulator.simulate_words(words, overrides)
        assert len(packed) == len(words)
        for word, output in zip(words, packed):
            assignment = {f"i{k}": (word >> k) & 1 for k in range(num_inputs)}
            values = simulate_assignment(
                netlist, assignment, cell_functions=overrides
            )
            expected = 0
            for out_index, net in enumerate(netlist.primary_outputs):
                expected |= values[net] << out_index
            assert output == expected
        for batch in batches_for(rng, num_inputs):
            assert_lanes_match_rowwise(
                netlist, batch, simulator.output_lanes(batch, overrides), overrides
            )


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_aig_engine_matches_rowwise_reference(seed, library):
    rng = random.Random(seed)
    num_inputs = seed - 24
    netlist = random_netlist(
        rng, library, num_inputs=num_inputs, num_instances=15 + 3 * num_inputs
    )
    simulator = AigSimulator(aig_from_netlist(netlist))
    for batch in batches_for(rng, num_inputs):
        assert_lanes_match_rowwise(netlist, batch, simulator.output_lanes(batch))
    words = [rng.getrandbits(num_inputs) for _ in range(rng.randint(1, 400))]
    assert simulator.simulate_words(words) == NetlistSimulator(
        netlist
    ).simulate_words(words)


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_fuzz_equivalence_verdicts_match_sat(seed, library):
    rng = random.Random(seed)
    netlist = random_netlist(rng, library, num_inputs=4, num_instances=12)
    from repro.netlist import extract_function

    truth = extract_function(netlist)
    wrong = BoolFunction(
        [~table if index == 0 else table for index, table in enumerate(truth.outputs)]
    )
    for candidate in (truth, wrong):
        with_fuzz = check_netlist_function(netlist, candidate, prefilter=True)
        without = check_netlist_function(netlist, candidate, prefilter=False)
        assert bool(with_fuzz) == bool(without)
        if not with_fuzz:
            # The fuzz counterexample must genuinely distinguish the pair.
            word = 0
            for index, net in enumerate(netlist.primary_inputs):
                word |= with_fuzz.counterexample[net] << index
            realised = extract_function(netlist)
            assert realised.evaluate_word(word) != candidate.evaluate_word(word)


class TestOraclePrefilterVerdictEquality:
    def test_verdicts_identical_on_obfuscated_design(self, small_obfuscation):
        mapping = small_obfuscation.mapping
        views = small_obfuscation.assignment.apply(small_obfuscation.viable_functions)
        from repro.sboxes import optimal_sboxes

        others = optimal_sboxes(4)[2:]
        eager = PlausibleFunctionOracle.from_mapping(mapping, prefilter=False)
        fuzzed = PlausibleFunctionOracle.from_mapping(mapping, prefilter=True)
        for candidate in list(views) + list(others):
            assert bool(eager.is_plausible(candidate)) == bool(
                fuzzed.is_plausible(candidate)
            )

    def test_fuzz_witness_is_exact(self, small_obfuscation):
        from repro.netlist import extract_function

        mapping = small_obfuscation.mapping
        view = small_obfuscation.assignment.apply(
            small_obfuscation.viable_functions
        )[0]
        oracle = PlausibleFunctionOracle.from_mapping(mapping, prefilter=True)
        outcome = oracle.is_plausible(view)
        assert outcome.plausible
        realised = extract_function(mapping.netlist, cell_functions=outcome.witness)
        assert realised.lookup_table() == view.lookup_table()


class TestPresampledAttack:
    def test_presample_recovers_identical_function(self, small_obfuscation):
        from repro.attacks.oracle_guided import attack_mapping

        mapping = small_obfuscation.mapping
        default = attack_mapping(mapping, true_select=1, max_queries=64, presample=0)
        fuzzed = attack_mapping(mapping, true_select=1, max_queries=64, presample=32)
        assert default.success and fuzzed.success
        assert default.recovered_function == fuzzed.recovered_function
        # Full-space presampling removes every DIP query.
        assert fuzzed.num_queries == 0
        assert fuzzed.total_oracle_queries == 1 << len(mapping.netlist.primary_inputs)
        # The replayed words are recorded for reuse.
        assert len(fuzzed.presample_queries) > 0
