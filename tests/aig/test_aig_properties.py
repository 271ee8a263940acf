"""Property-based tests: the synthesis passes never change the function, and
the cut/cone analyses agree with direct references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_tables, balance, refactor, rewrite
from repro.aig.cuts import collect_cone_cut, cut_function, enumerate_cuts, mffc_size
from repro.logic import TruthTable
from repro.synth import map_to_cells
from repro.netlist import extract_function


def table_strategy(num_vars):
    return st.builds(
        TruthTable,
        st.just(num_vars),
        st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1),
    )


def multi_output(num_vars, num_outputs):
    return st.lists(table_strategy(num_vars), min_size=num_outputs, max_size=num_outputs)


@given(multi_output(4, 2))
@settings(max_examples=25, deadline=None)
def test_build_then_optimize_preserves_function(tables):
    aig = aig_from_tables(tables)
    assert aig.output_tables() == list(tables)
    optimized = rewrite(balance(aig))
    assert optimized.output_tables() == list(tables)


@given(multi_output(5, 1))
@settings(max_examples=15, deadline=None)
def test_refactor_preserves_function(tables):
    aig = aig_from_tables(tables)
    assert refactor(aig).output_tables() == list(tables)


@given(multi_output(4, 2))
@settings(max_examples=15, deadline=None)
def test_mapping_preserves_function(tables):
    aig = rewrite(balance(aig_from_tables(tables)))
    netlist = map_to_cells(aig)
    function = extract_function(netlist)
    assert list(function.outputs) == list(tables)


@given(multi_output(4, 1))
@settings(max_examples=20, deadline=None)
def test_optimization_never_increases_and_count(tables):
    aig = aig_from_tables(tables)
    optimized = rewrite(balance(aig))
    assert optimized.num_ands <= aig.num_ands


@st.composite
def random_aigs(draw):
    """A random AIG with a few inputs, up to 30 AND nodes and random outputs."""
    aig = Aig()
    literals = [aig.add_input() for _ in range(draw(st.integers(2, 6)))]
    for _ in range(draw(st.integers(1, 30))):
        a = draw(st.sampled_from(literals)) ^ draw(st.integers(0, 1))
        b = draw(st.sampled_from(literals)) ^ draw(st.integers(0, 1))
        literal = aig.and_(a, b)
        if literal not in literals:
            literals.append(literal)
    for _ in range(draw(st.integers(1, 3))):
        aig.add_output(draw(st.sampled_from(literals)) ^ draw(st.integers(0, 1)))
    return aig


def _all_cuts(aig):
    """Every enumerated 4-cut plus the refactor pass's 6-leaf cone cut per node."""
    cuts = enumerate_cuts(aig)
    for node in aig.and_nodes():
        for cut in cuts[node] + [collect_cone_cut(aig, node, 6)]:
            yield node, cut


def _mffc_size_copying(aig, root, cut, reference_counts):
    """Reference MFFC size: decrements a full copy of the fanout counts."""
    local_refs = dict(reference_counts)
    freed = 0
    stack = [root]
    first = True
    while stack:
        node = stack.pop()
        if node in cut and not first:
            continue
        if not aig.is_and_node(node):
            continue
        if not first and local_refs.get(node, 0) > 0:
            continue
        freed += 1
        first = False
        for fanin in (Aig.node(lit) for lit in aig.fanins(node)):
            if fanin in cut or not aig.is_and_node(fanin):
                continue
            local_refs[fanin] = local_refs.get(fanin, 0) - 1
            if local_refs[fanin] <= 0:
                stack.append(fanin)
    return freed


@given(random_aigs())
@settings(max_examples=60, deadline=None)
def test_mffc_size_matches_copying_reference(aig):
    reference = aig.reference_counts()
    for node, cut in _all_cuts(aig):
        assert mffc_size(aig, node, cut, reference) == _mffc_size_copying(aig, node, cut, reference)
    assert aig.reference_counts() == reference


@given(random_aigs())
@settings(max_examples=60, deadline=None)
def test_cut_function_matches_node_tables(aig):
    """The cut function, read at every input row's leaf values, gives the node's table."""
    tables = aig.node_tables()
    for node, cut in _all_cuts(aig):
        function, leaves = cut_function(aig, node, cut)
        assert leaves == sorted(cut)
        for row in range(1 << aig.num_inputs):
            leaf_row = sum(tables[leaf].value_at(row) << index for index, leaf in enumerate(leaves))
            assert function.value_at(leaf_row) == tables[node].value_at(row)


@given(st.integers(0, 6).flatmap(table_strategy))
@settings(max_examples=200, deadline=None)
def test_depends_on_matches_cofactors(table):
    for var in range(table.num_vars):
        assert table.depends_on(var) == (table.cofactor(var, 0) != table.cofactor(var, 1))
