"""k-feasible cut enumeration and cone analysis on AIGs.

Cut enumeration is the work-horse of the rewrite pass: for every AND node we
enumerate small sets of "leaf" nodes (the cut) such that the node's function
can be expressed over the leaves alone.  The module also provides the cut
function computation and the maximum-fanout-free-cone (MFFC) size used to
estimate the gain of replacing a cone.

Cut functions are memoised *across* AIGs: the truth table of a cone depends
only on its local structure (how the cone's AND nodes wire the leaves
together), so a structural descriptor of the cone serves as a cache key that
keeps working between rewrite/refactor invocations and between genotype
evaluations of the Phase II search, where the same small cones recur
constantly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from .._bitops import mask_for
from ..logic.truthtable import TruthTable
from .aig import Aig, node_of

__all__ = ["enumerate_cuts", "cut_function", "mffc_size", "collect_cone_cut"]

Cut = FrozenSet[int]

#: Structural cone descriptor -> truth table of the cone output (tables are
#: immutable, so hits share one instance).  Bounded: cleared wholesale when
#: full (entries are cheap to recompute).
_CONE_CACHE: Dict[Tuple, TruthTable] = {}
_CONE_CACHE_LIMIT = 1 << 16


def clear_cut_function_cache() -> None:
    """Drop all memoised cone functions (mainly for tests/benchmarks)."""
    _CONE_CACHE.clear()


def cut_function_cache_size() -> int:
    """Number of memoised cone functions currently held."""
    return len(_CONE_CACHE)


def enumerate_cuts(
    aig: Aig, max_leaves: int = 4, max_cuts_per_node: int = 8
) -> Dict[int, List[Cut]]:
    """Enumerate k-feasible cuts for every node of the AIG.

    Returns a mapping from node id to a list of cuts (each cut is a frozenset
    of leaf node ids).  The trivial cut ``{node}`` is always included and is
    always the first element.
    """
    cuts: Dict[int, List[Cut]] = {}
    for node in range(1, aig.num_nodes):
        trivial: Cut = frozenset({node})
        if aig.is_input_node(node):
            cuts[node] = [trivial]
            continue
        fanin0, fanin1 = aig.fanins(node)
        candidates: List[Cut] = [trivial]
        seen = {trivial}
        for cut0 in cuts[node_of(fanin0)]:
            for cut1 in cuts[node_of(fanin1)]:
                merged = cut0 | cut1
                if len(merged) > max_leaves:
                    continue
                if merged in seen:
                    continue
                if _is_dominated(merged, candidates):
                    continue
                seen.add(merged)
                candidates.append(merged)
        # Keep the trivial cut plus the smallest non-trivial cuts.
        non_trivial = sorted(candidates[1:], key=lambda cut: (len(cut), sorted(cut)))
        cuts[node] = [trivial] + non_trivial[: max_cuts_per_node - 1]
    return cuts


def _is_dominated(candidate: Cut, existing: Sequence[Cut]) -> bool:
    """Return True if an existing cut is a subset of ``candidate``."""
    return any(cut != candidate and cut <= candidate for cut in existing[1:])


def cut_function(aig: Aig, root: int, cut: Cut) -> Tuple[TruthTable, List[int]]:
    """Return the function of ``root`` over the cut leaves.

    The leaves are ordered by node id; the returned list gives that order so
    the caller knows which truth-table variable corresponds to which leaf.
    Results are memoised on the cone's local structure, so identical cones in
    different AIGs (or in successive passes over the same design) share one
    computation.
    """
    leaves = sorted(cut)
    num_vars = len(leaves)
    if root in cut:
        index = leaves.index(root)
        return TruthTable.variable(index, num_vars), leaves

    # One depth-first walk (fanin0 first) over the fanin arrays numbers the
    # cone's AND nodes in topological order and builds the structural
    # descriptor: every cone node encoded by its two fanin slots, each slot
    # ``2 * position + complement``, where position indexes the sorted
    # leaves followed by the cone nodes in that order.
    fanin0, fanin1, is_input = aig._fanin0, aig._fanin1, aig._is_input
    position: Dict[int, int] = {leaf: index for index, leaf in enumerate(leaves)}
    descriptor: List[Tuple[int, int]] = []
    _check_cone_node(is_input, root)
    stack = [root]
    while stack:
        node = stack[-1]
        literal0, literal1 = fanin0[node], fanin1[node]
        slot0 = position.get(literal0 >> 1)
        if slot0 is None:
            _check_cone_node(is_input, literal0 >> 1)
            stack.append(literal0 >> 1)
            continue
        slot1 = position.get(literal1 >> 1)
        if slot1 is None:
            _check_cone_node(is_input, literal1 >> 1)
            stack.append(literal1 >> 1)
            continue
        stack.pop()
        descriptor.append((slot0 * 2 + (literal0 & 1), slot1 * 2 + (literal1 & 1)))
        position[node] = len(position)
    key = (num_vars, tuple(descriptor))

    table = _CONE_CACHE.get(key)
    if table is None:
        mask = mask_for(num_vars)
        values = [TruthTable.variable(index, num_vars).bits for index in range(num_vars)]
        for slot0, slot1 in descriptor:
            value0 = values[slot0 >> 1] ^ (mask if slot0 & 1 else 0)
            value1 = values[slot1 >> 1] ^ (mask if slot1 & 1 else 0)
            values.append(value0 & value1)
        table = TruthTable(num_vars, values[-1])
        if len(_CONE_CACHE) >= _CONE_CACHE_LIMIT:
            _CONE_CACHE.clear()
        _CONE_CACHE[key] = table
    return table, leaves


def _check_cone_node(is_input: List[bool], node: int) -> None:
    if node == 0 or is_input[node]:
        raise ValueError(f"node {node} is outside the cut cone but not a leaf")


def mffc_size(aig: Aig, root: int, cut: Cut, reference_counts: Dict[int, int]) -> int:
    """Return the number of AND nodes freed if ``root`` were re-expressed over ``cut``.

    This is the size of the maximum fanout-free cone of ``root`` bounded by
    the cut leaves: the nodes whose only remaining references come from inside
    the cone.  ``reference_counts`` must be the current fanout counts of the
    AIG (they are not modified).
    """
    if not aig.is_and_node(root):
        return 0
    fanin0, fanin1, is_input = aig._fanin0, aig._fanin1, aig._is_input
    # Counts lowered so far; every other node keeps ``reference_counts``.
    lowered: Dict[int, int] = {}
    freed = 0
    stack = [root]
    while stack:
        node = stack.pop()
        freed += 1
        for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
            if fanin in cut or fanin == 0 or is_input[fanin]:
                continue
            count = lowered.get(fanin)
            count = (reference_counts.get(fanin, 0) if count is None else count) - 1
            lowered[fanin] = count
            if count <= 0:
                stack.append(fanin)
    return freed


def collect_cone_cut(aig: Aig, root: int, max_leaves: int) -> Cut:
    """Greedily grow a cut for ``root`` by expanding AND leaves until the limit.

    Used by the refactor pass, which resynthesises one larger cone per node
    instead of many small cuts.
    """
    leaves = {root}
    while True:
        expandable = [
            leaf
            for leaf in leaves
            if aig.is_and_node(leaf)
        ]
        if not expandable:
            break
        progressed = False
        # Expand the leaf whose expansion keeps the cut smallest.
        expandable.sort(key=lambda leaf: leaf, reverse=True)
        for leaf in expandable:
            fanin0, fanin1 = aig.fanins(leaf)
            new_leaves = (leaves - {leaf}) | {node_of(fanin0), node_of(fanin1)}
            if len(new_leaves) <= max_leaves:
                leaves = new_leaves
                progressed = True
                break
        if not progressed:
            break
    return frozenset(leaves)
