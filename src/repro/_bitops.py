"""Low-level bit-manipulation helpers shared across the library.

Truth tables throughout :mod:`repro` are stored as Python integers used as
bit vectors: bit ``r`` of the integer holds the function value for the input
minterm whose index is ``r`` (variable 0 is the least-significant bit of the
minterm index).  These helpers centralise the bit tricks used to manipulate
such packed tables.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "mask_for",
    "popcount",
    "bit_at",
    "set_bit",
    "variable_pattern",
    "iter_minterms",
    "swap_adjacent_variables",
    "expand_with_new_variable",
    "parity",
]


def mask_for(num_vars: int) -> int:
    """Return the all-ones mask covering the ``2**num_vars`` rows of a table."""
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    return (1 << (1 << num_vars)) - 1


if hasattr(int, "bit_count"):

    def popcount(value: int) -> int:
        """Return the number of set bits in ``value`` (which must be >= 0)."""
        if value < 0:
            raise ValueError("popcount is only defined for non-negative integers")
        return value.bit_count()

else:  # Python < 3.10 fallback

    def popcount(value: int) -> int:
        """Return the number of set bits in ``value`` (which must be >= 0)."""
        if value < 0:
            raise ValueError("popcount is only defined for non-negative integers")
        return bin(value).count("1")


def bit_at(value: int, position: int) -> int:
    """Return bit ``position`` of ``value`` as 0 or 1."""
    return (value >> position) & 1


def set_bit(value: int, position: int, bit: int) -> int:
    """Return ``value`` with bit ``position`` forced to ``bit``."""
    if bit:
        return value | (1 << position)
    return value & ~(1 << position)


def variable_pattern(var: int, num_vars: int) -> int:
    """Return the truth table (packed int) of projection ``x_var`` on ``num_vars`` inputs.

    Bit ``r`` of the result is the value of variable ``var`` in minterm ``r``.
    For example ``variable_pattern(0, 2) == 0b1010`` and
    ``variable_pattern(1, 2) == 0b1100``.
    """
    if not 0 <= var < num_vars:
        raise ValueError(f"variable index {var} out of range for {num_vars} inputs")
    rows = 1 << num_vars
    block = 1 << var  # run length of identical values of x_var
    # One period (2*block rows: zeros then ones), then double the covered
    # span until it spans all rows — O(num_vars) big-int operations instead
    # of one OR per period, which matters enormously for wide exhaustive
    # batches (2**20+ rows) where low-index variables have millions of
    # periods.
    pattern = ((1 << block) - 1) << block
    size = 2 * block
    while size < rows:
        pattern |= pattern << size
        size *= 2
    return pattern


def iter_minterms(table: int, num_vars: int) -> Iterator[int]:
    """Yield the minterm indices (rows) on which the packed ``table`` is 1."""
    rows = 1 << num_vars
    for row in range(rows):
        if (table >> row) & 1:
            yield row


def parity(value: int) -> int:
    """Return the parity (XOR of all bits) of ``value``."""
    return popcount(value) & 1


def swap_adjacent_variables(table: int, var: int, num_vars: int) -> int:
    """Return ``table`` with variables ``var`` and ``var + 1`` exchanged."""
    if not 0 <= var < num_vars - 1:
        raise ValueError("var must identify a pair of adjacent variables")
    rows = 1 << num_vars
    low = 1 << var
    result = 0
    for row in range(rows):
        bit = (table >> row) & 1
        if not bit:
            continue
        b_lo = (row >> var) & 1
        b_hi = (row >> (var + 1)) & 1
        if b_lo == b_hi:
            result |= 1 << row
        else:
            swapped = row ^ low ^ (low << 1)
            result |= 1 << swapped
    return result


def expand_with_new_variable(table: int, num_vars: int) -> int:
    """Duplicate ``table`` so it becomes a function of ``num_vars + 1`` inputs.

    The new variable is the most significant one and the function does not
    depend on it.
    """
    rows = 1 << num_vars
    return table | (table << rows)
