"""Linear-time stable ordering of non-negative integer keys.

Every format conversion here orders entries by integer coordinates
below a matrix dimension: row-major for the COO container, column-major
for the CSC copy, and by coordinate again to find duplicates.
``np.lexsort`` and ``np.unique`` do that with comparison sorts, but
numpy's stable ``argsort`` is a radix sort for integers of 16 bits or
less, about six times faster on the same entries.  :func:`lex_order`
therefore runs a least-significant-digit radix sort: the least
significant key first, and within a key its lowest 16-bit digit first,
each pass a stable ``uint16`` argsort of the digit gathered through the
order so far.  Stability carries every earlier pass through the later
ones, so the result is ``np.lexsort``'s permutation exactly, ties in
original entry order.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["lex_order", "lex_groups"]

_DIGIT_BITS = 16


def lex_order(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The permutation ``np.lexsort(keys)`` returns, in linear time.

    ``keys`` are equal-length 1-D arrays of non-negative integers, the
    *last* one the primary key, as for ``np.lexsort``.  A key costs one
    pass per 16 bits of its largest value (none when it is all zeros).
    """
    if not len(keys):
        raise ValueError("lex_order needs at least one key")
    keys = [np.asarray(key) for key in keys]
    n = len(keys[0])
    for key in keys:
        if key.ndim != 1 or len(key) != n:
            raise ValueError("lex_order keys must be 1-D arrays of equal length")
        if key.dtype.kind not in "iu":
            raise TypeError(f"lex_order keys must be integers, got {key.dtype}")
    order = None
    if n:
        for key in keys:
            if key.min() < 0:
                raise ValueError("lex_order keys must be non-negative")
            top = int(key.max())
            in_order = key if order is None else key[order]
            shift = 0
            while top >> shift:
                digit = in_order >> shift if shift else in_order
                step = np.argsort(digit.astype(np.uint16), kind="stable")
                order = step if order is None else order[step]
                shift += _DIGIT_BITS
                if top >> shift:
                    in_order = in_order[step]
    return np.arange(n) if order is None else order


def lex_groups(keys: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: :func:`lex_order` of ``keys``, and the mask
    of the positions in that order where a new distinct key tuple
    begins.

    ``order[starts]`` are the first indices ``np.unique`` returns (each
    tuple's earliest entry, tuples ascending), and ``np.cumsum(starts)
    - 1`` numbers each ordered entry's tuple.
    """
    order = lex_order(keys)
    starts = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        changed = starts[1:]
        changed[:] = False
        for key in keys:
            ordered = np.asarray(key)[order]
            changed |= ordered[1:] != ordered[:-1]
    return order, starts
