"""Reference orderings for the radix-order differential tests.

The comparison sorts the conversions used before
:mod:`repro.formats.order`: ``np.lexsort`` for the row-major COO sort
(and so for ``transpose``) and for ``CSCMatrix.from_coo``,
``np.unique(return_inverse=True)`` for ``sum_duplicates`` and
``np.unique(return_index=True)`` for the generators' dedup.  They state
each order directly, so the library's radix orderings must reproduce
them exactly.
"""

import numpy as np


def reference_row_major(n_cols, rows, cols, vals):
    """``(rows, cols, vals)`` sorted row-major, ties in entry order."""
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def reference_transpose(coo):
    """``(rows, cols, vals)`` of ``coo.T``, sorted row-major."""
    return reference_row_major(coo.n_rows, coo.cols, coo.rows, coo.vals)


def reference_csc(coo):
    """``(indptr, indices, vals)`` of ``coo``'s CSC copy."""
    order = np.lexsort((coo.rows, coo.cols))
    indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(coo.cols, minlength=coo.n_cols), out=indptr[1:])
    return indptr, coo.rows[order], coo.vals[order]


def reference_sum_duplicates(coo):
    """``(rows, cols, vals)`` with duplicate coordinates folded."""
    keys = coo.rows * coo.n_cols + coo.cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    vals = np.zeros(len(uniq))
    np.add.at(vals, inverse, coo.vals)
    return uniq // coo.n_cols, uniq % coo.n_cols, vals


def reference_first_of_each(n_cols, rows, cols):
    """Index of each distinct coordinate's first entry, row-major."""
    keys = rows.astype(np.int64) * n_cols + cols
    _uniq, first = np.unique(keys, return_index=True)
    return first
