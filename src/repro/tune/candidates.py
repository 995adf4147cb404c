"""The autotuner's candidate grid.

A candidate is one point in the locality-configuration space the tuner
prices: ``ordering × vblock width``, the two knobs a tuned runtime
applies.  The grid is small by design (OSKI's lesson: a handful of
well-chosen candidates beats an exhaustive sweep) and the first
candidate is *always* the identity baseline — untouched order, SPM-fit
vblock width — so it wins every tie and no plan prices worse than it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..formats import COOMatrix
from ..hardware import DEFAULT_PARAMS, Geometry, HardwareParams, HWMode
from ..spmv.partition import vblock_width
from ..workloads.reorder import (
    ORDERING_METHODS,
    bfs_order,
    block_order,
    degree_order,
    rcm_order,
)

__all__ = [
    "Candidate",
    "ORDERINGS",
    "default_widths",
    "candidate_grid",
    "grid_signature",
    "ordering_permutation",
]

#: Orderings the tuner tries: identity plus every recipe the reorder
#: module exports.
ORDERINGS: Tuple[str, ...] = ("identity",) + ORDERING_METHODS

#: Narrow-width divisor: the second default candidate width is the SPM
#: fit divided by this, probing whether tighter vector windows pay off.
NARROW_WIDTH_DIVISOR = 4


@dataclass(frozen=True)
class Candidate:
    """One ``(ordering, vblock width)`` configuration."""

    ordering: str
    vblock_width: int

    @property
    def label(self) -> str:
        return f"{self.ordering}/w{self.vblock_width}"

    @property
    def is_identity(self) -> bool:
        return self.ordering == "identity"


def default_widths(
    geometry: Geometry, params: HardwareParams = DEFAULT_PARAMS
) -> Tuple[int, ...]:
    """Default vblock widths: the SPM fit and a 4x narrower window."""
    spm_fit = vblock_width(HWMode.SCS.spm_words(geometry, params), 1)
    narrow = max(1, spm_fit // NARROW_WIDTH_DIVISOR)
    if narrow == spm_fit:
        return (spm_fit,)
    return (spm_fit, narrow)


def candidate_grid(
    geometry: Geometry,
    params: HardwareParams = DEFAULT_PARAMS,
    orderings: Optional[Sequence[str]] = None,
    widths: Optional[Sequence[int]] = None,
) -> List[Candidate]:
    """Enumerate the candidate grid, identity baseline first.

    The baseline (identity order, SPM-fit width) is always index 0 even
    when the caller's ``orderings``/``widths`` exclude it, so scoring
    always has its reference point.
    """
    all_orderings = tuple(orderings) if orderings else ORDERINGS
    all_widths = tuple(widths) if widths else default_widths(geometry, params)
    for ordering in all_orderings:
        if ordering not in ORDERINGS:
            raise ConfigurationError(
                f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
            )
    for width in all_widths:
        if int(width) <= 0:
            raise ConfigurationError(
                f"vblock width must be positive, got {width}"
            )

    baseline = Candidate("identity", int(default_widths(geometry, params)[0]))
    grid = [baseline]
    for ordering in all_orderings:
        for width in all_widths:
            cand = Candidate(ordering, int(width))
            if cand != baseline:
                grid.append(cand)
    return grid


def grid_signature(grid: Sequence[Candidate]) -> List[str]:
    """Stable labels for the plan-cache key."""
    return [c.label for c in grid]


def ordering_permutation(
    matrix: COOMatrix, ordering: str
) -> Optional[np.ndarray]:
    """The ``perm[old] = new`` array for ``ordering`` (None = identity).

    Square matrices only — the runtime hot path permutes the operand's
    single vertex space.  Rectangular tuning goes through
    :func:`repro.workloads.reorder.reorder_matrix` directly.
    """
    if ordering == "identity":
        return None
    if matrix.n_rows != matrix.n_cols:
        raise ConfigurationError(
            "ordering_permutation needs a square operand; use "
            "reorder_matrix for rectangular matrices"
        )
    if ordering == "degree":
        return degree_order(matrix)
    if ordering == "bfs":
        return bfs_order(matrix)
    if ordering == "rcm":
        return rcm_order(matrix)
    if ordering == "block":
        return block_order(matrix)
    raise ConfigurationError(
        f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
    )
