"""The contract between SpMV kernels and the hardware model.

A kernel (inner or outer product) runs functionally in numpy and, as a side
product, describes *what the hardware would have done*.  The description is
one :class:`KernelProfile` of columns, so the kernels fill it with array
operations and the hardware model prices every PE at once:

* per stream, shaped ``(tiles, PEs per tile, stream slots)``: region,
  pattern, count, writes, footprint, passes, in-SPM, shared footprint,
  distinct touches and fill granule — a stream is a homogeneous group of
  word accesses one PE issues;
* per PE, shaped ``(tiles, PEs per tile)``: compute ops and SPM fill words;
* per tile: the LCP's serial elements, output words and ops, and the
  shared-SPM fill words;
* optionally, for small inputs, an exact word-address trace per PE.

A slot a PE does not use holds a zero-count stream that is not in SPM:
it prices exactly like an absent stream.  The hardware model
(:mod:`repro.hardware.analytic` or :mod:`repro.hardware.trace`) consumes
this description and prices it in cycles and picojoules.

Keeping the contract explicit lets the same kernel implementation be priced
under every hardware mode, which is exactly what the CoSPARSE decision
layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulationError
from .hwconfig import HWMode

__all__ = [
    "Region",
    "Pattern",
    "KernelProfile",
    "PETrace",
]


class Region(IntEnum):
    """Logical data structure an access belongs to (for attribution)."""

    MATRIX = 0  # COO entries (IP) or CSC column entries (OP)
    VECTOR_IN = 1  # input frontier values
    VECTOR_OUT = 2  # output vector updates
    FRONTIER = 3  # sparse frontier (index, value) pairs
    HEAP = 4  # OP sorted list of column heads
    COLPTR = 5  # CSC indptr lookups


class Pattern(IntEnum):
    """Access-pattern labels understood by the analytic model.

    * ``SEQUENTIAL`` — unit-stride stream; the stride prefetcher and MSHRs
      hide most miss latency.
    * ``RANDOM`` — data-dependent but *independent* accesses (IP's vector
      gathers): consecutive accesses do not depend on each other, so MSHRs
      overlap a moderate fraction of the latency.
    * ``DEPENDENT`` — pointer-chasing (OP's heap walks and next-column
      loads): each address is derived from the previous access's result,
      so essentially nothing is hidden.
    """

    SEQUENTIAL = 0
    RANDOM = 1
    DEPENDENT = 2


@dataclass
class PETrace:
    """Exact per-PE word-address trace (small inputs / trace mode).

    ``regions`` tags each access with a :class:`Region` value; ``addrs``
    holds region-local word offsets (the trace engine relocates regions
    into disjoint address ranges); ``writes`` flags stores.
    """

    regions: np.ndarray
    addrs: np.ndarray
    writes: np.ndarray

    def __post_init__(self):
        if not (len(self.regions) == len(self.addrs) == len(self.writes)):
            raise SimulationError("trace arrays must have equal length")

    @property
    def n_accesses(self) -> int:
        return len(self.addrs)

    @classmethod
    def concat(cls, parts: List["PETrace"]) -> "PETrace":
        """Concatenate traces in program order."""
        if not parts:
            e = np.zeros(0, dtype=np.int64)
            return cls(e.astype(np.int8), e, e.astype(bool))
        return cls(
            np.concatenate([p.regions for p in parts]),
            np.concatenate([p.addrs for p in parts]),
            np.concatenate([p.writes for p in parts]),
        )


#: Column dtypes by the leading axes they span: (tiles, PEs per tile,
#: stream slots), (tiles, PEs per tile) and (tiles,).  ``count`` fixes
#: the shape; any other column may be anything that broadcasts to it.
_COLUMNS = (
    (3, dict(region=np.int8, pattern=np.int8, count=float, footprint=float,
             writes=float, passes=np.int64, in_spm=bool, shared_footprint=bool,
             distinct_touches=float, fill_granule=np.int64)),
    (2, dict(compute_ops=float, spm_fill_words=float)),
    (1, dict(lcp_serial_elements=float, lcp_output_words=float,
             lcp_compute_ops=float, tile_spm_fill_words=float)),
)


def _column(value, dtype, shape) -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape``, broadcast if need be."""
    given = np.asarray(value, dtype=dtype)
    if given.shape == shape:
        return given
    column = np.empty(shape, dtype)
    column[...] = given
    return column


@dataclass(eq=False)
class KernelProfile:
    """Everything the hardware model needs to price one kernel invocation.

    Stream columns
    --------------
    region, pattern:
        :class:`Region` and :class:`Pattern` values.  ``region`` drives
        attribution and shared-footprint detection.
    count:
        Word accesses.
    footprint:
        Distinct words the PE touches.
    writes:
        How many of the ``count`` accesses are stores.  Stores retire
        through the write buffer at ~1 cycle and only contribute
        write-back DRAM traffic; loads bear the miss stalls.
    passes:
        How many times the footprint is swept end-to-end (sequential
        streams only; >1 models re-streaming).
    in_spm:
        The configuration placed this data in scratchpad; accesses bypass
        the cache path entirely.
    shared_footprint:
        Under a *shared* L1, every PE in the tile touches the *same* words
        (e.g. the vblock's vector segment), so the tile-level footprint is
        this PE's footprint, not the sum over PEs.
    distinct_touches:
        Only this many of the load accesses can miss — the rest are
        guaranteed near hits (e.g. IP's output accumulation: consecutive
        same-row entries in the row-major stream re-touch the value just
        used, so only distinct (row, vblock) first touches are exposed to
        the memory system).  ``inf`` means every load can miss.
    fill_granule:
        Words fetched per miss: 0 means a full cache line; a positive
        value models the natural access granule (one word for scattered
        scalar read-modify-writes through the word-granular RCache port,
        K words for a latent-factor row) so misses do not overfetch.

    PE and tile columns
    -------------------
    ``spm_fill_words`` counts words DMA-copied into a PE's scratchpad.
    ``tile_spm_fill_words`` counts those copied into the tile's *shared*
    scratchpad (the SCS vblock fills): every PE in the tile waits for the
    fill, but the DRAM traffic is counted once per tile.  The LCP merges
    and forwards ``lcp_serial_elements`` serially (OP step 4) — work that
    does not parallelise with the PE count, the Amdahl term behind the
    paper's observation that OP scales worse with PEs per tile — writes
    ``lcp_output_words`` back to main memory, and spends
    ``lcp_compute_ops`` on bookkeeping.
    """

    algorithm: str  # "ip" or "op"
    mode: HWMode
    region: np.ndarray
    pattern: np.ndarray
    count: np.ndarray
    footprint: np.ndarray
    writes: np.ndarray = 0.0
    passes: np.ndarray = 1
    in_spm: np.ndarray = False
    shared_footprint: np.ndarray = False
    distinct_touches: np.ndarray = np.inf
    fill_granule: np.ndarray = 0
    compute_ops: np.ndarray = 0.0
    spm_fill_words: np.ndarray = 0.0
    lcp_serial_elements: np.ndarray = 0.0
    lcp_output_words: np.ndarray = 0.0
    lcp_compute_ops: np.ndarray = 0.0
    tile_spm_fill_words: np.ndarray = 0.0
    #: One-off invocation overhead (partition lookup, chunk scheduling).
    fixed_overhead_cycles: float = 0.0
    #: Free-form details for reports (vblock count, heap sizes, ...).
    meta: Dict[str, object] = field(default_factory=dict)
    #: One :class:`PETrace` per PE, tile-major (trace mode), or None.
    traces: Optional[List[PETrace]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.algorithm not in ("ip", "op"):
            raise SimulationError(f"unknown algorithm {self.algorithm!r}")
        shape = np.shape(self.count)
        if len(shape) != 3 or not shape[0]:
            raise SimulationError("profile must contain at least one tile")
        for axes, columns in _COLUMNS:
            for name, dtype in columns.items():
                setattr(self, name, _column(getattr(self, name), dtype, shape[:axes]))
        for column, kinds in ((self.pattern, Pattern), (self.region, Region)):
            if column.size and (column.min() < 0 or column.max() >= len(kinds)):
                raise SimulationError(f"unknown {kinds.__name__} in profile")
        if (self.count < 0).any() or (self.footprint < 0).any():
            raise SimulationError("stream counts must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, KernelProfile):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
            if f.compare
        )

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        return self.count.shape[0]

    def has_traces(self) -> bool:
        """Whether every PE carries an exact trace (trace mode possible)."""
        return self.traces is not None and all(
            t is not None for t in self.traces
        )
