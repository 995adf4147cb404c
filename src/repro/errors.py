"""Exception hierarchy for the CoSPARSE reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library raises with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of numpy, etc.)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class FormatError(ReproError):
    """A sparse/dense storage container was constructed or used incorrectly.

    Examples: mismatched index/value array lengths, indices out of range,
    a CSC ``indptr`` that is not monotonically non-decreasing.
    """


class ShapeError(FormatError):
    """Operand shapes are incompatible (e.g. SpMV with wrong vector length)."""


class ConfigurationError(ReproError):
    """An invalid hardware/software configuration was requested.

    Examples: a hardware mode that does not exist, pairing the inner-product
    kernel with a private-scratchpad memory mode (the paper only defines
    SC/SCS for IP and PC/PS for OP), or a geometry with zero tiles.
    """


class SimulationError(ReproError):
    """The hardware model was driven incorrectly.

    Examples: a kernel profile with an unknown pattern or a negative
    count, or a sanitizer check that fails on a kernel's accounting.
    """


class WorkloadError(ReproError):
    """A workload generator received unsatisfiable parameters.

    Examples: requesting more non-zeros than fit in the matrix, a density
    outside ``(0, 1]``, or a graph suite entry that does not exist.
    """


class AlgorithmError(ReproError):
    """A graph algorithm was invoked on unsuitable input.

    Examples: SSSP with negative edge weights, a source vertex out of range,
    or collaborative filtering on a non-bipartite rating matrix.
    """


class ServeError(ReproError):
    """The query service was driven incorrectly or answered with an error.

    Examples: a malformed or oversized protocol frame, a query against a
    graph the server never loaded, or a server-side failure relayed to
    the client as an error response.
    """
