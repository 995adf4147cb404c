"""Glue test: the IP trace's schedule equals the BlockedCOO layout.

The IP trace generator charges a *sequential* matrix stream, which is
only honest if the stored layout matches the (partition, vblock)-major
execution order.  ``BlockedCOO`` is that preprocessing; this test pins
the two to each other so neither can drift.
"""

import numpy as np

from repro.formats import BlockedCOO
from repro.hardware import Geometry, HWMode, Region
from repro.spmv import build_ip_partitions, inner_product, spmv_semiring, vblock_width


def test_trace_vector_order_matches_blocked_schedule(medium_coo, rng):
    geometry = Geometry(2, 4)
    v = rng.random(medium_coo.n_cols)
    res = inner_product(
        medium_coo, v, spmv_semiring(), geometry, HWMode.SCS, with_trace=True
    )
    width = res.profile.meta["vblock_width"]

    part = build_ip_partitions(
        medium_coo.row_extents(), geometry.tiles, geometry.pes_per_tile
    )
    flat_bounds = np.concatenate(
        [b[:-1] for b in part.pe_bounds] + [[medium_coo.n_rows]]
    ).astype(np.int64)
    blocked = BlockedCOO(medium_coo, flat_bounds, width)

    for t in range(geometry.tiles):
        for p in range(geometry.pes_per_tile):
            k = t * geometry.pes_per_tile + p
            trace = res.profile.traces[k]
            # the vector gathers appear once per entry, in schedule order
            vec_addrs = trace.addrs[trace.regions == int(Region.VECTOR_IN)]
            sched_cols = np.concatenate(
                [cols for _vb, _rows, cols, _vals in blocked.iter_schedule(k)]
                or [np.zeros(0, dtype=np.int64)]
            )
            assert np.array_equal(vec_addrs, sched_cols)


def test_trace_matrix_stream_is_sequential(medium_coo, rng):
    geometry = Geometry(2, 2)
    v = rng.random(medium_coo.n_cols)
    res = inner_product(
        medium_coo, v, spmv_semiring(), geometry, HWMode.SC, with_trace=True
    )
    for trace in res.profile.traces:
        m = trace.addrs[trace.regions == int(Region.MATRIX)]
        if len(m):
            assert np.all(np.diff(m) > 0)  # strictly increasing words
