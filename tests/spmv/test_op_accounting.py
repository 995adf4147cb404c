"""Differential test of the OP kernels' per-(tile, PE) accounting.

Both OP kernels count their merge work per (tile, PE) cell from the
gathered frontier columns: elements, column heads (distinct (cell,
column) pairs), LCP inputs (distinct (cell, row) pairs) and LCP outputs
(distinct (tile, row) pairs).  The reference below is the obvious brute
force: a per-entry owner search for each entry's tile and PE, then
``np.bincount`` and ``np.unique`` over the pair keys.  Every field of
the :class:`~repro.hardware.profile.KernelProfile` (streams,
``compute_ops``, ``lcp_*``), the functional values and the touched mask
must match it exactly, for the sequential and the batched kernel — on
pathological shapes too (an empty frontier, fewer frontier entries than
PEs, one dense column across every tile, every touched row in one tile),
both partition kinds, with a partition passed in and without.

The heap streams reuse the kernel's residency split
(``_heap_streams``); what is under test is the counts that feed it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, CSCMatrix, MultiVector, SparseVector
from repro.hardware import Geometry, HWMode, Pattern, Region
from repro.hardware.params import DEFAULT_PARAMS
from repro.spmv import (
    bfs_semiring,
    build_ip_partitions,
    outer_product,
    outer_product_batch,
    spmv_semiring,
    sssp_semiring,
)
from repro.spmv.outer import (
    _FIXED_OVERHEAD,
    _HEAP_SLOT_WORDS,
    _OPS_PER_COLUMN,
    _OPS_PER_ELEMENT,
    _heap_streams,
)

from ..hardware.reference_model import PE, Stream, Tile, pack

SEMIRINGS = {"spmv": spmv_semiring, "bfs": bfs_semiring, "sssp": sssp_semiring}


def _reference_counts(csc, frontier, tile_bounds, geometry):
    """Per-cell elements, heads and LCP inputs, per-tile LCP outputs and
    per-PE frontier columns, by brute force."""
    T, P = geometry.tiles, geometry.pes_per_tile
    rows, cols, cells, tiles = [], [], [], []
    cols_pe = np.zeros(P, dtype=np.int64)
    for p, (chunk, _) in enumerate(frontier.chunk(P)):
        cols_pe[p] = len(chunk)
        for j in chunk.tolist():
            for r in csc.column(j)[0].tolist():
                t = int(np.searchsorted(tile_bounds, r, side="right")) - 1
                t = min(max(t, 0), T - 1)
                rows.append(r)
                cols.append(j)
                tiles.append(t)
                cells.append(t * P + p)
    rows, cols, cells, tiles = (
        np.array(x, dtype=np.int64) for x in (rows, cols, cells, tiles)
    )
    n_rows, n_cols = csc.n_rows, csc.n_cols

    def distinct_per_bin(keys, stride, n_bins):
        return np.bincount(np.unique(keys) // stride, minlength=n_bins)

    elems = np.bincount(cells, minlength=T * P)
    heads = distinct_per_bin(cells * n_cols + cols, n_cols, T * P)
    pe_out = distinct_per_bin(cells * n_rows + rows, n_rows, T * P)
    tile_out = distinct_per_bin(tiles * n_rows + rows, n_rows, T)
    return elems, heads, pe_out, tile_out, cols_pe, len(rows)


def _reference_profile(case, frontier, counts):
    csc, sr, geometry = case["csc"], case["semiring"], case["geometry"]
    hw_mode = case["hw_mode"]
    T, P = geometry.tiles, geometry.pes_per_tile
    elems, heads, pe_out, tile_out, cols_pe, n_touched = counts
    n_el = elems.reshape(T, P)
    n_heads = heads.reshape(T, P)
    depth = np.reshape(
        [math.log2(h + 1) if h > 0 else 0.0 for h in heads.tolist()], (T, P)
    )
    heap_accesses = n_el * (4 + 7.5 * depth) + n_heads * (4 + 2.0 * depth)
    compares = n_el * 2.2 * depth + n_heads * depth
    (resident, spilled), (fp_res, fp_spill), res_in_spm = _heap_streams(
        heap_accesses,
        _HEAP_SLOT_WORDS * np.maximum(n_heads, 1),
        hw_mode.spm_words(geometry, DEFAULT_PARAMS),
        hw_mode,
        geometry.l1_pe_words(DEFAULT_PARAMS),
    )
    tiles = []
    for t in range(T):
        pes = []
        for p in range(P):
            c, el = int(cols_pe[p]), int(n_el[t, p])
            pes.append(
                PE(
                    compute_ops=(
                        el * (_OPS_PER_ELEMENT + sr.combine_flops)
                        + compares[t, p]
                        + c * _OPS_PER_COLUMN
                    ),
                    streams=[
                        Stream(Region.FRONTIER, 2 * c, Pattern.SEQUENTIAL, 2 * c),
                        Stream(Region.COLPTR, 2 * c, Pattern.RANDOM, csc.n_cols + 1),
                        Stream(Region.MATRIX, 2 * el, Pattern.DEPENDENT, 2 * el),
                        Stream(
                            Region.HEAP,
                            resident[t, p],
                            Pattern.DEPENDENT,
                            fp_res[t, p],
                            in_spm=bool(res_in_spm[t, p]),
                        ),
                        Stream(
                            Region.HEAP, spilled[t, p], Pattern.DEPENDENT,
                            fp_spill[t, p],
                        ),
                    ],
                )
            )
        tiles.append(
            Tile(
                pes=pes,
                lcp_serial_elements=float(pe_out[t * P:(t + 1) * P].sum()),
                lcp_output_words=2.0 * tile_out[t],
                lcp_compute_ops=2.0 * float(cols_pe.sum()) / T,
            )
        )
    return pack(
        "op",
        hw_mode,
        tiles,
        fixed_overhead_cycles=_FIXED_OVERHEAD,
        meta={
            "touched_columns": frontier.nnz,
            "touched_entries": n_touched,
            "frontier_density": frontier.density,
        },
    )


def _reference_values(coo, v, sr, current):
    on = v[coo.cols] != sr.absent
    rows, cols, vals = coo.rows[on], coo.cols[on], coo.vals[on]
    out = sr.init_output(coo.n_rows, current)
    v_dst = None if not sr.needs_dst else np.asarray(current)[rows]
    sr.scatter(out, rows, sr.combine(vals, v[cols], v_dst, cols, rows))
    touched = np.zeros(coo.n_rows, dtype=bool)
    touched[rows] = True
    prev = current if current is not None else sr.init_output(coo.n_rows, None)
    return sr.apply_vector_op(out, prev), touched


def _make_case(
    seed, n_rows, n_cols, density, frontier_density, semiring, tiles, pes,
    dense_col=False, dense_row=False, hw_mode=HWMode.PC, balanced=True,
    pass_partition=True, profile_only=False,
):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density) * rng.uniform(
        0.5, 3.0, (n_rows, n_cols)
    )
    if dense_col:
        dense[:, rng.integers(n_cols)] = rng.uniform(0.5, 3.0, n_rows)
    if dense_row:
        dense[rng.integers(n_rows)] = rng.uniform(0.5, 3.0, n_cols)
    coo = COOMatrix.from_dense(dense)
    sr = SEMIRINGS[semiring]()
    v = np.full(n_cols, sr.absent)
    on = rng.random(n_cols) < frontier_density
    v[on] = rng.uniform(0.5, 2.0, int(on.sum()))
    current = rng.uniform(0.0, 5.0, n_rows) if sr.carry_output else None
    return {
        "coo": coo, "csc": CSCMatrix.from_coo(coo), "v": v, "semiring": sr,
        "current": current, "geometry": Geometry(tiles, pes),
        "hw_mode": hw_mode, "balanced": balanced,
        "pass_partition": pass_partition, "profile_only": profile_only,
    }


def _check(case):
    coo, csc, v, sr = case["coo"], case["csc"], case["v"], case["semiring"]
    geometry, current = case["geometry"], case["current"]
    partition = build_ip_partitions(
        coo.row_extents(), geometry.tiles, geometry.pes_per_tile,
        balanced=case["balanced"],
    )
    frontier = SparseVector.from_dense(v, absent=sr.absent)
    counts = _reference_counts(csc, frontier, partition.tile_bounds, geometry)
    expected = _reference_profile(case, frontier, counts)
    values, touched = _reference_values(coo, v, sr, current)

    kw = dict(
        hw_mode=case["hw_mode"],
        partition=partition if case["pass_partition"] else None,
        balanced=case["balanced"],
        profile_only=case["profile_only"],
    )
    other = np.where(np.arange(csc.n_cols) % 2 == 0, 1.0, sr.absent)
    mv = MultiVector([other, v], absent=sr.absent)
    results = [
        outer_product(csc, frontier, sr, geometry, current=current, **kw),
        *outer_product_batch(
            csc, mv, sr, geometry, currents=[current], columns=[1], **kw
        ),
    ]
    for res in results:
        assert res.profile == expected
        if case["profile_only"]:
            assert res.values is None and res.touched is None
        else:
            assert np.array_equal(res.values, values)
            assert np.array_equal(res.touched, touched)


@st.composite
def op_cases(draw):
    return _make_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_rows=draw(st.integers(1, 30)),
        n_cols=draw(st.integers(1, 30)),
        density=draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0])),
        frontier_density=draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0])),
        semiring=draw(st.sampled_from(sorted(SEMIRINGS))),
        tiles=draw(st.integers(1, 4)),
        pes=draw(st.integers(1, 8)),
        dense_col=draw(st.booleans()),
        dense_row=draw(st.booleans()),
        hw_mode=draw(st.sampled_from([HWMode.PC, HWMode.PS, HWMode.SC])),
        balanced=draw(st.booleans()),
        pass_partition=draw(st.booleans()),
        profile_only=draw(st.booleans()),
    )


@given(op_cases())
@settings(max_examples=150, deadline=None)
def test_op_accounting_matches_brute_force(case):
    _check(case)


#: Each pathology the property above may or may not draw, pinned.
PATHOLOGIES = {
    "empty_frontier": dict(n_rows=20, n_cols=20, density=0.3, frontier_density=0.0),
    "fewer_entries_than_pes": dict(
        n_rows=24, n_cols=24, density=0.3, frontier_density=0.1
    ),
    "dense_column_every_tile": dict(
        n_rows=32, n_cols=20, density=0.02, frontier_density=0.2,
        dense_col=True,
    ),
    "all_rows_in_one_tile": dict(
        n_rows=24, n_cols=24, density=0.0, frontier_density=0.5,
        dense_row=True,
    ),
    "unbalanced": dict(
        n_rows=30, n_cols=30, density=0.2, frontier_density=0.3,
        dense_row=True, balanced=False,
    ),
    "built_partition": dict(
        n_rows=30, n_cols=30, density=0.2, frontier_density=0.3,
        pass_partition=False,
    ),
    "ps_profile_only": dict(
        n_rows=30, n_cols=30, density=0.2, frontier_density=0.3,
        hw_mode=HWMode.PS, profile_only=True,
    ),
}


@pytest.mark.parametrize("name", sorted(PATHOLOGIES))
@pytest.mark.parametrize("geometry", [(2, 8), (4, 8), (8, 16)])
@pytest.mark.parametrize("semiring", ["spmv", "sssp"])
def test_op_accounting_pathologies(name, geometry, semiring):
    spec = dict(seed=11, semiring=semiring, tiles=geometry[0], pes=geometry[1])
    spec.update(PATHOLOGIES[name])
    _check(_make_case(**spec))


def test_pathologies_hold_their_shape():
    """The pinned cases build what their names say."""
    case = _make_case(seed=11, semiring="spmv", tiles=2, pes=8,
                      **PATHOLOGIES["fewer_entries_than_pes"])
    frontier = SparseVector.from_dense(case["v"])
    assert 0 < frontier.nnz < 8
    case = _make_case(seed=11, semiring="spmv", tiles=8, pes=16,
                      **PATHOLOGIES["dense_column_every_tile"])
    assert case["csc"].column_lengths().max() == 32
    case = _make_case(seed=11, semiring="spmv", tiles=4, pes=8,
                      **PATHOLOGIES["all_rows_in_one_tile"])
    assert len(np.unique(case["coo"].rows)) == 1
