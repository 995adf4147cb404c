"""Differential test of the IP kernels' per-PE accounting.

Both IP kernels count per-PE work from the row-sorted COO with binary
searches and a running count of (row, vblock) key changes.  The
reference below is the obvious brute force: a per-entry owner search,
``np.bincount`` and ``np.unique`` over the active keys.  Every field of
the :class:`~repro.hardware.profile.KernelProfile`, and the functional
result, must match it exactly — on pathological shapes too (empty
matrix, empty rows, more PEs than rows, one dense row), for all-inactive
and all-active frontiers, both partition kinds, narrowed vblocks, CF's
multi-word values, and a tuned operand whose within-row order makes the
keys step back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import COOMatrix, MultiVector
from repro.hardware import Geometry, HWMode, Pattern, Region
from repro.hardware.params import DEFAULT_PARAMS
from repro.spmv import (
    bfs_semiring,
    build_ip_partitions,
    cf_semiring,
    inner_product,
    inner_product_batch,
    spmv_semiring,
    sssp_semiring,
    vblock_width,
)
from repro.spmv.inner import _FIXED_OVERHEAD, _OPS_PER_ENTRY, _VBLOCK_SYNC

from ..hardware.reference_model import PE, Stream, Tile, pack

SEMIRINGS = {
    "spmv": spmv_semiring,
    "bfs": bfs_semiring,
    "sssp": sssp_semiring,
    "cf": lambda: cf_semiring(k=8),
}


def _layout(n_cols, geometry, vw, override):
    width = vblock_width(HWMode.SCS.spm_words(geometry, DEFAULT_PARAMS), vw)
    if override is not None:
        width = min(width, override)
    return width, max(1, -(-n_cols // width))


def _reference_counts(coo, active, partition, geometry, width, n_vblocks):
    """Per-PE nnz, active and first-touch counts by brute force."""
    n_pes = geometry.n_pes
    flat = np.concatenate(
        [b[:-1] for b in partition.pe_bounds] + [[coo.n_rows]]
    ).astype(np.int64)

    def owner(rows):
        return np.clip(np.searchsorted(flat, rows, side="right") - 1, 0, n_pes - 1)

    nnz = np.bincount(owner(coo.rows), minlength=n_pes)
    act = np.bincount(owner(coo.rows[active]), minlength=n_pes)
    keys = np.unique(coo.rows[active] * n_vblocks + coo.cols[active] // width)
    out = np.bincount(owner(keys // n_vblocks), minlength=n_pes)
    return nnz, act, out


def _reference_profile(case, partition, counts, width, n_vblocks, n_active):
    coo, sr, geometry = case["coo"], case["semiring"], case["geometry"]
    hw_mode, vw = case["hw_mode"], sr.value_words
    nnz, act, out = counts
    tiles = []
    for t in range(geometry.tiles):
        pes = []
        for p in range(geometry.pes_per_tile):
            k = t * geometry.pes_per_tile + p
            n_k, a_k = int(nnz[k]), int(act[k])
            lo, hi = partition.pe_row_range(t, p)
            pes.append(
                PE(
                    compute_ops=n_k * _OPS_PER_ENTRY + a_k * sr.combine_flops,
                    streams=[
                        Stream(
                            Region.MATRIX,
                            count=3 * n_k,
                            pattern=Pattern.SEQUENTIAL,
                            footprint=3 * n_k,
                        ),
                        Stream(
                            Region.VECTOR_IN,
                            count=n_k * vw,
                            pattern=Pattern.RANDOM,
                            footprint=min(width, coo.n_cols) * vw,
                            in_spm=hw_mode is HWMode.SCS,
                            shared_footprint=True,
                            distinct_touches=float(n_k),
                            fill_granule=vw if vw > 1 else 0,
                        ),
                        Stream(
                            Region.VECTOR_OUT,
                            count=2 * a_k * vw,
                            pattern=Pattern.RANDOM,
                            footprint=max(hi - lo, 1) * vw,
                            writes=a_k * vw,
                            distinct_touches=float(out[k]),
                            fill_granule=vw,
                        ),
                    ],
                )
            )
        tiles.append(
            Tile(
                pes=pes,
                lcp_compute_ops=n_vblocks * _VBLOCK_SYNC,
                spm_fill_words=(
                    float(coo.n_cols * vw) if hw_mode is HWMode.SCS else 0.0
                ),
            )
        )
    return pack(
        "ip",
        hw_mode,
        tiles,
        fixed_overhead_cycles=_FIXED_OVERHEAD + n_vblocks * _VBLOCK_SYNC,
        meta={
            "n_vblocks": n_vblocks,
            "vblock_width": width,
            "balanced": case["balanced"],
            "active_entries": n_active,
        },
    )


def _reference_values(coo, v, sr, current, active):
    rows, cols, vals = coo.rows[active], coo.cols[active], coo.vals[active]
    out = sr.init_output(coo.n_rows, current)
    v_dst = None if not sr.needs_dst else np.asarray(current)[rows]
    sr.scatter(out, rows, sr.combine(vals, v[cols], v_dst, cols, rows))
    touched = np.zeros(coo.n_rows, dtype=bool)
    touched[rows] = True
    prev = current if current is not None else sr.init_output(coo.n_rows, None)
    return sr.apply_vector_op(out, prev), touched


def _make_case(
    seed, n_rows, n_cols, density, dense_row, frontier, semiring, tiles,
    pes, hw_mode=HWMode.SC, balanced=True, override=None, shuffled=False,
    pass_partition=True, profile_only=False,
):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density) * rng.uniform(
        0.5, 3.0, (n_rows, n_cols)
    )
    if dense_row and n_rows:
        dense[rng.integers(n_rows)] = rng.uniform(0.5, 3.0, n_cols)
    coo = COOMatrix.from_dense(dense)
    if shuffled:
        # A tuned operand's layout: rows sorted, within-row order kept
        # from the original numbering rather than sorted by column.
        order = np.lexsort((rng.random(coo.nnz), coo.rows))
        coo = COOMatrix(
            n_rows, n_cols, coo.rows[order], coo.cols[order], coo.vals[order],
            sort=False,
        )
    sr = SEMIRINGS[semiring]()
    if sr.value_words > 1:
        v = rng.normal(size=(n_cols, sr.value_words))
        current = rng.normal(size=(n_rows, sr.value_words))
    else:
        v = np.full(n_cols, sr.absent)
        on = {
            "inactive": np.zeros(n_cols, dtype=bool),
            "active": np.ones(n_cols, dtype=bool),
            "random": rng.random(n_cols) < 0.5,
        }[frontier]
        v[on] = rng.uniform(0.5, 2.0, int(on.sum()))
        current = rng.uniform(0.0, 5.0, n_rows) if sr.carry_output else None
    return {
        "coo": coo, "v": v, "semiring": sr, "current": current,
        "geometry": Geometry(tiles, pes), "hw_mode": hw_mode,
        "balanced": balanced, "override": override,
        "pass_partition": pass_partition, "profile_only": profile_only,
    }


def _check(case):
    coo, v, sr = case["coo"], case["v"], case["semiring"]
    geometry, current = case["geometry"], case["current"]
    vw = sr.value_words
    partition = build_ip_partitions(
        coo.row_extents(), geometry.tiles, geometry.pes_per_tile,
        balanced=case["balanced"],
    )
    width, n_vblocks = _layout(coo.n_cols, geometry, vw, case["override"])
    active = (
        v[coo.cols] != sr.absent if vw == 1 else np.ones(coo.nnz, dtype=bool)
    )
    counts = _reference_counts(coo, active, partition, geometry, width, n_vblocks)
    expected = _reference_profile(
        case, partition, counts, width, n_vblocks, int(active.sum())
    )
    values, touched = _reference_values(coo, v, sr, current, active)

    kw = dict(
        hw_mode=case["hw_mode"],
        partition=partition if case["pass_partition"] else None,
        balanced=case["balanced"],
        profile_only=case["profile_only"],
        vblock_width=case["override"],
    )
    results = [inner_product(coo, v, sr, geometry, current=current, **kw)]
    if vw == 1:
        other = np.where(np.arange(coo.n_cols) % 2 == 0, 1.0, sr.absent)
        mv = MultiVector([other, v], absent=sr.absent)
        results += inner_product_batch(
            coo, mv, sr, geometry, currents=[current], columns=[1], **kw
        )
    for res in results:
        assert res.profile == expected
        if case["profile_only"]:
            assert res.values is None and res.touched is None
        else:
            assert np.array_equal(res.values, values)
            assert np.array_equal(res.touched, touched)


@st.composite
def ip_cases(draw):
    semiring = draw(st.sampled_from(sorted(SEMIRINGS)))
    return _make_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_rows=draw(st.integers(0, 24)),
        n_cols=draw(st.integers(1, 24)),
        density=draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0])),
        dense_row=draw(st.booleans()),
        frontier=draw(st.sampled_from(["inactive", "active", "random"])),
        semiring=semiring,
        tiles=draw(st.integers(1, 4)),
        pes=draw(st.integers(1, 8)),
        hw_mode=draw(st.sampled_from([HWMode.SC, HWMode.SCS])),
        balanced=draw(st.booleans()),
        override=draw(st.sampled_from([None, 1, 2, 3, 5])),
        shuffled=draw(st.booleans()),
        pass_partition=draw(st.booleans()),
        profile_only=draw(st.booleans()),
    )


@given(ip_cases())
@settings(max_examples=150, deadline=None)
def test_ip_accounting_matches_brute_force(case):
    _check(case)


#: Each pathology the property above may or may not draw, pinned.
PATHOLOGIES = {
    "empty_matrix": dict(n_rows=12, n_cols=9, density=0.0, dense_row=False),
    "no_rows": dict(n_rows=0, n_cols=5, density=0.3, dense_row=False),
    "empty_rows": dict(n_rows=30, n_cols=20, density=0.03, dense_row=False),
    "more_pes_than_rows": dict(
        n_rows=3, n_cols=6, density=0.8, dense_row=False, tiles=4, pes=8
    ),
    "one_dense_row": dict(n_rows=20, n_cols=20, density=0.02, dense_row=True),
    "all_inactive": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=False, frontier="inactive"
    ),
    "all_active": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=False, frontier="active"
    ),
    "unbalanced": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=True, balanced=False
    ),
    "vblock_override": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=False, override=3
    ),
    "cf_value_words_8": dict(
        n_rows=15, n_cols=10, density=0.3, dense_row=False, semiring="cf"
    ),
    "scs_profile_only": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=False,
        hw_mode=HWMode.SCS, profile_only=True,
    ),
    "built_partition": dict(
        n_rows=20, n_cols=20, density=0.3, dense_row=False,
        pass_partition=False,
    ),
}


@pytest.mark.parametrize("name", sorted(PATHOLOGIES))
@pytest.mark.parametrize("semiring", ["spmv", "bfs", "sssp"])
def test_ip_accounting_pathologies(name, semiring):
    spec = dict(
        seed=7, frontier="random", semiring=semiring, tiles=2, pes=4,
    )
    spec.update(PATHOLOGIES[name])
    _check(_make_case(**spec))


def test_tuned_operand_with_non_monotone_keys():
    """Within-row order that steps back across vblocks takes the
    ``np.unique`` fallback and still matches the reference."""
    case = _make_case(
        seed=3, n_rows=25, n_cols=24, density=0.4, dense_row=True,
        frontier="random", semiring="spmv", tiles=2, pes=4, override=4,
        shuffled=True,
    )
    coo, v = case["coo"], case["v"]
    on = v[coo.cols] != 0.0
    keys = coo.rows[on] * 6 + coo.cols[on] // 4
    assert np.any(keys[1:] < keys[:-1])
    _check(case)
