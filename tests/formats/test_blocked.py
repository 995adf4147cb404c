"""Blocked (vblock-major) COO layout tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.spmv import build_ip_partitions

from ..hardware.trace_oracle import BlockedCOO


def flat_bounds(coo, tiles, pes):
    part = build_ip_partitions(coo.row_extents(), tiles, pes)
    return np.concatenate(
        [b[:-1] for b in part.pe_bounds] + [[coo.n_rows]]
    ).astype(np.int64)


class TestBlocking:
    def test_preserves_content(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 128)
        assert b.to_coo().allclose(medium_coo)
        assert b.nnz == medium_coo.nnz

    def test_invariants(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 100)
        assert b.check_invariants()

    def test_partition_streams_contiguous_and_disjoint(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 256)
        prev_hi = 0
        for p in range(b.n_partitions):
            lo, hi = b.partition_range(p)
            assert lo == prev_hi
            prev_hi = hi
        assert prev_hi == b.nnz

    def test_schedule_order_row_major_inside_group(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 256)
        for vb, rows, cols, _vals in b.iter_schedule(0):
            keys = rows * b.n_cols + cols
            assert np.all(np.diff(keys) > 0)

    def test_group_range_validation(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 256)
        with pytest.raises(ShapeError):
            b.group_range(b.n_partitions, 0)
        with pytest.raises(ShapeError):
            b.group_range(0, b.n_vblocks)

    def test_rejects_bad_bounds(self, medium_coo):
        with pytest.raises(ShapeError):
            BlockedCOO(medium_coo, [0, 10], 64)  # doesn't cover all rows
        with pytest.raises(ShapeError):
            BlockedCOO(medium_coo, [0, medium_coo.n_rows], 0)

    @given(
        n=st.integers(4, 60),
        density=st.floats(0.01, 0.5),
        parts=st.integers(1, 8),
        width=st.integers(1, 64),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, density, parts, width, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < density) * rng.random((n, n))
        coo = COOMatrix.from_dense(dense)
        bounds = np.linspace(0, n, parts + 1).astype(np.int64)
        b = BlockedCOO(coo, bounds, width)
        assert b.check_invariants()
        assert np.allclose(b.to_coo().to_dense(), dense)


class TestInvariantProperties:
    """check_invariants must hold for any valid build and catch any
    group-membership corruption (the autotuner's blocked storage rests
    on exactly these two guarantees)."""

    @given(
        n=st.integers(4, 50),
        nnz=st.integers(0, 150),
        parts=st.integers(1, 6),
        width=st.integers(1, 70),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_holds_for_any_build(self, n, nnz, parts, width, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=nnz)
        cols = rng.integers(0, n, size=nnz)
        coo = COOMatrix(n, n, rows, cols, rng.random(nnz)).sum_duplicates()
        bounds = np.linspace(0, n, parts + 1).astype(np.int64)
        b = BlockedCOO(coo, bounds, width)
        assert b.check_invariants()
        assert b.nnz == coo.nnz

    @given(
        n=st.integers(8, 40),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_holds_for_schedule_stable_input(self, n, seed):
        """The autotuner feeds BlockedCOO matrices whose rows are sorted
        but whose within-row columns are NOT; the layout must still
        group correctly."""
        from repro.workloads.reorder import degree_order, permute_matrix

        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.2) * rng.random((n, n))
        coo = COOMatrix.from_dense(dense)
        if coo.nnz == 0:
            return
        stable = permute_matrix(coo, degree_order(coo), stable=True)
        b = BlockedCOO(stable, np.asarray([0, n // 2, n]), 4)
        assert b.check_invariants()
        assert np.allclose(
            b.to_coo().to_dense(), stable.to_dense()
        )

    def test_detects_row_outside_partition(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 128)
        if b.nnz == 0:
            pytest.skip("empty fixture")
        # Teleport one entry's row out of its partition.
        lo, hi = b.partition_range(0)
        assert hi > lo
        b.rows[lo] = b.n_rows - 1
        assert not b.check_invariants()

    def test_detects_col_outside_vblock(self, medium_coo):
        b = BlockedCOO(medium_coo, flat_bounds(medium_coo, 2, 4), 128)
        target = None
        for p in range(b.n_partitions):
            for vb, rows, cols, _vals in b.iter_schedule(p):
                if vb == 0 and len(cols):
                    target = b.group_range(p, 0)
                    break
            if target:
                break
        assert target is not None
        b.cols[target[0]] = b.n_cols - 1  # out of vblock 0 for width 128
        assert not b.check_invariants()
