"""Shard construction tests: coverage, ordering, and the commvol split."""

import numpy as np
import pytest

from repro.cluster import Shard, ShardedRuntime, build_shards, shard_bounds
from repro.errors import ConfigurationError
from repro.formats import COOMatrix
from repro.graphs import Graph
from repro.workloads.reorder import permute_matrix
from repro.spmv import (
    commvol_row_bounds,
    cut_columns,
    equal_nnz_row_bounds,
)

from ..formats.reference_order import reference_csc


class TestBuildShards:
    def test_shards_tile_the_matrix(self, powerlaw_coo):
        bounds = shard_bounds(powerlaw_coo, 4)
        shards = build_shards(powerlaw_coo, bounds)
        assert len(shards) == 4
        assert shards[0].lo == 0
        assert shards[-1].hi == powerlaw_coo.n_rows
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo
        assert sum(s.coo.nnz for s in shards) == powerlaw_coo.nnz

    def test_local_rows_and_global_cols(self, powerlaw_coo):
        shards = build_shards(powerlaw_coo, shard_bounds(powerlaw_coo, 3))
        for s in shards:
            assert s.coo.n_rows == s.hi - s.lo
            assert s.coo.n_cols == powerlaw_coo.n_cols
            if s.coo.nnz:
                assert s.coo.rows.min() >= 0
                assert s.coo.rows.max() < s.n_rows

    def test_entry_order_is_preserved(self, powerlaw_coo):
        """Slicing the row-sorted entry stream must not reorder entries —
        the accumulation-order half of the bit-identity contract."""
        shards = build_shards(powerlaw_coo, shard_bounds(powerlaw_coo, 4))
        rebuilt_rows = np.concatenate([s.coo.rows + s.lo for s in shards])
        rebuilt_cols = np.concatenate([s.coo.cols for s in shards])
        assert np.array_equal(rebuilt_rows, powerlaw_coo.rows)
        assert np.array_equal(rebuilt_cols, powerlaw_coo.cols)

    def test_col_mask_matches_entries(self, powerlaw_coo):
        shards = build_shards(powerlaw_coo, shard_bounds(powerlaw_coo, 4))
        for s in shards:
            expected = np.zeros(powerlaw_coo.n_cols, dtype=bool)
            expected[s.coo.cols] = True
            assert np.array_equal(s.col_mask, expected)

    @pytest.mark.parametrize("stable", [False, True], ids=["sorted", "stable-permuted"])
    def test_formats_equal_the_sort_based_builds(self, powerlaw_coo, stable):
        adj = powerlaw_coo
        if stable:
            perm = np.random.default_rng(3).permutation(adj.n_rows)
            adj = permute_matrix(adj, perm, stable=True)
        op = Graph(adj).operand
        for nodes in (1, 3, 4):
            for strategy in ("nnz", "commvol"):
                bounds = shard_bounds(op.coo, nodes, strategy)
                built = (
                    build_shards(op.coo, bounds),
                    ShardedRuntime(op, nodes, "2x4", partition=strategy, jobs=1).shards,
                )
                for shards in built:
                    for s in shards:
                        e0, e1 = np.searchsorted(op.coo.rows, [s.lo, s.hi])
                        want = (
                            op.coo.rows[e0:e1] - s.lo,
                            op.coo.cols[e0:e1],
                            op.coo.vals[e0:e1],
                        )
                        local = COOMatrix(s.hi - s.lo, op.coo.n_cols, *want, sort=False)
                        for got, ref in zip(
                            s.coo.to_arrays() + (s.csc.indptr, s.csc.indices, s.csc.vals),
                            want + reference_csc(local),
                        ):
                            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_unknown_strategy_rejected(self, powerlaw_coo):
        with pytest.raises(ConfigurationError):
            shard_bounds(powerlaw_coo, 2, strategy="metis")


class TestCommvol:
    def test_window_zero_is_equal_nnz(self, powerlaw_coo):
        ptr = powerlaw_coo.row_extents()
        frozen = commvol_row_bounds(ptr, powerlaw_coo.cols, 4, window=0)
        assert np.array_equal(frozen, equal_nnz_row_bounds(ptr, 4))

    def test_never_cuts_more_than_equal_nnz(self, powerlaw_coo):
        ptr = powerlaw_coo.row_extents()
        cols = powerlaw_coo.cols
        for parts in (2, 4, 8):
            nnz_cut = cut_columns(ptr, cols, equal_nnz_row_bounds(ptr, parts))
            cv_cut = cut_columns(
                ptr, cols, commvol_row_bounds(ptr, cols, parts)
            )
            assert cv_cut <= nnz_cut

    def test_bounds_stay_monotone_and_cover(self, powerlaw_coo):
        ptr = powerlaw_coo.row_extents()
        bounds = commvol_row_bounds(ptr, powerlaw_coo.cols, 6)
        assert bounds[0] == 0
        assert bounds[-1] == powerlaw_coo.n_rows
        assert np.all(np.diff(bounds) >= 0)

    def test_strategy_dispatch(self, powerlaw_coo):
        cv = shard_bounds(powerlaw_coo, 4, strategy="commvol")
        ptr = powerlaw_coo.row_extents()
        assert np.array_equal(
            cv, commvol_row_bounds(ptr, powerlaw_coo.cols, 4)
        )
        shards = build_shards(powerlaw_coo, cv)
        assert isinstance(shards[0], Shard)
        assert sum(s.coo.nnz for s in shards) == powerlaw_coo.nnz
