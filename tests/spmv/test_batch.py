"""Batched kernels: bit-identity against the sequential kernels.

The contract under test: every column of ``inner_product_batch`` /
``outer_product_batch`` returns exactly what the sequential kernel
returns for that column alone — functional values, touched mask, and a
profile that prices to the same cycle count.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError, SimulationError
from repro.formats import MultiVector, SparseVector
from repro.hardware import HWMode, TransmuterSystem
from repro.hardware.params import DEFAULT_PARAMS
from repro.perf import counters
from repro.spmv import (
    cf_semiring,
    inner_product,
    inner_product_batch,
    outer_product,
    outer_product_batch,
    spmv_semiring,
    sssp_semiring,
)
from repro.spmv.semiring import bfs_semiring
from repro.workloads import random_frontier


def _price(geometry, profile):
    return TransmuterSystem(geometry, DEFAULT_PARAMS).evaluate_without_switching(
        profile
    ).cycles


def _assert_result_identical(batch, sequential):
    assert np.array_equal(batch.values, sequential.values)
    assert np.array_equal(batch.touched, sequential.touched)
    assert batch.profile.meta == sequential.profile.meta


class TestInnerBatch:
    @pytest.mark.parametrize("hw_mode", [HWMode.SC, HWMode.SCS])
    def test_bit_identical_per_column(self, medium_coo, geom24, rng, hw_mode):
        sr = spmv_semiring()
        n = medium_coo.n_cols
        cols = []
        for dens in (0.0, 0.01, 0.4, 1.0):
            mask = rng.random(n) < dens
            cols.append(np.where(mask, rng.uniform(0.5, 1.5, n), 0.0))
        mv = MultiVector(cols)
        batch = inner_product_batch(
            medium_coo, mv, sr, geom24, hw_mode=hw_mode
        )
        for j, col in enumerate(cols):
            seq = inner_product(medium_coo, col, sr, geom24, hw_mode=hw_mode)
            _assert_result_identical(batch[j], seq)
            assert _price(geom24, batch[j].profile) == _price(
                geom24, seq.profile
            )

    def test_min_semiring_with_inf_absent(self, medium_coo, geom24, rng):
        sr = bfs_semiring()
        n = medium_coo.n_cols
        cols = []
        for dens in (0.005, 0.3):
            arr = np.full(n, np.inf)
            idx = rng.choice(n, int(dens * n), replace=False)
            arr[idx] = rng.uniform(0.0, 3.0, len(idx))
            cols.append(arr)
        mv = MultiVector(cols, absent=np.inf)
        batch = inner_product_batch(medium_coo, mv, sr, geom24)
        for j, col in enumerate(cols):
            seq = inner_product(medium_coo, col, sr, geom24)
            _assert_result_identical(batch[j], seq)

    def test_carry_semiring_per_column_currents(self, medium_coo, geom24, rng):
        sr = sssp_semiring()
        n = medium_coo.n_cols
        currents = [rng.uniform(1.0, 5.0, n) for _ in range(2)]
        cols = []
        for seed in (1, 2):
            arr = np.full(n, np.inf)
            sv = random_frontier(n, 0.2, seed=seed)
            arr[sv.indices] = sv.values
            cols.append(arr)
        mv = MultiVector(cols, absent=np.inf)
        batch = inner_product_batch(
            medium_coo, mv, sr, geom24, currents=currents
        )
        for j, (col, cur) in enumerate(zip(cols, currents)):
            seq = inner_product(
                medium_coo, col, sr, geom24, current=cur
            )
            _assert_result_identical(batch[j], seq)

    def test_column_subset_and_profile_only(self, medium_coo, geom24, rng):
        sr = spmv_semiring()
        n = medium_coo.n_cols
        cols = [rng.random(n), rng.random(n), rng.random(n)]
        mv = MultiVector(cols)
        batch = inner_product_batch(
            medium_coo, mv, sr, geom24, columns=[2, 0], profile_only=True
        )
        assert len(batch) == 2
        assert batch[0].values is None and not batch[0].executed
        seq = inner_product(
            medium_coo, cols[2], sr, geom24, profile_only=True
        )
        assert batch[0].profile.meta == seq.profile.meta

    def test_validation(self, medium_coo, geom24, rng):
        sr = spmv_semiring()
        mv = MultiVector([rng.random(medium_coo.n_cols)])
        with pytest.raises(ConfigurationError):
            inner_product_batch(medium_coo, mv, sr, geom24, hw_mode=HWMode.PC)
        with pytest.raises(ShapeError):
            inner_product_batch(
                medium_coo, rng.random(medium_coo.n_cols), sr, geom24
            )
        with pytest.raises(ConfigurationError):
            inner_product_batch(medium_coo, mv, cf_semiring(), geom24)
        bad_absent = MultiVector([rng.random(medium_coo.n_cols)], absent=np.inf)
        with pytest.raises(ConfigurationError):
            inner_product_batch(medium_coo, bad_absent, sr, geom24)
        with pytest.raises(ShapeError):
            inner_product_batch(
                medium_coo, mv, sr, geom24, currents=[None, None]
            )

    def test_batch_counter(self, medium_coo, geom24, rng):
        sr = spmv_semiring()
        mv = MultiVector([rng.random(medium_coo.n_cols) for _ in range(3)])
        counters.reset()
        inner_product_batch(medium_coo, mv, sr, geom24)
        assert counters.kernel_batched_columns == 3
        assert counters.kernel_executions == 3


class TestOuterBatch:
    @pytest.mark.parametrize("hw_mode", [HWMode.PC, HWMode.PS])
    def test_bit_identical_per_column(self, medium_csc, geom24, hw_mode):
        sr = spmv_semiring()
        n = medium_csc.n_cols
        cols = [
            random_frontier(n, 0.002, seed=1),
            random_frontier(n, 0.05, seed=2),
            SparseVector.empty(n),
            random_frontier(n, 0.05, seed=2),  # duplicate: full overlap
        ]
        mv = MultiVector(cols)
        batch = outer_product_batch(medium_csc, mv, sr, geom24, hw_mode=hw_mode)
        for j, sv in enumerate(cols):
            seq = outer_product(medium_csc, sv, sr, geom24, hw_mode=hw_mode)
            _assert_result_identical(batch[j], seq)
            assert _price(geom24, batch[j].profile) == _price(
                geom24, seq.profile
            )

    def test_carry_semiring(self, medium_csc, geom24, rng):
        sr = sssp_semiring()
        n = medium_csc.n_cols
        cols = [random_frontier(n, 0.01, seed=3), random_frontier(n, 0.1, seed=4)]
        currents = [rng.uniform(0.0, 9.0, medium_csc.n_rows) for _ in cols]
        mv = MultiVector(cols, absent=np.inf)
        batch = outer_product_batch(
            medium_csc, mv, sr, geom24, currents=currents
        )
        for j, (sv, cur) in enumerate(zip(cols, currents)):
            seq = outer_product(medium_csc, sv, sr, geom24, current=cur)
            _assert_result_identical(batch[j], seq)

    def test_all_empty_batch(self, medium_csc, geom24):
        sr = spmv_semiring()
        mv = MultiVector([SparseVector.empty(medium_csc.n_cols)] * 2)
        batch = outer_product_batch(medium_csc, mv, sr, geom24)
        for res in batch:
            assert res.touched.sum() == 0
            assert np.array_equal(res.values, np.zeros(medium_csc.n_rows))

    def test_validation(self, medium_csc, geom24):
        sr = spmv_semiring()
        mv = MultiVector([SparseVector.empty(medium_csc.n_cols)])
        with pytest.raises(ConfigurationError):
            outer_product_batch(medium_csc, mv, sr, geom24, hw_mode=HWMode.SCS)
        with pytest.raises(ShapeError):
            outer_product_batch(
                medium_csc, mv, sr, geom24, columns=[1]
            )


class TestExactCrossCheckError:
    """The OP exact-path cross-check raises SimulationError (not a bare
    assert), so it survives ``python -O``."""

    def test_mismatch_raises_simulation_error(
        self, medium_csc, geom24, monkeypatch
    ):
        import repro.spmv.outer as outer_mod

        sr = spmv_semiring()
        sv = random_frontier(medium_csc.n_cols, 0.01, seed=5)
        real = outer_mod._exact_merge

        def corrupted(*args, **kwargs):
            out, traces, stats = real(*args, **kwargs)
            out = out + 1.0
            return out, traces, stats

        monkeypatch.setattr(outer_mod, "_exact_merge", corrupted)
        with pytest.raises(SimulationError):
            outer_product(medium_csc, sv, sr, geom24, exact=True)
