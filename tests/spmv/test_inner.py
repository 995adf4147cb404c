"""Inner-product kernel tests: functional result + profile shape."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.formats import COOMatrix, CSCMatrix, MultiVector
from repro.hardware import Geometry, HWMode, Region
from repro.spmv import (
    bfs_semiring,
    build_ip_partitions,
    cf_semiring,
    inner_product,
    inner_product_batch,
    outer_product,
    outer_product_batch,
    reference_spmv,
    spmv_semiring,
    sssp_semiring,
)


@pytest.fixture
def geom():
    return Geometry(2, 4)


class TestFunctional:
    def test_matches_dense_product(self, small_dense, small_coo, geom, rng):
        v = rng.random(small_coo.n_cols)
        res = inner_product(small_coo, v, spmv_semiring(), geom, HWMode.SC)
        assert np.allclose(res.values, small_dense @ v)

    def test_matches_reference_oracle(self, small_dense, small_coo, geom, rng):
        v = (rng.random(small_coo.n_cols) < 0.3) * rng.random(small_coo.n_cols)
        sr = spmv_semiring()
        res = inner_product(small_coo, v, sr, geom, HWMode.SCS)
        assert np.allclose(res.values, reference_spmv(small_dense, v, sr))

    def test_min_semiring(self, small_dense, small_coo, geom):
        v = np.full(small_coo.n_cols, np.inf)
        v[3] = 0.0
        sr = bfs_semiring()
        res = inner_product(small_coo, v, sr, geom, HWMode.SC)
        assert np.allclose(
            res.values, reference_spmv(small_dense, v, sr), equal_nan=True
        )

    def test_carry_semiring(self, small_dense, small_coo, geom, rng):
        sr = sssp_semiring()
        cur = rng.random(small_coo.n_rows) * 10
        v = np.full(small_coo.n_cols, np.inf)
        v[:5] = rng.random(5)
        res = inner_product(small_coo, v, sr, geom, HWMode.SC, current=cur)
        assert np.allclose(res.values, reference_spmv(small_dense, v, sr, cur))
        assert np.all(res.values <= cur + 1e-12)

    def test_vector_valued_cf(self, small_dense, small_coo, geom, rng):
        sr = cf_semiring(k=3)
        F = rng.normal(size=(small_coo.n_cols, 3))
        res = inner_product(small_coo, F, sr, geom, HWMode.SC, current=F)
        assert np.allclose(res.values, reference_spmv(small_dense, F, sr, F))

    def test_touched_mask(self, geom):
        coo = COOMatrix(4, 4, [0, 2], [1, 3], [1.0, 1.0])
        v = np.asarray([0.0, 5.0, 0.0, 0.0])
        res = inner_product(coo, v, spmv_semiring(), geom, HWMode.SC)
        assert list(res.touched) == [True, False, False, False]

    def test_inactive_sources_skipped(self, geom):
        coo = COOMatrix(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        v = np.asarray([0.0, 2.0])
        res = inner_product(coo, v, spmv_semiring(), geom, HWMode.SC)
        assert res.profile.meta["active_entries"] == 1


class TestValidation:
    def test_rejects_op_modes(self, small_coo, geom):
        with pytest.raises(ConfigurationError):
            inner_product(
                small_coo, np.ones(small_coo.n_cols), spmv_semiring(), geom, HWMode.PC
            )

    def test_rejects_wrong_length(self, small_coo, geom):
        with pytest.raises(ShapeError):
            inner_product(small_coo, np.ones(3), spmv_semiring(), geom, HWMode.SC)

    def test_rejects_shape_semiring_mismatch(self, small_coo, geom):
        with pytest.raises(ShapeError):
            inner_product(
                small_coo,
                np.ones((small_coo.n_cols, 2)),
                spmv_semiring(),
                geom,
                HWMode.SC,
            )

    def test_trace_rejects_vector_values(self, small_coo, geom, rng):
        sr = cf_semiring(k=2)
        F = rng.normal(size=(small_coo.n_cols, 2))
        with pytest.raises(ConfigurationError):
            inner_product(
                small_coo, F, sr, geom, HWMode.SC, current=F, with_trace=True
            )

    KERNELS = ["sequential", "batch", "op", "op_batch"]

    @staticmethod
    def _run(kernel, coo, geometry, partition):
        v = np.ones(coo.n_cols)
        sr, mv = spmv_semiring(), MultiVector([v])
        if kernel == "batch":
            return inner_product_batch(
                coo, mv, sr, geometry, partition=partition
            )
        if kernel == "op":
            return outer_product(
                CSCMatrix.from_coo(coo), mv.column_sparse(0), sr, geometry,
                partition=partition,
            )
        if kernel == "op_batch":
            return outer_product_batch(
                CSCMatrix.from_coo(coo), mv, sr, geometry, partition=partition
            )
        return inner_product(coo, v, sr, geometry, partition=partition)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "built, used", [("8x16", "4x8"), ("4x8", "8x16"), ("4x16", "8x8")]
    )
    def test_rejects_partition_for_other_geometry(
        self, medium_coo, kernel, built, used
    ):
        g = Geometry.parse(built)
        part = build_ip_partitions(
            medium_coo.row_extents(), g.tiles, g.pes_per_tile
        )
        with pytest.raises(ConfigurationError, match="does not fit"):
            self._run(kernel, medium_coo, Geometry.parse(used), part)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rejects_partition_for_other_matrix(
        self, small_coo, medium_coo, geom, kernel
    ):
        part = build_ip_partitions(
            small_coo.row_extents(), geom.tiles, geom.pes_per_tile
        )
        with pytest.raises(ConfigurationError, match="does not fit"):
            self._run(kernel, medium_coo, geom, part)


class TestProfile:
    def test_profile_shape(self, medium_coo, geom, rng):
        v = rng.random(medium_coo.n_cols)
        res = inner_product(medium_coo, v, spmv_semiring(), geom, HWMode.SC)
        p = res.profile
        assert p.algorithm == "ip"
        assert p.n_tiles == geom.tiles
        assert p.count.shape[1] == geom.pes_per_tile

    def test_matrix_stream_covers_all_entries(self, medium_coo, geom, rng):
        v = rng.random(medium_coo.n_cols)
        res = inner_product(medium_coo, v, spmv_semiring(), geom, HWMode.SC)
        p = res.profile
        total = p.count[p.region == Region.MATRIX].sum()
        assert total == 3 * medium_coo.nnz

    def test_scs_puts_vector_in_spm(self, medium_coo, geom, rng):
        v = rng.random(medium_coo.n_cols)
        res = inner_product(medium_coo, v, spmv_semiring(), geom, HWMode.SCS)
        p = res.profile
        assert p.in_spm[0, 0][p.region[0, 0] == Region.VECTOR_IN][0]
        assert p.tile_spm_fill_words[0] == medium_coo.n_cols

    def test_sc_does_not_fill_spm(self, medium_coo, geom, rng):
        v = rng.random(medium_coo.n_cols)
        res = inner_product(medium_coo, v, spmv_semiring(), geom, HWMode.SC)
        assert res.profile.tile_spm_fill_words[0] == 0.0

    def test_balanced_partition_evens_work(self, powerlaw_coo, geom, rng):
        v = rng.random(powerlaw_coo.n_cols)
        bal = inner_product(
            powerlaw_coo, v, spmv_semiring(), geom, HWMode.SC, balanced=True
        )
        naive = inner_product(
            powerlaw_coo, v, spmv_semiring(), geom, HWMode.SC, balanced=False
        )

        def worst(profile):
            return profile.count[profile.region == Region.MATRIX].max()

        assert worst(bal.profile) <= worst(naive.profile)

    def test_trace_lengths_match_streams(self, small_coo, geom, rng):
        v = rng.random(small_coo.n_cols)
        res = inner_product(
            small_coo, v, spmv_semiring(), geom, HWMode.SC, with_trace=True
        )
        p = res.profile
        for k, trace in enumerate(p.traces):
            assert trace is not None
            assert trace.n_accesses == pytest.approx(
                p.count.reshape(len(p.traces), -1)[k].sum(), abs=0
            )
