"""The sweep tasks' static-partition memo (``partition_for``).

Fig. 4-9 pricing tasks carry ``use_partition`` and a ``token`` naming
their matrix's content, and :func:`~repro.parallel.work.price_config`
hands the memoised partition to either kernel.  The memo must change no
number: rows equal those priced without it, two matrices of one shape
under different tokens get their own partitions, and a ``balanced=False``
task only ever sees an equal-rows partition.
"""

import numpy as np
import pytest

import repro.experiments.common as common
import repro.parallel.work as work
from repro.experiments import fig4, fig5, fig6, fig7
from repro.formats import CSCMatrix
from repro.hardware import Geometry, HWMode
from repro.spmv import build_ip_partitions
from repro.workloads import chung_lu, uniform_random

#: Figure driver -> a small grid of its sweep.
_GRIDS = {
    fig4: lambda: fig4.run_fig4(
        scale=64, geometries=("4x8",), densities=(0.005, 0.04), matrices=(0,),
        jobs=1,
    ),
    fig5: lambda: fig5.run_fig5(
        scale=64, geometries=("4x8",), densities=(0.01, 1.0), matrices=(0,),
        jobs=1,
    ),
    fig6: lambda: fig6.run_fig6(
        scale=64, geometries=("4x8",), densities=(0.005, 0.04), matrices=(0,),
        jobs=1,
    ),
    fig7: lambda: fig7.run_fig7(scale=64, matrices=(0,), jobs=1),
}


@pytest.fixture(autouse=True)
def fresh_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_PRICING_CACHE", "0")
    monkeypatch.setattr(work, "_partitions", {})


def _without_memo(monkeypatch, module):
    """Make ``module``'s driver build its tasks without the memo."""

    def price_task(*args, use_partition=False, token=None, **extra):
        return common.price_task(*args, **extra)

    monkeypatch.setattr(module, "price_task", price_task)


@pytest.mark.parametrize("module", sorted(_GRIDS, key=lambda m: m.__name__))
def test_rows_equal_with_and_without_memo(module, monkeypatch):
    with_memo = _GRIDS[module]()
    tokens = {key[0] for key in work._partitions}
    assert tokens, "the driver's tasks never used the partition memo"
    work._partitions.clear()
    _without_memo(monkeypatch, module)
    without = _GRIDS[module]()
    assert not work._partitions
    assert with_memo.rows == without.rows


def _payload(algorithm, mode, matrix, token=None, balanced=True):
    payload = {
        "algorithm": algorithm,
        "mode": mode.name,
        "geometry": "2x8",
        "shape": [matrix.n_rows, matrix.n_cols],
        "frontier": {"n": matrix.n_cols, "density": 0.05, "seed": 3},
        "balanced": balanced,
    }
    if token is not None:
        payload.update(use_partition=True, token=token)
    return payload


def _arrays(algorithm, coo):
    if algorithm == "ip":
        return work.coo_arrays(coo)
    return work.csc_arrays(CSCMatrix.from_coo(coo))


def test_same_shape_matrices_get_their_own_partitions():
    uniform = uniform_random(400, nnz=4000, seed=1)
    skewed = chung_lu(400, 4000, seed=2)
    assert uniform.shape == skewed.shape
    geometry = Geometry.parse("2x8")
    for token, coo in (("uniform", uniform), ("skewed", skewed)):
        for algorithm, mode in (("ip", HWMode.SC), ("op", HWMode.PC)):
            priced = work.price_config(
                _payload(algorithm, mode, coo, token), _arrays(algorithm, coo)
            )
            assert priced == work.price_config(
                _payload(algorithm, mode, coo), _arrays(algorithm, coo)
            )
        part = work._partitions[(token, 2, 8, True)]
        expected = build_ip_partitions(coo.row_extents(), 2, 8)
        assert np.array_equal(part.tile_bounds, expected.tile_bounds)
        for got, want in zip(part.pe_bounds, expected.pe_bounds):
            assert np.array_equal(got, want)
    assert not np.array_equal(
        work._partitions[("uniform", 2, 8, True)].tile_bounds,
        work._partitions[("skewed", 2, 8, True)].tile_bounds,
    )
    assert work.partition_for("uniform", geometry, uniform) is work._partitions[
        ("uniform", 2, 8, True)
    ]


@pytest.mark.parametrize(
    "algorithm, mode, kernel",
    [("ip", HWMode.SC, "inner_product"), ("op", HWMode.PC, "outer_product")],
)
def test_unbalanced_task_never_gets_a_balanced_partition(
    algorithm, mode, kernel, monkeypatch
):
    coo = chung_lu(400, 4000, seed=2)
    real = getattr(work, kernel)
    seen = []

    def spy(*args, partition=None, balanced=True, **kw):
        seen.append((partition.balanced, balanced))
        return real(*args, partition=partition, balanced=balanced, **kw)

    monkeypatch.setattr(work, kernel, spy)
    arrays = _arrays(algorithm, coo)
    for balanced in (True, False, True, False):
        work.price_config(
            _payload(algorithm, mode, coo, "skewed", balanced), arrays
        )
    assert seen == [(True, True), (False, False)] * 2
    monkeypatch.setattr(work, kernel, real)
    assert work.price_config(
        _payload(algorithm, mode, coo, "skewed", balanced=False), arrays
    ) == work.price_config(_payload(algorithm, mode, coo, balanced=False), arrays)
