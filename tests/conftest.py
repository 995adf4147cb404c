"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.hardware import Geometry
from repro.graphs import Graph
from repro.workloads import chung_lu, uniform_random


def pytest_report_header(config):
    """Name the numpy and scipy builds: CI installs them unpinned, and
    the IP kernel's bit identity rests on scipy's CSR matvec order."""
    import scipy

    return f"numpy {np.__version__}, scipy {scipy.__version__}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng):
    """A 40x40 dense array with ~15% non-zeros (easy oracle checks)."""
    mask = rng.random((40, 40)) < 0.15
    return mask * rng.uniform(0.5, 2.0, size=(40, 40))


@pytest.fixture
def small_coo(small_dense):
    return COOMatrix.from_dense(small_dense)


@pytest.fixture
def small_csc(small_coo):
    return CSCMatrix.from_coo(small_coo)


@pytest.fixture
def medium_coo():
    """A 2000x2000 uniform matrix with ~20k entries."""
    return uniform_random(2000, nnz=20000, seed=77)


@pytest.fixture
def medium_csc(medium_coo):
    return CSCMatrix.from_coo(medium_coo)


@pytest.fixture
def powerlaw_coo():
    """A skewed 3000-vertex graph adjacency (~30k edges)."""
    return chung_lu(3000, 30000, seed=7)


@pytest.fixture
def small_graph(powerlaw_coo):
    return Graph(powerlaw_coo, name="fixture")


@pytest.fixture
def sparse_frontier(medium_coo, rng):
    idx = rng.choice(medium_coo.n_cols, 50, replace=False)
    return SparseVector(medium_coo.n_cols, idx, rng.uniform(0.5, 1.5, 50))


@pytest.fixture
def geom24():
    return Geometry(2, 4)


@pytest.fixture
def geom44():
    return Geometry(4, 4)
