"""Matrix persistence tests."""

import errno
import gc
import os
import sys
import threading
import zipfile
from collections import OrderedDict

import numpy as np
import pytest

import repro.workloads.io as wio
from repro.errors import FormatError, WorkloadError
from repro.formats import COOMatrix, CSCMatrix
from repro.parallel.tasks import array_digest
from repro.workloads import (
    cached_csc,
    cached_matrix,
    load_matrix_market,
    load_npz,
    save_matrix_market,
    save_npz,
    uniform_random,
)
from repro.workloads.io import prepared_digest
from repro.workloads.reorder import permute_matrix


class TestMatrixMarket:
    def test_round_trip(self, tmp_path, small_coo):
        path = str(tmp_path / "m.mtx")
        save_matrix_market(path, small_coo, comment="test matrix")
        back = load_matrix_market(path)
        assert back.allclose(small_coo)

    def test_scipy_can_read_ours(self, tmp_path, small_coo):
        import scipy.io

        path = str(tmp_path / "m.mtx")
        save_matrix_market(path, small_coo)
        m = scipy.io.mmread(path)
        assert np.allclose(m.toarray(), small_coo.to_dense())

    def test_we_can_read_scipys(self, tmp_path, small_coo):
        import scipy.io

        path = str(tmp_path / "m.mtx")
        scipy.io.mmwrite(path, small_coo.to_scipy())
        back = load_matrix_market(path)
        assert back.allclose(small_coo)

    def test_pattern_files_get_unit_values(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        m = load_matrix_market(str(path))
        assert np.allclose(m.to_dense(), np.eye(2))

    def test_rejects_non_mm(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("hello\n")
        with pytest.raises(FormatError):
            load_matrix_market(str(path))

    def test_rejects_array_format(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(FormatError):
            load_matrix_market(str(path))


def _assert_identical(got, want):
    assert got.shape == want.shape
    for a, b in zip(got.to_arrays(), want.to_arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestNpz:
    def test_round_trip(self, tmp_path, medium_coo):
        path = str(tmp_path / "m.npz")
        save_npz(path, medium_coo)
        assert load_npz(path).allclose(medium_coo)

    def test_compact_layout(self, tmp_path, medium_coo):
        path = str(tmp_path / "m.npz")
        save_npz(path, medium_coo)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as z:
            assert sorted(z.files) == ["cols", "indptr", "shape", "vals"]
            assert z["indptr"].dtype == np.int64
            assert z["cols"].dtype == np.int32
            assert z["vals"].dtype == np.float32  # integer weights are exact
            assert np.array_equal(z["indptr"], medium_coo.row_extents())
        _assert_identical(load_npz(path), medium_coo)

    @pytest.mark.parametrize(
        "vals,stored",
        [
            ([1.0, 2.5, -3.0, -0.0, 2.0**100], np.float32),
            ([1.0, np.nan, 2.0, 3.0, 4.0], np.float32),
            ([1.0, 0.1, 2.0, 3.0, 4.0], np.float64),
            ([1.0, 1e-320, 2.0, 3.0, 4.0], np.float64),
            ([1.0, 1e300, 2.0, 3.0, 4.0], np.float64),
            (
                [1.0, np.int64(0x7FF8000000000001).view(np.float64), 2.0, 3.0, 4.0],
                np.float64,
            ),
        ],
        ids=["f32-exact", "nan", "0.1", "subnormal", "overflow", "nan-payload"],
    )
    def test_values_round_trip_bit_for_bit(self, tmp_path, vals, stored):
        m = COOMatrix(4, 6, [0, 0, 1, 3, 3], [1, 5, 0, 2, 4], vals, sort=False)
        path = str(tmp_path / "m.npz")
        save_npz(path, m)
        with np.load(path) as z:
            assert z["vals"].dtype == stored
        _assert_identical(load_npz(path), m)

    @pytest.mark.parametrize("kind", ["empty", "stable-permuted"])
    def test_matrices_round_trip(self, tmp_path, powerlaw_coo, kind):
        if kind == "empty":
            m = COOMatrix.empty(5, 3)
        else:
            perm = np.random.default_rng(3).permutation(powerlaw_coo.n_rows)
            m = permute_matrix(powerlaw_coo, perm, stable=True)
        path = str(tmp_path / "m.npz")
        save_npz(path, m)
        _assert_identical(load_npz(path), m)

    def test_rows_out_of_order_rejected(self, tmp_path):
        m = COOMatrix(3, 3, [2, 0], [0, 1], [1.0, 2.0], sort=False)
        with pytest.raises(FormatError):
            save_npz(str(tmp_path / "m.npz"), m)

    @pytest.mark.parametrize(
        "n_rows,indptr",
        [(3, [1, 2, 2, 4]), (3, [0, 3, 2, 4]), (3, [0, 1, 2, 3]),
         (3, [0, 1, 2, 5]), (3, [0, 2, 4]), (-1, [])],
        ids=["not-from-0", "decreasing", "short-end", "long-end",
             "wrong-length", "negative-rows"],
    )
    def test_row_extents_that_disagree_are_corrupt(self, tmp_path, n_rows, indptr):
        path = str(tmp_path / "m.npz")
        np.savez(
            path,
            shape=np.asarray([n_rows, 3], dtype=np.int64),
            indptr=np.asarray(indptr, dtype=np.int64),
            cols=np.asarray([0, 1, 2, 0], dtype=np.int32),
            vals=np.ones(4, dtype=np.float32),
        )
        with pytest.raises(ValueError):
            load_npz(path)


class TestCache:
    def test_builds_once(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return uniform_random(50, nnz=100, seed=1)

        a = cached_matrix(str(tmp_path), "k", builder)
        b = cached_matrix(str(tmp_path), "k", builder)
        assert len(calls) == 1
        assert a.allclose(b)

    def test_distinct_keys(self, tmp_path):
        a = cached_matrix(
            str(tmp_path), "a", lambda: uniform_random(50, nnz=100, seed=1)
        )
        b = cached_matrix(
            str(tmp_path), "b", lambda: uniform_random(50, nnz=100, seed=2)
        )
        assert not a.allclose(b)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty per-process memo of prepared operands for one test."""
    monkeypatch.setattr(wio, "_prepared", OrderedDict())
    return wio


def _counting(seed, n=60, nnz=200):
    calls = []

    def builder():
        calls.append(1)
        return uniform_random(n, nnz=nnz, seed=seed)

    return builder, calls


def _same(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.vals, b.vals)
    )


class TestCorruptEntry:
    @pytest.mark.parametrize("cut", ["zero", "ten", "half"])
    def test_truncated_entry_rebuilt_once(self, tmp_path, fresh_memo, cut):
        path = tmp_path / "k.npz"
        save_npz(str(path), uniform_random(60, nnz=200, seed=1))
        data = path.read_bytes()
        path.write_bytes(data[: {"zero": 0, "ten": 10, "half": len(data) // 2}[cut]])
        builder, calls = _counting(seed=1)
        first = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1]
        fresh_memo._prepared.clear()  # force the next call to read the file
        again = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1]
        assert _same(again, first)

    def test_row_extents_disagreeing_with_cols_rebuilt_once(self, tmp_path, fresh_memo):
        m = uniform_random(60, nnz=200, seed=1)
        path = tmp_path / "k.npz"
        indptr = m.row_extents()
        indptr[-1] -= 1
        np.savez(
            str(path), shape=np.asarray(m.shape, dtype=np.int64),
            indptr=indptr, cols=m.cols.astype(np.int32), vals=m.vals,
        )
        builder, calls = _counting(seed=1)
        first = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1] and _same(first, m)
        fresh_memo._prepared.clear()  # force the next call to read the file
        again = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1]
        assert _same(again, first)

    def test_entry_of_the_earlier_layout_rebuilt_once(self, tmp_path, fresh_memo):
        # The layout written before row extents: every entry's row,
        # int64 indices and float64 values, deflated.
        m = uniform_random(60, nnz=200, seed=1)
        path = tmp_path / "k.npz"
        np.savez_compressed(
            str(path), shape=np.asarray(m.shape, dtype=np.int64),
            rows=m.rows, cols=m.cols, vals=m.vals,
        )
        builder, calls = _counting(seed=1)
        first = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1] and _same(first, m)
        with np.load(str(path)) as z:
            assert "indptr" in z.files
        fresh_memo._prepared.clear()  # force the next call to read the file
        again = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1]
        assert _same(again, first)

    def test_transient_read_error_keeps_entry(self, tmp_path, fresh_memo, monkeypatch):
        path = tmp_path / "k.npz"
        save_npz(str(path), uniform_random(60, nnz=200, seed=1))
        before = path.read_bytes()

        def emfile(_path):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(wio, "load_npz", emfile)
        builder, calls = _counting(seed=1)
        with pytest.raises(WorkloadError, match="Too many open files"):
            cached_matrix(str(tmp_path), "k", builder)
        assert calls == []
        assert path.read_bytes() == before


class TestPreparedMemo:
    def test_unchanged_file_returns_same_object(self, tmp_path, fresh_memo):
        builder, calls = _counting(seed=1)
        a = cached_matrix(str(tmp_path), "k", builder)
        b = cached_matrix(str(tmp_path), "k", builder)
        assert a is b and calls == [1]
        fresh_memo._prepared.clear()
        c = cached_matrix(str(tmp_path), "k", builder)  # loaded from disk
        assert cached_matrix(str(tmp_path), "k", builder) is c
        assert calls == [1] and _same(c, a)

    def test_shared_arrays_are_read_only(self, tmp_path, fresh_memo):
        coo = cached_matrix(str(tmp_path), "k", _counting(seed=1)[0])
        csc = cached_csc(coo)
        assert cached_csc(coo) is csc
        for arr in (coo.rows, coo.cols, coo.vals,
                    csc.indptr, csc.indices, csc.vals):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
            base = arr.base
            while isinstance(base, np.ndarray):
                assert not base.flags.writeable
                base = base.base

    def test_replaced_file_reloads(self, tmp_path, fresh_memo):
        path = str(tmp_path / "k.npz")
        old = cached_matrix(str(tmp_path), "k", _counting(seed=1)[0])
        other = uniform_random(60, nnz=200, seed=2)
        save_npz(str(tmp_path / "other.npz"), other)
        os.replace(str(tmp_path / "other.npz"), path)
        builder, calls = _counting(seed=1)
        new = cached_matrix(str(tmp_path), "k", builder)
        assert calls == []
        assert new is not old and _same(new, other)

    def test_removed_file_rebuilds(self, tmp_path, fresh_memo):
        old = cached_matrix(str(tmp_path), "k", _counting(seed=1)[0])
        os.remove(str(tmp_path / "k.npz"))
        builder, calls = _counting(seed=1)
        new = cached_matrix(str(tmp_path), "k", builder)
        assert calls == [1]
        assert new is not old and _same(new, old)
        assert os.path.exists(str(tmp_path / "k.npz"))

    def test_lru_eviction_within_budget(self, tmp_path, fresh_memo, monkeypatch):
        # Room for two of these matrices (just under 200 nnz of 24 bytes
        # each) but not for three.
        budget = 2 * 24 * 200
        monkeypatch.setattr(wio, "PREPARED_BUDGET_BYTES", budget)
        paths = {k: os.path.abspath(str(tmp_path / f"{k}.npz")) for k in "abc"}
        a = cached_matrix(str(tmp_path), "a", _counting(seed=1)[0])
        cached_matrix(str(tmp_path), "b", _counting(seed=2)[0])
        assert cached_matrix(str(tmp_path), "a", _counting(seed=1)[0]) is a
        cached_matrix(str(tmp_path), "c", _counting(seed=3)[0])
        memo = fresh_memo._prepared
        assert list(memo) == [paths["a"], paths["c"]]  # b was least recent
        assert sum(e.nbytes for e in memo.values()) <= budget
        # a's CSC copy leaves no room for c.
        cached_csc(a)
        assert list(memo) == [paths["a"]]
        assert sum(e.nbytes for e in memo.values()) <= budget

    def test_foreign_matrix_gets_fresh_writeable_csc(self, fresh_memo):
        coo = uniform_random(60, nnz=200, seed=1)
        first, second = cached_csc(coo), cached_csc(coo)
        assert first is not second
        want = CSCMatrix.from_coo(coo)
        assert np.array_equal(first.indptr, want.indptr)
        assert np.array_equal(first.indices, want.indices)
        assert np.array_equal(first.vals, want.vals)
        for arr in (first.indptr, first.indices, first.vals, coo.vals):
            assert arr.flags.writeable
        assert prepared_digest(coo.vals) is None
        assert prepared_digest(first.vals) is None

    def test_digest_stored_once(self, tmp_path, fresh_memo, monkeypatch):
        coo = cached_matrix(str(tmp_path), "k", _counting(seed=1)[0])
        want = array_digest(coo.vals.copy())
        assert prepared_digest(coo.vals) == want
        import repro.parallel.tasks as tasks

        monkeypatch.setattr(tasks, "array_digest", None)  # never called again
        assert prepared_digest(coo.vals) == want
        assert prepared_digest(coo.vals.copy()) is None


class TestMemoUnderThreads:
    def test_eight_threads_two_keys(self, tmp_path, fresh_memo):
        seeds = {"a": 1, "b": 2}
        want = {k: uniform_random(80, nnz=300, seed=s) for k, s in seeds.items()}
        results, errors = [], []
        start = threading.Barrier(8)

        def work(i):
            try:
                start.wait(timeout=60)
                for j in range(100):
                    key = "ab"[(i + j) % 2]
                    coo = cached_matrix(
                        str(tmp_path), key,
                        lambda k=key: uniform_random(80, nnz=300, seed=seeds[k]),
                    )
                    cached_csc(coo)
                    results.append((key, coo))
            except Exception as exc:  # pragma: no cover - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 8 * 100
        assert all(_same(coo, want[key]) for key, coo in results)
        memo = fresh_memo._prepared
        assert sorted(memo) == sorted(
            os.path.abspath(str(tmp_path / f"{k}.npz")) for k in "ab"
        )

    def test_reads_survive_finalizers_in_other_threads(self, tmp_path, fresh_memo):
        # numpy parses every member header with ``ast.literal_eval``;
        # on CPython 3.11 a finalizer run by the collector while two
        # threads build ASTs made one of them raise ``SystemError``.
        # Clearing the memo keeps every thread reading the files.
        seeds = {"a": 1, "b": 2}
        builders = {
            k: (lambda s=s: uniform_random(80, nnz=300, seed=s))
            for k, s in seeds.items()
        }
        for key, builder in builders.items():
            cached_matrix(str(tmp_path), key, builder)
        errors = []
        start = threading.Barrier(8)

        class Cycle:
            def __del__(self):
                self.gone = True

        def work(i):
            try:
                start.wait(timeout=60)
                for j in range(60):
                    if j % 10 == 0:
                        with fresh_memo._prepared_lock:
                            fresh_memo._prepared.clear()
                    junk = Cycle()
                    junk.loop = junk
                    key = "ab"[(i + j) % 2]
                    coo = cached_matrix(str(tmp_path), key, builders[key])
                    assert _same(coo, builders[key]())
            except Exception as exc:  # pragma: no cover - asserted below
                errors.append(exc)

        thresholds, interval = gc.get_threshold(), sys.getswitchinterval()
        gc.set_threshold(50, 5, 5)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            gc.set_threshold(*thresholds)
            sys.setswitchinterval(interval)
        assert errors == []
