"""Matrix persistence tests."""

import errno
import os
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

import repro.workloads.io as wio
from repro.errors import FormatError, WorkloadError
from repro.formats import CSCMatrix
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


class TestNpz:
    def test_round_trip(self, tmp_path, medium_coo):
        path = str(tmp_path / "m.npz")
        save_npz(path, medium_coo)
        assert load_npz(path).allclose(medium_coo)


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
