"""Runtime sanitizer (REPRO_SANITIZE=1): unit checks and end-to-end
seeded-violation coverage through the real runtime paths."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core import CoSparseRuntime, SpMVOperand
from repro.errors import SimulationError
from repro.formats import COOMatrix, CSCMatrix, SparseVector
from repro.hardware import Geometry, HWMode
from repro.obs.flight import read_dump
from repro.spmv import bfs_semiring, inner_product, outer_product, spmv_semiring
from repro.workloads import random_frontier


@pytest.fixture(autouse=True)
def cache_dir(monkeypatch, tmp_path):
    """Every provoked violation dumps the flight ring under
    ``REPRO_CACHE_DIR/flight``: keep those dumps in the test's own
    directory, out of the developer's cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _counters(**over):
    base = dict(
        pe_ops=10.0, lcp_ops=1.0, spm_accesses=5.0,
        l1_accesses=8.0, l1_hits=6.0, l2_accesses=2.0, l2_hits=1.0,
        dram_words=3.0, xbar_hops=0.0,
    )
    base.update(over)
    return SimpleNamespace(**base)


def _report(**over):
    base = dict(
        cycles=100.0, bandwidth_floor_cycles=0.0, reconfig_cycles=0.0,
        energy_j=1e-6, counters=_counters(),
    )
    base.update(over)
    return SimpleNamespace(**base)


class TestEnablement:
    def test_env_var_controls_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()
        for falsey in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_SANITIZE", falsey)
            assert not sanitize.enabled()

    def test_override_beats_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with sanitize.override(False):
            assert not sanitize.enabled()
            with sanitize.override(True):
                assert sanitize.enabled()
            assert not sanitize.enabled()
        assert sanitize.enabled()

    def test_active_swaps_implementations(self):
        with sanitize.override(True):
            assert type(sanitize.active()) is sanitize.Sanitizer
        with sanitize.override(False):
            live = sanitize.active()
            assert type(live) is not sanitize.Sanitizer
            # the null twin swallows violations outright
            live.check_histogram("x", np.array([1]), 99)
            live.check_report("x", _report(cycles=-1.0))
            live.check_at_most("x", np.array([5]), np.array([1]))
            live.check_marked("x", np.array([5]), np.array([True]))


class TestFlightDump:
    def test_violation_dump_lands_in_the_test_cache(self, cache_dir):
        with pytest.raises(SimulationError):
            sanitize.Sanitizer().check("unit/dump", False, "boom")
        (dump,) = (cache_dir / "flight").iterdir()
        header = read_dump(str(dump))[0]
        assert header["type"] == "flight_header"
        assert header["reason"] == "sanitizer:unit/dump"


class TestChecks:
    def test_histogram_conservation(self):
        san = sanitize.Sanitizer()
        san.check_histogram("ok", np.array([3, 4]), 7)
        with pytest.raises(SimulationError, match=r"\[sanitizer\] h:.*lost"):
            san.check_histogram("h", np.array([3, 4]), 8)
        with pytest.raises(SimulationError, match="negative"):
            san.check_histogram("h", np.array([9, -2]), 7)

    def test_counts_at_most_their_limits(self):
        san = sanitize.Sanitizer()
        san.check_at_most("ok", np.array([0, 2, 3]), np.array([0, 2, 5]))
        with pytest.raises(SimulationError, match=r"\[sanitizer\] d:.*index 1: 3 > 2"):
            san.check_at_most("d", np.array([0, 3, 3]), np.array([0, 2, 5]))

    def test_histogram_counts_a_mask(self):
        san = sanitize.Sanitizer()
        san.check_marked("ok", np.array([1, 2]), np.array([True, False, True, True]))
        with pytest.raises(SimulationError, match=r"\[sanitizer\] m:.*lost"):
            san.check_marked("m", np.array([1, 2]), np.array([True, False]))

    def test_report_counters(self):
        san = sanitize.Sanitizer()
        san.check_report("ok", _report())
        with pytest.raises(SimulationError, match="cycles"):
            san.check_report("r", _report(cycles=-5.0))
        with pytest.raises(SimulationError, match="cycles"):
            san.check_report("r", _report(cycles=float("nan")))
        with pytest.raises(SimulationError, match="energy_j"):
            san.check_report("r", _report(energy_j=-1e-9))
        with pytest.raises(SimulationError, match="l1_hits"):
            san.check_report("r", _report(counters=_counters(l1_hits=9.0)))
        with pytest.raises(SimulationError, match="l2_hits"):
            san.check_report("r", _report(counters=_counters(l2_hits=3.0)))
        # energy may legitimately be unpriced
        san.check_report("ok", _report(energy_j=None))

    def test_conversion_accounting(self):
        san = sanitize.Sanitizer()
        san.check_conversion("ok", SimpleNamespace(reads=4, writes=2), 12.0)
        with pytest.raises(SimulationError, match="conversion reads"):
            san.check_conversion("c", SimpleNamespace(reads=-1, writes=0), 0.0)
        with pytest.raises(SimulationError, match="conversion cycles"):
            san.check_conversion("c", SimpleNamespace(reads=0, writes=0), -3.0)

    def test_batch_record_provenance(self):
        san = sanitize.Sanitizer()
        recs = [
            SimpleNamespace(batch_id=7, batch_column=c, iteration=i)
            for i, c in enumerate((1, 0, 2))
        ]
        san.check_batch_records("ok", recs, batch_id=7, n_columns=3)
        with pytest.raises(SimulationError, match="logged 2 records"):
            san.check_batch_records("b", recs[:2], batch_id=7, n_columns=3)
        dup = [recs[0], replace_col(recs[1], 1), recs[2]]
        with pytest.raises(SimulationError, match="exactly once"):
            san.check_batch_records("b", dup, batch_id=7, n_columns=3)
        shuffled = [recs[2], recs[0], recs[1]]
        with pytest.raises(SimulationError, match="iteration order"):
            san.check_batch_records("b", shuffled, batch_id=7, n_columns=3)
        # records of other batches are invisible to the check
        other = SimpleNamespace(batch_id=8, batch_column=9, iteration=0)
        san.check_batch_records("ok", recs + [other], batch_id=7, n_columns=3)

    def test_batch_scope_checks_on_exit(self):
        log = SimpleNamespace(records=[])
        with sanitize.override(True):
            with pytest.raises(SimulationError, match="logged 0 records"):
                with sanitize.batch_scope(log, batch_id=0, n_columns=2):
                    pass
        with sanitize.override(False):
            with sanitize.batch_scope(log, batch_id=0, n_columns=2):
                pass  # null twin: no raise


def replace_col(rec, column):
    return SimpleNamespace(
        batch_id=rec.batch_id, batch_column=column, iteration=rec.iteration
    )


# ----------------------------------------------------------------------
# End-to-end: seeded violations must be caught by the instrumented
# runtime paths, and clean runs must pass with the sanitizer live.
# ----------------------------------------------------------------------
@pytest.fixture
def runtime(medium_coo):
    return CoSparseRuntime(SpMVOperand(medium_coo), "2x8")


class TestEndToEnd:
    def test_clean_spmv_passes_with_sanitizer_on(self, runtime, medium_coo):
        f = random_frontier(medium_coo.n_cols, 0.01, seed=3)
        with sanitize.override(True):
            res = runtime.spmv(f, bfs_semiring())
        assert res is not None
        assert len(runtime.log.records) == 1

    def test_clean_batch_passes_with_sanitizer_on(self, runtime, medium_coo):
        cols = [
            random_frontier(medium_coo.n_cols, 0.002, seed=1),
            random_frontier(medium_coo.n_cols, 0.2, seed=2),
        ]
        with sanitize.override(True):
            results = runtime.spmv_batch(cols, spmv_semiring())
        assert len(results) == 2

    def test_seeded_report_violation_is_caught(
        self, runtime, medium_coo, monkeypatch
    ):
        real_run = runtime.system.run

        def corrupt_run(profile, **kw):
            return replace(real_run(profile, **kw), cycles=-5.0)

        monkeypatch.setattr(runtime.system, "run", corrupt_run)
        f = random_frontier(medium_coo.n_cols, 0.01, seed=3)
        with sanitize.override(True):
            with pytest.raises(SimulationError, match=r"\[sanitizer\] spmv"):
                runtime.spmv(f, bfs_semiring())
        # sanitizer off: the corrupted report sails straight through,
        # which is exactly why the mode exists
        with sanitize.override(False):
            runtime.spmv(f, bfs_semiring())

    def test_seeded_batch_provenance_violation_is_caught(
        self, runtime, medium_coo, monkeypatch
    ):
        cols = [
            random_frontier(medium_coo.n_cols, 0.002, seed=1),
            random_frontier(medium_coo.n_cols, 0.003, seed=2),
        ]
        real_append = runtime.log.append
        dropped = []

        def dropping_append(record):
            if not dropped:
                dropped.append(record)  # lose the first column's record
                return
            real_append(record)

        monkeypatch.setattr(runtime.log, "append", dropping_append)
        with sanitize.override(True):
            with pytest.raises(
                SimulationError, match=r"\[sanitizer\] spmv_batch"
            ):
                runtime.spmv_batch(cols, spmv_semiring())
        assert len(dropped) == 1


# ----------------------------------------------------------------------
# Distinct counts: a helper that over-counts must trip the kernels'
# bounds, and only with the sanitizer live.
# ----------------------------------------------------------------------
def _over_counting(monkeypatch, module):
    """Make ``module``'s distinct-key helper report every key twice."""
    real = module.sorted_distinct
    monkeypatch.setattr(
        module, "sorted_distinct", lambda keys: np.repeat(real(keys), 2)
    )


class TestDistinctCounts:
    def test_seeded_op_over_count_is_caught(self, monkeypatch):
        import repro.spmv.outer as outer

        csc = CSCMatrix.from_coo(COOMatrix.from_dense(np.eye(8)))
        frontier = SparseVector(8, np.arange(8), np.ones(8))
        args = (csc, frontier, spmv_semiring(), Geometry(2, 2), HWMode.PC)
        with sanitize.override(True):
            outer_product(*args)
            _over_counting(monkeypatch, outer)
            with pytest.raises(
                SimulationError, match=r"\[sanitizer\] outer_product/heads"
            ):
                outer_product(*args)
        with sanitize.override(False):
            outer_product(*args)

    @pytest.mark.parametrize(
        "shared_row, label", [(False, "lcp_outputs"), (True, "outputs")]
    )
    def test_seeded_op_output_over_count_is_caught(
        self, monkeypatch, shared_row, label
    ):
        """Over-count only the (tile, row) keys, the third sort per call.
        Rows each PE reaches alone leave a tile's outputs above its LCP
        inputs; one row both PEs reach hides it there, and only the
        executed path's touched-rows check sees it."""
        import repro.spmv.outer as outer

        dense = np.eye(8)
        if shared_row:
            dense = np.zeros((8, 8))
            dense[3] = 1.0
        csc = CSCMatrix.from_coo(COOMatrix.from_dense(dense))
        frontier = SparseVector(8, np.arange(8), np.ones(8))
        args = (csc, frontier, spmv_semiring(), Geometry(2, 2), HWMode.PC)
        real = outer.sorted_distinct
        calls = []

        def miscount(keys):
            calls.append(1)
            out = real(keys)
            return np.repeat(out, 2) if len(calls) % 3 == 0 else out

        monkeypatch.setattr(outer, "sorted_distinct", miscount)
        with sanitize.override(True):
            with pytest.raises(
                SimulationError, match=rf"\[sanitizer\] outer_product/{label}:"
            ):
                outer_product(*args)
            if shared_row:
                # Profile-only calls touch no rows and skip that check.
                outer_product(*args, profile_only=True)

    def test_seeded_ip_first_touch_over_count_is_caught(self, monkeypatch):
        import repro.spmv.inner as inner

        # A tuned operand: rows sorted, within-row order not, so the
        # (row, vblock) keys step back and are sorted before counting.
        coo = COOMatrix(
            6, 6, [0, 0, 1, 1, 2, 2], [5, 1, 4, 0, 3, 2], np.ones(6),
            sort=False,
        )
        v = np.ones(6)
        args = (coo, v, spmv_semiring(), Geometry(1, 2), HWMode.SC)
        with sanitize.override(True):
            inner_product(*args, vblock_width=2)
            _over_counting(monkeypatch, inner)
            with pytest.raises(
                SimulationError,
                match=r"\[sanitizer\] inner_product/active/first_touches",
            ):
                inner_product(*args, vblock_width=2)
        with sanitize.override(False):
            inner_product(*args, vblock_width=2)
