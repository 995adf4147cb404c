"""Matrix/graph persistence.

Two formats: MatrixMarket coordinate text (interchange with every sparse
tool chain) and a fast ``.npz`` cache used by the experiment drivers so
multi-minute generation of the full-scale suites happens once.

Prepared operands
-----------------
:func:`cached_matrix` also keeps each cache entry it hands out in a
per-process memo, so a figure driver called again neither reads the
entry again nor converts or hashes it again:

* the memo is keyed by the entry's absolute path, and every call checks
  the file's ``os.stat`` signature ``(st_dev, st_ino, st_size,
  st_mtime_ns)``: an unchanged file returns the very same
  :class:`COOMatrix`, a removed, replaced or rewritten one misses and
  is loaded (or built) again;
* the matrix is shared by every caller, so its arrays and their ndarray
  bases are read-only: a write raises ``ValueError`` instead of
  corrupting other callers and the stored digests;
* the entry also holds the matrix's CSC copy (:func:`cached_csc`, built
  on first request, read-only too) and the content digest of each array
  it owns (:func:`prepared_digest`, hashed on first request), the
  pricing-cache key material;
* entries beyond :data:`PREPARED_BUDGET_BYTES` are evicted least
  recently used first; a lock guards only the dict operations.
"""

from __future__ import annotations

import os
import threading
import zipfile
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import FormatError, WorkloadError
from ..formats import COOMatrix, CSCMatrix
from .synthetic import _finalize

__all__ = [
    "atomic_write",
    "save_matrix_market",
    "load_matrix_market",
    "save_npz",
    "load_npz",
    "cached_matrix",
    "cached_csc",
    "prepared_digest",
    "PREPARED_BUDGET_BYTES",
    "load_snap_edgelist",
]


@contextmanager
def atomic_write(path: str, suffix: str = ""):
    """Write ``path`` atomically: yield a private tmp name, then rename.

    Concurrent writers — parallel pricing workers warming one cache
    entry, two tuning runs racing on the same plan, two threads building
    one workload — each write their own tmp file, tagged with process
    and thread id, and race only on the final ``os.replace``,
    so readers never observe a half-written file.  The caller writes to
    the yielded tmp path; on a clean exit it is renamed over ``path``
    (last writer wins), on an exception it is removed.

    ``suffix`` forces the tmp name's extension when the writer appends
    one itself (``np.savez`` adds ``.npz`` to bare names, so
    the tmp name must already end in ``.npz`` for the rename to find
    the file the writer produced).
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp{suffix}"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def save_matrix_market(path: str, matrix: COOMatrix, comment: str = "") -> None:
    """Write a MatrixMarket ``coordinate real general`` file."""
    with open(path, "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        for line in comment.splitlines():
            f.write(f"% {line}\n")
        f.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
        for r, c, v in zip(matrix.rows, matrix.cols, matrix.vals):
            f.write(f"{r + 1} {c + 1} {v:.17g}\n")


def load_matrix_market(path: str) -> COOMatrix:
    """Read a MatrixMarket coordinate file (real/integer/pattern)."""
    with open(path) as f:
        header = f.readline()
        if not header.startswith("%%MatrixMarket"):
            raise FormatError(f"{path}: not a MatrixMarket file")
        parts = header.lower().split()
        if "coordinate" not in parts:
            raise FormatError(f"{path}: only coordinate format is supported")
        pattern = "pattern" in parts
        line = f.readline()
        while line.startswith("%"):
            line = f.readline()
        n_rows, n_cols, nnz = (int(x) for x in line.split())
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.ones(nnz)
        for i in range(nnz):
            fields = f.readline().split()
            rows[i] = int(fields[0]) - 1
            cols[i] = int(fields[1]) - 1
            if not pattern and len(fields) > 2:
                vals[i] = float(fields[2])
    return COOMatrix(n_rows, n_cols, rows, cols, vals)


def save_npz(path: str, matrix: COOMatrix) -> None:
    """Binary cache of a COO matrix (atomic: tmp file + rename).

    The entry stores, uncompressed (``np.savez``; the zip CRC still
    catches a truncated or altered file):

    * ``shape``;
    * ``indptr``: the row extents (int64), which replace the row of
      every entry: a :class:`COOMatrix` keeps its rows non-decreasing;
    * ``cols``: int32 when every column id fits, else int64;
    * ``vals``: float32 when every value round-trips bit for bit
      (``-0.0`` and NaN payloads included), else float64.

    The narrow layout is for disk space: the same arrays stored as
    int64 rows and columns and float64 values take about 2.7 times as
    much (docs/model.md, "Cache entries").

    Concurrent writers — e.g. parallel pricing workers warming the same
    workload — each write a private tmp file and race on the final
    ``os.replace``, so readers only ever see complete files.
    """
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    if len(rows) > 1 and (rows[1:] < rows[:-1]).any():
        raise FormatError("a stored matrix needs non-decreasing rows")
    if matrix.n_cols <= 2**31:
        cols = cols.astype(np.int32)
    with np.errstate(over="ignore"):
        narrow = vals.astype(np.float32)
    if np.array_equal(narrow.astype(np.float64).view(np.int64), vals.view(np.int64)):
        vals = narrow
    with atomic_write(path, suffix=".npz") as tmp:
        np.savez(
            tmp,
            shape=np.asarray(matrix.shape, dtype=np.int64),
            indptr=matrix.row_extents(),
            cols=cols,
            vals=vals,
        )


#: Serialises :func:`load_npz`'s reads.  numpy parses each member's
#: header with ``ast.literal_eval``, and on CPython 3.11 two threads
#: building ASTs at once can fail with ``SystemError: AST constructor
#: recursion depth mismatch`` when the garbage collector runs a
#: finalizer in the middle of one.
_read_lock = threading.Lock()


def load_npz(path: str) -> COOMatrix:
    """Load a matrix written by :func:`save_npz`.

    The matrix comes back with int64 indices and float64 values.  An
    entry whose row extents do not start at 0, decrease, or do not end
    at its entry count raises ``ValueError``.  An entry of the earlier
    layout (``rows`` in place of ``indptr``) raises ``KeyError``; both
    are corrupt entries to :func:`cached_matrix`, which rebuilds them.
    """
    # The handle is opened here: ``np.load(path)`` leaves its own open
    # when the file starts like a zip but its directory is unreadable.
    with _read_lock, open(path, "rb") as f:
        z = np.load(f)
        n_rows, n_cols = (int(x) for x in z["shape"])
        indptr, cols, vals = z["indptr"], z["cols"], z["vals"]
    counts = np.diff(indptr)
    if (
        n_rows < 0
        or len(indptr) != n_rows + 1
        or indptr[0] != 0
        or indptr[-1] != len(cols)
        or len(cols) != len(vals)
        or (counts < 0).any()
    ):
        raise ValueError(f"{path}: row extents disagree with the entries")
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    return COOMatrix(n_rows, n_cols, rows, cols, vals, sort=False, check=False)


def load_snap_edgelist(
    path: str,
    undirected: bool = False,
    weighted: bool = False,
    comment_chars: str = "#%",
):
    """Load a SNAP-style whitespace edge list into a graph adjacency.

    The Table III graphs ship from snap.stanford.edu in this format
    (``# comment`` header lines, then ``src dst [weight]`` per line,
    arbitrary non-contiguous vertex ids).  Ids are compacted to
    ``0..n-1`` preserving order of first appearance in sorted-id order;
    duplicate edges are dropped (first weight kept); self-loops are
    dropped, matching the synthetic generators' conventions.

    Returns the :class:`~repro.formats.coo.COOMatrix` adjacency; wrap it
    in :class:`repro.graphs.Graph` to run algorithms on it.
    """
    src, dst, w = [], [], []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line[0] in comment_chars:
                continue
            fields = line.split()
            src.append(int(fields[0]))
            dst.append(int(fields[1]))
            w.append(float(fields[2]) if weighted and len(fields) > 2 else 1.0)
    if not src:
        return COOMatrix.empty(0, 0)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    ids = np.unique(np.concatenate([src, dst]))
    src = np.searchsorted(ids, src)
    dst = np.searchsorted(ids, dst)
    n = len(ids)
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        w = np.concatenate([w, w])
    return _finalize(n, n, src, dst, w, remove_self_loops=True)


#: Byte budget of the per-process memo of prepared operands (COO arrays
#: plus CSC copies).  Four scale-16 Fig. 4 matrices with their CSC
#: copies take about 41 MB; one full-scale (4M nnz) matrix about 170 MB.
PREPARED_BUDGET_BYTES = 256 << 20

#: The read errors of a corrupt or truncated ``.npz`` entry.
_CORRUPT_ENTRY_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, ValueError, KeyError,
)


class _Prepared:
    """One memo entry: a read-only matrix, its CSC copy and digests."""

    __slots__ = ("signature", "coo", "csc", "digests")

    def __init__(self, signature: Tuple[int, ...], coo: COOMatrix):
        self.signature = signature
        self.coo = coo
        self.csc: Optional[CSCMatrix] = None
        #: Position in :meth:`arrays` -> that array's digest.
        self.digests: Dict[int, str] = {}

    def arrays(self) -> List[np.ndarray]:
        out = [self.coo.rows, self.coo.cols, self.coo.vals]
        if self.csc is not None:
            out += [self.csc.indptr, self.csc.indices, self.csc.vals]
        return out

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self.arrays())


#: Absolute ``.npz`` path -> entry, least recently used first.
_prepared: "OrderedDict[str, _Prepared]" = OrderedDict()
_prepared_lock = threading.Lock()


def _renew_lock() -> None:
    # A child forked while another thread held a lock would inherit it
    # locked forever.
    global _prepared_lock, _read_lock
    _prepared_lock = threading.Lock()
    _read_lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_lock)


def _freeze(*arrays: np.ndarray) -> None:
    """Make each array, and every ndarray it is a view of, read-only."""
    for arr in arrays:
        while isinstance(arr, np.ndarray):
            arr.flags.writeable = False
            arr = arr.base


def _signature(path: str) -> Optional[Tuple[int, ...]]:
    """The file's ``os.stat`` signature, or None when it does not exist."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _load_entry(path: str) -> Optional[COOMatrix]:
    """Load one cache entry; None when it is missing or corrupt.

    A corrupt entry (an interrupted write, a truncated copy) is removed
    so the caller rebuilds it; another process may have removed or
    replaced it already.  Any other ``OSError`` (out of file
    descriptors, an I/O error) says nothing about the entry, which may
    have taken minutes to generate: it stays on disk and the read fails
    with :class:`~repro.errors.WorkloadError`.
    """
    try:
        return load_npz(path)
    except FileNotFoundError:
        return None
    except _CORRUPT_ENTRY_ERRORS:
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    except OSError as exc:
        raise WorkloadError(
            f"cannot read workload cache entry {path}: {exc}"
        ) from exc


def _memo_get(path: str, signature: Tuple[int, ...]) -> Optional[COOMatrix]:
    with _prepared_lock:
        entry = _prepared.get(path)
        if entry is None:
            return None
        if entry.signature != signature:
            del _prepared[path]
            return None
        _prepared.move_to_end(path)
        return entry.coo


def _memo_put(
    path: str, signature: Optional[Tuple[int, ...]], coo: COOMatrix
) -> COOMatrix:
    """Freeze ``coo`` and memoise it; returns the matrix callers share."""
    _freeze(coo.rows, coo.cols, coo.vals)
    if signature is None:  # removed again since it was written
        return coo
    with _prepared_lock:
        entry = _prepared.get(path)
        if entry is not None and entry.signature == signature:
            # Another thread loaded the same file first: share its copy.
            _prepared.move_to_end(path)
            return entry.coo
        _prepared[path] = _Prepared(signature, coo)
        _prepared.move_to_end(path)
        _evict()
    return coo


def _evict() -> None:
    """Drop least recently used entries beyond the budget (lock held)."""
    total = sum(entry.nbytes for entry in _prepared.values())
    while total > PREPARED_BUDGET_BYTES:
        _path, entry = _prepared.popitem(last=False)
        total -= entry.nbytes


def cached_matrix(
    cache_dir: str, key: str, builder: Callable[[], COOMatrix]
) -> COOMatrix:
    """Build-or-load a matrix under ``cache_dir/key.npz``, once per process.

    The experiment drivers use this so the 4M-nnz suites are generated
    once per machine and loaded once per process.  The matrix returned
    is shared and read-only (see the module docstring); a caller that
    needs to write copies its arrays first.
    """
    path = os.path.abspath(os.path.join(cache_dir, f"{key}.npz"))
    signature = _signature(path)
    matrix = None if signature is None else _memo_get(path, signature)
    if matrix is not None:
        return matrix
    if signature is not None:
        matrix = _load_entry(path)
    if matrix is None:
        os.makedirs(cache_dir, exist_ok=True)
        matrix = builder()
        save_npz(path, matrix)
        signature = _signature(path)
    return _memo_put(path, signature, matrix)


def cached_csc(coo: COOMatrix) -> CSCMatrix:
    """The CSC copy of ``coo``.

    For a matrix :func:`cached_matrix` handed out (and still holds),
    the copy is built on first request, stored read-only with it and
    shared from then on; any other matrix gets a fresh
    ``CSCMatrix.from_coo(coo)``.
    """
    with _prepared_lock:
        path, entry = next(
            ((p, e) for p, e in _prepared.items() if e.coo is coo),
            (None, None),
        )
        if entry is not None:
            _prepared.move_to_end(path)
            if entry.csc is not None:
                return entry.csc
    csc = CSCMatrix.from_coo(coo)
    if entry is not None:
        _freeze(csc.indptr, csc.indices, csc.vals)
        with _prepared_lock:
            if entry.csc is None:
                entry.csc = csc
                _evict()
            csc = entry.csc
    return csc


def prepared_digest(arr: np.ndarray) -> Optional[str]:
    """The stored content digest of an array the memo holds, else None.

    The digest is :func:`repro.parallel.tasks.array_digest`, computed on
    first request and kept with the entry; the array is read-only, so
    it stays true.  Ownership is checked by identity.
    """
    with _prepared_lock:
        entry, slot = next(
            (
                (e, i)
                for e in _prepared.values()
                for i, own in enumerate(e.arrays())
                if own is arr
            ),
            (None, None),
        )
        if entry is None:
            return None
        digest = entry.digests.get(slot)
    if digest is None:
        # Late import: the parallel package imports this one.
        from ..parallel.tasks import array_digest

        digest = array_digest(arr)
        with _prepared_lock:
            entry.digests[slot] = digest
    return digest
