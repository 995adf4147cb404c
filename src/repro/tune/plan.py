"""The tuning plan: one matrix's chosen locality configuration.

OSKI's contract — *tune once per matrix, reuse forever* — needs a
durable artifact: the :class:`TuningPlan` records the winning
``(ordering, vblock width)`` pair plus the modelled cycles that
justified it, and the :class:`PlanCache` persists plans under
``REPRO_CACHE_DIR/tune/`` keyed by the content hash of the matrix, the
geometry and the candidate grid.  A plan deliberately stores the
ordering *recipe*, not the permutation array: the ordering functions in
:mod:`repro.workloads.reorder` are pure, so the permutation is
regenerated bit-identically on load and the cached JSON stays small.

Key properties:

* content-addressed: touch the matrix, the grid, the hardware params,
  the schema or the package version and the key — hence the cache
  file — changes;
* atomic: writes go through the shared
  :func:`repro.workloads.io.atomic_write` helper, so concurrent tuners
  race only on the final rename;
* disable with ``REPRO_TUNE_CACHE=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..formats import COOMatrix
from ..hardware import DEFAULT_PARAMS, HardwareParams

__all__ = [
    "TUNE_CACHE_SCHEMA",
    "TuningPlan",
    "PlanCache",
    "plan_key",
    "plan_cache_enabled",
]

#: Bump when plan semantics change: the schema feeds every plan key, so
#: stale entries die with the old schema.
TUNE_CACHE_SCHEMA = 2

_ENV_SWITCH = "REPRO_TUNE_CACHE"
_FALSEY = ("0", "", "false", "off", "no")


def plan_cache_enabled() -> bool:
    """Whether tuning plans should persist (default: yes)."""
    return os.environ.get(_ENV_SWITCH, "1").strip().lower() not in _FALSEY


@dataclass
class TuningPlan:
    """The autotuner's verdict for one ``(matrix, geometry)`` pair.

    Attributes
    ----------
    ordering:
        Vertex ordering recipe: ``"identity"`` or one of
        :data:`repro.workloads.reorder.ORDERING_METHODS`.
    vblock_width:
        Chosen vertical-block width (never wider than the SPM fit; the
        kernels clamp defensively).
    geometry:
        Hardware shape the plan was tuned for (``"AxB"``).
    matrix_key:
        The content-addressed plan key (also the cache file name).
    metrics / baseline:
        Winner's and the identity baseline's ``cycles``: the better of
        the SC and SCS analytic prices of a full-frontier IP SpMV.
    candidates:
        Grid size evaluated when the plan was minted.
    """

    ordering: str
    vblock_width: int
    geometry: str
    matrix_key: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    baseline: Dict[str, float] = field(default_factory=dict)
    candidates: int = 0
    schema: int = TUNE_CACHE_SCHEMA
    version: str = ""

    # ------------------------------------------------------------------
    @property
    def is_identity(self) -> bool:
        """Whether the plan leaves the vertex order untouched."""
        return self.ordering == "identity"

    @property
    def label(self) -> str:
        """Compact ``ordering/wWIDTH`` tag for reports."""
        return f"{self.ordering}/w{self.vblock_width}"

    # ------------------------------------------------------------------
    def permutation(self, matrix: COOMatrix) -> Optional[np.ndarray]:
        """Regenerate the plan's vertex permutation (None for identity).

        The ordering functions are pure, so this reproduces the exact
        permutation the tuner evaluated.
        """
        from .candidates import ordering_permutation

        return ordering_permutation(matrix, self.ordering)

    def apply(
        self, matrix: COOMatrix
    ) -> Tuple[COOMatrix, Optional[np.ndarray]]:
        """Permute ``matrix`` into the plan's schedule-stable layout.

        Returns ``(permuted matrix, perm)`` — or ``(matrix, None)``
        untouched for identity plans.  The schedule-stable layout keeps
        each row's original within-row entry order, which is what makes
        additive-semiring results bit-identical after mapping back.
        """
        from ..workloads.reorder import permute_matrix

        perm = self.permutation(matrix)
        if perm is None:
            return matrix, None
        return permute_matrix(matrix, perm, stable=True), perm

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TuningPlan":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"TuningPlan needs a JSON object, got {type(data).__name__}"
            )
        fields = {
            "ordering",
            "vblock_width",
            "geometry",
            "matrix_key",
            "metrics",
            "baseline",
            "candidates",
            "schema",
            "version",
        }
        unknown = set(data) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown TuningPlan fields {sorted(unknown)}"
            )
        missing = {"ordering", "vblock_width", "geometry"} - set(data)
        if missing:
            raise ConfigurationError(
                f"TuningPlan is missing fields {sorted(missing)}"
            )
        return cls(**data)


def plan_key(
    matrix: COOMatrix,
    geometry: str,
    grid: List[str],
    params: HardwareParams = DEFAULT_PARAMS,
) -> str:
    """Content-addressed plan-cache key.

    Hashes the matrix content (same digests the pricing cache uses),
    the geometry, the candidate-grid labels and the hardware params,
    plus the tune schema and package version — any change invalidates
    the plan.  Default params add nothing to the hash, so default-params
    keys, and the plans cached on disk under them, stay valid.
    """
    from .. import __version__
    from ..parallel.tasks import array_digest

    parts = {
        "schema": TUNE_CACHE_SCHEMA,
        "version": __version__,
        "geometry": str(geometry),
        "shape": [int(matrix.n_rows), int(matrix.n_cols)],
        "arrays": {
            "rows": array_digest(matrix.rows),
            "cols": array_digest(matrix.cols),
            "vals": array_digest(matrix.vals),
        },
        "grid": list(grid),
    }
    if params != DEFAULT_PARAMS:
        parts["params"] = asdict(params)
    blob = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class PlanCache:
    """One directory of ``<sha256>.json`` tuning plans."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            from ..experiments.common import cache_dir

            root = cache_dir()
        self.dir = os.path.join(root, "tune")

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def get(self, key: str) -> Optional[TuningPlan]:
        """The stored plan for ``key``, or ``None`` on a miss.

        A corrupt entry (bad JSON, not a plan, an older schema's fields)
        is deleted so the caller re-tunes over it.  A read that fails
        for any other reason (``EMFILE``, a permission error) is a miss
        that keeps the file: the plan in it may well be good.
        """
        path = self._path(key)
        try:
            with open(path) as f:
                data = json.load(f)
            return TuningPlan.from_dict(data)
        except OSError:
            return None
        except (ValueError, ConfigurationError):
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key: str, plan: TuningPlan) -> None:
        """Persist ``plan`` under ``key`` (atomic, last writer wins)."""
        from ..workloads.io import atomic_write

        path = self._path(key)
        try:
            os.makedirs(self.dir, exist_ok=True)
            with atomic_write(path) as tmp:
                with open(tmp, "w") as f:
                    json.dump(plan.to_dict(), f, sort_keys=True)
        except OSError:
            # A read-only cache directory degrades to "no persistence".
            pass

    def entries(self) -> Iterator[Tuple[str, TuningPlan]]:
        """Yield every ``(key, plan)`` currently cached."""
        try:
            names = sorted(os.listdir(self.dir))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            key = name[: -len(".json")]
            plan = self.get(key)
            if plan is not None:
                yield key, plan

    def clear(self) -> int:
        """Delete every cached plan; returns how many were removed."""
        removed = 0
        try:
            names = os.listdir(self.dir)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json"):
                try:
                    os.remove(os.path.join(self.dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed
