"""The CoSPARSE runtime: per-invocation co-reconfiguration of SW and HW.

"For every invocation to CoSPARSE, we select the best software (IP or OP),
followed by hardware configurations (SCS or SC for IP, PC or PS for OP)"
(Fig. 2).  The runtime owns the two resident matrix copies (COO for IP,
CSC for OP — Section III-D2), walks the decision tree (or prices every
configuration, or pins a static one), converts the frontier representation
when the software choice flips, runs the chosen kernel, and logs
everything.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from dataclasses import asdict

from ..analysis import sanitize
from ..errors import ConfigurationError
from ..obs.events import (
    DecisionEvent,
    ProbeDiscardedEvent,
    ReconfigEvent,
    serialize_alternatives,
)
from ..obs.tracer import active as _obs_active
from ..perf import counters as _perf
from ..formats import (
    COOMatrix,
    CSCMatrix,
    ConversionCost,
    DenseVector,
    MultiVector,
    SparseVector,
    conversion_cost,
)
from ..hardware import Geometry, HWMode, TransmuterSystem
from ..hardware.params import DEFAULT_PARAMS, HardwareParams
from ..spmv import (
    SpMVResult,
    build_ip_partitions,
    inner_product,
    inner_product_batch,
    outer_product,
    outer_product_batch,
)
from ..spmv.semiring import Semiring
from .decision import Decision, DecisionThresholds, DecisionTree, MatrixInfo
from .reconfig import IterationRecord, ReconfigurationLog

__all__ = ["SpMVOperand", "CoSparseRuntime"]

#: Cycles per word of a (parallelised) frontier format-conversion scan.
_CONV_CYCLES_PER_WORD = 1.0

_POLICIES = ("tree", "oracle", "static", "adaptive")
_OBJECTIVES = ("time", "energy")

#: Adaptive policy: probe both algorithms when the frontier density is
#: within this factor of the current crossover estimate...
_ADAPT_PROBE_BAND = 3.0
#: ...and move the estimate this far (geometrically) toward the
#: observed boundary when the tree guessed wrong.
_ADAPT_STEP = 0.5


class SpMVOperand:
    """The adjacency matrix held in both kernel formats, plus metadata.

    "Two copies of the input compressed sparse matrix (in COO and CSC
    formats, respectively) are stored in main memory to avoid matrix
    conversion overhead" — the operand is built once and reused across
    every iteration of a graph algorithm.  So is what a fully active IP
    column costs beyond its arithmetic: :attr:`ip_memo` holds its per-PE
    counts, touched mask and profile per schedule (docs/model.md §6k),
    and the patterns the IP kernel's compiled passes read: the stored
    coordinates as ones, and their (row, vblock) cells per vblock
    layout (§6l).
    """

    def __init__(self, coo: COOMatrix, csc: Optional[CSCMatrix] = None):
        self.coo = coo
        # Graphs pass the CSC read off their adjacency's own arrays and
        # shard builders (repro.cluster) the one they built, so nothing
        # is converted twice.
        self.csc = CSCMatrix.from_coo(coo) if csc is None else csc
        self.info = MatrixInfo.of(coo)
        self._partitions = {}
        #: The IP kernel's memo: one fully active column per (cached
        #: partition, mode, vblock width, balance, value words, combine
        #: flops), the pattern of ones and one cell pattern per vblock
        #: layout.
        self.ip_memo: dict = {}

    @classmethod
    def from_any(cls, matrix) -> "SpMVOperand":
        """Accept a COOMatrix, an operand, or anything scipy-like."""
        if isinstance(matrix, SpMVOperand):
            return matrix
        if isinstance(matrix, COOMatrix):
            return cls(matrix)
        return cls(COOMatrix.from_scipy(matrix))

    def ip_partition(self, geometry: Geometry, balanced: bool = True):
        """Cached equal-nnz (or naive) row partitioning for a geometry."""
        key = (geometry.tiles, geometry.pes_per_tile, balanced)
        if key not in self._partitions:
            self._partitions[key] = build_ip_partitions(
                self.coo.row_extents(),
                geometry.tiles,
                geometry.pes_per_tile,
                balanced=balanced,
            )
        return self._partitions[key]


class CoSparseRuntime:
    """Drives SpMV iterations with automatic co-reconfiguration.

    Parameters
    ----------
    matrix:
        The (already transposed, if needed) adjacency matrix: a
        :class:`SpMVOperand`, :class:`~repro.formats.coo.COOMatrix`, or
        scipy matrix.
    geometry:
        Hardware shape (``Geometry`` or ``"AxB"`` string).
    policy:
        ``"tree"`` — the Fig. 2 heuristic decision tree (the paper's
        automatic mode); ``"oracle"`` — price every valid configuration
        with the hardware model and pick the best (used to *validate*
        the tree, and to produce Fig. 9's per-configuration table);
        ``"static"`` — always run ``static_config`` (the paper's
        no-reconfiguration baseline is ``("ip", HWMode.SC)``);
        ``"adaptive"`` (extension) — the tree, plus cheap two-way probes
        whenever the frontier density lands near the crossover estimate,
        whose outcome nudges the CVD threshold online.
    static_config:
        The pinned ``(algorithm, HWMode)`` for the static policy.
    objective:
        What the oracle/adaptive comparisons minimise: ``"time"``
        (cycles, the paper's criterion) or ``"energy"`` (joules — an
        extension; on this substrate the two mostly coincide because
        static power makes energy track time).
    plan:
        A :class:`~repro.tune.plan.TuningPlan` to apply: the operand is
        permuted into the plan's schedule-stable vertex order and the
        plan's vblock width overrides the kernels' SPM-fit default.
        The runtime then works in *execution* vertex space —
        :attr:`vertex_perm` / :attr:`vertex_inverse` map between
        original and execution ids (both None for identity plans).
    auto_tune:
        Tune the operand on construction (plan-cache backed; a warm
        cache makes this a single JSON read) and apply the result.
        Ignored when ``plan`` is given.
    """

    def __init__(
        self,
        matrix,
        geometry: Union[Geometry, str],
        params: HardwareParams = DEFAULT_PARAMS,
        policy: str = "tree",
        static_config: Tuple[str, HWMode] = ("ip", HWMode.SC),
        thresholds: Optional[DecisionThresholds] = None,
        balanced: bool = True,
        objective: str = "time",
        plan=None,
        auto_tune: bool = False,
    ):
        if policy not in _POLICIES:
            raise ConfigurationError(f"policy must be one of {_POLICIES}")
        if objective not in _OBJECTIVES:
            raise ConfigurationError(f"objective must be one of {_OBJECTIVES}")
        self.geometry = (
            Geometry.parse(geometry) if isinstance(geometry, str) else geometry
        )
        operand = SpMVOperand.from_any(matrix)
        self.plan = None
        self.vertex_perm: Optional[np.ndarray] = None
        self.vertex_inverse: Optional[np.ndarray] = None
        self._vblock_width: Optional[int] = None
        if auto_tune and plan is None:
            # Lazy import: repro.tune pulls in the parallel engine and
            # the reorder module, neither of which the core path needs.
            from ..tune import autotune

            plan = autotune(operand.coo, self.geometry, params=params)
        if plan is not None:
            operand = self._apply_plan(plan, operand)
        self.operand = operand
        self.params = params
        self.policy = policy
        self.static_config = static_config
        self.balanced = balanced
        self.objective = objective
        self.system = TransmuterSystem(self.geometry, params)
        self.tree = DecisionTree(self.geometry, params, thresholds)
        self.log = ReconfigurationLog(clock_hz=params.clock_hz)
        self._iteration = 0
        self._batch_id = 0
        self._last_algorithm: Optional[str] = None
        self._last_mode: Optional[HWMode] = None
        # Per-invocation frontier-conversion memo: the four oracle
        # candidates (and the two adaptive probes) share one dense and
        # one sparse conversion instead of redoing it per candidate.
        self._conv_cache: dict = {}

    # ------------------------------------------------------------------
    def _apply_plan(self, plan, operand: SpMVOperand) -> SpMVOperand:
        """Permute the operand into ``plan``'s layout; record the maps.

        The permutation is *schedule-stable* (rows re-sorted, each
        row's original within-row entry order preserved), so additive
        semirings reduce in the same stored order and results mapped
        back through :attr:`vertex_perm` are bit-identical to the
        untuned run.
        """
        self.plan = plan
        width = int(plan.vblock_width)
        self._vblock_width = width if width > 0 else None
        permuted, perm = plan.apply(operand.coo)
        _perf.tuning_plans_applied += 1
        if perm is None:
            return operand
        self.vertex_perm = perm
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        self.vertex_inverse = inverse
        return SpMVOperand(permuted)

    # ------------------------------------------------------------------
    # Frontier representation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def frontier_density(frontier, semiring: Semiring) -> float:
        """Structural density: entries differing from ``semiring.absent``."""
        if isinstance(frontier, SparseVector):
            return frontier.density
        arr = frontier.data if isinstance(frontier, DenseVector) else np.asarray(frontier)
        if arr.ndim == 2:
            active = np.any(arr != semiring.absent, axis=1)
            return float(active.sum()) / len(arr) if len(arr) else 0.0
        n = len(arr)
        return float(np.count_nonzero(arr != semiring.absent)) / n if n else 0.0

    def _to_dense(self, frontier, semiring: Semiring):
        """Dense array for IP; returns ``(array, ConversionCost)``."""
        if isinstance(frontier, SparseVector):
            arr = np.full(frontier.n, semiring.absent)
            arr[frontier.indices] = frontier.values
            return arr, conversion_cost("sparse", "dense", frontier.n, frontier.nnz)
        arr = frontier.data if isinstance(frontier, DenseVector) else np.asarray(frontier, dtype=np.float64)
        return arr, ConversionCost()

    def _to_sparse(self, frontier, semiring: Semiring):
        """SparseVector for OP; returns ``(sv, ConversionCost)``."""
        if isinstance(frontier, SparseVector):
            return frontier, ConversionCost()
        arr = frontier.data if isinstance(frontier, DenseVector) else np.asarray(frontier, dtype=np.float64)
        idx = np.nonzero(arr != semiring.absent)[0]
        sv = SparseVector(len(arr), idx, arr[idx], sort=False, check=False)
        return sv, conversion_cost("dense", "sparse", len(arr), sv.nnz)

    def _convert(self, kind: str, frontier, semiring: Semiring):
        """Memoized frontier conversion (one per kind per invocation).

        The cache is cleared at the top of every :meth:`spmv`; entries
        pin the frontier object they were built from, so a stale entry
        can never be served for a different frontier.
        """
        cached = self._conv_cache.get(kind)
        if cached is not None and cached[0] is frontier:
            return cached[1], cached[2]
        fn = self._to_dense if kind == "dense" else self._to_sparse
        with _obs_active().span("convert", kind=kind):
            converted, cost = fn(frontier, semiring)
        self._conv_cache[kind] = (frontier, converted, cost)
        return converted, cost

    # ------------------------------------------------------------------
    # Kernel dispatch
    # ------------------------------------------------------------------
    def _kernel_kw(self, mode: HWMode) -> dict:
        """Keywords every kernel call shares: the hardware context and the
        cached static partition (IP reads both levels, OP the tile one)."""
        return dict(
            hw_mode=mode,
            params=self.params,
            partition=self.operand.ip_partition(self.geometry, self.balanced),
            balanced=self.balanced,
        )

    def _run_kernel(
        self,
        algorithm: str,
        mode: HWMode,
        frontier,
        semiring,
        current,
        profile_only: bool = False,
    ) -> Tuple[SpMVResult, ConversionCost]:
        kw = dict(
            self._kernel_kw(mode), current=current, profile_only=profile_only
        )
        if algorithm == "ip":
            vec, cost = self._convert("dense", frontier, semiring)
            result = inner_product(
                self.operand.coo, vec, semiring, self.geometry,
                vblock_width=self._vblock_width, memo=self.operand.ip_memo,
                **kw,
            )
        else:
            sv, cost = self._convert("sparse", frontier, semiring)
            result = outer_product(
                self.operand.csc, sv, semiring, self.geometry, **kw
            )
        return result, cost

    def _scores(self, reports) -> List[float]:
        """The quantities one comparison minimises — in a single unit.

        Under ``objective="energy"`` every candidate's joules are used,
        but only when *every* candidate reports energy; with no energy
        data at all the comparison falls back to cycles uniformly.  A
        mixed set would silently rank joules against cycles on unit
        magnitude rather than merit, so it is a configuration error.
        """
        if self.objective == "energy":
            energies = [r.energy_j for r in reports]
            missing = sum(1 for e in energies if e is None)
            if missing == 0:
                return energies
            if missing != len(energies):
                raise ConfigurationError(
                    "objective='energy' but only "
                    f"{len(energies) - missing}/{len(energies)} candidates "
                    "report energy; joules cannot be compared against "
                    "cycles in one ranking"
                )
        return [r.cycles for r in reports]

    def _compare(self, candidates, frontier, semiring, current):
        """Price ``candidates`` with profile-only probes.

        Returns ``(best algo, best mode, reports, probe)`` where
        ``probe`` is the winner's ``(SpMVResult, ConversionCost)``: its
        profile, not a functional result.
        """
        tracer = _obs_active()
        alternatives = {}
        priced = []
        for algorithm, mode in candidates:
            with tracer.span("probe", algorithm=algorithm, hw_mode=mode) as sp:
                result, cost = self._run_kernel(
                    algorithm, mode, frontier, semiring, current,
                    profile_only=True,
                )
                report = self.system.evaluate_without_switching(result.profile)
                sp.set(cycles=report.cycles)
            alternatives[f"{algorithm.upper()}/{mode.label}"] = report
            priced.append((algorithm, mode, report, (result, cost)))
        scores = self._scores([p[2] for p in priced])
        best = priced[min(range(len(priced)), key=scores.__getitem__)]
        return best[0], best[1], alternatives, best[3]

    def _decide(self, density: float, semiring: Semiring, frontier, current):
        """Pick (algorithm, mode, alternatives, probe) per the policy.

        ``probe`` is the winning candidate's ``(result, cost)`` pair
        when the policy priced candidates, else None.
        """
        alternatives = {}
        if self.policy == "static":
            algorithm, mode = self.static_config
            return algorithm, mode, alternatives, None
        if self.policy in ("tree", "adaptive") or semiring.value_words != 1:
            # Vector-valued semirings (CF) always run dense IP; the tree
            # handles them through their density (1.0 in practice).
            d = self.tree.decide(self.operand.info, density)
            if (
                self.policy == "adaptive"
                and semiring.value_words == 1
                and density > 0
                and d.cvd / _ADAPT_PROBE_BAND < density < d.cvd * _ADAPT_PROBE_BAND
            ):
                return self._adaptive_probe(d, density, frontier, semiring, current)
            return d.algorithm, d.hw_mode, alternatives, None
        # oracle: price every valid configuration and take the best
        candidates = [
            ("ip", HWMode.SC),
            ("ip", HWMode.SCS),
            ("op", HWMode.PC),
            ("op", HWMode.PS),
        ]
        return self._compare(candidates, frontier, semiring, current)

    def _adaptive_probe(self, decision, density, frontier, semiring, current):
        """Near the crossover estimate: measure both algorithms, correct
        the threshold when the tree guessed wrong (extension feature).

        The CVD estimate moves geometrically toward the observed
        boundary, back-projected through the tree's ``1/P`` scaling so
        the correction transfers across geometries.
        """
        info = self.operand.info
        tree = self.tree
        candidates = [
            ("ip", tree.hardware_ip(info, density)),
            ("op", tree.hardware_op(info, density)),
        ]
        algorithm, mode, alternatives, probe = self._compare(
            candidates, frontier, semiring, current
        )
        if algorithm != decision.algorithm:
            # the boundary lies on the other side of this density
            ratio = (density / decision.cvd) ** _ADAPT_STEP
            t = tree.thresholds
            new_at_8 = min(
                max(t.cvd_at_8_pes * ratio, t.cvd_min), t.cvd_max
            )
            tree.thresholds = t.with_overrides(cvd_at_8_pes=float(new_at_8))
        return algorithm, mode, alternatives, probe

    # ------------------------------------------------------------------
    # Decision audit (repro.obs)
    # ------------------------------------------------------------------
    def _shadow_decision(self, density: float):
        """The Fig. 2 tree's walk for this invocation, computed for the
        decision-audit event regardless of the active policy (so
        tree-vs-oracle disagreement is always measurable).  Only called
        when a tracer is live."""
        return self.tree.decide(self.operand.info, density)

    def _log_column(
        self, report, conv, algorithm, mode, density, alternatives, shadow,
        san, label, batch_id=None, batch_column=None,
    ) -> IterationRecord:
        """Check one column's priced report and log its record.

        :meth:`spmv` and :meth:`spmv_batch` both log through here, in
        sequential iteration order: switches are charged against the
        previous record's configuration, which this then advances.  With
        a tracer live it emits the decision-audit event and, on a switch,
        the reconfiguration event.
        """
        tracer = _obs_active()
        conv_cycles = (
            conv.words * _CONV_CYCLES_PER_WORD / max(self.geometry.n_pes, 1)
        )
        san.check_report(label, report)
        san.check_conversion(label, conv, conv_cycles)
        record = IterationRecord(
            iteration=self._iteration,
            vector_density=density,
            algorithm=algorithm,
            hw_mode=mode,
            report=report,
            conversion_cycles=conv_cycles,
            conversion=conv,
            sw_switched=(
                self._last_algorithm is not None
                and algorithm != self._last_algorithm
            ),
            hw_switched=(
                self._last_mode is not None and mode is not self._last_mode
            ),
            alternatives=alternatives,
            batch_id=batch_id,
            batch_column=batch_column,
        )
        self.log.append(record)
        if tracer.enabled:
            tracer.event(
                DecisionEvent(
                    iteration=record.iteration,
                    policy=self.policy,
                    vector_density=density,
                    algorithm=algorithm,
                    hw_mode=mode.label,
                    tree_algorithm=shadow.algorithm if shadow else None,
                    tree_hw_mode=shadow.hw_mode.label if shadow else None,
                    cvd=shadow.cvd if shadow else None,
                    thresholds=asdict(self.tree.thresholds),
                    alternatives=serialize_alternatives(alternatives),
                    batch_id=batch_id,
                    batch_column=batch_column,
                )
            )
            if record.sw_switched or record.hw_switched:
                tracer.event(
                    ReconfigEvent(
                        iteration=record.iteration,
                        from_config=(
                            f"{self._last_algorithm.upper()}"
                            f"/{self._last_mode.label}"
                        ),
                        to_config=record.config_label,
                        sw_switched=record.sw_switched,
                        hw_switched=record.hw_switched,
                        reconfig_cycles=report.reconfig_cycles,
                    )
                )
        self._iteration += 1
        self._last_algorithm = algorithm
        self._last_mode = mode
        return record

    # ------------------------------------------------------------------
    def spmv(self, frontier, semiring: Semiring, current=None) -> SpMVResult:
        """One reconfigured SpMV invocation; logs an IterationRecord."""
        tracer = _obs_active()
        with tracer.span(
            "spmv", iteration=self._iteration, policy=self.policy
        ) as root:
            self._conv_cache.clear()
            density = self.frontier_density(frontier, semiring)
            shadow = self._shadow_decision(density) if tracer.enabled else None
            with tracer.span("decide", policy=self.policy):
                algorithm, mode, alternatives, _probe = self._decide(
                    density, semiring, frontier, current
                )
            with tracer.span("kernel", algorithm=algorithm, hw_mode=mode):
                result, conv = self._run_kernel(
                    algorithm, mode, frontier, semiring, current
                )
            with tracer.span("price") as priced:
                report = self.system.run(result.profile)
                priced.set(cycles=report.cycles)
            record = self._log_column(
                report, conv, algorithm, mode, density, alternatives, shadow,
                sanitize.active(), f"spmv iter {self._iteration}",
            )
            if tracer.enabled:
                root.set(
                    config=record.config_label,
                    vector_density=density,
                    cycles=record.total_cycles,
                )
        return result

    # ------------------------------------------------------------------
    def spmv_batch(
        self,
        frontiers: Union[MultiVector, Sequence],
        semiring: Semiring,
        currents: Optional[Sequence] = None,
    ) -> List[SpMVResult]:
        """Run K frontiers through one batched (SpMM-style) superstep.

        Decides ``(algorithm, hw_mode)`` per column exactly as
        :meth:`spmv` would, groups the columns by chosen configuration in
        first-appearance order, and runs one *batched* kernel per group.
        A batched kernel places the static schedule once and runs each
        column through the sequential kernel's own per-column helper; a
        group's profiles are priced in one stacked solve, whose reports
        equal pricing each alone, and every column is logged through the
        same helper as :meth:`spmv`, so the per-column profiles, reports and
        :class:`IterationRecord`\\ s stay bit-identical to K sequential
        :meth:`spmv` calls issued in that same group order.  Hardware
        switch costs are charged per group boundary (the first column of
        a group pays the mode switch; its same-mode followers ride free),
        which is precisely what the equivalent sequential call order pays.

        Parameters
        ----------
        frontiers:
            A :class:`~repro.formats.multivector.MultiVector` whose
            ``absent`` matches the semiring's, or a sequence of frontiers
            (one is built on the fly).
        semiring:
            Scalar semiring (vector-valued ones already batch internally
            and run through :meth:`spmv`).
        currents:
            Optional per-column current vertex values: a length-K
            sequence (entries may be None) or an ``(n, K)`` array.

        Returns
        -------
        list of :class:`SpMVResult`, in the input column order.
        """
        if semiring.value_words != 1:
            raise ConfigurationError(
                f"spmv_batch handles scalar semirings; {semiring.name} "
                "carries vector values and runs through spmv()"
            )
        if not isinstance(frontiers, MultiVector):
            frontiers = MultiVector(list(frontiers), absent=semiring.absent)
        if frontiers.absent != semiring.absent:
            raise ConfigurationError(
                f"MultiVector absent={frontiers.absent} does not match "
                f"semiring {semiring.name} absent={semiring.absent}"
            )
        mv = frontiers
        if currents is None:
            per_current: List[Optional[np.ndarray]] = [None] * mv.k
        elif isinstance(currents, np.ndarray) and currents.ndim == 2:
            if currents.shape != (mv.n, mv.k):
                raise ConfigurationError(
                    f"currents shape {currents.shape} does not match "
                    f"batch shape {(mv.n, mv.k)}"
                )
            per_current = [currents[:, j] for j in range(mv.k)]
        else:
            per_current = list(currents)
            if len(per_current) != mv.k:
                raise ConfigurationError(
                    f"{len(per_current)} current vectors for {mv.k} columns"
                )

        tracer = _obs_active()
        batch_id = self._batch_id
        self._batch_id += 1
        with tracer.span(
            "spmv_batch", batch_id=batch_id, k=mv.k, policy=self.policy
        ):
            # Per-column decisions, in input order — the same density/tree
            # (or pricing-probe) path the sequential invocations would take
            # — grouped by configuration in first-appearance order.
            decisions, groups = [], {}
            for j in range(mv.k):
                self._conv_cache.clear()
                frontier_j = (
                    mv.column_sparse(j)
                    if mv.native(j) == "sparse"
                    else DenseVector(mv.column_dense(j))
                )
                density = mv.density(j)
                shadow = (
                    self._shadow_decision(density) if tracer.enabled else None
                )
                with tracer.span("decide", policy=self.policy, column=j):
                    algorithm, mode, alternatives, probe = self._decide(
                        density, semiring, frontier_j, per_current[j]
                    )
                if probe is not None:
                    # The batch kernel runs the winner; its probe priced
                    # a profile and is dropped, as in spmv().
                    _perf.kernel_probe_discarded += 1
                    if tracer.enabled:
                        tracer.event(
                            ProbeDiscardedEvent(
                                batch_id=batch_id,
                                batch_column=j,
                                algorithm=algorithm,
                                hw_mode=mode.label,
                                executed=probe[0].executed,
                            )
                        )
                decisions.append((alternatives, density, shadow))
                groups.setdefault((algorithm, mode), []).append(j)
            self._conv_cache.clear()

            results: List[Optional[SpMVResult]] = [None] * mv.k
            with sanitize.batch_scope(self.log, batch_id, mv.k) as san:
                for (algorithm, mode), cols in groups.items():
                    kw = dict(
                        self._kernel_kw(mode),
                        currents=[per_current[j] for j in cols],
                        columns=cols,
                    )
                    with tracer.span(
                        "batch_group",
                        algorithm=algorithm,
                        hw_mode=mode,
                        columns=cols,
                        batch_id=batch_id,
                    ):
                        if algorithm == "ip":
                            group_results = inner_product_batch(
                                self.operand.coo, mv, semiring, self.geometry,
                                vblock_width=self._vblock_width,
                                memo=self.operand.ip_memo, **kw,
                            )
                        else:
                            group_results = outer_product_batch(
                                self.operand.csc, mv, semiring, self.geometry,
                                **kw,
                            )
                    with tracer.span("price", columns=cols) as priced:
                        reports = self.system.run_many(
                            [result.profile for result in group_results]
                        )
                        priced.set(cycles=[r.cycles for r in reports])
                    target = "dense" if algorithm == "ip" else "sparse"
                    for j, result, report in zip(cols, group_results, reports):
                        alternatives, density, shadow = decisions[j]
                        conv = conversion_cost(
                            mv.native(j), target, mv.n, mv.column_nnz(j)
                        )
                        self._log_column(
                            report, conv, algorithm, mode, density,
                            alternatives, shadow, san, f"spmv_batch col {j}",
                            batch_id=batch_id, batch_column=j,
                        )
                        results[j] = result
        return results

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Stable, JSON-able summary of this runtime's configuration.

        The serving layer keys per-graph result caches on it (two
        runtimes with equal descriptions produce bit-identical results
        for the same query) and reports it from ``list``/``stats``.
        """
        return {
            "geometry": self.geometry.name,
            "policy": self.policy,
            "objective": self.objective,
            "balanced": self.balanced,
            "static_config": [
                self.static_config[0],
                self.static_config[1].label,
            ],
            "thresholds": asdict(self.tree.thresholds),
            "tuned": self.plan is not None,
            "vblock_width": self._vblock_width,
            "n_vertices": self.operand.coo.n_rows,
            "nnz": self.operand.coo.nnz,
        }

    # ------------------------------------------------------------------
    @property
    def last_record(self) -> Optional[IterationRecord]:
        """The most recent iteration's record (None before any spmv)."""
        return self.log.records[-1] if self.log.records else None

    def reset_log(self) -> None:
        """Start a fresh log (new algorithm run on the same operand)."""
        self.log = ReconfigurationLog(clock_hz=self.params.clock_hz)
        self._iteration = 0
        self._batch_id = 0
        self._last_algorithm = None
        self._last_mode = None
