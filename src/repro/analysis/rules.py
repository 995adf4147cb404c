"""The five invariant rules, as independent AST visitors.

Each rule is a class with a ``rule_id``/``rule_name``/``description`` and
a ``check(ctx)`` method returning :class:`~repro.analysis.findings.Finding`
objects.  ``ctx`` is a :class:`ModuleContext` — one parsed module plus
the helpers every rule needs (source lines, import-alias resolution,
package-relative path).

The rules encode this codebase's real invariant classes:

* **R1 bare-assert** — guard checks must raise typed exceptions
  (``SimulationError``/``ConfigurationError``/...), because ``assert``
  vanishes under ``python -O`` (the OP exact-path cross-check bug class).
* **R2 unit-mixing** — no additive arithmetic or ordering comparison
  between identifiers tagged with different units (the
  ``objective="energy"`` joules-vs-cycles bug class).
* **R3 magic-constant** — clock rates, cache geometry and CVD thresholds
  live in config objects, not inline literals (the 1 GHz hardcode class).
* **R4 nondeterminism** — no legacy/unseeded RNG, and no host wall-clock
  reads outside the modules allowlisted for measuring host time.
* **R5 kernel-purity** — registered pricing kernels must not mutate
  their array arguments in place (a pricing probe must be repeatable).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from . import registry
from .dataflow import ModuleContext  # shared parse; re-exported for compat
from .findings import Finding
from .units import unit_of

__all__ = [
    "ModuleContext",
    "ALL_RULES",
    "LOCAL_RULES",
    "PROGRAM_RULES",
    "RULES_BY_ID",
]


def _last_identifier(node: ast.AST) -> Optional[str]:
    """The unit-bearing identifier of an operand: a bare name or the
    final attribute segment; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ----------------------------------------------------------------------
# R1 — bare assert
# ----------------------------------------------------------------------
class BareAssertRule:
    rule_id = "R1"
    rule_name = "bare-assert"
    description = (
        "library guard paths must raise SimulationError/ConfigurationError "
        "(or another ReproError); `assert` is stripped under python -O"
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                found.append(
                    ctx.finding(
                        self,
                        node,
                        "bare `assert` vanishes under python -O; raise a "
                        "typed ReproError (SimulationError/ConfigurationError/"
                        "FormatError...) instead",
                    )
                )
        return found


# ----------------------------------------------------------------------
# R2 — unit mixing
# ----------------------------------------------------------------------
_R2_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


class UnitMixingRule:
    rule_id = "R2"
    rule_name = "unit-mixing"
    description = (
        "additive arithmetic / ordering comparisons must not mix "
        "cycles, joules, seconds, hertz... (suffix-tagged identifiers)"
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._pair(ctx, node, node.left, node.right, "arithmetic", found)
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if isinstance(op, _R2_COMPARE_OPS):
                        self._pair(ctx, node, left, right, "comparison", found)
        return found

    def _pair(self, ctx, node, left, right, kind, found) -> None:
        lid, rid = _last_identifier(left), _last_identifier(right)
        if lid is None or rid is None:
            return
        lu, ru = unit_of(lid), unit_of(rid)
        if lu is not None and ru is not None and lu != ru:
            found.append(
                ctx.finding(
                    self,
                    node,
                    f"{kind} mixes units: `{lid}` is {lu} but `{rid}` is "
                    f"{ru}; convert explicitly (multiply/divide by the "
                    "clock/scale) before combining",
                )
            )


# ----------------------------------------------------------------------
# R3 — magic hardware constants
# ----------------------------------------------------------------------
class MagicConstantRule:
    rule_id = "R3"
    rule_name = "magic-constant"
    description = (
        "clock rates, cache geometry and CVD thresholds come from "
        "HardwareParams/DecisionThresholds outside hardware/config modules"
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        if any(ctx.path.startswith(p) for p in registry.R3_ALLOWED_PREFIXES):
            return []
        # Module-level UPPER_CASE assignments are the approved way to
        # *name* a constant; their subtrees are exempt.
        named_constant_nodes: Set[int] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if all(
                    isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                    for t in targets
                    if isinstance(t, (ast.Name, ast.Attribute))
                ) and any(isinstance(t, ast.Name) for t in targets):
                    for sub in ast.walk(stmt):
                        named_constant_nodes.add(id(sub))
        found = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if id(node) in named_constant_nodes:
                continue
            message = registry.MAGIC_CONSTANTS.get(value)
            if message is not None:
                found.append(ctx.finding(self, node, message))
        return found


# ----------------------------------------------------------------------
# R4 — determinism
# ----------------------------------------------------------------------
class NondeterminismRule:
    rule_id = "R4"
    rule_name = "nondeterminism"
    description = (
        "RNG must be an explicitly seeded numpy Generator; host wall-clock "
        "reads stay out of model-cycle code"
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        found = []
        wallclock_ok = any(
            ctx.path.startswith(p)
            for p in registry.R4_WALLCLOCK_ALLOWED_PREFIXES
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.resolve_call(node.func)
            if origin is None:
                continue
            if origin.startswith("numpy.random."):
                attr = origin.rsplit(".", 1)[1]
                if attr not in registry.SEEDED_RNG_CONSTRUCTORS:
                    found.append(
                        ctx.finding(
                            self,
                            node,
                            f"`{origin}` drives the legacy global RNG; use "
                            "an explicitly seeded np.random.default_rng(seed)",
                        )
                    )
                elif not node.args and not node.keywords:
                    found.append(
                        ctx.finding(
                            self,
                            node,
                            f"`{origin}()` without a seed draws OS entropy; "
                            "pass an explicit seed so runs reproduce",
                        )
                    )
            elif origin == "random" or origin.startswith("random."):
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"stdlib `{origin}` is process-globally seeded; use "
                        "an explicitly seeded np.random.default_rng(seed)",
                    )
                )
            elif origin in registry.WALLCLOCK_CALLS and not wallclock_ok:
                found.append(
                    ctx.finding(
                        self,
                        node,
                        f"`{origin}` reads the host wall clock; model time "
                        "comes from cycle counts (RunReport.cycles / "
                        "ReconfigurationLog.clock_hz)",
                    )
                )
        return found


# ----------------------------------------------------------------------
# R5 — kernel purity
# ----------------------------------------------------------------------
class KernelPurityRule:
    rule_id = "R5"
    rule_name = "kernel-purity"
    description = (
        "registered pricing/profile kernels must not mutate their "
        "vector/matrix arguments in place"
    )

    def check(self, ctx: ModuleContext) -> List[Finding]:
        found = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in registry.PURE_KERNELS
            ):
                self._check_kernel(ctx, node, found)
        return found

    # ------------------------------------------------------------------
    def _check_kernel(self, ctx, func, found) -> None:
        args = func.args
        params = [
            a.arg
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        ]
        tainted: Set[str] = {p for p in params if p != "self"}

        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                self._track_assign(stmt, tainted, ctx, found)
            elif isinstance(stmt, ast.AugAssign):
                target = stmt.target
                if isinstance(target, ast.Name) and target.id in tainted:
                    found.append(self._mutation(ctx, stmt, target.id, "augmented assignment"))
                elif self._subscript_root(target) in tainted:
                    found.append(
                        self._mutation(
                            ctx, stmt, self._subscript_root(target), "augmented store"
                        )
                    )
            elif isinstance(stmt, ast.Call):
                self._check_call(ctx, stmt, tainted, found)

    def _track_assign(self, stmt, tainted, ctx, found) -> None:
        # flag subscript stores into tainted buffers first
        for target in stmt.targets:
            root = self._subscript_root(target)
            if root in tainted:
                found.append(self._mutation(ctx, stmt, root, "subscript store"))
        # then propagate/clear aliases for plain-name rebinds
        aliases = self._is_alias_of(stmt.value, tainted, ctx)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                if aliases:
                    tainted.add(target.id)
                else:
                    tainted.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        tainted.discard(elt.id)

    def _is_alias_of(self, value, tainted, ctx) -> bool:
        """Whether ``value`` evaluates to a view of a tainted buffer."""
        if isinstance(value, ast.Name):
            return value.id in tainted
        if isinstance(value, ast.Attribute):
            # param.data / param.values / ... expose the backing buffer
            return self._is_alias_of(value.value, tainted, ctx)
        if isinstance(value, ast.Subscript):
            # slicing an ndarray returns a view
            return self._is_alias_of(value.value, tainted, ctx)
        if isinstance(value, ast.Call):
            origin = ctx.resolve_call(value.func)
            if origin and origin.startswith("numpy."):
                name = origin.rsplit(".", 1)[1]
                if name in registry.ALIASING_NUMPY_FUNCS and value.args:
                    return self._is_alias_of(value.args[0], tainted, ctx)
                return False
            if isinstance(value.func, ast.Attribute) and value.func.attr in (
                "view", "reshape", "ravel", "astype"
            ):
                # .astype with copy=False may alias; stay conservative
                return self._is_alias_of(value.func.value, tainted, ctx)
        return False

    def _check_call(self, ctx, call, tainted, found) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            root = func.value
            if (
                isinstance(root, ast.Name)
                and root.id in tainted
                and func.attr in registry.MUTATING_METHODS
            ):
                found.append(
                    self._mutation(ctx, call, root.id, f".{func.attr}() call")
                )
        origin = ctx.resolve_call(func)
        if origin and origin.startswith("numpy."):
            name = origin.rsplit(".", 1)[1]
            if name in registry.MUTATING_NUMPY_FUNCS and call.args:
                first = call.args[0]
                if isinstance(first, ast.Name) and first.id in tainted:
                    found.append(
                        self._mutation(ctx, call, first.id, f"np.{name}() call")
                    )

    @staticmethod
    def _subscript_root(node) -> Optional[str]:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return node.value.id
        return None

    def _mutation(self, ctx, node, name, how) -> Finding:
        return ctx.finding(
            self,
            node,
            f"registered pricing kernel mutates argument `{name}` in place "
            f"({how}); kernels must be repeatable — write to a fresh output",
        )


#: The per-file rules: each has ``check(ctx)`` over one module.
LOCAL_RULES = [
    BareAssertRule(),
    UnitMixingRule(),
    MagicConstantRule(),
    NondeterminismRule(),
    KernelPurityRule(),
]

# Imported late: rules_program builds on the dataflow summaries, which
# in turn import nothing from this module beyond ModuleContext's new
# home, so the aggregate list stays cycle-free.
from .rules_program import PROGRAM_RULES  # noqa: E402

#: Every rule, local then whole-program, in id order R1..R10.
ALL_RULES = LOCAL_RULES + PROGRAM_RULES

RULES_BY_ID = {r.rule_id: r for r in ALL_RULES}
