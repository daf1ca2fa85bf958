"""Mp-protocol rules: the pool's queue discipline has exactly one shape.

A blocking ``queue.get()`` with no timeout hangs the caller forever when
the producer died -- the failure mode the pool's exit-code polling
(``AlignmentWorkerPool._collect``) exists to prevent.  The one sanctioned
blocking get is the worker pull loop::

    while True:
        job = tasks.get()
        if job is SENTINEL:      # or the literal `is None`
            break

because its producer is the coordinator, which always sends one sentinel
per worker (in a loop over the workers) before ever joining them.  The
sentinel may be the literal ``None`` or a module-level constant assigned
``None`` (e.g. ``SENTINEL = None``), which is how the generic task protocol
spells it.

Both rules cover :mod:`repro.parallel` and :mod:`repro.plan` -- everything
that speaks the task-queue protocol.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import FileContext, Finding, Rule

#: Module prefixes that speak the task-queue protocol.
_SCOPE = ("parallel/", "plan/")


def _sentinel_names(tree: ast.AST) -> set[str]:
    """Module-level ``NAME = None`` constants (the named-sentinel spelling)."""
    names: set[str] = set()
    for node in getattr(tree, "body", []):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and node.value.value is None
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.value, ast.Constant)
            and node.value.value is None
        ):
            names.add(node.target.id)
    return names


def _is_sentinel_expr(node: ast.expr, sentinels: set[str]) -> bool:
    """``None`` literal or a reference to a module-level None constant."""
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    return isinstance(node, ast.Name) and node.id in sentinels


def _while_true_ancestor(ctx: FileContext, node: ast.AST) -> Optional[ast.While]:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.While):
            test = ancestor.test
            if isinstance(test, ast.Constant) and test.value is True:
                return ancestor
            return None
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
    return None


def _breaks_on_sentinel(loop: ast.While, var: str, sentinels: set[str]) -> bool:
    """True when the loop body contains ``if var is <sentinel>: break``."""
    for node in ast.walk(loop):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == var
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and len(test.comparators) == 1
            and _is_sentinel_expr(test.comparators[0], sentinels)
            and any(isinstance(n, ast.Break) for n in ast.walk(node))
        ):
            return True
    return False


class UnboundedQueueGet(Rule):
    """MP001: blocking ``.get()`` outside the sentinel pull-loop pattern."""

    id = "MP001"
    summary = (
        "queue .get() without timeout= outside a `while True` sentinel "
        "pull-loop: hangs forever if the producer died"
    )

    def applies(self, module: str) -> bool:
        return module.startswith(_SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sentinels = _sentinel_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Zero-argument .get() is the blocking queue read; dict.get and
            # .get(timeout=...) both carry arguments and are not flagged.
            if (
                not isinstance(func, ast.Attribute)
                or func.attr != "get"
                or node.args
                or node.keywords
            ):
                continue
            if self._in_pull_loop(ctx, node, sentinels):
                continue
            yield self.finding(
                ctx,
                node,
                ".get() with no timeout blocks forever on producer death; pass "
                "timeout= and poll exit codes (AlignmentWorkerPool._collect), or "
                "use the sentinel pull-loop",
            )

    def _in_pull_loop(
        self, ctx: FileContext, call: ast.Call, sentinels: set[str]
    ) -> bool:
        parent = ctx.parent(call)
        if not isinstance(parent, ast.Assign):
            return False
        targets = parent.targets
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return False
        loop = _while_true_ancestor(ctx, parent)
        return loop is not None and _breaks_on_sentinel(loop, targets[0].id, sentinels)


class LoneSentinelSend(Rule):
    """MP002: a sentinel ``.put(None)`` outside a loop over the workers."""

    id = "MP002"
    summary = (
        ".put(<sentinel>) outside a for-loop: the pull-loop contract is one "
        "sentinel per worker, so sentinel sends belong in a loop over the "
        "worker set"
    )

    def applies(self, module: str) -> bool:
        return module.startswith(_SCOPE)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sentinels = _sentinel_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr != "put"
                or len(node.args) != 1
                or node.keywords
                or not _is_sentinel_expr(node.args[0], sentinels)
            ):
                continue
            if any(isinstance(a, ast.For) for a in ctx.ancestors(node)):
                continue
            yield self.finding(
                ctx,
                node,
                "lone sentinel send: send exactly one sentinel per worker "
                "from a loop over the worker set",
            )
