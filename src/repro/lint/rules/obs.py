"""Observability drift: tracing stays free when off.

* ``obs-guard``: every span-recording call on a tracer
  (``tracer.event(...)``, ``self.tracer.span_uq(...)``, ...) must sit
  under a ``tracer.enabled`` guard.  The end-to-end bench measures the
  server untraced (``benchmarks/e2e``, ``server_cpu_ms_per_query``) and
  ``tests/test_obs_properties.py`` pins that tracing never changes an
  answer; an unguarded record site pays argument construction on every
  query even when tracing is off, and that cost creeps in one call site
  at a time.  Accepted guard shapes (matching the codebase's idioms):
  an enclosing ``if``/conditional whose test reads ``.enabled`` (or a
  local bound from it, e.g. ``tracing = self.tracer.enabled``), an
  earlier early-exit ``if not tracer.enabled: return`` in the same
  function, or a short-circuit ``tracer.enabled and ...``.  Dedicated
  emission helpers that are *only called* under a guard carry a
  function-scoped allow on their ``def`` line.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import LintModule, Rule, Violation, register

#: Tracer methods that record spans/events (reads like ``trace()``,
#: ``traces()``, ``jsonl_lines()``, ``wall()`` are free to call).
RECORD_METHODS = frozenset({
    "start_query", "finish_query", "event", "event_uq", "span", "span_uq",
    "child", "alias", "adopt",
})


def _mentions_enabled(node: ast.AST, guard_names: set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id in guard_names:
            return True
    return False


def _guard_names(func: ast.AST) -> set[str]:
    """Local names bound from an ``.enabled`` read, e.g.
    ``tracing = self.tracer.enabled``."""
    names: set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Assign) and any(
                isinstance(s, ast.Attribute) and s.attr == "enabled"
                for s in ast.walk(sub.value)):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_tracer_chain(node: ast.AST) -> bool:
    """Does this expression denote a tracer (``tracer``,
    ``self.tracer``, ``service.tracer``...)?"""
    if isinstance(node, ast.Name):
        return node.id == "tracer" or node.id.endswith("_tracer")
    if isinstance(node, ast.Attribute):
        return node.attr == "tracer" or node.attr.endswith("_tracer")
    return False


@register
class ObsGuard(Rule):
    id = "obs-guard"
    summary = ("tracer record calls (event/span/finish_query/...) must "
               "be guarded by tracer.enabled")
    contract = ("zero-overhead-when-off tracing: benchmarks/e2e times "
                "the untraced server and tests/test_obs_properties.py "
                "holds answers identical with tracing on or off; "
                "tracing-off stays free only if no record site runs "
                "(or builds arguments) unguarded")

    def applies_to(self, module: LintModule) -> bool:
        parts = set(module.path.parts)
        # Scoped to the repro package (test files drive tracers
        # directly on purpose); the tracer's own implementation and
        # the lint package are out of scope.
        return "repro" in parts and not parts.intersection({"obs", "lint"})

    def check(self, module: LintModule) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in RECORD_METHODS
                    and _is_tracer_chain(node.func.value)):
                continue
            if self._guarded(module, node):
                continue
            yield module.violation(
                self.id, node,
                f"tracer.{node.func.attr}(...) outside a tracer.enabled "
                f"guard: record sites must be free when tracing is off "
                f"(wrap in `if tracer.enabled:`; a helper that is only "
                f"called under a guard takes a function-scoped allow on "
                f"its def line)")

    def _guarded(self, module: LintModule, call: ast.Call) -> bool:
        func = module.enclosing_function(call)
        guard_names = _guard_names(func) if func is not None else set()
        # 1. An enclosing if/ternary/short-circuit that reads .enabled.
        prev: ast.AST = call
        for anc in module.ancestors(call):
            if isinstance(anc, ast.If) \
                    and _mentions_enabled(anc.test, guard_names):
                return True
            if isinstance(anc, ast.IfExp) and prev is not anc.test \
                    and _mentions_enabled(anc.test, guard_names):
                return True
            if isinstance(anc, ast.BoolOp) and isinstance(anc.op, ast.And):
                for value in anc.values:
                    if value is prev:
                        break
                    if _mentions_enabled(value, guard_names):
                        return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            prev = anc
        # 2. An earlier early-exit guard in the same function:
        #    ``if not tracer.enabled: return``.
        if func is not None:
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.If):
                    continue
                if stmt.lineno >= call.lineno:
                    continue
                if not _mentions_enabled(stmt.test, guard_names):
                    continue
                if any(isinstance(s, (ast.Return, ast.Raise, ast.Continue))
                       for s in ast.walk(stmt)):
                    return True
        return False

