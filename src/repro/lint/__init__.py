"""repro-lint: mechanical enforcement of the reproduction's contracts.

The rules (see ``repro lint --list-rules`` or
:mod:`repro.lint.rules`):

* ``clock-discipline`` -- time flows through the ``Clock`` protocol;
* ``rng-discipline`` -- randomness flows through ``common/rng.py``;
* ``wire-no-pickle`` / ``wire-message-shape`` -- the shard-worker wire
  stays versioned, pickle-free JSON over frozen dataclasses;
* ``det-order`` -- no salted set order / ``id()`` ordering in the
  answer-affecting hot paths.

Suppressions are explicit and *reasoned*::

    do_thing()  # repro: allow[rule-id] -- why this site is exempt

A reasonless or stale allow is itself a violation, so the suppression
ledger stays an honest record of every exception to the contracts.
"""

from repro.lint.framework import (
    LintError,
    LintModule,
    LintReport,
    Rule,
    Suppression,
    Violation,
    all_rules,
    format_suppression,
    get_rules,
    parse_suppression,
    register,
    run_lint,
)
from repro.lint.report import render_console, render_json, render_rule_list

__all__ = [
    "LintError",
    "LintModule",
    "LintReport",
    "Rule",
    "Suppression",
    "Violation",
    "all_rules",
    "format_suppression",
    "get_rules",
    "parse_suppression",
    "register",
    "render_console",
    "render_json",
    "render_rule_list",
    "run_lint",
]
