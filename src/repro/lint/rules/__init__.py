"""The rule set: importing this package registers every rule.

Each module encodes one family of project contracts; see the module
docstrings for the invariant each rule protects and the differential
suite that would catch (far too late, and flakily) what the rule
catches at lint time.
"""

from repro.lint.rules import clock, determinism, rng, wire  # noqa: F401
