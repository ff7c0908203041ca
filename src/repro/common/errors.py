"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: schema/data, query IR, optimization, and execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or referenced inconsistently.

    Examples: duplicate relation names, a foreign key pointing at a
    relation or attribute that does not exist, or an attribute lookup on
    a relation that lacks it.
    """


class DataError(ReproError):
    """A data operation failed: unknown relation, bad tuple shape, etc."""


class QueryError(ReproError):
    """A conjunctive/user/keyword query is malformed.

    Examples: an atom referencing an unknown relation, a join predicate
    between atoms that are not both present, or a disconnected join
    graph where a connected one is required.
    """


class ScoringError(ReproError):
    """A score function was misused (non-monotone combination, missing
    score attribute, or an upper bound queried for an unknown input)."""


class OptimizationError(ReproError):
    """The optimizer could not produce a valid plan.

    Raised when no valid input assignment exists (which cannot happen if
    all streaming base relations are kept as candidates -- see
    Proposition 1 of the paper) or when internal invariants are violated.
    """


class ExecutionError(ReproError):
    """Runtime failure inside the ATC, an operator, or the QS manager."""


class StateError(ExecutionError):
    """Query-state management failure: grafting onto a missing node or
    plan, registering a user query twice, or probing a module on an
    attribute it does not index."""
