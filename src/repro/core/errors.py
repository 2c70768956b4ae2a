"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still being able to distinguish schema problems from query
problems from planning problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation or tuple violates its declared schema.

    Raised, for example, when a tuple's arity does not match the relation's
    attribute list, or when a database binds a relation whose schema differs
    from the query hyperedge it is supposed to populate.
    """


class QueryError(ReproError):
    """A join query is structurally invalid or unsupported.

    Raised for empty queries, duplicate edge names, hyperedges referring to
    undeclared attributes, or when an algorithm is invoked on a query class
    it does not support (e.g. the hierarchical sweep on a cyclic query).
    """


class PlanError(ReproError):
    """A physical plan could not be constructed or is inconsistent.

    Raised when a GHD violates coverage/connectivity, when a requested
    decomposition (e.g. a hierarchical GHD) does not exist, or when a
    guarded partition is requested for a query that has none.
    """


class IntervalError(ReproError):
    """An interval literal is malformed (e.g. lower bound above upper)."""


class InvariantError(ReproError):
    """An internal invariant the algorithms rely on was violated.

    The taxonomy's replacement for bare ``assert`` in library code:
    unlike ``assert``, the check survives ``python -O``, and callers can
    still catch :class:`ReproError` at API boundaries. Seeing this
    exception always indicates a bug in the library, never bad input.
    """


class WorkerError(ReproError):
    """A parallel worker process died or could not return its reply.

    Raised by the resident worker pool (:mod:`repro.parallel.pool`) when
    a worker exits mid-task, when its pipe breaks, or when a task's
    result or exception cannot cross the process boundary by pickle. The
    pool discards a set with a dead worker, so the next call starts
    fresh workers and succeeds.
    """
