"""Exception types for the multi-process serving tier.

These live in their own dependency-free module so the HTTP front-end can map
them to status codes (``WorkerCrashedError`` → 503) without importing the
multiprocessing machinery — and without creating an import cycle between
``repro.serve`` and ``repro.cluster``.
"""

from __future__ import annotations


class ClusterError(RuntimeError):
    """Base class for multi-process serving-tier failures."""


class WorkerCrashedError(ClusterError):
    """An inference worker process died while handling a request.

    The dispatcher respawns the worker before raising this, so the *next*
    request succeeds; the in-flight one is reported as a retryable failure
    (the HTTP layer answers 503).
    """


class WorkerStartupError(ClusterError):
    """A worker process failed to come up within the startup timeout."""


class DispatcherClosedError(ClusterError):
    """The dispatcher was closed while this request held a reference to it.

    Raised (instead of a bare ``RuntimeError``) so the serving layer can map
    a hot-swap race — the promoted version's dispatcher replaced this one
    mid-request — to a retryable 503 rather than an opaque 500.
    """


class WorkerFaultError(ClusterError):
    """A worker reported a transient request-level fault (retryable).

    Covers injected ``error``-reply faults from :mod:`repro.faults` and any
    future transient worker-side condition that should be retried on the
    pool before surfacing 503 — distinct from ``ValueError`` (the caller's
    fault, 400) and from a crash (the process is gone).
    """


class BankEvictedError(ClusterError):
    """The shared bank for this key was paged out under the residency cap.

    Raised by :meth:`SharedModelStore.lease` when the key is still published
    (a dispatcher holds a refcount) but its segment was evicted.  The caller
    recovers by calling :meth:`SharedModelStore.restore` with the packed
    words — a bank-level cold load — and leasing again.
    """


class BankUnavailableError(ClusterError):
    """A worker could not attach the shared bank a dispatch addressed.

    The unlink-vs-attach race: the segment named in the op header was
    unlinked between the parent's send and the worker's attach (eviction
    churn, or injected chaos).  Retryable — the dispatcher restores the bank
    to a fresh segment and re-runs the shard.
    """


class DeadlineExceededError(ClusterError):
    """The request's deadline expired before scoring completed.

    Deadlines are absolute ``time.monotonic()`` instants that ride the HTTP
    request into the op control frame; workers refuse to score expired
    shards and the dispatcher abandons shards whose deadline passes while a
    worker holds them.  The HTTP layer answers 504 — the work is dead, not
    retryable.
    """


__all__ = [
    "BankEvictedError",
    "BankUnavailableError",
    "ClusterError",
    "DeadlineExceededError",
    "DispatcherClosedError",
    "WorkerCrashedError",
    "WorkerFaultError",
    "WorkerStartupError",
]
