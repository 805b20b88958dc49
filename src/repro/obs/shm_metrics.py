"""Cross-process worker metrics over tiny shared-memory slabs.

The dispatcher's in-process counters go blind the moment a shard crosses the
pipe into a ``repro.cluster`` worker.  Instead of shipping metrics messages
back (which would tax the request path), each worker *publishes* its counters
into a small fixed-layout shared-memory slab that the dispatcher maps and
reads whenever someone asks for ``/v1/metrics``.  These slabs are the only
shared memory the serving tier creates (the model bank reaches workers by
value, inside the worker spec):

* one slab per worker *slot*, created by the dispatcher and kept for the
  dispatcher's lifetime — a respawned worker inherits its slot's slab, so
  counters survive crashes and the fleet view never resets mid-soak;
* exactly one writer (the worker owning the slot) and one reader (the
  dispatcher), both lock-free: slots are monotonically increasing float64
  cells, so a torn read can at worst lag by one in-flight update — fine for
  metrics, and nothing on the scoring path ever blocks on a lock;
* recording is allocation-free: a slab update is a few in-place adds on a
  pre-built NumPy view.

Layout (all float64): ``requests, samples, errors, busy_seconds`` followed
by a :class:`~repro.obs.sketch.QuantileSketch` row tracking the scoring
latency distribution.  Because sketch rows merge exactly (bucket counts are
additive), :func:`merge_worker_stats` produces *true* fleet-wide scoring
percentiles — identical to a single sketch fed every worker's stream — and
:func:`stats_summary` headlines those, keeping per-worker numbers
(:func:`worker_summary`) as a breakdown rather than the story.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Sequence

import numpy as np

from repro.obs.sketch import QuantileSketch, merge_rows, sketch_row_length

_COUNTER_FIELDS = ("requests", "samples", "errors", "busy_seconds")
_SKETCH_CELLS = sketch_row_length()
_NUM_SLOTS = len(_COUNTER_FIELDS) + _SKETCH_CELLS


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach without claiming cleanup ownership: only the creator (the
    dispatcher) unlinks."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: attachments are never tracked
        return shared_memory.SharedMemory(name=name)


class WorkerStatsSlab:
    """One worker slot's shared counter block.

    Create with :meth:`create` (parent side, owns the segment) or
    :meth:`attach` (worker side, borrows it).  The worker calls
    :meth:`record`; the parent calls :meth:`read`.
    """

    def __init__(self, segment: shared_memory.SharedMemory, owner: bool):
        self._segment = segment
        self._owner = owner
        self._slots = np.ndarray((_NUM_SLOTS,), dtype=np.float64, buffer=segment.buf)
        if owner:
            self._slots[:] = 0.0
        # The sketch records straight into the shared row — attaching keeps
        # whatever counts a previous worker incarnation left behind.
        self._sketch = QuantileSketch.attach_row(
            self._slots[len(_COUNTER_FIELDS) :]
        )

    @classmethod
    def create(cls) -> "WorkerStatsSlab":
        segment = shared_memory.SharedMemory(
            create=True, size=_NUM_SLOTS * np.dtype(np.float64).itemsize
        )
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "WorkerStatsSlab":
        return cls(_attach_segment(name), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def nbytes(self) -> int:
        return self._slots.nbytes

    # -------------------------------------------------------------- recording
    def record(self, rows: int, seconds: float) -> None:
        """Record one answered shard of *rows* samples taking *seconds*."""
        slots = self._slots
        slots[0] += 1.0
        slots[1] += float(rows)
        slots[3] += float(seconds)
        if seconds > 0.0:
            self._sketch.record(seconds)

    def record_error(self) -> None:
        self._slots[2] += 1.0

    # ---------------------------------------------------------------- reading
    def read(self) -> Dict[str, object]:
        """Full snapshot of this slot (parent side).

        ``sketch_row`` is the flat scoring-latency sketch (JSON-ready list
        of floats) — :func:`merge_worker_stats` folds these into the fleet
        distribution; :func:`worker_summary` derives the per-worker
        breakdown without shipping the raw row to clients.
        """
        values = self._slots.copy()
        counters = dict(zip(_COUNTER_FIELDS, values[: len(_COUNTER_FIELDS)]))
        return {
            "requests": int(counters["requests"]),
            "samples": int(counters["samples"]),
            "errors": int(counters["errors"]),
            "busy_seconds": float(counters["busy_seconds"]),
            "sketch_row": values[len(_COUNTER_FIELDS) :].tolist(),
        }

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap (and, for the creating side, unlink) the segment."""
        self._sketch = None
        self._slots = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a view outlived the slab
            return
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "WorkerStatsSlab":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def merge_worker_stats(stats: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fleet totals over per-worker :meth:`WorkerStatsSlab.read` snapshots.

    Counter fields add; sketch rows merge exactly, so the merged row is the
    sketch of the pooled cross-worker scoring stream (not an average of
    per-worker summaries).
    """
    total = {
        "requests": 0,
        "samples": 0,
        "errors": 0,
        "busy_seconds": 0.0,
        "sketch_row": np.zeros(_SKETCH_CELLS, dtype=np.float64).tolist(),
    }
    rows: List[Sequence[float]] = [total["sketch_row"]]
    for entry in stats:
        total["requests"] += entry["requests"]
        total["samples"] += entry["samples"]
        total["errors"] += entry["errors"]
        total["busy_seconds"] += entry["busy_seconds"]
        rows.append(entry["sketch_row"])
    total["sketch_row"] = merge_rows(rows).tolist()
    return total


def _scoring_sketch(entry: Dict[str, object]) -> QuantileSketch:
    return QuantileSketch.from_row(entry["sketch_row"])


def worker_summary(entry: Dict[str, object]) -> Dict[str, object]:
    """JSON-ready per-worker breakdown of one :meth:`WorkerStatsSlab.read`
    snapshot (counters plus this worker's own scoring percentiles)."""
    sketch = _scoring_sketch(entry)
    return {
        "requests": entry["requests"],
        "samples": entry["samples"],
        "errors": entry["errors"],
        "busy_seconds": entry["busy_seconds"],
        "scoring_p50_ms": sketch.percentile(50) * 1e3,
        "scoring_p99_ms": sketch.percentile(99) * 1e3,
    }


def stats_summary(merged: Dict[str, object], uptime_seconds: float) -> Dict[str, object]:
    """Fleet headline from :func:`merge_worker_stats` output.

    The scoring percentiles come from the *merged* sketch — true pooled
    cross-worker percentiles with the sketch's relative-error bound, not a
    summary of per-worker summaries.
    """
    sketch = _scoring_sketch(merged)
    requests = merged["requests"]
    busy = merged["busy_seconds"]
    return {
        "requests": requests,
        "samples": merged["samples"],
        "errors": merged["errors"],
        "busy_seconds": busy,
        "utilization": busy / uptime_seconds if uptime_seconds > 0 else 0.0,
        "scoring_p50_ms": sketch.percentile(50) * 1e3,
        "scoring_p95_ms": sketch.percentile(95) * 1e3,
        "scoring_p99_ms": sketch.percentile(99) * 1e3,
        "mean_scoring_ms": (busy / requests * 1e3) if requests else 0.0,
        "relative_accuracy": sketch.relative_accuracy,
    }


__all__ = [
    "WorkerStatsSlab",
    "merge_worker_stats",
    "stats_summary",
    "worker_summary",
]
