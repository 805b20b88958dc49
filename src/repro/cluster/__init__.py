"""repro.cluster — multi-process serving over a pool of worker processes.

The GIL caps the single-process serving stack at roughly one core of encode
throughput no matter how many scheduler threads run.  This subpackage is the
scale-out tier that breaks that cap:

* :mod:`repro.cluster.worker` — the worker process loop (the tiny
  request/reply protocol over its pipe), plus the picklable
  :class:`WorkerModelSpec` that carries the encoder and the packed class
  bank to each worker by value, and :func:`build_worker_engine`, which
  reconstructs a :class:`~repro.serve.engine.PackedInferenceEngine` over
  those words;
* :mod:`repro.cluster.transport` — the data plane: pickled request/reply
  frames over each worker's pipe, with exact byte accounting;
* :mod:`repro.cluster.dispatcher` — :class:`ClusterDispatcher` validates +
  packs each batch once, shards the packed words across the pool, merges
  scores bit-identically (including the ensemble max-over-bank reduction),
  and respawns crashed workers;
* :mod:`repro.cluster.affinity` — best-effort ``sched_setaffinity`` worker
  pinning so scaling benchmarks record where work actually ran;
* :mod:`repro.cluster.errors` — the exception taxonomy the HTTP layer maps
  to status codes.

Wired into serving as ``ServeApp(..., num_processes=N)`` /
``repro serve --workers N``.
"""

from repro.cluster.affinity import available_cpus, build_pin_map, pin_process
from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.errors import (
    ClusterError,
    DeadlineExceededError,
    DispatcherClosedError,
    WorkerCrashedError,
    WorkerFaultError,
    WorkerStartupError,
)
from repro.cluster.worker import WorkerModelSpec, build_worker_engine, make_worker_spec

__all__ = [
    "ClusterDispatcher",
    "ClusterError",
    "DeadlineExceededError",
    "DispatcherClosedError",
    "WorkerCrashedError",
    "WorkerFaultError",
    "WorkerModelSpec",
    "WorkerStartupError",
    "available_cpus",
    "build_pin_map",
    "build_worker_engine",
    "make_worker_spec",
    "pin_process",
]
