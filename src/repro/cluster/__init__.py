"""repro.cluster — multi-process serving with shared-memory model residency.

The GIL caps the single-process serving stack at roughly one core of encode
throughput no matter how many scheduler threads run.  This subpackage is the
scale-out tier that breaks that cap without duplicating the model:

* :mod:`repro.cluster.shared` — :class:`SharedModelStore` publishes packed
  inference banks into ``multiprocessing.shared_memory`` segments
  (refcounted; one physical copy serves every worker), plus the picklable
  :class:`SharedBankHandle` / :class:`WorkerModelSpec` and the worker-side
  :func:`build_worker_engine` that reconstructs a
  :class:`~repro.serve.engine.PackedInferenceEngine` over the mapped words;
* :mod:`repro.cluster.transport` — the data plane: pickled request/reply
  frames over each worker's pipe, with exact byte accounting;
* :mod:`repro.cluster.worker` — the worker process loop (the tiny
  request/reply protocol over its pipe);
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
    BankEvictedError,
    BankUnavailableError,
    ClusterError,
    DeadlineExceededError,
    DispatcherClosedError,
    WorkerCrashedError,
    WorkerFaultError,
    WorkerStartupError,
)
from repro.cluster.shared import (
    AttachedBank,
    BankLease,
    SharedBankHandle,
    SharedModelStore,
    WorkerModelSpec,
    attach_bank,
    build_worker_engine,
    make_worker_spec,
)

__all__ = [
    "AttachedBank",
    "BankEvictedError",
    "BankLease",
    "BankUnavailableError",
    "ClusterDispatcher",
    "ClusterError",
    "DeadlineExceededError",
    "DispatcherClosedError",
    "SharedBankHandle",
    "SharedModelStore",
    "WorkerCrashedError",
    "WorkerFaultError",
    "WorkerModelSpec",
    "WorkerStartupError",
    "attach_bank",
    "available_cpus",
    "build_pin_map",
    "build_worker_engine",
    "make_worker_spec",
    "pin_process",
]
