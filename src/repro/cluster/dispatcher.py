"""``ClusterDispatcher``: shard micro-batches across worker processes.

The dispatcher is the parent-side half of the multi-process serving tier.  It
presents the same inference surface as a
:class:`~repro.serve.engine.PackedInferenceEngine` (``top_k`` /
``decision_scores`` / ``predict``), which is exactly what the
:class:`~repro.serve.batching.BatchScheduler` calls — so the existing
micro-batcher feeds coalesced batches straight into the cluster with no
changes of its own.  Per batch it:

1. validates and — when the engine has a fused accumulator — encodes + packs
   the query rows *once*, so what crosses the process boundary is the packed
   ``uint64`` words (one ``ceil(D/64)``-word row per sample), not float
   features re-encoded per worker;
2. splits the rows into contiguous shards, one per worker (a batch smaller
   than the pool goes to the next worker round-robin), and scatters them
   over per-worker pipes (see :mod:`repro.cluster.transport`);
3. concatenates the per-shard results in shard order — row sharding keeps
   the merged output *bit-identical* to a single-process engine call,
   including the ensemble's max-over-bank reduction, which each worker
   applies to its own rows before replying.

A request-level exception inside a worker is re-raised in the caller with
its original type preserved for ``ValueError`` so the HTTP layer still
answers 400 (feature-width errors on the packed path raise parent-side,
before any dispatch).  A worker *crash* is detected as a broken pipe or
silent process death; a *hang* (alive but unresponsive past
``request_timeout``) is detected by the receive watchdog and the wedged
process is forcibly retired (SIGTERM, then SIGKILL).  Either way the
dispatcher retires the slot (infallible, so every other worker's pending
reply is still drained and no channel ever desynchronises) and **retries the
failed shards exactly once** on the lazily respawned pool — only a second
consecutive failure surfaces
:class:`~repro.cluster.errors.WorkerCrashedError` (HTTP 503).  Transient
worker faults (:class:`~repro.cluster.errors.WorkerFaultError`) are retried
the same way without retiring the worker, since their reply was consumed and
the pipe stays aligned.

Requests may carry an absolute monotonic *deadline*: it rides the op
control frame so workers refuse to score expired shards, the receive
watchdog abandons (and retires) a worker still holding a shard when the
deadline passes, and the whole batch raises
:class:`~repro.cluster.errors.DeadlineExceededError` (HTTP 504) instead of
scoring dead work.  Deterministic chaos testing of all of these paths is
provided by :mod:`repro.faults` — pass ``fault_plan=`` (or export
``REPRO_FAULTS``) and the plan rides the spawn arguments into every worker.

Workers default to the ``fork`` start method when the platform offers it
(instant startup, no spec pickling); set ``REPRO_CLUSTER_START_METHOD`` to
``spawn`` or ``forkserver`` to override.  With parent-side packing the
``sgn(0)`` tie-break RNG is consumed exactly once in the parent, so even
``tie_break="random"`` encoders shard deterministically; engines without a
fused accumulator fall back to shipping float rows, where per-worker RNG
copies may resolve ties differently than a single process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.affinity import build_pin_map, pin_process
from repro.cluster.errors import (
    BankEvictedError,
    BankUnavailableError,
    DeadlineExceededError,
    DispatcherClosedError,
    WorkerCrashedError,
    WorkerFaultError,
    WorkerStartupError,
)
from repro.cluster.shared import SharedModelStore, make_worker_spec
from repro.cluster.transport import ParentPipe
from repro.cluster.worker import worker_main
from repro.faults import PARENT_INDEX, PARENT_KINDS, FaultPlan
from repro.obs.shm_metrics import (
    WorkerStatsSlab,
    merge_worker_stats,
    stats_summary,
    worker_summary,
)
from repro.obs.trace import NULL_SPAN, Tracer, get_tracer

#: Process-wide guard around the fork-critical window of a worker spawn.
#: With the ``fork`` start method, two dispatchers spawning concurrently
#: from different threads can fork a child while the *other* spawn holds a
#: multiprocessing-internal lock; the child inherits the held lock and
#: deadlocks in its bootstrap, silently eating the whole startup timeout.
#: Serialising pipe creation + ``Process.start()`` (not the ready-wait,
#: which may legitimately take a while) keeps the fork moment clean.
_SPAWN_LOCK = threading.Lock()

try:  # posix-only module; the ``fork`` start method implies it exists
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover - non-posix platforms
    _resource_tracker = None  # type: ignore[assignment]


def _reset_tracker_lock_after_fork() -> None:
    """Give the fork-inherited resource tracker a fresh, unheld lock.

    ``multiprocessing.resource_tracker`` guards its pipe with an ordinary
    ``threading`` lock and never re-initialises it after a fork.  In a busy
    multi-tenant parent *any* thread — a shm publish, an eviction unlink —
    may hold that lock at the fork moment; the child then deadlocks on its
    very first shared-memory attach (``register`` → ``ensure_running``),
    never reaches the ready handshake, and silently eats the whole startup
    timeout while ``is_alive()`` stays true.  ``_SPAWN_LOCK`` cannot help:
    the offending threads are not spawning workers.  A fresh lock in the
    child is safe because the child only ever *sends* on the inherited
    tracker pipe.
    """
    tracker = getattr(_resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if lock is not None:
        tracker._lock = type(lock)()


if _resource_tracker is not None and hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_tracker_lock_after_fork)


def _default_start_method() -> str:
    method = os.environ.get("REPRO_CLUSTER_START_METHOD")
    if method:
        return method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _Worker:
    __slots__ = ("process", "pipe", "generation")

    def __init__(self, process, pipe: ParentPipe, generation: int):
        self.process = process
        self.pipe = pipe
        # Generation of the bank segment this worker has attached.  Request
        # headers only carry a (re-)attach handle when the leased bank has
        # moved past this, so steady-state traffic pays zero header bytes
        # for the fleet-paging protocol.
        self.generation = generation


class _WorkerCrash(Exception):
    """Internal marker: the pipe broke or the process died mid-request."""


class _WorkerHang(_WorkerCrash):
    """Internal marker: the process is *alive* but unresponsive.

    Raised by the receive watchdog when ``request_timeout`` elapses — or,
    with ``deadline_hit=True``, when the request's own deadline expires
    while the worker still holds the shard.  Distinct from a plain crash so
    the dispatcher can count hangs separately and map the deadline case to
    504 instead of 503; either way the wedged process must be forcibly
    retired, because ``is_alive()`` would otherwise hand the same stuck
    worker to every future request.
    """

    def __init__(self, deadline_hit: bool = False):
        super().__init__()
        self.deadline_hit = deadline_hit


class ClusterDispatcher:
    """Shard inference batches from one packed engine across processes.

    Parameters
    ----------
    engine:
        A packed-mode :class:`~repro.serve.engine.PackedInferenceEngine`;
        its resident bank is published to shared memory and the engine
        itself remains untouched (the parent can keep serving on it — the
        dispatcher borrows only its validator and fused encoder for the
        one-time parent-side pack).
    num_workers:
        Worker process count (>= 1).
    store:
        Optional shared :class:`SharedModelStore`.  When omitted the
        dispatcher owns a private store and closes it on :meth:`close`.
    name:
        Bank key in the store; defaults to the engine name.  Give versioned
        keys (``"model@v3"``) when hot-swapping so old and new banks coexist.
    cpu_affinity:
        ``None`` (no pinning, the default), ``"auto"`` (round-robin workers
        over the available CPUs via ``sched_setaffinity``), or an explicit
        CPU-id sequence to round-robin over.  Pinning is best-effort and
        recorded per worker in :meth:`info` so benchmark results stay honest.
    start_method / startup_timeout / request_timeout:
        Process start method override and the two failure deadlines
        (seconds) for worker startup and a single sharded request; on
        ``request_timeout`` the hung-but-alive worker is terminated and its
        shard retried once on the respawned pool.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` shipped into every worker
        for deterministic chaos testing; defaults to
        :meth:`FaultPlan.from_env` (the ``REPRO_FAULTS`` variable), i.e.
        no faults unless explicitly requested.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When the calling thread
        has a sampled span open, each batch gets a ``dispatch`` span whose
        context rides the worker pipes; workers reply with finished
        ``worker:score`` span records that are stitched into the parent
        trace here.  Defaults to the process-wide tracer.
    metrics:
        Optional :class:`~repro.serve.metrics.ModelMetrics` receiving
        ``dispatch`` / ``merge`` stage timings.
    """

    def __init__(
        self,
        engine,
        num_workers: int = 2,
        store: Optional[SharedModelStore] = None,
        name: Optional[str] = None,
        cpu_affinity: Union[None, str, Sequence[int]] = None,
        start_method: Optional[str] = None,
        startup_timeout: float = 60.0,
        request_timeout: float = 60.0,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if engine.packed_bank is None:
            raise ValueError(
                "cluster serving requires the packed scoring path; "
                f"engine {engine.name!r} compiled in {engine.mode!r} mode"
            )
        self.num_workers = int(num_workers)
        self.name = str(name or engine.name)
        self.num_classes = int(engine.num_classes)
        self.dimension = int(engine.dimension)
        self.startup_timeout = float(startup_timeout)
        self.request_timeout = float(request_timeout)
        self._fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        # Parent-side chaos cursor: the eviction-targeted kinds fire here,
        # once per dispatch, under a pseudo worker index so their schedule is
        # seed-stable and disjoint from every real worker's.
        self._parent_injector = (
            None
            if self._fault_plan is None
            else self._fault_plan.injector(PARENT_INDEX, kinds=PARENT_KINDS)
        )
        self.cpu_count = os.cpu_count() or 1
        if cpu_affinity is None:
            self._pin_map: Dict[int, int] = {}
        elif cpu_affinity == "auto":
            self._pin_map = build_pin_map(self.num_workers)
        else:
            self._pin_map = build_pin_map(self.num_workers, cpus=cpu_affinity)
        self._pinned: Dict[int, Optional[int]] = {}
        self._context = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        # The engine stays resident parent-side: its validator and fused
        # encoder turn each batch into packed words exactly once before the
        # scatter, so workers receive 1-bit-per-dimension words instead of
        # 64-bit float rows and skip re-encoding entirely.
        self._engine = engine
        self._ship_packed = (
            engine.mode == "packed" and getattr(engine, "_accumulator", None) is not None
        )
        self._owns_store = store is None
        self._store = store if store is not None else SharedModelStore()
        self._bank_key = self.name
        handle = self._store.publish(self._bank_key, engine.packed_bank)
        try:
            self._spec = make_worker_spec(engine, handle)
        except BaseException:
            self._store.release(self._bank_key)
            if self._owns_store:
                self._store.close()
            raise
        self._tracer = tracer if tracer is not None else get_tracer()
        self._metrics = metrics
        self._lock = threading.Lock()
        self._closed = False
        self._round_robin = 0
        self.respawns = 0
        self.hangs = 0
        self.shard_retries = 0
        self.worker_faults = 0
        self.deadline_skips = 0
        self.bank_restores = 0
        self.bank_faults = 0
        self._started_monotonic = time.monotonic()
        # One stats slab per worker *slot*, owned by the dispatcher for its
        # whole lifetime: respawned workers inherit their slot's slab, so the
        # fleet counters survive crashes instead of resetting mid-soak.
        self._slabs: List[WorkerStatsSlab] = []
        self._workers: List[Optional[_Worker]] = [None] * self.num_workers
        try:
            for _ in range(self.num_workers):
                self._slabs.append(WorkerStatsSlab.create())
            # Pin the bank while the initial pool attaches.  Without a lease,
            # a concurrent publish under the fleet residency cap can pick the
            # brand-new segment as its LRU victim between our publish above
            # and the workers' attach, and every worker then fails startup
            # with FileNotFoundError.  The lease also restores the bank (and
            # re-specs the handle) if that race already happened.
            startup_lease = self._acquire_bank_lease()
            try:
                for index in range(self.num_workers):
                    self._workers[index] = self._spawn(index)
            finally:
                startup_lease.release()
        except BaseException:
            self.close()
            raise

    # -------------------------------------------------------------- inference
    #: Callers (the batch scheduler, the HTTP layer) check this attribute to
    #: know they may pass ``deadline=`` — plain engines don't accept it.
    accepts_deadline = True

    def top_k(
        self, features: np.ndarray, k: int = 5, deadline: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` best classes per sample, merged across worker shards."""
        results = self._scatter_gather(("top_k", int(k)), features, deadline=deadline)
        merge_started = time.perf_counter()
        with self._child_span("merge", attrs={"shards": len(results)}):
            labels = np.concatenate([labels for labels, _ in results], axis=0)
            scores = np.concatenate([scores for _, scores in results], axis=0)
        if self._metrics is not None:
            self._metrics.record_stage("merge", time.perf_counter() - merge_started)
        return labels, scores

    def decision_scores(
        self, features: np.ndarray, deadline: Optional[float] = None
    ) -> np.ndarray:
        """``(n, K)`` class scores, merged across worker shards."""
        results = self._scatter_gather(("scores",), features, deadline=deadline)
        merge_started = time.perf_counter()
        with self._child_span("merge", attrs={"shards": len(results)}):
            merged = np.concatenate(results, axis=0)
        if self._metrics is not None:
            self._metrics.record_stage("merge", time.perf_counter() - merge_started)
        return merged

    def predict(
        self, features: np.ndarray, deadline: Optional[float] = None
    ) -> np.ndarray:
        """Predict integer class labels for a batch of raw feature rows."""
        return np.argmax(self.decision_scores(features, deadline=deadline), axis=1)

    def ping(self) -> List[int]:
        """Round-trip every worker; returns their PIDs (health check)."""
        with self._lock:
            self._check_open()
            pids = []
            for index in range(self.num_workers):
                try:
                    worker = self._ensure_worker(index)
                    worker.pipe.send_request({"op": "ping"}, [])
                    pids.append(self._receive(worker)[0])
                except (_WorkerCrash, BrokenPipeError, EOFError, OSError):
                    self._retire_worker(index)
                    raise WorkerCrashedError(
                        f"worker {index} of {self.name!r} died during ping "
                        "(respawning on next use)"
                    )
            return pids

    def poison_worker(self, index: int = 0) -> None:
        """Arm worker *index* to die on its next request (chaos-testing hook).

        The armed worker acknowledges, then hard-exits when the next batch
        shard reaches it — deterministically exercising the mid-batch crash
        path (:class:`WorkerCrashedError` + respawn) that a random ``kill``
        can only hit by lucky timing.
        """
        with self._lock:
            self._check_open()
            worker = self._ensure_worker(index)
            try:
                worker.pipe.send_request({"op": "poison"}, [])
                self._receive(worker)
            except (_WorkerCrash, BrokenPipeError, EOFError, OSError):
                self._retire_worker(index)
                raise WorkerCrashedError(
                    f"worker {index} of {self.name!r} died while being poisoned"
                )

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the workers and release the shared bank (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            if worker is None:
                continue
            try:
                worker.pipe.send_request({"op": "stop"}, [])
            except (BrokenPipeError, EOFError, OSError):
                pass
            worker.pipe.close()
        for worker in workers:
            if worker is None:
                continue
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        # Slabs go away only after every worker has exited (workers hold
        # attachments; the owner's close also unlinks the segment).
        slabs, self._slabs = self._slabs, []
        for slab in slabs:
            try:
                slab.close()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass
        try:
            self._store.release(self._bank_key)
        except KeyError:  # pragma: no cover - store closed externally
            pass
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "ClusterDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def info(self) -> dict:
        """JSON-ready health/layout description of the worker pool."""
        with self._lock:
            return {
                "name": self.name,
                "num_workers": self.num_workers,
                "respawns": self.respawns,
                "request_timeout": self.request_timeout,
                "failures": {
                    "hangs": self.hangs,
                    "shard_retries": self.shard_retries,
                    # Pipe frames cannot tear; metric readers still sum
                    # this key.
                    "transport_errors": 0,
                    "worker_faults": self.worker_faults,
                    "deadline_skips": self.deadline_skips,
                    "bank_faults": self.bank_faults,
                },
                "bank_restores": self.bank_restores,
                "fault_plan": (
                    self._fault_plan.describe() if self._fault_plan else None
                ),
                "start_method": self._context.get_start_method(),
                "ships_packed_queries": self._ship_packed,
                "cpu_count": self.cpu_count,
                "pin_map": [
                    self._pinned.get(index, self._pin_map.get(index))
                    for index in range(self.num_workers)
                ]
                if self._pin_map
                else None,
                "shared_bank_bytes": self._spec.bank_handle.nbytes,
                "worker_pids": [
                    worker.process.pid
                    for worker in self._workers
                    if worker is not None and worker.process.is_alive()
                ],
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "workers": self.fleet_stats(),
                "transport_stats": self.transport_stats(),
            }

    def fleet_stats(self) -> dict:
        """Per-worker counters from the shared-memory slabs, plus the merged
        fleet view (utilisation, scoring-latency percentiles).

        Reads are lock-free — each slab has a single writer (its worker) and
        this is the single reader — so polling ``/v1/metrics`` never touches
        the request path.
        """
        snapshots = [slab.read() for slab in self._slabs]
        merged = merge_worker_stats(snapshots)
        uptime = time.monotonic() - self._started_monotonic
        return {
            # Per-worker rows are the breakdown; the merged-sketch fleet
            # summary is the headline (true pooled percentiles).
            "per_worker": [worker_summary(entry) for entry in snapshots],
            "fleet": stats_summary(merged, uptime_seconds=uptime),
        }

    def transport_stats(self) -> dict:
        """Per-worker pipe accounting (frame counts, pipe and payload bytes)
        plus fleet totals — the raw numbers behind the transport series in
        ``/v1/metrics``."""
        per_worker: List[Optional[dict]] = []
        totals = dict.fromkeys(ParentPipe.COUNTERS, 0)
        for worker in self._workers:
            if worker is None:
                per_worker.append(None)
                continue
            stats = worker.pipe.stats()
            per_worker.append(stats)
            for key, value in stats.items():
                totals[key] += value
        # Metric readers sum bytes over the pipe, shm and socket keys; only
        # the pipe carries anything.
        totals["shm_bytes"] = 0
        totals["socket_bytes"] = 0
        return {"per_worker": per_worker, "totals": totals}

    # -------------------------------------------------------------- internals
    def _check_open(self) -> None:
        if self._closed:
            raise DispatcherClosedError("ClusterDispatcher is closed")

    def _restore_bank(self, slow: bool = False):
        """Bring an evicted bank back from the parent engine (cold restore).

        The parent engine keeps the packed words resident, so a restore is a
        copy into a fresh segment — no disk load.  The worker spec is updated
        in place so respawned workers attach the current generation.
        """
        if slow and self._fault_plan is not None:
            time.sleep(self._fault_plan.slow_seconds)
        handle = self._store.restore(self._bank_key, self._engine.packed_bank)
        if handle.generation != self._spec.bank_handle.generation:
            self.bank_restores += 1
            self._spec.bank_handle = handle
        return handle

    def _acquire_bank_lease(self, slow: bool = False):
        """Pin the bank for one dispatch, cold-restoring it if paged out."""
        for _ in range(3):
            try:
                return self._store.lease(self._bank_key)
            except BankEvictedError:
                self._restore_bank(slow=slow)
                slow = False  # the injected slow cold-load sleeps once
        return self._store.lease(self._bank_key)

    def _refresh_bank_lease(self, lease):
        """Re-pin after a bank-stale retry signal (segment may be gone)."""
        lease.release()
        return self._acquire_bank_lease()

    def _child_span(self, name: str, attrs=None):
        """A recording span only when the calling thread is already inside a
        sampled trace; the shared null span otherwise.

        Dispatcher stages are never trace *roots* — gating on the ambient
        context keeps unsampled requests (and direct engine-style use) from
        minting orphan single-span traces.
        """
        if self._tracer.current_context() is None:
            return NULL_SPAN
        return self._tracer.start_span(name, attrs=attrs)

    def _spawn(self, index: int) -> _Worker:
        with _SPAWN_LOCK:
            if _resource_tracker is not None:
                # Start the resource tracker (if needed) from the parent so
                # a forked child only ever writes to the inherited pipe and
                # never has to launch a tracker of its own mid-bootstrap.
                _resource_tracker.ensure_running()
            parent_connection, child_connection = self._context.Pipe(duplex=True)
            # The child attaches whatever handle the spec carries at fork
            # time; remember its generation so request headers can skip the
            # re-attach handle while the worker is already current.
            spawn_generation = self._spec.bank_handle.generation
            process = None
            try:
                process = self._context.Process(
                    target=worker_main,
                    args=(
                        self._spec,
                        child_connection,
                        self._slabs[index].name,
                        index,
                        self._fault_plan,
                    ),
                    name=f"repro-cluster-{self.name}-{index}",
                    daemon=True,
                )
                process.start()
            except BaseException:
                parent_connection.close()
                child_connection.close()
                raise
        try:
            child_connection.close()
            deadline = time.monotonic() + self.startup_timeout
            while not parent_connection.poll(0.05):
                if not process.is_alive() or time.monotonic() > deadline:
                    raise WorkerStartupError(
                        f"worker for {self.name!r} failed to start "
                        f"(alive={process.is_alive()})"
                    )
            try:
                reply = parent_connection.recv()
            except EOFError:
                raise WorkerStartupError(
                    f"worker for {self.name!r} died during startup"
                )
            if reply[0] != "ready":
                process.join(timeout=1.0)
                raise WorkerStartupError(
                    f"worker for {self.name!r} failed to build its engine: "
                    f"{reply[1]}"
                )
        except BaseException:
            parent_connection.close()
            if process is not None and process.is_alive():
                process.terminate()
            raise
        cpu = self._pin_map.get(index)
        if cpu is not None:
            self._pinned[index] = cpu if pin_process(process.pid, cpu) else None
        return _Worker(process, ParentPipe(parent_connection), spawn_generation)

    def _ensure_worker(self, index: int) -> _Worker:
        """The live worker at *index*, respawning a retired/dead one.

        May raise :class:`WorkerStartupError`; callers that are mid-batch
        catch it and keep draining the other channels (retiring is
        infallible, spawning is not — so death is recorded eagerly via
        :meth:`_retire_worker` and the replacement is spawned lazily here).
        """
        worker = self._workers[index]
        if worker is not None and worker.process.is_alive():
            return worker
        if worker is not None:
            self._retire_worker(index)
        self._workers[index] = self._spawn(index)
        self.respawns += 1
        return self._workers[index]

    def _retire_worker(self, index: int) -> None:
        """Tear down a dead/hung/poisoned worker slot; never raises.

        Escalates SIGTERM → SIGKILL: a hung worker may be wedged somewhere
        it cannot run signal handlers, and leaving it alive would leak the
        process *and* let ``is_alive()`` hand the same stuck worker to every
        future request (the hung-worker leak this watchdog exists to fix).
        """
        worker = self._workers[index]
        if worker is None:
            return
        self._workers[index] = None
        worker.pipe.close()
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - SIGTERM ignored
                worker.process.kill()
        worker.process.join(timeout=5.0)

    def _receive(self, worker: _Worker, deadline: Optional[float] = None):
        timeout_at = time.monotonic() + self.request_timeout
        while not worker.pipe.poll(0.05):
            now = time.monotonic()
            if not worker.process.is_alive():
                raise _WorkerCrash()
            if deadline is not None and now >= deadline:
                raise _WorkerHang(deadline_hit=True)
            if now >= timeout_at:
                raise _WorkerHang(deadline_hit=False)
        try:
            reply = worker.pipe.recv_reply()
        except (EOFError, OSError):
            raise _WorkerCrash()
        if reply[0] == "error":
            _, kind, message = reply
            # Re-raise with the worker's original type where the serving
            # layer maps it to a distinct status / retry decision.
            if kind == "ValueError":
                raise ValueError(message)
            if kind == "DeadlineExceededError":
                raise DeadlineExceededError(message)
            if kind == "InjectedFaultError":
                raise WorkerFaultError(message)
            if kind == "BankUnavailableError":
                raise BankUnavailableError(message)
            raise RuntimeError(f"worker error ({kind}): {message}")
        # ``("ok", scalar, arrays, spans)`` — scalar carries ping/poison
        # results, arrays carry scoring results (1 array = scores, 2 = the
        # ``(labels, scores)`` top-k pair), spans is the worker's list of
        # finished span records (empty unless the request carried a trace
        # context).
        _, scalar, arrays, spans = reply
        if not arrays:
            return scalar, spans
        if len(arrays) == 1:
            return arrays[0], spans
        return tuple(arrays), spans

    def _run_shards(
        self,
        op: tuple,
        kind: str,
        ctx,
        shards: Sequence[np.ndarray],
        indices: Sequence[int],
        offset: int,
        deadline: Optional[float],
        results: list,
        state: dict,
    ) -> List[int]:
        """One scatter/drain round over the given shard indices.

        Fills ``results[shard_index]`` for every shard that scores and
        returns the indices that failed *retryably* — crash, hang, dropped
        pipe, transient worker fault.  Non-retryable failures land
        in *state* (``request_error`` / ``deadline_error`` / ``spawn_error``;
        ``retry_error`` remembers the last retryable exception so a
        double-failure re-raises something meaningful).

        Every successfully sent shard is awaited even after a failure — an
        unconsumed reply would desynchronise its channel and hand the NEXT
        batch this batch's results.  Nothing in the drain loop raises:
        crashes and hangs retire the slot (infallible; the replacement is
        spawned lazily), request-level errors consume their reply.
        """
        assignments = []
        retry: List[int] = []
        for shard_index in indices:
            index = (offset + shard_index) % self.num_workers
            shard = shards[shard_index]
            if deadline is not None and time.monotonic() >= deadline:
                state["deadline_error"] = state["deadline_error"] or (
                    DeadlineExceededError(
                        f"deadline expired before dispatch to worker {index} "
                        f"of {self.name!r}"
                    )
                )
                continue
            try:
                worker = self._ensure_worker(index)
            except WorkerStartupError as error:
                # A respawn may have failed because its bank segment was
                # yanked mid-churn; flag the bank stale so the retry round
                # re-pins (and if needed restores) it before respawning.
                state["spawn_error"] = state["spawn_error"] or error
                state["retry_error"] = None
                state["bank_stale"] = True
                retry.append(shard_index)
                continue
            bank = state.get("bank")
            if bank is not None and bank.generation == worker.generation:
                # The worker already holds this materialisation: omit the
                # handle so steady-state headers stay handle-free.
                bank = None
            header = {
                "op": op[0],
                "kind": kind,
                "ctx": ctx,
                "deadline": deadline,
                "bank": bank,
            }
            if op[0] == "top_k":
                header["k"] = int(op[1])
            try:
                worker.pipe.send_request(header, [shard])
            except (BrokenPipeError, EOFError, OSError):
                self._retire_worker(index)
                state["retry_error"] = None
                retry.append(shard_index)
                continue
            assignments.append((shard_index, index, worker, bank))
        for shard_index, index, worker, sent_bank in assignments:
            try:
                payload, worker_spans = self._receive(worker, deadline)
            except _WorkerHang as hang:
                # Alive but unresponsive: forcibly retire so ``is_alive()``
                # can never hand this wedged process to a future request.
                self._retire_worker(index)
                if hang.deadline_hit:
                    state["deadline_error"] = state["deadline_error"] or (
                        DeadlineExceededError(
                            f"deadline expired while worker {index} of "
                            f"{self.name!r} held the shard"
                        )
                    )
                else:
                    self.hangs += 1
                    state["retry_error"] = None
                    retry.append(shard_index)
                continue
            except _WorkerCrash:
                self._retire_worker(index)
                state["retry_error"] = None
                retry.append(shard_index)
                continue
            except DeadlineExceededError as error:
                # The worker refused an already-expired shard; the reply was
                # consumed, the channel is aligned, the request is dead.
                self.deadline_skips += 1
                state["deadline_error"] = state["deadline_error"] or error
                continue
            except WorkerFaultError as error:
                self.worker_faults += 1
                state["retry_error"] = error
                retry.append(shard_index)
                continue
            except BankUnavailableError as error:
                # The worker lost the unlink-vs-attach race: the segment we
                # addressed vanished before it could map it.  The reply was
                # consumed and the worker is alive; retry after restoring
                # the bank to a fresh segment.
                self.bank_faults += 1
                state["retry_error"] = error
                state["bank_stale"] = True
                retry.append(shard_index)
                continue
            except (ValueError, RuntimeError) as error:
                state["request_error"] = state["request_error"] or error
                continue
            if sent_bank is not None:
                # A successful reply proves the worker followed the handle
                # and re-attached; later headers can drop it again.
                worker.generation = sent_bank.generation
            results[shard_index] = payload
            for record in worker_spans:
                self._tracer.emit_record(record)
        return retry

    def _scatter_gather(
        self, op: tuple, features: np.ndarray, deadline: Optional[float] = None
    ) -> list:
        """Send row shards of the batch to the pool; return per-shard results.

        Serialised under the dispatcher lock: concurrent callers (scheduler
        pool threads, direct 2-D requests) take turns, which keeps each
        pipe a strict request/reply channel.  Shards that fail
        retryably are re-dispatched exactly once (to the respawned pool when
        the failure retired a worker) before any error surfaces.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        started = time.perf_counter()
        with self._lock, self._child_span(
            "dispatch", attrs={"op": op[0], "rows": int(features.shape[0])}
        ) as span:
            self._check_open()
            # Parent-side chaos: the eviction-targeted kinds page our own
            # bank out right here, so the lease acquisition below exercises
            # the cold-restore path mid-stream.  "unlink" force-unlinks even
            # under other dispatchers' leases; after the restore it yanks
            # the fresh segment too, racing the workers' attach.
            fault = (
                self._parent_injector.draw()
                if self._parent_injector is not None
                else None
            )
            if fault is not None:
                self._store.evict(self._bank_key, force=(fault == "unlink"))
            lease = self._acquire_bank_lease(slow=(fault == "slow_load"))
            try:
                if fault == "unlink":
                    self._store.evict(self._bank_key, force=True)
                if self._ship_packed:
                    # Validate + encode + pack exactly once, parent-side: a
                    # bad feature width raises here (same ValueError/400 as
                    # the engine), and the pipes then carry 1-bit-per-
                    # dimension words instead of float rows.
                    validated = self._engine._validate(features)
                    rows = self._engine._encode_packed(validated).words
                    kind = "packed"
                else:
                    rows = features
                    kind = "dense"
                # The span context (None when unsampled) rides each request
                # header; workers reply with finished ``worker:score``
                # records that we stitch into the parent trace below — the
                # worker never touches the trace file, so there is exactly
                # one writer.
                ctx = span.context
                num_shards = max(1, min(self.num_workers, rows.shape[0]))
                offset = self._round_robin
                self._round_robin = (offset + num_shards) % self.num_workers
                shards = np.array_split(rows, num_shards, axis=0)
                span.set("shards", num_shards)
                span.set("kind", kind)
                results: list = [None] * num_shards
                state: dict = {
                    "spawn_error": None,
                    "request_error": None,
                    "deadline_error": None,
                    "retry_error": None,
                    "bank": lease.handle,
                    "bank_stale": False,
                }
                retry = self._run_shards(
                    op, kind, ctx, shards, range(num_shards), offset,
                    deadline, results, state,
                )
                if retry and state["deadline_error"] is None:
                    if deadline is not None and time.monotonic() >= deadline:
                        state["deadline_error"] = DeadlineExceededError(
                            f"deadline expired before shard retry on "
                            f"{self.name!r}"
                        )
                    else:
                        self.shard_retries += len(retry)
                        span.set("retried_shards", len(retry))
                        if state["bank_stale"]:
                            # The segment the first round addressed is gone
                            # (eviction churn won an unlink race); restore
                            # before the retry so the respawned/re-attaching
                            # workers find live words.
                            lease = self._refresh_bank_lease(lease)
                            state["bank"] = lease.handle
                            state["bank_stale"] = False
                        retry = self._run_shards(
                            op, kind, ctx, shards, retry, offset, deadline,
                            results, state,
                        )
                if state["deadline_error"] is not None:
                    raise state["deadline_error"]
                if retry:
                    error = state["retry_error"]
                    if error is not None:
                        raise error
                    raise WorkerCrashedError(
                        f"shard(s) {sorted(retry)} of {self.name!r} failed "
                        "twice (workers respawning on next use)"
                    ) from state["spawn_error"]
                if state["request_error"] is not None:
                    raise state["request_error"]
            finally:
                lease.release()
        if self._metrics is not None:
            self._metrics.record_stage("dispatch", time.perf_counter() - started)
        return results


__all__ = ["ClusterDispatcher"]
