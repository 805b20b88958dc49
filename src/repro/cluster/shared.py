"""Shared-memory model residency for the multi-process serving tier.

The packed inference bank — ``(K, ceil(D/64))`` words for shared-rule
classifiers, the flat ``(K * N, ceil(D/64))`` bank for the SearcHD-style
ensemble — is the only large artefact a serving worker needs, and it is
read-only after training.  :class:`SharedModelStore` therefore publishes it
once into a ``multiprocessing.shared_memory`` segment; every worker process
maps the *same physical pages* and wraps them in a zero-copy
:class:`~repro.kernels.packed.PackedHypervectors` view, so per-worker memory
grows by the encoder tables only, never by the model bank.

Four pieces compose the residency story:

* :class:`SharedModelStore` — parent-side publisher.  ``publish`` is
  refcounted per key (two dispatchers serving the same model version share
  one segment); ``release`` unlinks the segment when the last reference
  drops, and ``close`` unlinks everything that is not actively leased
  (``force=True`` overrides, for test teardown).  A ``max_resident`` cap
  turns the store into a fleet pager: publishing past the cap evicts the
  least-recently-used *unleased* segment, paging the bank out while its
  publisher's refcount survives — the publisher cold-restores it on the
  next dispatch via :meth:`SharedModelStore.restore`.
* :class:`BankLease` — a dispatch-scoped pin.  While a lease is held the
  segment is never unlinked: eviction and release defer until the last
  lease drops, so a scatter/gather round can never lose its words mid-air.
* :class:`SharedBankHandle` — the picklable address of a published bank
  (segment name + layout + generation), small enough to ride a pipe to a
  worker.  The generation is bumped on every (re-)materialisation, so a
  worker can detect that the segment it attached was superseded and
  re-attach instead of crashing.
* :func:`attach_bank` / :class:`AttachedBank` — worker-side mapping of a
  handle back into a read-only packed view.

:func:`make_worker_spec` bundles a handle with the *small* remaining engine
state (encoder tables, per-class hypervectors, ensemble shape) into a
:class:`WorkerModelSpec` from which :func:`build_worker_engine` reconstructs
a full :class:`~repro.serve.engine.PackedInferenceEngine` inside the worker —
scoring against the shared words via
:meth:`~repro.classifiers.base.HDCClassifierBase.adopt_packed_bank`.
"""

from __future__ import annotations

import copy
import logging
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.errors import BankEvictedError
from repro.io import FrozenClassifier, FrozenEnsembleClassifier
from repro.kernels.packed import PackedHypervectors

_WORD_BYTES = 8

_LOG = logging.getLogger("repro.cluster.shared")


@dataclass(frozen=True)
class SharedBankHandle:
    """Picklable address of a published packed bank: segment name + layout.

    ``generation`` identifies the materialisation: every time a key's words
    are (re-)published into a fresh segment the store bumps it, so a worker
    holding an older attachment can tell its mapping was superseded.
    """

    segment: str
    rows: int
    num_words: int
    dimension: int
    generation: int = 0

    @property
    def nbytes(self) -> int:
        return self.rows * self.num_words * _WORD_BYTES


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming cleanup ownership.

    Only the publishing :class:`SharedModelStore` may unlink a segment.  On
    Python 3.13+ ``track=False`` keeps the attaching process's resource
    tracker out of the picture; earlier versions (3.10–3.12) never register
    attachments in the first place, so the plain constructor is already
    ownership-free there.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg, and no attach tracking
        return shared_memory.SharedMemory(name=name)


class AttachedBank:
    """A worker-side, read-only, zero-copy view over a published bank."""

    def __init__(self, handle: SharedBankHandle):
        self.handle = handle
        self._segment = _attach_segment(handle.segment)
        words = np.ndarray(
            (handle.rows, handle.num_words),
            dtype=np.uint64,
            buffer=self._segment.buf,
        )
        words.flags.writeable = False
        self.packed = PackedHypervectors(words=words, dimension=handle.dimension)

    def close(self) -> None:
        """Unmap the segment (best effort: live NumPy views pin the buffer)."""
        self.packed = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a view outlived the bank
            pass

    def __enter__(self) -> "AttachedBank":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_bank(handle: SharedBankHandle) -> AttachedBank:
    """Map a published bank into this process as a read-only packed view."""
    return AttachedBank(handle)


class _Published:
    """Store-internal state for one key.

    A key can outlive its segment: eviction under the residency cap unlinks
    the segment (``segment = handle = None``) while the publisher's refcount
    keeps the entry alive, so the publisher can :meth:`~SharedModelStore
    .restore` the words later.  ``pending_evict`` / ``pending_release``
    record deferred teardown that must wait for the last lease to drop.
    """

    __slots__ = (
        "segment",
        "handle",
        "refcount",
        "leases",
        "last_used",
        "pending_evict",
        "pending_release",
    )

    def __init__(self):
        self.segment: Optional[shared_memory.SharedMemory] = None
        self.handle: Optional[SharedBankHandle] = None
        self.refcount = 0
        self.leases = 0
        self.last_used = 0
        self.pending_evict = False
        self.pending_release = False

    @property
    def resident(self) -> bool:
        return self.segment is not None


class BankLease:
    """A dispatch-scoped pin on a resident segment.

    While a lease is held the segment is never unlinked: eviction and
    release targeting the key defer until the last lease drops.  Leases are
    parent-side bookkeeping only — they carry no buffer views, so dropping
    one never touches the mapping itself.
    """

    __slots__ = ("_store", "key", "handle", "_released")

    def __init__(self, store: "SharedModelStore", key: str, handle: SharedBankHandle):
        self._store = store
        self.key = key
        self.handle = handle
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._store._drop_lease(self.key)

    def __enter__(self) -> "BankLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class SharedModelStore:
    """Refcounted registry of packed model banks published into shared memory.

    Thread-safe.  Keys are caller-chosen strings — the serving layer uses
    ``"<model>@v<version>"`` so hot-swapping a model version naturally
    publishes a fresh segment while the old one lives exactly as long as the
    dispatchers still sharding onto it.

    With ``max_resident`` set the store doubles as the fleet pager: at most
    that many segments are materialised at once, and publishing or restoring
    past the cap evicts the least-recently-used unleased segment.  An evicted
    key stays *published* (the refcount survives) but loses its segment;
    :meth:`lease` then raises :class:`BankEvictedError` and the publisher
    brings the words back with :meth:`restore`.
    """

    def __init__(
        self,
        max_resident: Optional[int] = None,
        evict_wait_seconds: float = 30.0,
    ):
        if max_resident is not None and max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._published: Dict[str, _Published] = {}
        self._closed = False
        self.max_resident = max_resident
        self.evict_wait_seconds = float(evict_wait_seconds)
        self._generation = 0
        self._clock = 0
        self._evictions = 0
        self._restores = 0
        self._peak_resident = 0

    # ------------------------------------------------------ locked internals
    def _touch_locked(self, entry: _Published) -> None:
        self._clock += 1
        entry.last_used = self._clock

    def _resident_count_locked(self) -> int:
        return sum(1 for p in self._published.values() if p.resident)

    def _unlink_locked(self, entry: _Published) -> None:
        segment, entry.segment, entry.handle = entry.segment, None, None
        entry.pending_evict = False
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _evict_locked(self, key: str, entry: _Published) -> None:
        self._unlink_locked(entry)
        self._evictions += 1
        if entry.refcount <= 0:
            self._published.pop(key, None)
        self._space.notify_all()

    def _make_room_locked(self) -> None:
        """Evict LRU unleased segments until one more fits under the cap."""
        if self.max_resident is None:
            return
        deadline = time.monotonic() + self.evict_wait_seconds
        while self._resident_count_locked() >= self.max_resident:
            victims = [
                (entry.last_used, key)
                for key, entry in self._published.items()
                if entry.resident and entry.leases == 0
            ]
            if victims:
                _, victim_key = min(victims)
                self._evict_locked(victim_key, self._published[victim_key])
                continue
            # Every resident segment is pinned by an in-flight dispatch;
            # wait for a lease to drop rather than exceed the cap.
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"fleet residency cap {self.max_resident} reached and "
                    "every resident bank is leased"
                )
            self._space.wait(remaining)

    def _materialise_locked(
        self, key: str, entry: _Published, packed: PackedHypervectors
    ) -> SharedBankHandle:
        self._make_room_locked()
        words = np.ascontiguousarray(packed.words, dtype=np.uint64)
        segment = shared_memory.SharedMemory(create=True, size=max(1, words.nbytes))
        try:
            view = np.ndarray(words.shape, dtype=np.uint64, buffer=segment.buf)
            view[:] = words
            del view
            self._generation += 1
            handle = SharedBankHandle(
                segment=segment.name,
                rows=words.shape[0],
                num_words=words.shape[1],
                dimension=packed.dimension,
                generation=self._generation,
            )
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        entry.segment = segment
        entry.handle = handle
        entry.pending_evict = False
        self._touch_locked(entry)
        self._peak_resident = max(self._peak_resident, self._resident_count_locked())
        return handle

    def _restore_locked(
        self, key: str, entry: _Published, packed: PackedHypervectors
    ) -> SharedBankHandle:
        deadline = time.monotonic() + self.evict_wait_seconds
        while True:
            if entry.resident and not entry.pending_evict:
                return entry.handle  # raced: someone else restored it first
            if not entry.resident:
                handle = self._materialise_locked(key, entry, packed)
                self._restores += 1
                return handle
            # Draining: an eviction is deferred on outstanding leases.  Wait
            # for it to complete rather than materialise a second segment.
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"shared bank {key!r} is stuck draining")
            self._space.wait(remaining)

    def _drop_lease(self, key: str) -> None:
        with self._lock:
            entry = self._published.get(key)
            if entry is None:
                return
            entry.leases = max(0, entry.leases - 1)
            if entry.leases == 0:
                if entry.pending_evict and entry.resident:
                    self._evict_locked(key, entry)
                if entry.pending_release:
                    if entry.resident:
                        self._unlink_locked(entry)
                    self._published.pop(key, None)
            self._space.notify_all()

    # ------------------------------------------------------------- lifecycle
    def publish(self, key: str, packed: PackedHypervectors) -> SharedBankHandle:
        """Copy *packed* into a shared segment (or ref the existing one).

        Publishing an already-published key increments its refcount and
        returns the existing handle — the words are assumed immutable for a
        given key, which the versioned key discipline guarantees.  If the
        key was paged out, publishing re-materialises the segment (counted
        as a restore).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedModelStore is closed")
            entry = self._published.get(key)
            if entry is not None:
                entry.refcount += 1
                if entry.resident and not entry.pending_evict:
                    self._touch_locked(entry)
                    return entry.handle
                return self._restore_locked(key, entry, packed)
            entry = _Published()
            entry.refcount = 1
            self._published[key] = entry
            try:
                return self._materialise_locked(key, entry, packed)
            except BaseException:
                if not entry.resident and entry.refcount <= 1:
                    self._published.pop(key, None)
                raise

    def restore(self, key: str, packed: PackedHypervectors) -> SharedBankHandle:
        """Re-materialise an evicted key's words (a bank-level cold load).

        Only valid for a key that is still published — restore does not add
        a reference, it brings an existing publisher's words back after the
        pager unlinked them.  Returns the fresh handle (new generation).
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedModelStore is closed")
            entry = self._published.get(key)
            if entry is None or entry.refcount <= 0:
                raise KeyError(f"unknown shared bank {key!r}")
            return self._restore_locked(key, entry, packed)

    def lease(self, key: str) -> BankLease:
        """Pin *key*'s segment for the duration of one dispatch.

        Raises :class:`KeyError` for a key that was never published and
        :class:`BankEvictedError` for one whose segment was paged out (or is
        draining towards eviction) — the caller should :meth:`restore` and
        lease again.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedModelStore is closed")
            entry = self._published.get(key)
            if entry is None:
                raise KeyError(f"unknown shared bank {key!r}")
            if not entry.resident or entry.pending_evict:
                raise BankEvictedError(f"shared bank {key!r} was paged out")
            entry.leases += 1
            self._touch_locked(entry)
            return BankLease(self, key, entry.handle)

    def evict(self, key: str, force: bool = False) -> bool:
        """Page out *key*'s segment, keeping the key published.

        Returns ``True`` if the segment was unlinked now.  With outstanding
        leases the eviction is deferred (``False``) until the last lease
        drops — unless ``force=True``, which unlinks immediately (chaos
        injection and test teardown only; attached mappings stay valid, but
        new attaches will fail).
        """
        with self._lock:
            entry = self._published.get(key)
            if entry is None or not entry.resident:
                return False
            if entry.leases > 0 and not force:
                entry.pending_evict = True
                return False
            self._evict_locked(key, entry)
            return True

    def release(self, key: str) -> bool:
        """Drop one reference; unlink the segment when the last one goes.

        Idempotent: releasing an unknown (or already fully released) key is
        a logged no-op, so teardown paths that race each other never raise.
        If the final release lands while a dispatch still holds a lease, the
        unlink is deferred until the lease drops.  Returns ``True`` when the
        key was fully torn down now.
        """
        with self._lock:
            entry = self._published.get(key)
            if entry is None:
                _LOG.warning("release of unknown shared bank %r ignored", key)
                return False
            entry.refcount -= 1
            if entry.refcount > 0:
                return False
            if entry.leases > 0:
                entry.pending_release = True
                _LOG.warning(
                    "deferring unlink of shared bank %r (%d leases outstanding)",
                    key,
                    entry.leases,
                )
                return False
            if entry.resident:
                self._unlink_locked(entry)
            self._published.pop(key, None)
            self._space.notify_all()
            return True

    def close(self, force: bool = False) -> None:
        """Unlink remaining segments and refuse further publishes.

        Segments pinned by outstanding leases are *deferred*, not yanked:
        they unlink when the last lease drops (the warning names them).
        ``force=True`` restores the old scorched-earth behaviour for test
        teardown — everything is unlinked immediately regardless of leases.
        """
        with self._lock:
            self._closed = True
            for key, entry in list(self._published.items()):
                if entry.leases > 0 and not force:
                    entry.pending_release = True
                    _LOG.warning(
                        "close(): deferring unlink of leased bank %r (%d leases)",
                        key,
                        entry.leases,
                    )
                    continue
                self._unlink_locked(entry)
                self._published.pop(key, None)
            self._space.notify_all()

    # --------------------------------------------------------------- queries
    def handle(self, key: str) -> SharedBankHandle:
        with self._lock:
            entry = self._published.get(key)
            if entry is None:
                raise KeyError(f"unknown shared bank {key!r}")
            if not entry.resident:
                raise BankEvictedError(f"shared bank {key!r} was paged out")
            return entry.handle

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._published)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._published

    def __len__(self) -> int:
        with self._lock:
            return len(self._published)

    @property
    def resident_bytes(self) -> int:
        """Total bytes of packed model storage currently materialised."""
        with self._lock:
            return sum(
                p.handle.nbytes for p in self._published.values() if p.resident
            )

    def stats(self) -> dict:
        """Fleet-pager counters for ``/v1/metrics`` and the loadgen report."""
        with self._lock:
            return {
                "resident_banks": self._resident_count_locked(),
                "published_keys": len(self._published),
                "leases": sum(p.leases for p in self._published.values()),
                "evictions": self._evictions,
                "restores": self._restores,
                "peak_resident_banks": self._peak_resident,
                "max_resident": self.max_resident,
                "resident_bytes": sum(
                    p.handle.nbytes for p in self._published.values() if p.resident
                ),
            }

    def __enter__(self) -> "SharedModelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(force=True)


# ----------------------------------------------------------- worker rebuild
@dataclass
class WorkerModelSpec:
    """Everything a worker needs to rebuild a serving engine.

    Deliberately *excludes* the heavy packed bank — that is addressed by
    ``bank_handle`` and mapped zero-copy — so the spec stays cheap to ship
    even under the ``spawn`` start method.  ``ensemble_shape`` is the
    ``(K, N, D)`` of a SearcHD model bank, or ``None`` for shared-rule
    classifiers.
    """

    name: str
    encoder: object
    class_hypervectors: np.ndarray
    ensemble_shape: Optional[Tuple[int, int, int]]
    bank_handle: SharedBankHandle
    metadata: dict


def make_worker_spec(engine, bank_handle: SharedBankHandle) -> WorkerModelSpec:
    """Extract the small worker-side state from a parent-process engine.

    The encoder is shallow-copied with its compiled accumulator dropped (the
    fused LUT can run to megabytes and is rebuilt once per worker), so the
    parent's encoder keeps its compiled tables untouched.
    """
    if engine.mode != "packed":
        raise ValueError(
            "cluster serving requires the packed scoring path; "
            f"engine {engine.name!r} compiled in {engine.mode!r} mode"
        )
    encoder = copy.copy(engine.encoder)
    encoder._accumulator = None
    encoder._accumulator_budget = None
    bank = getattr(engine.classifier, "model_hypervectors_", None)
    return WorkerModelSpec(
        name=engine.name,
        encoder=encoder,
        class_hypervectors=engine.classifier.class_hypervectors_,
        ensemble_shape=tuple(bank.shape) if bank is not None else None,
        bank_handle=bank_handle,
        metadata=dict(engine.metadata),
    )


class _SharedBankEnsemble(FrozenEnsembleClassifier):
    """Worker-side ensemble carrier whose dense bank never left the parent.

    Its ``model_hypervectors_`` is a shape-only broadcast stub (the real
    words live in the shared segment), so the dense scoring path must be
    loudly unavailable rather than silently wrong.
    """

    def decision_scores(self, hypervectors):  # pragma: no cover - guard path
        raise RuntimeError(
            "the dense model bank is not resident in this worker; "
            "only packed scoring is available"
        )

    def _score_bank(self):  # pragma: no cover - guard path
        raise RuntimeError("the dense model bank is not resident in this worker")


def build_worker_engine(spec: WorkerModelSpec):
    """Reconstruct a ``PackedInferenceEngine`` over the shared bank.

    Returns ``(attached_bank, engine)``; the caller owns the attachment and
    must keep it alive for the engine's lifetime (the engine's resident
    words *are* the mapped segment).
    """
    from repro.classifiers.pipeline import HDCPipeline
    from repro.serve.engine import PackedInferenceEngine

    attached = attach_bank(spec.bank_handle)
    if spec.ensemble_shape is not None:
        num_classes, models_per_class, dimension = spec.ensemble_shape
        classifier = _SharedBankEnsemble(models_per_class=models_per_class)
        # Shape-only stand-in: packed scoring reads the bank's *shape* from
        # this attribute and its *words* from the shared segment, so the
        # dense (K, N, D) array never crosses the process boundary.
        classifier.model_hypervectors_ = np.broadcast_to(
            np.zeros(1, dtype=np.int8), (num_classes, models_per_class, dimension)
        )
    else:
        classifier = FrozenClassifier(tie_break=spec.encoder.tie_break)
    classifier.class_hypervectors_ = spec.class_hypervectors
    classifier.num_classes_ = int(spec.class_hypervectors.shape[0])

    pipeline = HDCPipeline(spec.encoder, classifier)
    pipeline._fitted = True
    engine = PackedInferenceEngine(
        pipeline,
        name=spec.name,
        mode="packed",
        metadata=spec.metadata,
        packed_bank=attached.packed,
    )
    return attached, engine


__all__ = [
    "AttachedBank",
    "BankLease",
    "SharedBankHandle",
    "SharedModelStore",
    "WorkerModelSpec",
    "attach_bank",
    "build_worker_engine",
    "make_worker_spec",
]
