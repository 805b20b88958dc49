"""Named-kernel registry, the kernel thread pool, and the float dtype policy.

Every hot-path computation in this code base (packed Hamming scoring, fused
encoder accumulation, float matmuls) is published here under a stable name
with exactly one implementation.  Call sites resolve through
:func:`get_kernel`, which is where per-kernel profiling hooks in and where a
faster (for example native) implementation of a name would slot in.  This
mirrors the plug-in-estimator discipline hardware HDC stacks use for their
compute kernels: the algorithm is fixed, the executor is swappable.

Kernel thread pool
------------------
A kernel that splits its own work across cores maps it over
:func:`shared_executor`, one process-wide pool of :func:`pool_width`
threads.  Only ``encode.lut_accumulate`` does: it is the one kernel where a
second core measurably paid (on LeHDC training's 256-row encode blocks), and
it chooses between its direct loop and the pool from the batch size.  The width is the size of this process's CPU
affinity mask, capped at 4, so a process pinned to one CPU never starts a
pool.  A forked child drops the pool it inherited (the parent's threads do
not exist in the child) and builds a fresh one on first use.

Process-level parallelism lives in the cluster tier
(:mod:`repro.cluster`), whose resident workers already hold the packed
bank.

Float dtype policy
------------------
The NN substrate historically forced ``float64`` on every forward/backward
call.  The policy lives here now: :func:`float_dtype` returns the dtype used
when *introducing* floats (parameter initialisation, casting integer
hypervectors for training), defaulting to ``float32`` and overridable via
``REPRO_FLOAT_DTYPE``, :func:`set_float_dtype`, or the
:func:`use_float_dtype` context manager.  Arrays that are already floating
point are never silently up- or down-cast.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.cpus import available_cpus

#: kernel name -> implementation
_REGISTRY: Dict[str, Callable] = {}

#: Dtype forced via set_float_dtype/use_float_dtype; None defers to the env.
_FLOAT_DTYPE: Optional[np.dtype] = None


# ------------------------------------------------------------------ registry
def register_kernel(name: str) -> Callable:
    """Decorator registering the implementation of kernel *name*."""

    def decorate(function: Callable) -> Callable:
        _REGISTRY[name] = function
        return function

    return decorate


def get_kernel(name: str) -> Callable:
    """Resolve kernel *name* (a timing wrapper while profiling is enabled)."""
    implementation = _REGISTRY.get(name)
    if implementation is None:
        raise KeyError(
            f"no kernel registered under {name!r}; known: {sorted(_REGISTRY)}"
        )
    if _PROFILE_ENABLED:
        return _profiled_kernel(name, implementation)
    return implementation


def list_kernels() -> List[str]:
    """Registered kernel names, sorted."""
    return sorted(_REGISTRY)


# --------------------------------------------------------------- thread pool
#: Upper bound on the kernel pool's width, whatever the CPU mask allows.
_MAX_POOL_WIDTH = 4

#: ``(width, executor)`` of the process-wide kernel pool; None until first use.
_POOL: Optional[Tuple[int, ThreadPoolExecutor]] = None
_POOL_LOCK = threading.Lock()


def pool_width() -> int:
    """Threads a kernel may split its work across in this process.

    The size of the process's CPU affinity mask, capped at 4.  Read on every
    call, so a worker pinned after it started sees its new mask.
    """
    return min(_MAX_POOL_WIDTH, len(available_cpus()))


def shared_executor(width: int) -> ThreadPoolExecutor:
    """The process-wide pool of *width* threads.

    Built on first use and replaced when the width changes, so the threads a
    kernel sized its blocks for are the threads that run them.  A replaced
    pool is dropped, not shut down: a call still mapping over it keeps it
    alive, and its idle threads exit once it is collected.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != width:
            executor = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-kernel"
            )
            _POOL = (width, executor)
        return _POOL[1]


def _reset_pool_after_fork() -> None:
    """Drop the pool a forked child inherited.

    Its threads exist only in the parent, yet the executor still counts them
    as idle, so the child's first submit would queue forever.  The lock may
    have been held by a parent thread at fork time.  The child builds a
    fresh pool on first use.
    """
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool_after_fork)


# ------------------------------------------------------------------ profiling
#: kernel name -> [calls, total seconds]; guarded by _PROFILE_LOCK.
_PROFILE: Dict[str, List] = {}
_PROFILE_LOCK = threading.Lock()
_PROFILE_ENABLED = False
#: Stable wrapper per (name, implementation) so repeated resolution while
#: profiling does not stack timers.
_PROFILE_WRAPPERS: Dict[Tuple[str, Callable], Callable] = {}


def enable_kernel_profiling(enabled: bool = True) -> None:
    """Turn per-kernel call-count/time accounting on or off.

    Profiling hooks in at *resolution* time: while enabled,
    :func:`get_kernel` hands out a timing wrapper; while disabled it returns
    the raw implementation, so the serving hot path (which resolves once and
    caches) pays nothing.  Call sites that cached a kernel before profiling
    was enabled keep their unwrapped reference — re-resolve to profile them.
    """
    global _PROFILE_ENABLED
    _PROFILE_ENABLED = bool(enabled)


def kernel_profiling_enabled() -> bool:
    return _PROFILE_ENABLED


@contextmanager
def profile_kernels():
    """Enable profiling within a ``with`` block (restores the prior state)."""
    previous = _PROFILE_ENABLED
    enable_kernel_profiling(True)
    try:
        yield
    finally:
        enable_kernel_profiling(previous)


def reset_kernel_profile() -> None:
    """Zero all accumulated per-kernel counters."""
    with _PROFILE_LOCK:
        _PROFILE.clear()


def kernel_profile_snapshot() -> Dict[str, Dict[str, object]]:
    """JSON-ready ``{"name": {calls, total_ms, mean_ms}}`` view."""
    with _PROFILE_LOCK:
        entries = {key: list(value) for key, value in _PROFILE.items()}
    snapshot = {}
    for name, (calls, seconds) in sorted(entries.items()):
        snapshot[name] = {
            "kernel": name,
            "calls": calls,
            "total_ms": seconds * 1e3,
            "mean_ms": (seconds / calls * 1e3) if calls else 0.0,
        }
    return snapshot


def _profiled_kernel(name: str, function: Callable) -> Callable:
    cache_key = (name, function)
    wrapper = _PROFILE_WRAPPERS.get(cache_key)
    if wrapper is not None:
        return wrapper

    @functools.wraps(function)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            with _PROFILE_LOCK:
                entry = _PROFILE.get(name)
                if entry is None:
                    entry = _PROFILE[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed

    with _PROFILE_LOCK:
        wrapper = _PROFILE_WRAPPERS.setdefault(cache_key, timed)
    return wrapper


# --------------------------------------------------------------- dtype policy
def float_dtype() -> np.dtype:
    """The dtype used when floats are introduced (init, int->float casts)."""
    if _FLOAT_DTYPE is not None:
        return _FLOAT_DTYPE
    return _validate_float_dtype(os.environ.get("REPRO_FLOAT_DTYPE", "float32"))


def set_float_dtype(dtype) -> None:
    """Force the float policy dtype (``None`` re-enables env resolution)."""
    global _FLOAT_DTYPE
    _FLOAT_DTYPE = None if dtype is None else _validate_float_dtype(dtype)


@contextmanager
def use_float_dtype(dtype):
    """Temporarily force the float policy dtype within a ``with`` block."""
    previous = _FLOAT_DTYPE
    set_float_dtype(dtype)
    try:
        yield
    finally:
        set_float_dtype(previous)


def _validate_float_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if not np.issubdtype(resolved, np.floating):
        raise ValueError(f"float dtype policy requires a floating dtype, got {resolved}")
    return resolved


__all__ = [
    "enable_kernel_profiling",
    "float_dtype",
    "get_kernel",
    "kernel_profile_snapshot",
    "kernel_profiling_enabled",
    "list_kernels",
    "pool_width",
    "profile_kernels",
    "register_kernel",
    "reset_kernel_profile",
    "set_float_dtype",
    "shared_executor",
    "use_float_dtype",
]
