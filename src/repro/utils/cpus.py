"""The CPU set this process may schedule on, read by the kernel thread pool
(its width) and the cluster tier (worker pinning, benchmark records) alike."""

from __future__ import annotations

import os
from typing import List


def available_cpus() -> List[int]:
    """CPUs this process may run on (affinity mask if the OS exposes one)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return sorted(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic container runtimes
            pass
    return list(range(os.cpu_count() or 1))


__all__ = ["available_cpus"]
