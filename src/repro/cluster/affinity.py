"""CPU-affinity pinning for cluster workers (best-effort, Linux-first).

Scaling measurements are meaningless without knowing where the workers
actually ran: on a 1-CPU host every "2-worker speedup" is scheduler noise,
and on a many-core host an unpinned worker pool can migrate mid-benchmark.
This module gives the dispatcher and the scaling harness the two primitives
they need to be honest about it:

* :func:`available_cpus` — the CPUs this process may schedule on (the
  cgroup/affinity mask when the platform exposes it, ``cpu_count`` range
  otherwise), which is what every benchmark result records; defined in
  :mod:`repro.utils.cpus` so the kernel thread pool reads the same set;
* :func:`build_pin_map` / :func:`pin_process` — a round-robin
  worker→CPU assignment applied with ``sched_setaffinity`` where it exists,
  silently skipped where it does not (macOS, Windows) so pinning is a
  measurement aid, never a portability hazard.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from repro.utils.cpus import available_cpus


def build_pin_map(
    num_workers: int, cpus: Optional[Sequence[int]] = None
) -> Dict[int, int]:
    """Round-robin worker-index → CPU assignment over *cpus* (or all CPUs)."""
    pool = list(cpus) if cpus is not None else available_cpus()
    if not pool:
        return {}
    return {index: int(pool[index % len(pool)]) for index in range(num_workers)}


def pin_process(pid: int, cpu: int) -> bool:
    """Pin process *pid* to a single CPU; returns whether the pin stuck.

    ``False`` means the platform has no ``sched_setaffinity`` or the call
    was refused (dead process, masked CPU) — callers record the outcome
    rather than fail, so results stay honest on every platform.
    """
    if not hasattr(os, "sched_setaffinity"):
        return False
    try:
        os.sched_setaffinity(pid, {int(cpu)})
    except (OSError, ValueError):
        return False
    return True


__all__ = ["available_cpus", "build_pin_map", "pin_process"]
