"""Shared plumbing for the benchmark: statistics, provenance, process and
shared-memory hygiene, and the call probes the traced runs use.

Nothing here imports ``repro``; :func:`source_root` locates the program's
source tree so the workloads can import it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in the root ``.gitignore``).
WORK_DIR = ROOT / ".bench_build" / "perfbench"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, failed set-up)."""


def source_root() -> Path:
    """The program's ``src`` directory, put on ``sys.path``; raises when the
    checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SRC


def program_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Trace/fault switches inherited from a caller's shell would change what
    # is measured; the benchmark passes every setting explicitly.
    for key in ("REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_FAULTS", "REPRO_FAULTS_SEED"):
        env.pop(key, None)
    return env


# --------------------------------------------------------------- statistics
def latency_summary(values_ms: Iterable[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    With ``n`` samples that tail is the value at rank ``n - 10``, i.e. the
    ``100 * (n - 10) / n`` percentile; fewer than 11 samples have no tail.
    """
    ordered = sorted(values_ms)
    count = len(ordered)
    if count < 11:
        raise BenchmarkError(f"{count} latency samples cannot support a tail percentile")
    return {
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[count - 11],
        "tail_percentile": 100.0 * (count - 10) / count,
        "mean_ms": statistics.fmean(ordered),
        "samples": count,
    }


# --------------------------------------------------------------- provenance
def source_digest() -> str:
    """sha256 over the program's source files (the checkout is not a git
    repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        nproc = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------- processes and memory
def free_port() -> int:
    """An ephemeral localhost port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _proc_status(pid: int) -> Dict[str, str]:
    fields = {}
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant, found through ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_proc_status(int(entry))["PPid"])
        except (OSError, KeyError, ValueError):
            continue
    tree, frontier = [root_pid], [root_pid]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parents.items() if ppid == parent]
        tree.extend(children)
        frontier.extend(children)
    return tree


def vm_hwm_mb(pids: Iterable[int]) -> float:
    """Summed resident-set high-water mark (``VmHWM``) of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            total_kb += int(_proc_status(pid)["VmHWM"].split()[0])
        except (OSError, KeyError, ValueError):
            continue
    return total_kb / 1024.0


def process_group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group id.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# ------------------------------------------------------------------ probes
class Probe:
    """Times calls into the program by swapping attributes for wrappers.

    ``wrap(owner, "name", "key")`` replaces ``owner.name`` (a module global
    or a class attribute) with a wrapper that adds each call's wall time to
    ``seconds[key]`` and counts it in ``calls[key]``.  ``restore()`` puts
    every original back.  Totals stay in memory; nothing is written while a
    workload runs.
    """

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._patched: list = []

    def wrap(self, owner, name: str, key: str) -> None:
        """Time ``owner.name`` under ``key``.  ``owner`` must define
        ``name`` itself: a probe that no longer attaches (the function was
        renamed or moved) stops the run instead of reading as zero."""
        # A class's own __dict__ entry, so restore() never pins an
        # inherited method onto the subclass.
        namespace = vars(owner)
        if name not in namespace:
            raise BenchmarkError(
                f"probe {key}: {getattr(owner, '__name__', owner)} no longer defines {name}"
            )
        original = namespace[name]
        self.seconds.setdefault(key, 0.0)
        self.calls.setdefault(key, 0)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - started
                self.calls[key] += 1

        setattr(owner, name, timed)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


# ------------------------------------------------------------------ output
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def rate(count: float, seconds: float) -> float:
    """``count / seconds``; zero when the work never ran."""
    return count / seconds if seconds > 0 else 0.0


def print_table(title: str, rows: List[tuple]) -> None:
    """Human-readable table on stdout (the JSON result stays the last line)."""
    print(f"== {title}")
    width = max((len(name) for name, _, _ in rows), default=0)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, dict]) -> None:
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
