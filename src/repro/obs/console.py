"""repro.obs.console — the ``repro top`` live operations console.

A stdlib-only terminal dashboard over the serving tier: it polls ``GET
/v1/metrics`` on an interval and renders one screen per poll — per-tenant
traffic (QPS, p50/p99, queue depth), the SLO error-budget/burn-rate block,
worker-pool health (utilisation, respawns), fleet residency/paging, circuit
breakers, and the worker-pipe byte counters.  ``repro top --once --json``
emits a single machine-readable view instead, which is what the CI smoke
uses.

Everything here is pure over the ``/v1/metrics`` JSON snapshot:
:func:`build_view` turns one (plus optionally the previous poll, for QPS
deltas) into a flat view dict, and :func:`render_view` turns a view into
ANSI text.  The network and the terminal only appear in
:func:`fetch_snapshot` and :func:`run_console`, so tests drive the whole
console without a server or a tty.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

#: Seconds between polls when ``--interval`` is not given.
DEFAULT_INTERVAL = 2.0

#: Cursor-home + clear-screen: repaint in place instead of scrolling.
_HOME_CLEAR = "\x1b[H\x1b[2J"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"

_VERDICT_COLORS = {"ok": _GREEN, "at_risk": _YELLOW, "breached": _RED}


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/v1/metrics`` and return the parsed JSON snapshot."""
    target = url.rstrip("/") + "/v1/metrics"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _tenant_names(snapshot: dict) -> List[str]:
    names = set(snapshot.get("models", {}))
    names.update(snapshot.get("slo", {}).get("tenants", {}))
    return sorted(names)


def build_view(
    snapshot: dict,
    previous: Optional[dict] = None,
    elapsed: Optional[float] = None,
) -> dict:
    """Flatten one ``/v1/metrics`` snapshot into the console's view.

    ``previous``/``elapsed`` (the prior poll and the seconds between them)
    enable the QPS column — a single snapshot only carries cumulative
    counters, so rates need two.  Missing blocks (no cluster, no traffic
    yet) simply produce empty sections; the console renders what exists.
    """
    models = snapshot.get("models", {})
    slo_tenants = snapshot.get("slo", {}).get("tenants", {})
    schedulers = snapshot.get("schedulers", {})
    previous_models = (previous or {}).get("models", {})

    tenants = []
    for name in _tenant_names(snapshot):
        model = models.get(name, {})
        slo = slo_tenants.get(name, {})
        latency = model.get("latency", {})
        requests = int(model.get("requests", 0))
        qps = None
        if elapsed and elapsed > 0 and name in previous_models:
            delta = requests - int(previous_models[name].get("requests", 0))
            qps = max(0.0, delta / elapsed)
        windows = slo.get("windows", {})
        tenants.append(
            {
                "tenant": name,
                "requests": requests,
                "errors": int(model.get("errors", 0)),
                "qps": qps,
                "p50_ms": latency.get("p50_ms"),
                "p99_ms": latency.get("p99_ms"),
                "queue_depth": schedulers.get(name, {}).get("queue_depth", 0),
                "budget_remaining": slo.get("budget_remaining"),
                "burn_fast": windows.get("fast", {}).get("burn_rate"),
                "burn_slow": windows.get("slow", {}).get("burn_rate"),
                "verdict": slo.get("verdict"),
            }
        )

    workers = []
    transport_totals: Dict[str, int] = {}
    for name in sorted(snapshot.get("cluster", {})):
        info = snapshot["cluster"][name]
        fleet_stats = info.get("workers", {}).get("fleet", {})
        workers.append(
            {
                "dispatcher": name,
                "workers": info.get("num_workers"),
                "respawns": int(info.get("respawns", 0)),
                "utilization": fleet_stats.get("utilization"),
                "scoring_p50_ms": fleet_stats.get("scoring_p50_ms"),
                "scoring_p99_ms": fleet_stats.get("scoring_p99_ms"),
            }
        )
        totals = info.get("transport_stats", {}).get("totals", {})
        for key, value in totals.items():
            if isinstance(value, (int, float)):
                transport_totals[key] = transport_totals.get(key, 0) + int(value)

    fleet = snapshot.get("fleet")
    breakers = {}
    if fleet:
        breakers = {
            name: state.get("state")
            for name, state in fleet.get("breakers", {}).items()
        }

    return {
        "tenants": tenants,
        "workers": workers,
        "fleet": fleet,
        "breakers": breakers,
        "transport": transport_totals or None,
        "alert_burn_rate": snapshot.get("slo", {}).get("alert_burn_rate"),
    }


def _fmt(value, pattern: str = "{:.1f}", missing: str = "-") -> str:
    if value is None:
        return missing
    return pattern.format(value)


def render_view(view: dict, color: bool = True) -> str:
    """Render one view dict as an ANSI screen (plain text when ``color``
    is off, e.g. for piped output)."""

    def paint(text: str, style: str) -> str:
        return f"{style}{text}{_RESET}" if color else text

    lines = [paint("repro top — fleet SLO console", _BOLD)]

    lines.append("")
    lines.append(
        paint(
            f"{'TENANT':<16} {'QPS':>7} {'REQS':>8} {'ERRS':>6} {'P50MS':>8} "
            f"{'P99MS':>9} {'QUEUE':>5} {'BUDGET':>7} {'BURN(F/S)':>11} VERDICT",
            _DIM,
        )
    )
    if not view["tenants"]:
        lines.append("  (no traffic yet)")
    for row in view["tenants"]:
        verdict = row["verdict"] or "-"
        budget = row["budget_remaining"]
        burn = (
            f"{_fmt(row['burn_fast'])}/{_fmt(row['burn_slow'])}"
            if row["burn_fast"] is not None or row["burn_slow"] is not None
            else "-"
        )
        line = (
            f"{row['tenant']:<16} {_fmt(row['qps']):>7} {row['requests']:>8} "
            f"{row['errors']:>6} {_fmt(row['p50_ms'], '{:.2f}'):>8} "
            f"{_fmt(row['p99_ms'], '{:.2f}'):>9} {row['queue_depth']:>5} "
            f"{_fmt(budget, '{:.3f}'):>7} {burn:>11} "
        )
        lines.append(line + paint(verdict, _VERDICT_COLORS.get(verdict, _DIM)))

    if view["workers"]:
        lines.append("")
        lines.append(
            paint(
                f"{'DISPATCHER':<16} {'WORKERS':>7} "
                f"{'UTIL':>6} {'RESPAWNS':>8} {'SCORE P50':>10} {'SCORE P99':>10}",
                _DIM,
            )
        )
        for row in view["workers"]:
            util = row["utilization"]
            lines.append(
                f"{row['dispatcher']:<16} {row['workers'] or '-':>7} "
                f"{_fmt(util, '{:.0%}'):>6} {row['respawns']:>8} "
                f"{_fmt(row['scoring_p50_ms'], '{:.2f}'):>10} "
                f"{_fmt(row['scoring_p99_ms'], '{:.2f}'):>10}"
            )

    fleet = view.get("fleet")
    if fleet:
        lines.append("")
        cap = fleet.get("max_resident")
        resident = f"{fleet.get('resident_banks', 0)}"
        if cap:
            resident += f"/{cap}"
        lines.append(
            paint("FLEET  ", _DIM)
            + f"banks={resident} evictions={fleet.get('evictions', 0)} "
            f"restores={fleet.get('restores', 0)} "
            f"cold_loads={fleet.get('cold_loads', 0)} "
            f"dispatchers={fleet.get('dispatchers', 0)}"
        )
        if view["breakers"]:
            states = " ".join(
                f"{name}={state}" for name, state in sorted(view["breakers"].items())
            )
            open_breakers = any(
                state != "closed" for state in view["breakers"].values()
            )
            lines.append(
                paint("BREAKERS  ", _DIM)
                + paint(states, _RED if open_breakers else _GREEN)
            )

    transport = view.get("transport")
    if transport:
        lines.append(
            paint("TRANSPORT  ", _DIM)
            + f"frames={transport.get('frames_sent', 0)} "
            f"pipe_mb={transport.get('pipe_bytes', 0) / 1e6:.1f} "
            f"payload_mb={transport.get('payload_bytes', 0) / 1e6:.1f}"
        )

    if view.get("alert_burn_rate") is not None:
        lines.append("")
        lines.append(
            paint(f"alert burn-rate threshold: {view['alert_burn_rate']}x", _DIM)
        )
    return "\n".join(lines) + "\n"


def run_console(
    url: str,
    interval: float = DEFAULT_INTERVAL,
    once: bool = False,
    as_json: bool = False,
    stream=None,
    fetch: Callable[[str], dict] = fetch_snapshot,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    max_polls: Optional[int] = None,
) -> int:
    """Drive the console: poll, render, repeat.  Returns an exit code.

    ``--once`` renders a single poll (no QPS column — rates need two) and
    ``--json`` swaps the ANSI screen for the raw view dict.  ``fetch`` /
    ``sleep`` / ``clock`` / ``max_polls`` exist for the tests.
    """
    stream = stream if stream is not None else sys.stdout
    color = not as_json and getattr(stream, "isatty", lambda: False)()
    previous: Optional[dict] = None
    previous_at: Optional[float] = None
    polls = 0
    try:
        while True:
            try:
                snapshot = fetch(url)
            except (urllib.error.URLError, OSError, ValueError) as error:
                print(f"repro top: cannot poll {url}: {error}", file=sys.stderr)
                return 1
            now = clock()
            elapsed = None if previous_at is None else now - previous_at
            view = build_view(snapshot, previous=previous, elapsed=elapsed)
            if as_json:
                stream.write(json.dumps(view, indent=2, sort_keys=True) + "\n")
            else:
                prefix = "" if once else _HOME_CLEAR
                stream.write(prefix + render_view(view, color=color))
            stream.flush()
            polls += 1
            if once or (max_polls is not None and polls >= max_polls):
                return 0
            previous, previous_at = snapshot, now
            sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


__all__ = [
    "DEFAULT_INTERVAL",
    "build_view",
    "fetch_snapshot",
    "render_view",
    "run_console",
]
