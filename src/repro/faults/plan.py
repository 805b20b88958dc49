"""Seeded, deterministic fault schedules for chaos testing the cluster tier.

A :class:`FaultPlan` is a small, picklable description of *which* faults fire
*where* and *when*.  It rides the worker spawn arguments into
:func:`repro.cluster.worker.worker_main`, where a per-process
:class:`FaultInjector` consults it once per scoring request.  Determinism is
the whole point: a schedule is a pure function of ``(seed, worker_index,
request_count)``, so a chaos soak that fails in CI replays bit-identically
from the same plan string — no flaky "sometimes the worker crashed" runs.

Fault kinds (the taxonomy is documented in ``docs/robustness.md``):

``crash``
    ``os._exit`` mid-request — the parent sees EOF and maps it to a worker
    crash (503 after the respawned pool also fails the retry).
``hang``
    Sleep for ``hang_seconds`` while holding the shard.  Exercises the
    dispatcher's ``request_timeout`` watchdog: the worker is still *alive*,
    so only explicit retirement (terminate + join) unsticks the slot.
``slow``
    Sleep for ``slow_seconds`` and then answer normally — latency noise
    below the watchdog threshold.
``error``
    Reply with a typed error frame instead of scores (maps to
    :class:`~repro.cluster.errors.WorkerFaultError`; retryable).
``drop``
    Close the pipe and exit without replying — a dropped connection as seen
    from the parent.

Three further kinds target the fleet pager and fire in the *parent* (the
dispatcher consults its own injector once per dispatch, as pseudo-worker
index :data:`PARENT_INDEX`; worker-side injectors skip them):

``evict``
    Page the dispatcher's own bank out right before the dispatch — the
    eviction-during-dispatch race.  The dispatch cold-restores the bank to
    a fresh segment/generation and every worker re-attaches mid-stream.
``unlink``
    Force-unlink the restored segment before the scatter — the
    unlink-vs-attach race.  Workers answer a typed ``BankUnavailableError``
    and the retry round restores the bank again.
``slow_load``
    Like ``evict``, but the cold restore also sleeps ``slow_seconds`` —
    a slow cold-load while requests queue behind the single-flight lock.

Rules trigger in one of three deterministic modes: ``at`` (fire exactly when
this process's request count equals ``at``), ``every``/``after`` (fire
periodically starting at ``after``), or ``rate`` (a seed-stable hash draw per
request).  A worker respawn resets its request count — deliberate, so a rule
like ``at=2`` proves the *respawned* worker is healthy while the original
faults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

#: Worker-side kinds, injected inside ``worker_main`` per scoring request.
WORKER_KINDS = ("crash", "hang", "slow", "error", "drop")

#: Parent-side kinds, injected by the dispatcher per dispatch — they target
#: the shared-bank pager, which only the parent can reach.
PARENT_KINDS = ("evict", "unlink", "slow_load")

FAULT_KINDS = WORKER_KINDS + PARENT_KINDS

#: The pseudo worker index the dispatcher's own injector draws under, so
#: parent-side schedules are seed-stable and disjoint from every real worker.
PARENT_INDEX = -1

ENV_VAR = "REPRO_FAULTS"
ENV_SEED_VAR = "REPRO_FAULTS_SEED"


def _unit_draw(seed: int, worker_index: int, kind: str, count: int) -> float:
    """Seed-stable draw in ``[0, 1)`` — the same on every platform/process."""
    key = f"{seed}:{worker_index}:{kind}:{count}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger for one fault kind.

    Exactly one of ``at``, ``every``, or ``rate`` selects the trigger mode;
    ``workers`` (a tuple of worker indices) restricts which processes the
    rule applies to, ``None`` meaning all of them.
    """

    kind: str
    at: int = 0
    every: int = 0
    after: int = 0
    rate: float = 0.0
    workers: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        modes = sum((self.at > 0, self.every > 0, self.rate > 0.0))
        if modes != 1:
            raise ValueError(
                f"rule {self.kind!r} must set exactly one of at/every/rate"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {self.rate}")

    def fires(self, count: int, worker_index: int, seed: int) -> bool:
        """Does this rule trigger on request *count* (1-based) of *worker*?"""
        if self.workers is not None and worker_index not in self.workers:
            return False
        if self.at > 0:
            return count == self.at
        if self.every > 0:
            start = max(self.after, 1)
            return count >= start and (count - start) % self.every == 0
        return count > self.after and _unit_draw(
            seed, worker_index, self.kind, count
        ) < self.rate


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultRule` plus the knobs they share.

    Rule order is priority order: the first rule that fires on a request
    decides the injected fault.  Frozen + tuple-typed so the plan pickles
    into worker spawn arguments unchanged.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05

    def injector(
        self, worker_index: int, kinds: Optional[Tuple[str, ...]] = None
    ) -> "FaultInjector":
        return FaultInjector(self, worker_index, kinds=kinds)

    # -- serialisation -----------------------------------------------------

    def describe(self) -> Dict:
        """JSON-ready description (used by reports and ``/v1/metrics``)."""
        return {
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
            "rules": [dataclasses.asdict(rule) for rule in self.rules],
        }

    def describe_short(self) -> str:
        """One-line human summary for CLI banners and log lines."""
        parts = []
        for rule in self.rules:
            if rule.at:
                schedule = f"at={rule.at}"
            elif rule.every:
                schedule = f"every={rule.every}"
            else:
                schedule = f"rate={rule.rate:g}"
            parts.append(f"{rule.kind} {schedule}")
        return f"seed={self.seed}: " + "; ".join(parts)

    def to_json(self) -> str:
        return json.dumps(self.describe(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        rules = []
        for entry in data.get("rules", []):
            workers = entry.get("workers")
            rules.append(
                FaultRule(
                    kind=entry["kind"],
                    at=int(entry.get("at", 0)),
                    every=int(entry.get("every", 0)),
                    after=int(entry.get("after", 0)),
                    rate=float(entry.get("rate", 0.0)),
                    workers=None if workers is None else tuple(workers),
                )
            )
        return cls(
            rules=tuple(rules),
            seed=int(data.get("seed", 0)),
            hang_seconds=float(data.get("hang_seconds", 30.0)),
            slow_seconds=float(data.get("slow_seconds", 0.05)),
        )

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the compact CLI/env grammar.

        ``spec`` is ``;``-separated tokens.  A token containing ``:`` is a
        rule — ``kind:key=value:key=value`` (keys: ``at``, ``every``,
        ``after``, ``rate``, ``workers`` with ``+``-separated indices).  A
        bare ``key=value`` token sets a plan-level option (``seed``,
        ``hang_seconds``, ``slow_seconds``).  A bare kind defaults to
        ``rate=0.01``.  Preset names (:data:`PRESETS`) and JSON objects are
        accepted too, so one ``--faults`` flag covers all three forms.
        """
        spec = spec.strip()
        if not spec or spec.lower() in ("off", "none"):
            raise ValueError("empty fault spec")
        if spec in PRESETS:
            return PRESETS[spec]
        if spec.startswith("{"):
            return cls.from_json(spec)
        rules: List[FaultRule] = []
        options: Dict[str, float] = {}
        for token in spec.split(";"):
            token = token.strip()
            if not token:
                continue
            if ":" not in token and "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                if key not in ("seed", "hang_seconds", "slow_seconds"):
                    raise ValueError(f"unknown fault plan option {key!r}")
                options[key] = float(value)
                continue
            parts = token.split(":")
            kind = parts[0].strip()
            fields: Dict[str, object] = {"kind": kind}
            for part in parts[1:]:
                key, _, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if key in ("at", "every", "after"):
                    fields[key] = int(value)
                elif key == "rate":
                    fields[key] = float(value)
                elif key == "workers":
                    fields[key] = tuple(
                        int(index) for index in value.split("+") if index
                    )
                else:
                    raise ValueError(f"unknown fault rule field {key!r}")
            if not any(key in fields for key in ("at", "every", "rate")):
                fields["rate"] = 0.01
            rules.append(FaultRule(**fields))  # type: ignore[arg-type]
        if not rules:
            raise ValueError(f"fault spec {spec!r} defines no rules")
        plan = cls(rules=tuple(rules), seed=int(options.get("seed", 0)))
        if "hang_seconds" in options:
            plan = dataclasses.replace(plan, hang_seconds=options["hang_seconds"])
        if "slow_seconds" in options:
            plan = dataclasses.replace(plan, slow_seconds=options["slow_seconds"])
        return plan

    @classmethod
    def resolve(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """``None``/empty/"off" → ``None``; otherwise :meth:`from_spec`."""
        if spec is None:
            return None
        spec = spec.strip()
        if not spec or spec.lower() in ("off", "none"):
            return None
        return cls.from_spec(spec)

    @classmethod
    def from_env(cls, environ: Optional[Dict[str, str]] = None) -> Optional["FaultPlan"]:
        """Activate from ``REPRO_FAULTS`` (spec/preset/JSON); ``None`` if unset.

        ``REPRO_FAULTS_SEED`` overrides the plan seed so one exported spec
        can be replayed under several seeds.
        """
        environ = os.environ if environ is None else environ
        plan = cls.resolve(environ.get(ENV_VAR))
        if plan is None:
            return None
        seed = environ.get(ENV_SEED_VAR)
        if seed is not None:
            plan = dataclasses.replace(plan, seed=int(seed))
        return plan


class FaultInjector:
    """Per-worker-process cursor over a :class:`FaultPlan`.

    ``draw()`` advances the request count and returns the fault kind to
    inject for this request (or ``None``).  Purely local state — no locks,
    no clock, no RNG object — so two runs of the same plan are identical.

    ``kinds`` restricts which fault kinds this cursor may return: workers
    pass :data:`WORKER_KINDS` and the dispatcher passes :data:`PARENT_KINDS`
    (under :data:`PARENT_INDEX`), so one plan string drives both sides
    without either injecting a fault it cannot express.  Skipped rules still
    advance the count, keeping the schedule stable across restrictions.
    """

    def __init__(
        self,
        plan: FaultPlan,
        worker_index: int,
        kinds: Optional[Tuple[str, ...]] = None,
    ):
        self.plan = plan
        self.worker_index = worker_index
        self.kinds = None if kinds is None else tuple(kinds)
        self.count = 0
        self.injected: Dict[str, int] = {}

    def draw(self) -> Optional[str]:
        self.count += 1
        for rule in self.plan.rules:
            if self.kinds is not None and rule.kind not in self.kinds:
                continue
            if rule.fires(self.count, self.worker_index, self.plan.seed):
                self.injected[rule.kind] = self.injected.get(rule.kind, 0) + 1
                return rule.kind
        return None


def _preset(spec_rules: Iterable[FaultRule], seed: int = 0) -> FaultPlan:
    return FaultPlan(rules=tuple(spec_rules), seed=seed)


#: Named plans accepted anywhere a spec string is.  ``quick`` is the CI chaos
#: smoke.  A worker's request count resets when it is respawned, so on any
#: one worker only the *earliest* lethal fault ever fires (later fire points
#: are never reached) — which is why the lethal kinds are partitioned across
#: worker indices: worker 0 crashes, worker 1 hangs, worker 2 drops its pipe
#: (run the smoke with at least 3 workers to exercise all three).  The
#: non-lethal kinds (slow, error) fire on every worker before its first kill
#: point.  Against a ~30-ops-per-worker soak
#: each worker dies and respawns 2–3 times while the dispatcher's retry-once
#: keeps availability above the 95% floor.
PRESETS: Dict[str, FaultPlan] = {
    "quick": _preset(
        [
            FaultRule(kind="slow", every=13, after=5),
            FaultRule(kind="error", every=17, after=9),
            FaultRule(kind="crash", every=23, after=11, workers=(0,)),
            FaultRule(kind="hang", every=23, after=11, workers=(1,)),
            FaultRule(kind="drop", every=23, after=11, workers=(2,)),
            FaultRule(kind="drop", every=29, after=17, workers=(2,)),
        ]
    ),
    "soak": _preset(
        [
            FaultRule(kind="crash", rate=0.01),
            FaultRule(kind="hang", rate=0.005),
            # Rate draws are keyed by kind (two drop rules would share one
            # draw), so drops get a single rule at the combined rate.
            FaultRule(kind="drop", rate=0.015),
            FaultRule(kind="error", rate=0.02),
            FaultRule(kind="slow", rate=0.05),
        ]
    ),
    # Fleet-pager churn for the multi-tenant smoke: the parent-side kinds
    # fire per *dispatch* (pseudo-worker -1), so every few batches a bank is
    # paged out mid-stream, force-unlinked under an attach, or restored
    # slowly — while a light worker-side error/slow mix keeps the ordinary
    # retry machinery honest at the same time.
    "evict-churn": _preset(
        [
            FaultRule(kind="evict", every=7, after=3),
            FaultRule(kind="unlink", every=13, after=6),
            FaultRule(kind="slow_load", every=17, after=9),
            FaultRule(kind="error", every=19, after=8),
            FaultRule(kind="slow", every=23, after=10),
        ]
    ),
}


__all__ = [
    "ENV_SEED_VAR",
    "ENV_VAR",
    "FAULT_KINDS",
    "PARENT_INDEX",
    "PARENT_KINDS",
    "WORKER_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "PRESETS",
]
