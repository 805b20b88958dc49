"""Unit tests for repro.faults: determinism, parsing, pickling, presets."""

from __future__ import annotations

import pickle

import pytest

from repro.faults import FAULT_KINDS, PRESETS, FaultInjector, FaultPlan, FaultRule


class TestFaultRule:
    def test_requires_exactly_one_schedule(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultRule(kind="crash")
        with pytest.raises(ValueError, match="exactly one"):
            FaultRule(kind="crash", at=3, every=5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind="gremlin", at=1)
        with pytest.raises(ValueError, match="kind"):
            FaultRule(kind="torn", at=1)

    def test_at_fires_exactly_once(self):
        rule = FaultRule(kind="crash", at=3)
        fired = [count for count in range(1, 20) if rule.fires(count, 0, seed=0)]
        assert fired == [3]

    def test_every_fires_periodically_from_after(self):
        rule = FaultRule(kind="error", every=5, after=4)
        fired = [count for count in range(1, 25) if rule.fires(count, 0, seed=0)]
        assert fired == [4, 9, 14, 19, 24]

    def test_worker_restriction(self):
        rule = FaultRule(kind="hang", at=2, workers=(1,))
        assert not rule.fires(2, 0, seed=0)
        assert rule.fires(2, 1, seed=0)

    def test_rate_is_deterministic_and_roughly_calibrated(self):
        rule = FaultRule(kind="slow", rate=0.2)
        first = [rule.fires(count, 0, seed=7) for count in range(1, 501)]
        second = [rule.fires(count, 0, seed=7) for count in range(1, 501)]
        assert first == second  # same seed, same schedule — always
        hits = sum(first)
        assert 50 <= hits <= 150  # ~100 expected at rate 0.2
        other_seed = [rule.fires(count, 0, seed=8) for count in range(1, 501)]
        assert first != other_seed

    def test_rate_differs_by_worker(self):
        rule = FaultRule(kind="slow", rate=0.2)
        worker0 = [rule.fires(count, 0, seed=7) for count in range(1, 201)]
        worker1 = [rule.fires(count, 1, seed=7) for count in range(1, 201)]
        assert worker0 != worker1


class TestFaultPlan:
    def test_plan_is_picklable(self):
        plan = PRESETS["quick"]
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.describe() == plan.describe()

    def test_json_round_trip(self):
        plan = FaultPlan.from_spec("crash:at=3:workers=0+1;seed=9;hang_seconds=2")
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.seed == 9
        assert clone.hang_seconds == 2.0
        assert clone.rules[0].workers == (0, 1)

    def test_from_spec_parses_rules_and_options(self):
        plan = FaultPlan.from_spec("error:every=5:after=2;slow:rate=0.5;seed=3")
        assert plan.seed == 3
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["error", "slow"]
        assert plan.rules[0].every == 5
        assert plan.rules[1].rate == 0.5

    def test_bare_kind_defaults_to_low_rate(self):
        plan = FaultPlan.from_spec("crash")
        assert plan.rules[0].kind == "crash"
        assert plan.rules[0].rate == 0.01

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("crash:bogus=1")
        with pytest.raises(ValueError):
            FaultPlan.from_spec("volume=11")

    def test_resolve_off_values(self):
        assert FaultPlan.resolve(None) is None
        assert FaultPlan.resolve("") is None
        assert FaultPlan.resolve("off") is None
        assert FaultPlan.resolve("none") is None
        assert FaultPlan.resolve("quick") == PRESETS["quick"]

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env({"REPRO_FAULTS": "crash:at=2"})
        assert plan.rules[0].at == 2
        seeded = FaultPlan.from_env(
            {"REPRO_FAULTS": "crash:at=2", "REPRO_FAULTS_SEED": "42"}
        )
        assert seeded.seed == 42

    def test_presets_cover_every_kind(self):
        from repro.faults import PARENT_KINDS, WORKER_KINDS

        # The worker-chaos presets cover the whole worker taxonomy and the
        # fleet-churn preset covers the whole parent taxonomy; together the
        # named presets exercise every kind.
        for name in ("quick", "soak"):
            kinds = {rule.kind for rule in PRESETS[name].rules}
            assert kinds == set(WORKER_KINDS), name
        churn_kinds = {rule.kind for rule in PRESETS["evict-churn"].rules}
        assert set(PARENT_KINDS) <= churn_kinds
        all_kinds = {
            rule.kind for plan in PRESETS.values() for rule in plan.rules
        }
        assert all_kinds == set(FAULT_KINDS)

    def test_quick_preset_drops_worker_two_on_both_schedules(self):
        drops = [
            (rule.every, rule.after, rule.workers)
            for rule in PRESETS["quick"].rules
            if rule.kind == "drop"
        ]
        assert drops == [(23, 11, (2,)), (29, 17, (2,))]
        injector = PRESETS["quick"].injector(worker_index=2)
        draws = [injector.draw() for _ in range(34)]
        assert draws[10] == "drop"  # request 11, the first fire point
        assert "drop" not in [
            PRESETS["quick"].injector(worker_index=0).draw() for _ in range(34)
        ]

    def test_soak_preset_drop_rate_and_no_torn_rules(self):
        (drop,) = [rule for rule in PRESETS["soak"].rules if rule.kind == "drop"]
        assert drop.rate == pytest.approx(0.015)
        assert drop.workers is None  # every worker
        for name, plan in PRESETS.items():
            assert all(rule.kind in FAULT_KINDS for rule in plan.rules), name
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.from_spec("torn:every=23:after=11")

    def test_describe_short_is_one_line(self):
        text = PRESETS["quick"].describe_short()
        assert "\n" not in text
        assert "crash" in text and "seed=0" in text


class TestFaultInjector:
    def test_injector_counts_and_draws(self):
        plan = FaultPlan.from_spec("error:at=2;slow:at=4")
        injector = plan.injector(worker_index=0)
        draws = [injector.draw() for _ in range(5)]
        assert draws == [None, "error", None, "slow", None]
        assert injector.count == 5
        assert injector.injected == {"error": 1, "slow": 1}

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.from_spec("crash:at=2;error:at=2")
        assert plan.injector(0).count == 0
        draws = [plan.injector(0).draw() for _ in range(1)]
        injector = plan.injector(0)
        injector.draw()
        assert injector.draw() == "crash"
        assert draws == [None]

    def test_injector_is_per_worker(self):
        plan = FaultPlan.from_spec("hang:at=1:workers=1")
        assert plan.injector(0).draw() is None
        assert plan.injector(1).draw() == "hang"
