"""Unit tests for the fault-injection subsystem."""

from dataclasses import replace

import pytest

from repro.netsim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.util.determinism import _digest64


class TestFaultPlan:
    def test_none_is_inactive(self):
        plan = FaultPlan.none()
        assert not plan.active

    def test_any_knob_activates(self):
        assert FaultPlan(probe_loss=0.01).active
        assert FaultPlan(icmp_rate_limit=0.5).active
        assert FaultPlan(blackout_rate=0.01).active
        assert FaultPlan(snmp_timeout_rate=0.01).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probe_loss": -0.1},
            {"probe_loss": 1.5},
            {"blackout_rate": 2.0},
            {"snmp_timeout_rate": -1.0},
            {"icmp_rate_limit": -0.5},
            {"icmp_burst": 0},
            {"blackout_window": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_as_dict_round_trips_through_json(self):
        import json

        plan = FaultPlan(probe_loss=0.1, icmp_rate_limit=0.25, seed=7)
        assert json.loads(json.dumps(plan.as_dict())) == plan.as_dict()


class TestProbeLoss:
    def test_zero_rate_never_loses(self):
        injector = FaultInjector(FaultPlan.none())
        assert not any(
            injector.probe_lost(1, "10.0.0.1", ttl, 0) for ttl in range(1, 64)
        )
        assert injector.counters.probes_lost == 0

    def test_full_rate_always_loses(self):
        injector = FaultInjector(FaultPlan(probe_loss=1.0))
        assert all(
            injector.probe_lost(1, "10.0.0.1", ttl, 0) for ttl in range(1, 64)
        )

    def test_rate_roughly_respected(self):
        injector = FaultInjector(FaultPlan(probe_loss=0.2, seed=5))
        losses = sum(
            injector.probe_lost(flow, "10.0.0.1", ttl, 0)
            for flow in range(50)
            for ttl in range(1, 21)
        )
        assert 0.1 < losses / 1000 < 0.3
        assert injector.counters.probes_lost == losses

    def test_attempts_redraw_independently(self):
        injector = FaultInjector(FaultPlan(probe_loss=0.5, seed=1))
        fates = {
            attempt: injector.probe_lost(9, "10.0.0.9", 5, attempt)
            for attempt in range(32)
        }
        assert len(set(fates.values())) == 2  # both outcomes occur


class TestTokenBucket:
    def test_burst_then_policed(self):
        plan = FaultPlan(icmp_rate_limit=0.0, icmp_burst=3)
        injector = FaultInjector(plan)
        allowed = [injector.allow_icmp(7) for _ in range(5)]
        assert allowed == [True, True, True, False, False]
        assert injector.counters.icmp_rate_limited == 2

    def test_refills_with_the_probe_clock(self):
        plan = FaultPlan(icmp_rate_limit=0.5, icmp_burst=2)
        injector = FaultInjector(plan)
        assert injector.allow_icmp(7)
        assert injector.allow_icmp(7)
        assert not injector.allow_icmp(7)  # bucket empty
        for _ in range(4):  # 4 probes * 0.5 tokens = 2 tokens back
            injector.on_probe()
        assert injector.allow_icmp(7)
        assert injector.allow_icmp(7)
        assert not injector.allow_icmp(7)

    def test_buckets_are_per_router(self):
        plan = FaultPlan(icmp_rate_limit=0.0, icmp_burst=1)
        injector = FaultInjector(plan)
        assert injector.allow_icmp(1)
        assert not injector.allow_icmp(1)
        assert injector.allow_icmp(2)  # untouched bucket

    def test_unlimited_by_default(self):
        injector = FaultInjector(FaultPlan(probe_loss=0.1))
        assert all(injector.allow_icmp(1) for _ in range(1000))


class TestBlackouts:
    def test_windows_flip_with_the_clock(self):
        plan = FaultPlan(blackout_rate=0.5, blackout_window=10, seed=3)
        injector = FaultInjector(plan)
        states = []
        for _ in range(20):  # sample 20 windows
            states.append(injector.blacked_out(4))
            for _ in range(10):
                injector.on_probe()
        assert True in states and False in states

    def test_stable_within_a_window(self):
        plan = FaultPlan(blackout_rate=0.5, blackout_window=1000, seed=3)
        injector = FaultInjector(plan)
        first = injector.blacked_out(4)
        for _ in range(50):
            injector.on_probe()
            assert injector.blacked_out(4) == first

    def test_zero_rate_never_dark(self):
        injector = FaultInjector(FaultPlan(probe_loss=0.5))
        assert not injector.blacked_out(4)
        assert injector.counters.blackout_drops == 0


class TestSnmpTimeouts:
    def test_per_router_stable(self):
        plan = FaultPlan(snmp_timeout_rate=0.5, seed=2)
        injector = FaultInjector(plan)
        fates = {r: injector.snmp_timeout(r) for r in range(40)}
        # a dataset gap is a gap every time it is queried
        for r, fate in fates.items():
            assert injector.snmp_timeout(r) == fate
        assert True in fates.values() and False in fates.values()


class TestReproducibility:
    def test_two_injectors_agree(self):
        plan = FaultPlan(
            probe_loss=0.3,
            icmp_rate_limit=0.5,
            icmp_burst=2,
            blackout_rate=0.2,
            blackout_window=16,
            snmp_timeout_rate=0.3,
            seed=11,
        )
        a = FaultInjector(plan, "as", 46)
        b = FaultInjector(plan, "as", 46)
        for i in range(200):
            assert a.probe_lost(i % 7, "10.1.2.3", i % 30 + 1, 0) == (
                b.probe_lost(i % 7, "10.1.2.3", i % 30 + 1, 0)
            )
            assert a.blacked_out(i % 5) == b.blacked_out(i % 5)
            assert a.allow_icmp(i % 3) == b.allow_icmp(i % 3)
            assert a.snmp_timeout(i % 9) == b.snmp_timeout(i % 9)
            a.on_probe()
            b.on_probe()
        assert a.counters.as_dict() == b.counters.as_dict()

    def test_scopes_diverge(self):
        plan = FaultPlan(probe_loss=0.5, seed=11)
        a = FaultInjector(plan, "as", 46)
        b = FaultInjector(plan, "as", 27)
        fates_a = [a.probe_lost(1, "10.1.2.3", t, 0) for t in range(1, 65)]
        fates_b = [b.probe_lost(1, "10.1.2.3", t, 0) for t in range(1, 65)]
        assert fates_a != fates_b

    def test_draws_bypass_the_digest_cache(self):
        """Per-probe keys never repeat, so no draw goes through (and
        evicts from) the digest LRU the repeating keys use."""
        plan = FaultPlan.corruption(1.0, seed=3)
        plan = replace(
            plan, probe_loss=1.0, blackout_rate=1.0, snmp_timeout_rate=1.0
        )
        injector = FaultInjector(plan, "as", 46)
        before = _digest64.cache_info()
        for ttl in range(1, 9):
            injector.probe_lost(1, "10.1.2.3", ttl, 0)
            injector.blacked_out(ttl)
            injector.snmp_timeout(ttl)
            injector.reveal_lost(1, (ttl,), 0)
            injector.stack_suppressed(1, "10.1.2.3", ttl)
            injector.stack_truncated(1, "10.1.2.3", ttl)
            injector.garbled_label(1, "10.1.2.3", ttl, 16_000)
            injector.ttl_perturbation(1, "10.1.2.3", ttl)
            injector.spoofed_source(1, "10.1.2.3", ttl)
            injector.hop_duplicated(1, "10.1.2.3", ttl)
            injector.hops_swapped(1, "10.1.2.3", ttl)
            injector.rerouted_flow(1, "10.1.2.3", 30)
        assert injector.counters.labels_garbled == 8
        after = _digest64.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestCounters:
    def test_merge_and_total(self):
        a = FaultCounters(probes_sent=10, probes_lost=2, snmp_timeouts=1)
        b = FaultCounters(probes_sent=5, icmp_rate_limited=3)
        a.merge(b)
        assert a.probes_sent == 15
        assert a.total_faults() == 6  # 2 lost + 1 timeout + 3 rate-limited

    def test_dict_round_trip(self):
        counters = FaultCounters(
            probes_sent=7, probes_lost=1, blackout_drops=2, reveal_losses=3
        )
        assert FaultCounters.from_dict(counters.as_dict()) == counters
