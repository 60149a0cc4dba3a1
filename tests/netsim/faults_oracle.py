"""The fault injector as it was before its draws hashed prebuilt key text.

Kept verbatim as the oracle of ``test_fault_keys.py``: every draw of the
production :class:`repro.netsim.faults.FaultInjector` must return the
same decision or value as the ``unit_hash``/``int_hash`` call written
out here, and leave the same counters.  These calls are the key-text
contract -- the parts of each draw and their order -- that fixes every
lossy byte.  Only the class name changed; the plan and counter types
are the production ones.
"""

from __future__ import annotations

from repro.netsim.faults import FaultCounters, FaultPlan
from repro.netsim.mpls import FIRST_UNRESERVED_LABEL, MAX_LABEL
from repro.util.determinism import int_hash, unit_hash


class OracleFaultInjector:
    """Runtime fault state for one campaign scope (typically one AS).

    Loss, blackout and SNMP draws hash stable keys, so they are
    independent of call order; only the token buckets and the blackout
    windows evolve with the probe clock, which advances once per probe
    sent -- itself a deterministic sequence for a fixed campaign.
    """

    def __init__(self, plan: FaultPlan, *scope: object) -> None:
        self._plan = plan
        self._scope = scope
        self._clock = 0
        #: router id -> (tokens, clock at last refill)
        self._buckets: dict[int, tuple[float, int]] = {}
        self.counters = FaultCounters()

    @property
    def plan(self) -> FaultPlan:
        """The immutable plan this injector executes."""
        return self._plan

    @property
    def clock(self) -> int:
        """Probes sent so far in this scope (the fault clock)."""
        return self._clock

    # -- probe plane -------------------------------------------------------------

    def on_probe(self) -> None:
        """Advance the fault clock: one probe has been sent."""
        self._clock += 1
        self.counters.probes_sent += 1

    def probe_lost(
        self,
        flow_id: int,
        dest: object,
        ttl: int,
        attempt: int,
        kind: str = "probe",
    ) -> bool:
        """Stable per-probe loss draw; attempts redraw independently."""
        if self._plan.probe_loss <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "loss", kind, *self._scope,
            flow_id, dest, ttl, attempt,
        )
        if draw < self._plan.probe_loss:
            self.counters.probes_lost += 1
            return True
        return False

    def blacked_out(self, router_id: int) -> bool:
        """Is the router dark during the current blackout window?"""
        rate = self._plan.blackout_rate
        if rate <= 0.0:
            return False
        window = self._clock // self._plan.blackout_window
        draw = unit_hash(
            self._plan.seed, "blackout", *self._scope, router_id, window
        )
        if draw < rate:
            self.counters.blackout_drops += 1
            return True
        return False

    def allow_icmp(self, router_id: int) -> bool:
        """Consume one token from the router's ICMP bucket, if available."""
        rate = self._plan.icmp_rate_limit
        if rate is None:
            return True
        burst = float(self._plan.icmp_burst)
        tokens, last = self._buckets.get(router_id, (burst, self._clock))
        tokens = min(burst, tokens + (self._clock - last) * rate)
        if tokens >= 1.0:
            self._buckets[router_id] = (tokens - 1.0, self._clock)
            return True
        self._buckets[router_id] = (tokens, self._clock)
        self.counters.icmp_rate_limited += 1
        return False

    # -- revelation -------------------------------------------------------------

    def reveal_lost(self, flow_id: int, key: object, attempt: int) -> bool:
        """Loss draw for TNT's extra revelation probes."""
        if self._plan.probe_loss <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "reveal-loss", *self._scope,
            flow_id, key, attempt,
        )
        if draw < self._plan.probe_loss:
            self.counters.reveal_losses += 1
            return True
        return False

    # -- corruption (decisions only; the probing layer applies them) -------------

    def stack_suppressed(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop's quoted stack be stripped entirely?"""
        if self._plan.stack_suppress_rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "suppress", *self._scope, flow_id, dest, ttl
        )
        if draw < self._plan.stack_suppress_rate:
            self.counters.stacks_suppressed += 1
            return True
        return False

    def stack_truncated(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop's quoted stack lose its inner entries?"""
        if self._plan.stack_truncate_rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "truncate", *self._scope, flow_id, dest, ttl
        )
        if draw < self._plan.stack_truncate_rate:
            self.counters.stacks_truncated += 1
            return True
        return False

    def garbled_label(
        self, flow_id: int, dest: object, ttl: int, label: int
    ) -> int | None:
        """A garbled replacement for the hop's top label, or None.

        The replacement is a hash-derived unreserved 20-bit value,
        guaranteed to differ from the original.
        """
        if self._plan.label_garble_rate <= 0.0:
            return None
        draw = unit_hash(
            self._plan.seed, "garble", *self._scope, flow_id, dest, ttl
        )
        if draw >= self._plan.label_garble_rate:
            return None
        span = MAX_LABEL + 1 - FIRST_UNRESERVED_LABEL
        offset = int_hash(
            self._plan.seed, "garble-value", *self._scope, flow_id, dest, ttl
        ) % span
        garbled = FIRST_UNRESERVED_LABEL + offset
        if garbled == label:
            garbled = FIRST_UNRESERVED_LABEL + (offset + 1) % span
        self.counters.labels_garbled += 1
        return garbled

    def stale_replayed(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop replay the previous hop's quoted stack?"""
        if self._plan.stale_replay_rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "replay", *self._scope, flow_id, dest, ttl
        )
        if draw < self._plan.stale_replay_rate:
            self.counters.stale_replays += 1
            return True
        return False

    def ttl_perturbation(self, flow_id: int, dest: object, ttl: int) -> int:
        """A signed reply-TTL delta (0 when the hop is unperturbed)."""
        if self._plan.ttl_perturb_rate <= 0.0:
            return 0
        draw = unit_hash(
            self._plan.seed, "ttl-perturb", *self._scope, flow_id, dest, ttl
        )
        if draw >= self._plan.ttl_perturb_rate:
            return 0
        word = int_hash(
            self._plan.seed, "ttl-delta", *self._scope, flow_id, dest, ttl
        )
        magnitude = 1 + word % 64
        self.counters.ttls_perturbed += 1
        return -magnitude if (word >> 8) % 2 else magnitude

    def spoofed_source(
        self, flow_id: int, dest: object, ttl: int
    ) -> int | None:
        """A martian (240.0.0.0/4) spoofer address value, or None."""
        if self._plan.spoof_rate <= 0.0:
            return None
        draw = unit_hash(
            self._plan.seed, "spoof", *self._scope, flow_id, dest, ttl
        )
        if draw >= self._plan.spoof_rate:
            return None
        host = int_hash(
            self._plan.seed, "spoof-addr", *self._scope, flow_id, dest, ttl
        ) % (1 << 28)
        self.counters.replies_spoofed += 1
        return 0xF0000000 | host

    def hop_duplicated(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this recorded hop appear twice in the trace?"""
        if self._plan.duplicate_hop_rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "duplicate", *self._scope, flow_id, dest, ttl
        )
        if draw < self._plan.duplicate_hop_rate:
            self.counters.hops_duplicated += 1
            return True
        return False

    def hops_swapped(self, flow_id: int, dest: object, position: int) -> bool:
        """Should the records at ``position`` and ``position + 1`` swap?"""
        if self._plan.reorder_rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "reorder", *self._scope, flow_id, dest, position
        )
        if draw < self._plan.reorder_rate:
            self.counters.hops_reordered += 1
            return True
        return False

    def rerouted_flow(
        self, flow_id: int, dest: object, max_ttl: int
    ) -> tuple[int, int] | None:
        """Mid-trace reroute: ``(pivot_ttl, new_flow_id)`` or None.

        Probes at or beyond the pivot TTL forward under the new flow
        identifier, modelling path churn Paris pinning cannot suppress.
        """
        if self._plan.reroute_rate <= 0.0:
            return None
        draw = unit_hash(
            self._plan.seed, "reroute", *self._scope, flow_id, dest
        )
        if draw >= self._plan.reroute_rate:
            return None
        pivot = 2 + int_hash(
            self._plan.seed, "reroute-pivot", *self._scope, flow_id, dest
        ) % max(1, max_ttl - 2)
        shift = 1 + int_hash(
            self._plan.seed, "reroute-flow", *self._scope, flow_id, dest
        ) % (2**16 - 1)
        self.counters.traces_rerouted += 1
        return pivot, (flow_id + shift) % 2**16

    # -- control plane ----------------------------------------------------------

    def snmp_timeout(self, router_id: int) -> bool:
        """Stable per-router SNMP timeout draw (a frozen dataset gap)."""
        rate = self._plan.snmp_timeout_rate
        if rate <= 0.0:
            return False
        draw = unit_hash(
            self._plan.seed, "snmp-timeout", *self._scope, router_id
        )
        if draw < rate:
            self.counters.snmp_timeouts += 1
            return True
        return False
