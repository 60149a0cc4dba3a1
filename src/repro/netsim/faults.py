"""Deterministic fault injection for the measurement plane.

The paper's campaign ran 7.7M traceroutes from 50 real vantage points,
where probe loss, ICMP rate-limiting, transient outages and SNMP dataset
gaps are the norm.  This module models those impairments as a seeded
:class:`FaultPlan` so robustness experiments are reproducible bit-for-bit:

- **per-probe loss** -- each probe (identified by its flow, destination,
  TTL and retry attempt) is dropped with probability ``probe_loss``;
- **ICMP rate limiting** -- each router polices the ``time-exceeded``
  messages it originates through a token bucket refilled per probe sent
  (the campaign-wide probe counter is the clock);
- **transient blackouts** -- a router goes completely dark (neither
  forwards nor replies) for whole windows of the probe clock;
- **SNMP timeouts** -- a router's SNMPv3 fingerprint lookup times out,
  modelling gaps in the frozen public dataset.

Beyond loss, the plan models *corruption* of what a vantage point
records -- the mangled RFC 4950 extensions, bogus reply TTLs, off-path
spoofed replies and mid-trace path churn real campaigns see:

- **stack suppression/truncation/garbling** -- a reply's quoted label
  stack is stripped entirely, cut down to its top entry, or has its top
  label replaced with a hash-derived 20-bit value;
- **stale-label replay** -- a hop quotes the *previous* hop's stack
  (a middlebox echoing cached extension bytes);
- **reply-TTL perturbation** -- the reply IP TTL shifts by a
  hash-derived delta, poisoning TTL fingerprinting;
- **off-path spoofed replies** -- the reply's source address is
  replaced by a martian (``240.0.0.0/4``) spoofer address;
- **duplicated / reordered hops** -- a recorded hop appears twice, or
  two adjacent records swap;
- **mid-trace rerouting** -- the effective flow identifier churns past
  a hash-derived pivot TTL, defeating Paris flow pinning.

The injector only *decides* corruption faults; applying them to trace
records is the probing layer's job (netsim must not import probing).

All draws hash stable keys, so a fixed plan replays the exact same
fault schedule, and :meth:`FaultPlan.none` -- the default everywhere --
injects nothing at all: runners never attach an injector for an
inactive plan, keeping seed behaviour byte-identical.

**The key text is the contract.**  Each draw is the
:func:`repro.util.determinism.unit_hash` (value draws:
:func:`~repro.util.determinism.int_hash`) of its key parts -- the plan
seed, the draw kind, the injector's scope, then the draw's own parts,
e.g. ``(seed, "duplicate", *scope, flow_id, dest, ttl)``; only the loss
draw puts its probe kind before the scope, ``(seed, "loss", kind,
*scope, flow_id, dest, ttl, attempt)``.  That is, the first 64 bits of
the SHA-256 of ``"\\x1f".join(map(str, parts))``.  The injector does not
call them: per-probe keys never repeat, so it builds each kind's
constant head (seed, kind, scope) once and a trace's destination text
once, formats only the varying parts, and hashes that same text with
:func:`~repro.util.determinism.text_hash`, past the digest LRU.  Each
draw method's docstring names its parts.  Changing any draw's parts,
their order or the separator changes every lossy byte -- every fault
schedule, so every lossy trace, report, checkpoint and spill;
``tests/netsim/test_fault_keys.py`` holds every draw to its
``unit_hash`` formula.

The :class:`FaultPlan` is immutable configuration; the
:class:`FaultInjector` carries the mutable runtime (probe clock, token
buckets, counters) and is scoped per campaign AS so fault streams stay
independent across ASes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.netsim.mpls import FIRST_UNRESERVED_LABEL, MAX_LABEL
from repro.util.determinism import text_hash


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Immutable, seeded description of measurement-plane impairments."""

    #: probability that any single probe is lost in transit
    probe_loss: float = 0.0
    #: sustained ICMP time-exceeded replies per router per probe sent;
    #: None disables rate limiting entirely
    icmp_rate_limit: float | None = None
    #: token-bucket burst size for ICMP rate limiting
    icmp_burst: int = 8
    #: probability a router is dark during any given blackout window
    blackout_rate: float = 0.0
    #: width of one blackout window, in probes sent
    blackout_window: int = 256
    #: probability a router's SNMPv3 lookup times out (dataset gap)
    snmp_timeout_rate: float = 0.0
    #: probability a quoted stack is stripped from a reply (RFC 4950
    #: extension lost in transit)
    stack_suppress_rate: float = 0.0
    #: probability a quoted stack is truncated to its top entry
    stack_truncate_rate: float = 0.0
    #: probability a quoted top label is replaced by a garbled value
    label_garble_rate: float = 0.0
    #: probability a hop replays the previous hop's quoted stack
    stale_replay_rate: float = 0.0
    #: probability a reply IP TTL shifts by a hash-derived delta
    ttl_perturb_rate: float = 0.0
    #: probability a reply's source address is spoofed off-path
    spoof_rate: float = 0.0
    #: probability a recorded hop is duplicated in the trace
    duplicate_hop_rate: float = 0.0
    #: probability two adjacent recorded hops swap places
    reorder_rate: float = 0.0
    #: probability a trace reroutes mid-path (flow churn past a pivot)
    reroute_rate: float = 0.0
    #: seed for every fault draw (independent of the campaign seed)
    seed: int = 0

    _CORRUPTION_RATES = (
        "stack_suppress_rate",
        "stack_truncate_rate",
        "label_garble_rate",
        "stale_replay_rate",
        "ttl_perturb_rate",
        "spoof_rate",
        "duplicate_hop_rate",
        "reorder_rate",
        "reroute_rate",
    )

    def __post_init__(self) -> None:
        for name in (
            "probe_loss",
            "blackout_rate",
            "snmp_timeout_rate",
        ) + self._CORRUPTION_RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.icmp_rate_limit is not None and self.icmp_rate_limit < 0:
            raise ValueError("icmp_rate_limit must be >= 0 or None")
        if self.icmp_burst < 1:
            raise ValueError("icmp_burst must be >= 1")
        if self.blackout_window < 1:
            raise ValueError("blackout_window must be >= 1")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan (the default everywhere)."""
        return cls()

    @classmethod
    def corruption(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A representative corruption mix at headline intensity ``rate``.

        The headline rate drives label garbling (the acceptance subject);
        the structural classes ride at half intensity and the trace-shape
        classes at a quarter.  Stale-label replay is deliberately *not*
        part of the mix: a replayed stack is byte-identical to the
        adjacent-identical-stack signal genuine uniform-mode SR tunnels
        produce, so no sanitizer can remove it without destroying real
        evidence -- sweep ``stale_replay_rate`` explicitly to study that
        semantic attack.
        """
        return cls(
            label_garble_rate=rate,
            stack_suppress_rate=rate / 2,
            stack_truncate_rate=rate / 2,
            ttl_perturb_rate=rate / 2,
            spoof_rate=rate / 4,
            duplicate_hop_rate=rate / 4,
            reorder_rate=rate / 4,
            reroute_rate=rate / 4,
            seed=seed,
        )

    @property
    def corruption_active(self) -> bool:
        """True when any corruption fault class can fire."""
        return any(getattr(self, name) > 0.0 for name in self._CORRUPTION_RATES)

    @property
    def active(self) -> bool:
        """True when the plan can inject at least one fault."""
        return bool(
            self.probe_loss > 0.0
            or self.icmp_rate_limit is not None
            or self.blackout_rate > 0.0
            or self.snmp_timeout_rate > 0.0
            or self.corruption_active
        )

    def as_dict(self) -> dict:
        """JSON-friendly view (checkpoint config signatures)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class FaultCounters:
    """Per-stage tallies of what the injector actually did."""

    probes_sent: int = 0
    probes_lost: int = 0
    icmp_rate_limited: int = 0
    blackout_drops: int = 0
    snmp_timeouts: int = 0
    reveal_losses: int = 0
    stacks_suppressed: int = 0
    stacks_truncated: int = 0
    labels_garbled: int = 0
    stale_replays: int = 0
    ttls_perturbed: int = 0
    replies_spoofed: int = 0
    hops_duplicated: int = 0
    hops_reordered: int = 0
    traces_rerouted: int = 0

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate another counter set into this one."""
        for f in fields(self):
            setattr(
                self, f.name, getattr(self, f.name) + getattr(other, f.name)
            )

    def corruption_faults(self) -> int:
        """Injected corruption events (stack/TTL/address/order faults)."""
        return (
            self.stacks_suppressed
            + self.stacks_truncated
            + self.labels_garbled
            + self.stale_replays
            + self.ttls_perturbed
            + self.replies_spoofed
            + self.hops_duplicated
            + self.hops_reordered
            + self.traces_rerouted
        )

    def total_faults(self) -> int:
        """Every injected fault (everything but ``probes_sent``)."""
        return (
            self.probes_lost
            + self.icmp_rate_limited
            + self.blackout_drops
            + self.snmp_timeouts
            + self.reveal_losses
            + self.corruption_faults()
        )

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly view."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "FaultCounters":
        """Inverse of :meth:`as_dict`."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: int(v) for k, v in record.items() if k in names})


#: the draw kinds whose key text runs (seed, kind, *scope, ...); the loss
#: draw's runs (seed, "loss", kind, *scope, ...) instead
_KINDS = (
    "blackout", "reveal-loss", "suppress", "truncate", "garble",
    "garble-value", "replay", "ttl-perturb", "ttl-delta", "spoof",
    "spoof-addr", "duplicate", "reorder", "reroute", "reroute-pivot",
    "reroute-flow", "snmp-timeout",
)


class FaultInjector:
    """Runtime fault state for one campaign scope (typically one AS).

    Loss, blackout and SNMP draws hash stable keys, so they are
    independent of call order; only the token buckets and the blackout
    windows evolve with the probe clock, which advances once per probe
    sent -- itself a deterministic sequence for a fixed campaign.

    ``corrupting``, ``blackouts``, ``policing`` and ``rerouting`` are
    the plan's switches, read once here rather than per trace: a probe
    loop applies corruption only when ``corrupting``, checks blackouts
    only when ``blackouts``, polices ICMP only when ``policing`` and
    draws a reroute only when ``rerouting``.
    """

    def __init__(self, plan: FaultPlan, *scope: object) -> None:
        self._plan = plan
        self._scope = scope
        self._clock = 0
        #: router id -> (tokens, clock at last refill)
        self._buckets: dict[int, tuple[float, int]] = {}
        self.counters = FaultCounters()
        self.corrupting = plan.corruption_active
        self.blackouts = plan.blackout_rate > 0.0
        self.policing = plan.icmp_rate_limit is not None
        self.rerouting = plan.reroute_rate > 0.0
        #: draw kind -> the constant head of its key text
        self._heads = {kind: self._head(kind) for kind in _KINDS}
        #: probe kind -> the head of its loss draws' key text
        self._loss_heads: dict[str, str] = {}
        #: the destination last drawn for, and its text (str(None) first)
        self._dest: object = None
        self._dest_text = "None"

    def _head(self, *kind: str) -> str:
        """The key text of ``(seed, *kind, *scope)`` plus a separator:
        every draw's key text starts so."""
        parts = (self._plan.seed, *kind, *self._scope, "")
        return "\x1f".join(map(str, parts))

    def _hop_key(self, flow_id: object, dest: object, last: object) -> str:
        """The key text of ``(flow_id, dest, last)``, which follows the
        head in every per-probe and per-hop draw.

        The draws of one trace name one destination object, so its
        text is kept until a different object comes.
        """
        if dest is not self._dest:
            self._dest = dest
            self._dest_text = str(dest)
        return f"{flow_id!s}\x1f{self._dest_text}\x1f{last!s}"

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
        """Stable per-probe loss draw; attempts redraw independently.

        Key: ``(seed, "loss", kind, *scope, flow_id, dest, ttl,
        attempt)``.
        """
        rate = self._plan.probe_loss
        if rate <= 0.0:
            return False
        head = self._loss_heads.get(kind)
        if head is None:
            head = self._loss_heads[kind] = self._head("loss", kind)
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(f"{head}{key}\x1f{attempt!s}") / 2**64 < rate:
            self.counters.probes_lost += 1
            return True
        return False

    def blacked_out(self, router_id: int) -> bool:
        """Is the router dark during the current blackout window?

        Key: ``(seed, "blackout", *scope, router_id, window)``.
        """
        rate = self._plan.blackout_rate
        if rate <= 0.0:
            return False
        window = self._clock // self._plan.blackout_window
        head = self._heads["blackout"]
        if text_hash(f"{head}{router_id!s}\x1f{window!s}") / 2**64 < rate:
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
        """Loss draw for TNT's extra revelation probes.

        Key: ``(seed, "reveal-loss", *scope, flow_id, key, attempt)``.
        """
        rate = self._plan.probe_loss
        if rate <= 0.0:
            return False
        head = self._heads["reveal-loss"]
        text = f"{head}{flow_id!s}\x1f{key!s}\x1f{attempt!s}"
        if text_hash(text) / 2**64 < rate:
            self.counters.reveal_losses += 1
            return True
        return False

    # -- corruption (decisions only; the probing layer applies them) -------------
    #
    # Each per-hop draw's key is (seed, <kind>, *scope, flow_id, dest, ttl).
    # The value draws (garble-value, ttl-delta, spoof-addr) are int_hash
    # over the same parts.

    def stack_suppressed(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop's quoted stack be stripped entirely?
        (Kind ``"suppress"``.)"""
        rate = self._plan.stack_suppress_rate
        if rate <= 0.0:
            return False
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(self._heads["suppress"] + key) / 2**64 < rate:
            self.counters.stacks_suppressed += 1
            return True
        return False

    def stack_truncated(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop's quoted stack lose its inner entries?
        (Kind ``"truncate"``.)"""
        rate = self._plan.stack_truncate_rate
        if rate <= 0.0:
            return False
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(self._heads["truncate"] + key) / 2**64 < rate:
            self.counters.stacks_truncated += 1
            return True
        return False

    def garbled_label(
        self, flow_id: int, dest: object, ttl: int, label: int
    ) -> int | None:
        """A garbled replacement for the hop's top label, or None.

        The replacement is a hash-derived unreserved 20-bit value,
        guaranteed to differ from the original.  (Kinds ``"garble"``
        and ``"garble-value"``.)
        """
        rate = self._plan.label_garble_rate
        if rate <= 0.0:
            return None
        heads = self._heads
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(heads["garble"] + key) / 2**64 >= rate:
            return None
        span = MAX_LABEL + 1 - FIRST_UNRESERVED_LABEL
        offset = text_hash(heads["garble-value"] + key) % span
        garbled = FIRST_UNRESERVED_LABEL + offset
        if garbled == label:
            garbled = FIRST_UNRESERVED_LABEL + (offset + 1) % span
        self.counters.labels_garbled += 1
        return garbled

    def stale_replayed(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this hop replay the previous hop's quoted stack?
        (Kind ``"replay"``.)"""
        rate = self._plan.stale_replay_rate
        if rate <= 0.0:
            return False
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(self._heads["replay"] + key) / 2**64 < rate:
            self.counters.stale_replays += 1
            return True
        return False

    def ttl_perturbation(self, flow_id: int, dest: object, ttl: int) -> int:
        """A signed reply-TTL delta (0 when the hop is unperturbed).
        (Kinds ``"ttl-perturb"`` and ``"ttl-delta"``.)"""
        rate = self._plan.ttl_perturb_rate
        if rate <= 0.0:
            return 0
        heads = self._heads
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(heads["ttl-perturb"] + key) / 2**64 >= rate:
            return 0
        word = text_hash(heads["ttl-delta"] + key)
        magnitude = 1 + word % 64
        self.counters.ttls_perturbed += 1
        return -magnitude if (word >> 8) % 2 else magnitude

    def spoofed_source(
        self, flow_id: int, dest: object, ttl: int
    ) -> int | None:
        """A martian (240.0.0.0/4) spoofer address value, or None.
        (Kinds ``"spoof"`` and ``"spoof-addr"``.)"""
        rate = self._plan.spoof_rate
        if rate <= 0.0:
            return None
        heads = self._heads
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(heads["spoof"] + key) / 2**64 >= rate:
            return None
        host = text_hash(heads["spoof-addr"] + key) % (1 << 28)
        self.counters.replies_spoofed += 1
        return 0xF0000000 | host

    def hop_duplicated(self, flow_id: int, dest: object, ttl: int) -> bool:
        """Should this recorded hop appear twice in the trace?
        (Kind ``"duplicate"``.)"""
        rate = self._plan.duplicate_hop_rate
        if rate <= 0.0:
            return False
        key = self._hop_key(flow_id, dest, ttl)
        if text_hash(self._heads["duplicate"] + key) / 2**64 < rate:
            self.counters.hops_duplicated += 1
            return True
        return False

    def hops_swapped(self, flow_id: int, dest: object, position: int) -> bool:
        """Should the records at ``position`` and ``position + 1`` swap?

        Key: ``(seed, "reorder", *scope, flow_id, dest, position)``.
        """
        rate = self._plan.reorder_rate
        if rate <= 0.0:
            return False
        key = self._hop_key(flow_id, dest, position)
        if text_hash(self._heads["reorder"] + key) / 2**64 < rate:
            self.counters.hops_reordered += 1
            return True
        return False

    def rerouted_flow(
        self, flow_id: int, dest: object, max_ttl: int
    ) -> tuple[int, int] | None:
        """Mid-trace reroute: ``(pivot_ttl, new_flow_id)`` or None.

        Probes at or beyond the pivot TTL forward under the new flow
        identifier, modelling path churn Paris pinning cannot suppress.
        Keys: ``(seed, <kind>, *scope, flow_id, dest)`` for kinds
        ``"reroute"``, ``"reroute-pivot"`` and ``"reroute-flow"`` (the
        last two ``int_hash``).
        """
        rate = self._plan.reroute_rate
        if rate <= 0.0:
            return None
        heads = self._heads
        key = f"{flow_id!s}\x1f{dest!s}"
        if text_hash(heads["reroute"] + key) / 2**64 >= rate:
            return None
        pivot = 2 + text_hash(heads["reroute-pivot"] + key) % max(
            1, max_ttl - 2
        )
        shift = 1 + text_hash(heads["reroute-flow"] + key) % (2**16 - 1)
        self.counters.traces_rerouted += 1
        return pivot, (flow_id + shift) % 2**16

    # -- control plane ----------------------------------------------------------

    def snmp_timeout(self, router_id: int) -> bool:
        """Stable per-router SNMP timeout draw (a frozen dataset gap).

        Key: ``(seed, "snmp-timeout", *scope, router_id)``.
        """
        rate = self._plan.snmp_timeout_rate
        if rate <= 0.0:
            return False
        head = self._heads["snmp-timeout"]
        if text_hash(f"{head}{router_id!s}") / 2**64 < rate:
            self.counters.snmp_timeouts += 1
            return True
        return False
