"""Network dynamics: seeded churn on a virtual probe clock.

Every campaign before this module probed a frozen snapshot, but the
paper's 7.7M-trace campaign ran over weeks of a live Internet where
links flap, LSPs churn, and SR migrations move RFC 8661 interworking
boundaries mid-measurement.  :class:`NetworkDynamics` replays that
regime inside the simulator: an engine-attached scheduler advances a
virtual clock one tick per probe and, at deterministic window
boundaries, mutates the network under the prober's feet.

Event taxonomy
--------------

- **Link failure / repair** -- an intra-target-AS link goes down for a
  churn window and comes back (unless re-drawn).  Failures are only
  taken when they do not partition the operational graph, mirroring the
  single-failure survivability real cores are engineered for.  Each
  state change opens a *reconvergence phase*: for the next
  ``reconvergence_probes`` ticks the routers adjacent to the changed
  link misbehave the way a converging IGP does -- a failure leaves them
  transiently **blackholing** (no FIB entry yet: probes die silently),
  a repair leaves them transiently **micro-looping** (they still point
  the old way, so packets bounce between the pair until TTL death
  inside the loop).
- **LSP churn** -- every signaled RSVP-TE LSP is torn down and fresh
  LSPs are re-signaled at the next convergence (new labels, possibly
  new ERO paths): the setup/teardown churn of live maintenance windows.
- **SR migration wave** -- one mapping-served LDP router is promoted to
  native SR enrolment, keeping its prefix-SID index: the LDP island
  shrinks and the RFC 8661 mapping-server boundary moves between
  probes.

Determinism and the epoch contract
----------------------------------

All draws are :func:`~repro.util.determinism.unit_hash` over
``(seed, event kind, scope, window)`` -- pure functions of the plan and
the probe clock, never of wall time or interleaving, so a campaign is
byte-identical for any ``--jobs`` value, serial or resumed.  Every
mutation invalidates the tunnel controller and the forwarding engine's
caches, which advances the engine's monotonic topology **epoch**;
recorded walks are stamped with the epoch they were taken under and the
engine refuses to synthesize from a stale recording.

:meth:`NetworkDynamics.quiesce` restores the network to its nominal
(pre-churn) state at the end of the probe stage: links repaired,
promotions reverted.  That confines churn to trace collection and is
what keeps fresh and resumed runs byte-identical -- checkpoint
rehydration rebuilds the pristine network, so analysis must see the
pristine network in fresh runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.netsim.topology import Link, Network
from repro.util.determinism import unit_hash

__all__ = ["ChurnPlan", "ChurnCounters", "NetworkDynamics"]


@dataclass(frozen=True, slots=True)
class ChurnPlan:
    """Declarative, seeded churn configuration (default: no churn).

    Rates are per churn window: each window every candidate link draws
    its failure fate at ``link_failure_rate``, and the AS draws one
    LSP-churn and one SR-migration fate at their respective rates.
    """

    #: per-window probability a candidate intra-AS link is down
    link_failure_rate: float = 0.0
    #: per-window probability of an RSVP-TE teardown/re-signal event
    lsp_churn_rate: float = 0.0
    #: per-window probability one LDP router is promoted to native SR
    sr_migration_rate: float = 0.0
    #: probes per churn window (the virtual-clock quantum)
    churn_window: int = 256
    #: reconvergence phase length, in probes, after each link event
    reconvergence_probes: int = 24
    seed: int = 0

    _RATES = ("link_failure_rate", "lsp_churn_rate", "sr_migration_rate")

    def __post_init__(self) -> None:
        for name in self._RATES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.churn_window < 1:
            raise ValueError(
                f"churn_window must be >= 1, got {self.churn_window}"
            )
        if self.reconvergence_probes < 0:
            raise ValueError(
                "reconvergence_probes must be >= 0, got "
                f"{self.reconvergence_probes}"
            )

    @classmethod
    def none(cls) -> "ChurnPlan":
        """The default no-churn plan (campaigns attach nothing)."""
        return cls()

    @classmethod
    def intensity(cls, rate: float, seed: int = 0) -> "ChurnPlan":
        """The headline single-knob mix used by ``--churn`` sweeps.

        Link flaps dominate (full rate), LSP churn runs at half and
        migration waves at a quarter -- roughly the relative frequencies
        of the three event classes on a production backbone.
        """
        return cls(
            link_failure_rate=rate,
            lsp_churn_rate=rate / 2,
            sr_migration_rate=rate / 4,
            seed=seed,
        )

    @property
    def active(self) -> bool:
        """True when any event class can fire."""
        return any(getattr(self, name) > 0.0 for name in self._RATES)

    def as_dict(self) -> dict:
        """JSON-friendly view (config signatures, manifests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class ChurnCounters:
    """Tallies of applied churn events (observational; telemetry gauges)."""

    links_failed: int = 0
    links_repaired: int = 0
    lsps_torn_down: int = 0
    sr_promotions: int = 0
    #: probes that ticked the clock inside a reconvergence phase
    transient_probes: int = 0

    def total_events(self) -> int:
        """Topology mutations applied (transient probes excluded)."""
        return (
            self.links_failed
            + self.links_repaired
            + self.lsps_torn_down
            + self.sr_promotions
        )

    def as_dict(self) -> dict[str, int]:
        """JSON-friendly view."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class NetworkDynamics:
    """Probe-clock churn scheduler for one measurement network.

    Attach via ``engine.dynamics = scheduler``; the engine calls
    :meth:`on_probe` once per probe (exactly like the fault injector's
    clock), and the scheduler applies the window's drawn events before
    the probe is forwarded.  ``*scope`` salts every draw -- the
    campaign passes ``("as", as_id)`` so each AS gets an independent
    but reproducible schedule from one run seed.
    """

    def __init__(
        self,
        plan: ChurnPlan,
        network: Network,
        engine,
        controller,
        sr_domain,
        asn: int,
        *scope: object,
    ) -> None:
        self._plan = plan
        self._network = network
        self._engine = engine
        self._controller = controller
        self._sr_domain = sr_domain
        self._scope = scope
        #: stable candidate list: intra-target-AS links in construction
        #: order (the order is part of the deterministic contract)
        self._candidates: list[Link] = [
            link
            for link in network.links()
            if network.router(link.a).asn == asn
            and network.router(link.b).asn == asn
        ]
        self.counters = ChurnCounters()
        self._clock = 0
        self._window = -1
        self._transient_until = 0
        self._blackholed: frozenset[int] = frozenset()
        self._looping: frozenset[int] = frozenset()
        #: links this scheduler has taken down (candidate-list indices)
        self._down: set[int] = set()
        #: router ids promoted by migration waves, in order
        self._promoted: list[int] = []
        # Canonical baseline: exhaust every demand-driven label cursor
        # before the first probe, so pre-churn allocation state is a
        # function of the network alone (a no-op on already-converged
        # networks).  Without this, two probers with different walk
        # strategies reach the first mutation with different residual
        # cursors and diverge when the post-churn state is rebuilt.
        self._controller.converge()

    # -- engine-facing hooks ---------------------------------------------------

    def on_probe(self) -> None:
        """Advance the virtual clock by one probe; apply due events."""
        self._clock += 1
        window = self._clock // self._plan.churn_window
        if window != self._window:
            self._window = window
            self._apply_window(window)
        if self.in_transient():
            self.counters.transient_probes += 1

    def in_transient(self) -> bool:
        """True while a reconvergence phase is open."""
        return self._clock < self._transient_until

    def blackholed(self, node: int) -> bool:
        """True when a converging router drops packets on the floor."""
        return node in self._blackholed and self.in_transient()

    def microloops(self, node: int) -> bool:
        """True when a converging router still points the old way."""
        return node in self._looping and self.in_transient()

    # -- event application -----------------------------------------------------

    def _apply_window(self, window: int) -> None:
        plan = self._plan
        seed = plan.seed
        blackholed: set[int] = set()
        looping: set[int] = set()
        mutated = False

        if plan.link_failure_rate > 0.0:
            for idx, link in enumerate(self._candidates):
                fails = (
                    unit_hash(seed, "link-fail", *self._scope, idx, window)
                    < plan.link_failure_rate
                )
                if fails and idx not in self._down:
                    if not self._safe_to_fail(link):
                        continue
                    self._network.set_link_down(link.a, link.b)
                    self._down.add(idx)
                    blackholed.update(link.endpoints())
                    self.counters.links_failed += 1
                    mutated = True
                elif not fails and idx in self._down:
                    self._network.set_link_up(link.a, link.b)
                    self._down.discard(idx)
                    looping.update(link.endpoints())
                    self.counters.links_repaired += 1
                    mutated = True

        if (
            plan.lsp_churn_rate > 0.0
            and unit_hash(seed, "lsp-churn", *self._scope, window)
            < plan.lsp_churn_rate
        ):
            self.counters.lsps_torn_down += self._controller.churn_rsvp()
            mutated = True

        if (
            plan.sr_migration_rate > 0.0
            and self._sr_domain is not None
            and unit_hash(seed, "sr-migrate", *self._scope, window)
            < plan.sr_migration_rate
        ):
            candidate = self._next_migration_candidate()
            if candidate is not None:
                self._sr_domain.promote_mapping_entry(candidate)
                self._promoted.append(candidate)
                self.counters.sr_promotions += 1
                mutated = True

        if mutated:
            self._invalidate()
            if blackholed or looping:
                self._transient_until = (
                    self._clock + plan.reconvergence_probes
                )
                self._blackholed = frozenset(blackholed)
                self._looping = frozenset(looping)

    def _next_migration_candidate(self) -> int | None:
        """Lowest-id mapping-served router still awaiting migration."""
        covered = [
            rid
            for rid in sorted(
                r.router_id for r in self._network.routers()
            )
            if self._sr_domain.has_mapping_entry(rid)
        ]
        return covered[0] if covered else None

    def _safe_to_fail(self, link: Link) -> bool:
        """True when failing ``link`` keeps the operational graph whole.

        Removing one edge from a connected graph disconnects it iff the
        edge is a bridge, i.e. iff its endpoints lose mutual
        reachability -- one BFS answers that.
        """
        start, goal = link.a, link.b
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self._network.neighbors(node):
                if {node, neighbor} == {start, goal}:
                    continue
                if neighbor == goal:
                    return True
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return False

    def _invalidate(self) -> None:
        """Flush every derived-state cache after a mutation.

        Order matters: the tunnel controller's programs embed IGP paths,
        so it is flushed first; the engine invalidation then advances
        the topology epoch that marks outstanding recordings stale.

        After both flushes the controller is re-converged: torn-down
        LSPs re-signal and invalidated programs rebuild in canonical
        order *now*, against the freshly recomputed IGP, not in
        whatever order the next probes happen to demand them.  Label
        values therefore stay a pure function of (network, mutation
        history) -- the property the fast-path differential and resume
        byte-identity tests pin.  Converging before the engine flush
        would be wrong: programs would embed pre-mutation IGP paths.
        """
        self._controller.invalidate()
        self._engine.invalidate_caches()
        self._controller.converge()

    # -- lifecycle -------------------------------------------------------------

    def quiesce(self) -> None:
        """Restore the nominal network (end of the probe stage).

        Repairs every failed link and demotes every migration-wave
        promotion, then invalidates caches one final time.  After this
        the topology is byte-identical to the freshly built network --
        the state checkpoint rehydration rebuilds -- so fingerprinting
        and analysis see the same world fresh or resumed.  Re-signaled
        LSPs from the closing convergence carry churn-fresh labels;
        analysis never consults controller state.
        """
        for idx in sorted(self._down):
            link = self._candidates[idx]
            self._network.set_link_up(link.a, link.b)
        self._down.clear()
        for rid in reversed(self._promoted):
            self._sr_domain.demote_to_mapping_entry(rid)
        self._promoted.clear()
        self._blackholed = frozenset()
        self._looping = frozenset()
        self._transient_until = 0
        self._invalidate()
