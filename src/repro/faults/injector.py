"""The fault plane: turns a :class:`FaultPlan` into injected faults.

One injector serves one :class:`~repro.sim.world.World`. It draws every
fault decision from named streams derived from the *plan's* seed (not
the world's), so the same plan replays identically against different
workload seeds — the fault matrix axes stay independent.

Attachment is explicit and reversible::

    injector = FaultInjector(world, FaultPlan.lossy(seed=3))
    injector.attach_network(network)   # loss / duplication / spikes
    injector.attach_cloud(cloud)       # transient put/get failures
    injector.schedule_churn(network, horizon=12 * 3600)
    injector.schedule_crashes()        # kill/revive crashable endpoints

Every injected fault bumps the ``faults.injected`` counter (labelled by
kind) and emits a ``fault.*`` event on the world's observability scope;
``injector.disable()`` turns the whole plane off without detaching, and
a detached/disabled component behaves byte-for-byte like the seed code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from ..errors import TransientCloudError
from ..sim.rng import SeedSequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..infrastructure.cloud import CloudProvider
    from ..infrastructure.network import Network
    from ..sim.world import World

from .plan import CrashSpec, FaultPlan


class Crashable(Protocol):
    """What the injector needs from a crash-and-restart endpoint."""

    address: str
    crashed: bool

    def crash(self) -> None: ...  # pragma: no cover - protocol

    def restart(self) -> None: ...  # pragma: no cover - protocol

#: Decision for one message put on the wire.
_OK = None  # fast-path sentinel: no fault on this delivery


@dataclass(frozen=True)
class LinkDecision:
    """What happens to one message: dropped, duplicated, or delayed."""

    drop: bool = False
    copies: int = 1
    extra_delay_s: int = 0


_CLEAN_DELIVERY = LinkDecision()


class FaultInjector:
    """Deterministic, observable fault injection for one world."""

    def __init__(self, world: "World", plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self.enabled = True
        seeds = SeedSequence(plan.seed)
        self._link_rng = seeds.stream("faults:link")
        self._cloud_rng = seeds.stream("faults:cloud")
        self._churn_seeds = seeds.spawn("faults:churn")
        self._crashables: dict[str, Crashable] = {}
        # Phase-triggered crash specs still waiting to fire (one-shot).
        self._armed_crashes: list[CrashSpec] = [
            spec for spec in plan.crashes if spec.at_phase is not None
        ]
        self.counts: dict[str, int] = {}
        obs = world.obs
        self._events = obs.events
        self._injected_metric = obs.metrics.counter(
            "faults.injected",
            help="operational faults injected by the fault plane",
            labelnames=("kind",),
        )

    # -- bookkeeping ---------------------------------------------------------

    @property
    def injected_total(self) -> int:
        return sum(self.counts.values())

    def _record(self, kind: str, **fields) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._injected_metric.labels(kind=kind).inc()
        self._events.emit(f"fault.{kind}", **fields)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop injecting (already-scheduled churn transitions still run)."""
        self.enabled = False

    # -- network link faults -------------------------------------------------

    def attach_network(self, network: "Network") -> "FaultInjector":
        network.fault_injector = self
        return self

    def link_decision(self, source: str, destination: str,
                      size: int) -> LinkDecision:
        """Decide the fate of one delivery (consumes link-stream draws).

        Draw order is fixed (loss, duplication, spike) so decision
        streams are reproducible given the same send sequence.
        """
        spec = self.plan.link
        if not self.enabled or not spec.active:
            return _CLEAN_DELIVERY
        rng = self._link_rng
        if spec.loss_rate and rng.random() < spec.loss_rate:
            self._record("loss", source=source, destination=destination,
                         size=size)
            return LinkDecision(drop=True)
        copies = 1
        if spec.duplicate_rate and rng.random() < spec.duplicate_rate:
            copies = 2
            self._record("duplicate", source=source, destination=destination,
                         size=size)
        extra = 0
        if spec.latency_spike_rate and rng.random() < spec.latency_spike_rate:
            extra = spec.latency_spike_s
            self._record("latency", source=source, destination=destination,
                         extra_s=extra)
        if copies == 1 and extra == 0:
            return _CLEAN_DELIVERY
        return LinkDecision(copies=copies, extra_delay_s=extra)

    # -- cloud operational faults --------------------------------------------

    def attach_cloud(self, cloud: "CloudProvider") -> "FaultInjector":
        cloud.fault_injector = self
        return self

    def cloud_op(self, op: str, key: str) -> None:
        """Gate one cloud operation; raises on an injected failure.

        ``op`` is ``"put"`` or ``"get"`` (mailbox posts/fetches map to
        the same rates: they are writes and reads of the same service).
        """
        spec = self.plan.cloud
        if not self.enabled or not spec.active:
            return
        rate = spec.put_failure_rate if op == "put" else spec.get_failure_rate
        if rate and self._cloud_rng.random() < rate:
            self._record(f"cloud_{op}", key=key)
            raise TransientCloudError(
                f"injected transient cloud {op} failure on {key!r}"
            )

    # -- endpoint churn --------------------------------------------------------

    def schedule_churn(self, network: "Network", horizon: int) -> int:
        """Register every planned offline/online transition on the loop.

        Explicit windows are used verbatim; generated schedules draw
        exponential holding times from a per-address stream. Every
        churned endpoint is forced back online at ``horizon`` so runs
        always end in a recoverable state. Returns the number of
        transitions scheduled.
        """
        loop = self.world.loop
        now = self.world.now
        transitions = 0

        def flip(address: str, online: bool) -> None:
            if not self.enabled:
                return
            if network.is_online(address) != online:
                self._record("churn", address=address, online=online)
                network.set_online(address, online)

        for spec in self.plan.churn:
            windows: list[tuple[int, int]]
            if spec.offline_windows:
                windows = [w for w in spec.offline_windows if w[0] >= now]
            else:
                rng = self._churn_seeds.stream(spec.address)
                windows = []
                t = now
                while t < now + horizon:
                    t += max(1, int(rng.expovariate(1.0 / spec.mean_online_s)))
                    down = max(1, int(rng.expovariate(1.0 / spec.mean_offline_s)))
                    if t >= now + horizon:
                        break
                    windows.append((t, min(t + down, now + horizon)))
                    t += down
            for start, end in windows:
                loop.schedule_at(start, lambda a=spec.address: flip(a, False),
                                 label=f"churn {spec.address} down")
                loop.schedule_at(end, lambda a=spec.address: flip(a, True),
                                 label=f"churn {spec.address} up")
                transitions += 2
        return transitions

    # -- endpoint crash/restart ------------------------------------------------

    def register_crashable(self, endpoint: Crashable) -> None:
        """Make ``endpoint`` eligible for the plan's :class:`CrashSpec`s.

        Coordinator-class endpoints self-register when an injector is
        attached to their network, so attaching an injector *before*
        building the coordinators is enough; registration with no
        matching crash spec changes nothing.
        """
        self._crashables[endpoint.address] = endpoint

    def schedule_crashes(self) -> int:
        """Register every time-triggered crash (and restart) on the loop.

        Phase-triggered specs need no scheduling — they are armed from
        construction and fire when a registered endpoint reports the
        matching phase via :meth:`phase_reached`. Returns the number of
        events scheduled.
        """
        loop = self.world.loop
        events = 0
        for spec in self.plan.crashes:
            if spec.at_time is None:
                continue
            loop.schedule_at(
                spec.at_time, lambda s=spec: self._crash(s),
                label=f"crash {spec.address}",
            )
            events += 1
        return events

    def phase_reached(self, address: str, phase: str) -> bool:
        """An endpoint reports a phase transition; crash it on a match.

        Returns True when the report triggered a crash — the caller
        must stop touching its (now stale) run state.
        """
        if not self.enabled:
            return False
        for index, spec in enumerate(self._armed_crashes):
            if spec.address == address and spec.at_phase == phase:
                del self._armed_crashes[index]  # one-shot
                return self._crash(spec)
        return False

    def _crash(self, spec: CrashSpec) -> bool:
        endpoint = self._crashables.get(spec.address)
        if endpoint is None or endpoint.crashed or not self.enabled:
            return False
        self._record(
            "crash", address=spec.address, phase=spec.at_phase,
            at=self.world.now, restart_after_s=spec.restart_after_s,
        )
        endpoint.crash()
        if spec.restart_after_s is not None:
            self.world.loop.schedule_in(
                spec.restart_after_s,
                lambda: self._restart(spec.address),
                label=f"crash restart {spec.address}",
            )
        return True

    def _restart(self, address: str) -> None:
        endpoint = self._crashables.get(address)
        if endpoint is None or not endpoint.crashed:
            return  # already respawned (e.g. by the tree root)
        self._events.emit("crash.restart", address=address)
        endpoint.restart()
