"""Condition language for access and usage control rules.

The paper requires that sharing be possible "under certain conditions
(e.g., time, location)" and that usage control cover "environmental or
system-oriented decision factors". Conditions are small predicate
objects evaluated against an :class:`AccessContext`; they serialize to
plain dicts so a whole policy can travel inside a sticky-policy header
and be re-evaluated by the *recipient's* trusted cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import PolicyError
from ..sim.clock import SECONDS_PER_HOUR


@dataclass(frozen=True)
class AccessContext:
    """Everything a reference monitor knows when deciding an access."""

    subject: str  # principal id of the requester
    timestamp: int  # simulated time of the request
    attributes: dict[str, Any] = field(default_factory=dict)  # verified credentials
    location: str | None = None
    purpose: str | None = None


class Condition:
    """Base condition; ``condition_from_dict`` rebuilds each kind."""

    kind = "base"

    def evaluate(self, context: AccessContext) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable form for audit entries."""
        return str(self.to_dict())


@dataclass(frozen=True)
class TimeWindow(Condition):
    """Valid between two absolute timestamps (either side optional).

    The paper's footnote example: a photo accessible "in the course of
    2012" is a TimeWindow over that year.
    """

    not_before: int | None = None
    not_after: int | None = None

    kind = "time-window"

    def evaluate(self, context: AccessContext) -> bool:
        if self.not_before is not None and context.timestamp < self.not_before:
            return False
        if self.not_after is not None and context.timestamp > self.not_after:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }


@dataclass(frozen=True)
class HourOfDay(Condition):
    """Valid between two hours of the day, e.g. office hours 9-17.

    The window is ``[start_hour, end_hour)``; wrap-around windows
    (22-6) are supported.
    """

    start_hour: int = 0
    end_hour: int = 24

    kind = "hour-of-day"

    def evaluate(self, context: AccessContext) -> bool:
        hour = (context.timestamp % (24 * SECONDS_PER_HOUR)) // SECONDS_PER_HOUR
        if self.start_hour <= self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "start_hour": self.start_hour,
            "end_hour": self.end_hour,
        }


@dataclass(frozen=True)
class LocationIn(Condition):
    """Valid only from one of the listed locations."""

    locations: tuple[str, ...] = ()

    kind = "location-in"

    def evaluate(self, context: AccessContext) -> bool:
        return context.location is not None and context.location in self.locations

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "locations": list(self.locations)}


@dataclass(frozen=True)
class PurposeIn(Condition):
    """Valid only for one of the listed declared purposes."""

    purposes: tuple[str, ...] = ()

    kind = "purpose-in"

    def evaluate(self, context: AccessContext) -> bool:
        return context.purpose is not None and context.purpose in self.purposes

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "purposes": list(self.purposes)}


@dataclass(frozen=True)
class AttributeEquals(Condition):
    """Requires a verified subject attribute to hold a given value.

    Attributes come from credentials checked by the identity layer
    (e.g. ``role=insurer``, ``group=family``).
    """

    name: str = ""
    value: Any = None

    kind = "attribute-equals"

    def evaluate(self, context: AccessContext) -> bool:
        return context.attributes.get(self.name) == self.value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


def condition_from_dict(data: dict[str, Any]) -> Condition:
    """Reconstruct a condition from its serialized form."""
    kind = data.get("kind")
    if kind == TimeWindow.kind:
        return TimeWindow(data.get("not_before"), data.get("not_after"))
    if kind == HourOfDay.kind:
        return HourOfDay(data["start_hour"], data["end_hour"])
    if kind == LocationIn.kind:
        return LocationIn(tuple(data["locations"]))
    if kind == PurposeIn.kind:
        return PurposeIn(tuple(data["purposes"]))
    if kind == AttributeEquals.kind:
        return AttributeEquals(data["name"], data["value"])
    raise PolicyError(f"unknown condition kind {kind!r}")
