"""Conditions of access and usage control rules.

The paper requires that sharing be possible "under certain conditions
(e.g., time, location)" and that usage control cover "environmental or
system-oriented decision factors". A condition is a
:mod:`repro.store.query` predicate — the kind a cell filters its own
data with — matched against :meth:`AccessContext.record`: fail-closed
(a wrong-typed bound denies, it never raises) and serialised by the
store's wire codec, so a whole policy can travel inside a sticky-policy
header and be re-evaluated by the *recipient's* trusted cell. The five
constructors below hide only the context record's field names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from ..store.encoding import Record
from ..store.query import (
    MATCH_ALL,
    Between,
    Eq,
    Not,
    Or,
    Predicate,
    predicate_to_wire,
)

_NEVER = Not(MATCH_ALL)


@dataclass(frozen=True)
class AccessContext:
    """Everything a reference monitor knows when deciding an access."""

    subject: str  # principal id of the requester
    timestamp: int  # simulated time of the request
    attributes: dict[str, Any] = field(default_factory=dict)  # verified credentials
    location: str | None = None
    purpose: str | None = None

    def record(self) -> Record:
        """The context as the record conditions are matched against:
        ``subject``, ``timestamp``, ``location``, ``purpose``, ``hour``
        (of the day) and ``attr.<name>`` per verified attribute."""
        record = {
            "subject": self.subject,
            "timestamp": self.timestamp,
            "location": self.location,
            "purpose": self.purpose,
            "hour": self.timestamp % SECONDS_PER_DAY // SECONDS_PER_HOUR,
        }
        for name, value in self.attributes.items():
            record[f"attr.{name}"] = value
        return record


def describe(condition: Predicate) -> str:
    """A condition for denial reasons and audit entries: the compact
    JSON of its wire form."""
    return json.dumps(predicate_to_wire(condition), separators=(",", ":"))


def TimeWindow(not_before: int | None = None,
               not_after: int | None = None) -> Predicate:
    """Valid between two absolute timestamps, both inclusive (either
    side optional).

    The paper's footnote example: a photo accessible "in the course of
    2012" is a TimeWindow over that year.
    """
    return Between("timestamp", not_before, not_after)


def HourOfDay(start_hour: int = 0, end_hour: int = 24) -> Predicate:
    """Valid between two whole hours of the day, e.g. office hours 9-17.

    The window is ``[start_hour, end_hour)``; a wrap-around window
    (22-6) is the ``Or`` of its two halves.
    """
    if start_hour <= end_hour:
        return Between("hour", start_hour, end_hour - 1)
    return Or(Between("hour", start_hour, None),
              Between("hour", None, end_hour - 1))


def _one_of(name: str, options: tuple) -> Predicate:
    # An unknown (None) context value fails closed, so None is never an
    # option; no options at all never match.
    matches = [Eq(name, option) for option in options if option is not None]
    return Or(*matches) if matches else _NEVER


def LocationIn(locations: tuple[str, ...] = ()) -> Predicate:
    """Valid only from one of the listed locations."""
    return _one_of("location", locations)


def PurposeIn(purposes: tuple[str, ...] = ()) -> Predicate:
    """Valid only for one of the listed declared purposes."""
    return _one_of("purpose", purposes)


def AttributeEquals(name: str = "", value: Any = None) -> Predicate:
    """Requires a verified subject attribute to hold a given value.

    Attributes come from credentials checked by the identity layer
    (e.g. ``role=insurer``, ``group=family``).
    """
    return Eq(f"attr.{name}", value)
