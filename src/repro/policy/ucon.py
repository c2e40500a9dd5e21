"""UCON-ABC usage control policies.

"Usage control usually refers to UCON_ABC: obligations (actions a
subject must take before or while it holds a right), conditions
(environmental or system-oriented decision factors), and mutability
(decisions based on previous usage)."  (paper, citing Park & Sandhu)

A :class:`UsagePolicy` bundles:

* **Authorizations** — which subjects (by id or by verified attribute)
  hold which rights;
* **Conditions** — store predicates over the access context
  (:mod:`repro.policy.conditions`), all of which must match;
* **oBligations** — actions the enforcing cell must perform
  (notify the owner, write an audit record);
* **Mutability** — a per-subject use budget (the "photo could be
  accessed ten times" of footnote 6).

Policies serialize to a canonical byte form — conditions through the
store's one predicate codec — so they can be bound to their payload
("cryptographically inseparable") by the sticky-policy layer, and
evaluated identically by *any* trusted cell — in particular by the
recipient's cell, which is what makes bypass impossible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..errors import PolicyError, ProtocolError
from ..obs import get_default as _obs_default
from ..store.query import Predicate, predicate_from_wire, predicate_to_wire
from .conditions import AccessContext, describe

# Policies are evaluated by whichever cell enforces them and carry no
# world reference, so decisions land in the process-default scope.
_OBS = _obs_default()
_DECISIONS = _OBS.metrics.counter(
    "policy.decisions", help="usage-control evaluations",
    labelnames=("outcome",),
)

# Rights a policy can grant.
RIGHT_READ = "read"
RIGHT_AGGREGATE = "aggregate"  # read only through approved aggregate queries
RIGHT_SHARE = "share"  # re-share the object (keys + policy) onward
ALL_RIGHTS = (RIGHT_READ, RIGHT_AGGREGATE, RIGHT_SHARE)

# Obligation kinds the platform knows how to fulfil.
OBLIGATION_NOTIFY_OWNER = "notify-owner"
OBLIGATION_AUDIT = "audit-access"
KNOWN_OBLIGATIONS = (OBLIGATION_NOTIFY_OWNER, OBLIGATION_AUDIT)


@dataclass(frozen=True)
class Obligation:
    """An action the enforcing cell must take when granting access."""

    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_OBLIGATIONS:
            raise PolicyError(f"unknown obligation kind {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": [list(pair) for pair in self.params]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Obligation":
        return cls(
            kind=data["kind"],
            params=tuple((key, value) for key, value in data.get("params", [])),
        )


@dataclass(frozen=True)
class Grant:
    """One authorization row: who gets which rights.

    A subject matches if it is listed explicitly in ``subjects`` or if
    its verified attributes include every pair in ``attributes``.
    An empty grant matches nobody (the owner needs no grant).
    """

    rights: tuple[str, ...]
    subjects: tuple[str, ...] = ()
    attributes: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for right in self.rights:
            if right not in ALL_RIGHTS:
                raise PolicyError(f"unknown right {right!r}")

    def matches(self, context: AccessContext) -> bool:
        if context.subject in self.subjects:
            return True
        if self.attributes:
            return all(
                context.attributes.get(name) == value
                for name, value in self.attributes
            )
        return False

    def to_dict(self) -> dict[str, Any]:
        return {
            "rights": list(self.rights),
            "subjects": list(self.subjects),
            "attributes": [list(pair) for pair in self.attributes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Grant":
        return cls(
            rights=tuple(data["rights"]),
            subjects=tuple(data["subjects"]),
            attributes=tuple((name, value) for name, value in data["attributes"]),
        )


@dataclass(frozen=True)
class Decision:
    """The outcome of a policy evaluation."""

    allowed: bool
    reason: str
    obligations: tuple[Obligation, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.allowed


@dataclass(frozen=True)
class UsagePolicy:
    """A complete UCON-ABC policy for one object."""

    owner: str
    grants: tuple[Grant, ...] = ()
    conditions: tuple[Predicate, ...] = ()
    obligations: tuple[Obligation, ...] = ()
    max_uses: int | None = None  # mutability: per-subject budget

    def __post_init__(self) -> None:
        if self.max_uses is not None and (
                type(self.max_uses) is not int or self.max_uses < 0):
            raise PolicyError(
                f"max_uses must be None or an int >= 0, not {self.max_uses!r}")

    # -- evaluation ------------------------------------------------------------

    def rights_of(self, context: AccessContext) -> set[str]:
        """All rights the subject holds (before conditions/mutability)."""
        if context.subject == self.owner:
            return set(ALL_RIGHTS)
        rights: set[str] = set()
        for grant in self.grants:
            if grant.matches(context):
                rights.update(grant.rights)
        return rights

    def failed_condition(self, context: AccessContext) -> Predicate | None:
        """The first condition ``context`` fails, or ``None``."""
        record = context.record()
        for condition in self.conditions:
            if not condition.matches(record):
                return condition
        return None

    def evaluate(
        self, right: str, context: AccessContext, prior_uses: int = 0
    ) -> Decision:
        """Decide whether ``context.subject`` may exercise ``right``.

        ``prior_uses`` is the subject's use count so far, maintained by
        the enforcing cell's usage-state store (mutability).
        The owner bypasses grants but NOT conditions or mutability —
        the paper is explicit that even the cell owner "only gets data
        according to her privileges".
        """
        if right not in ALL_RIGHTS:
            raise PolicyError(f"unknown right {right!r}")
        decision = self._decide(right, context, prior_uses)
        _DECISIONS.labels(
            outcome="granted" if decision.allowed else "denied"
        ).inc()
        _OBS.events.emit(
            "policy.decision", owner=self.owner, subject=context.subject,
            right=right, allowed=decision.allowed, reason=decision.reason,
        )
        return decision

    def _decide(
        self, right: str, context: AccessContext, prior_uses: int
    ) -> Decision:
        if right not in self.rights_of(context):
            return Decision(False, f"no grant of {right!r} for {context.subject!r}")
        failed = self.failed_condition(context)
        if failed is not None:
            return Decision(False, f"condition failed: {describe(failed)}")
        if self.max_uses is not None and prior_uses >= self.max_uses:
            return Decision(
                False, f"use budget exhausted ({prior_uses}/{self.max_uses})"
            )
        return Decision(True, "granted", obligations=self.obligations)

    # -- canonical serialization ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "owner": self.owner,
            "grants": [grant.to_dict() for grant in self.grants],
            "conditions": [predicate_to_wire(condition)
                           for condition in self.conditions],
            "obligations": [obligation.to_dict() for obligation in self.obligations],
            "max_uses": self.max_uses,
        }

    def to_bytes(self) -> bytes:
        """Canonical byte form (sorted-key JSON) for MAC binding."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "UsagePolicy":
        return cls(
            owner=data["owner"],
            grants=tuple(Grant.from_dict(grant) for grant in data["grants"]),
            conditions=tuple(
                predicate_from_wire(condition) for condition in data["conditions"]
            ),
            obligations=tuple(
                Obligation.from_dict(obligation) for obligation in data["obligations"]
            ),
            max_uses=data["max_uses"],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "UsagePolicy":
        try:
            parsed = json.loads(data.decode())
            return cls.from_dict(parsed)
        except (ValueError, UnicodeDecodeError, KeyError, TypeError,
                AttributeError, RecursionError, ProtocolError) as exc:
            # adversary-controlled bytes must surface as a typed policy
            # error, whatever shape the damage takes
            raise PolicyError("malformed policy bytes") from exc


def private_policy(owner: str) -> UsagePolicy:
    """The default policy: nobody but the owner."""
    return UsagePolicy(owner=owner)
