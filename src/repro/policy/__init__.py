"""Access & usage control: conditions (store predicates over the access
context), UCON-ABC, sticky policies, audit."""

from .audit import AuditEntry, AuditLog
from .conditions import (
    AccessContext,
    AttributeEquals,
    HourOfDay,
    LocationIn,
    PurposeIn,
    TimeWindow,
)
from .presets import (
    PackPublisher,
    PolicyPack,
    bind_template,
    privacy_by_default_templates,
    template,
    verify_pack,
)
from .sticky import DataEnvelope
from .ucon import (
    ALL_RIGHTS,
    OBLIGATION_AUDIT,
    OBLIGATION_NOTIFY_OWNER,
    RIGHT_AGGREGATE,
    RIGHT_READ,
    RIGHT_SHARE,
    Decision,
    Grant,
    Obligation,
    UsagePolicy,
    private_policy,
)
from .usage_state import UsageState

__all__ = [
    "AuditEntry",
    "AuditLog",
    "AccessContext",
    "AttributeEquals",
    "HourOfDay",
    "LocationIn",
    "PurposeIn",
    "TimeWindow",
    "PackPublisher",
    "PolicyPack",
    "bind_template",
    "privacy_by_default_templates",
    "template",
    "verify_pack",
    "DataEnvelope",
    "ALL_RIGHTS",
    "OBLIGATION_AUDIT",
    "OBLIGATION_NOTIFY_OWNER",
    "RIGHT_AGGREGATE",
    "RIGHT_READ",
    "RIGHT_SHARE",
    "Decision",
    "Grant",
    "Obligation",
    "UsagePolicy",
    "private_policy",
    "UsageState",
]
