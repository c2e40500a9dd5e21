"""Federated query engine: global queries fanned out over the network.

The paper's functional contract item (6) — "participation in
distributed computations" — executed the way the architecture demands:
a declarative query spec ships from an **untrusted coordinator** to a
fleet of trusted cells over the simulated network; each cell runs a
local plan against its own embedded store, applies its opt-in policy
and the egress privacy gate, and returns only a transformed partial
(masked field element, sealed record batch). The coordinator combines
partials under straggler timeouts, retry re-asks and graceful
degradation. See ``docs/fedquery.md``.
"""

# Load the commons package first: its orchestrator imports back into
# fedquery.cell, so importing ``repro.fedquery`` before ``repro.commons``
# used to trip the cycle. Anchoring the order here makes this package
# importable first from scripts and tests.
from .. import commons as _commons  # noqa: F401  (import-order anchor)
from .cell import CatalogSource, CellQueryAgent, LocalSource, ValueSource
from .coordinator import (
    OUTCOME_ABANDONED,
    OUTCOME_COMPLETE,
    OUTCOME_PARTIAL,
    Coordinator,
    FedQueryResult,
    open_release,
)
from .fleet import Fleet, build_fleet, build_fleet_sharded
from .gate import net_recovery_mask, open_records, recipient_key, seal_records
from .hierarchy import (
    HierarchicalCoordinator,
    RegionalCoordinator,
    partition_shards,
)
from .journal import QueryJournal, journal_elements
from .standing import (
    MSG_SUB,
    StandingCoordinator,
    StandingSubscription,
    WindowClause,
    window_tag,
)
from .traffic import (
    TRAFFIC_PURPOSES,
    TrafficReport,
    run_traffic,
    seed_stream_data,
    tenant_specs,
)
from .spec import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    TRANSFORMS,
    FedQuerySpec,
    plan_kind,
    wire_size,
)

__all__ = [
    "CatalogSource",
    "CellQueryAgent",
    "Coordinator",
    "FedQueryResult",
    "FedQuerySpec",
    "Fleet",
    "HierarchicalCoordinator",
    "LocalSource",
    "MSG_SUB",
    "OUTCOME_ABANDONED",
    "OUTCOME_COMPLETE",
    "OUTCOME_PARTIAL",
    "QueryJournal",
    "RegionalCoordinator",
    "StandingCoordinator",
    "StandingSubscription",
    "TRAFFIC_PURPOSES",
    "TrafficReport",
    "WindowClause",
    "TRANSFORMS",
    "TRANSFORM_DP",
    "TRANSFORM_EXACT",
    "TRANSFORM_KANON",
    "ValueSource",
    "build_fleet",
    "build_fleet_sharded",
    "journal_elements",
    "net_recovery_mask",
    "partition_shards",
    "open_records",
    "open_release",
    "plan_kind",
    "recipient_key",
    "run_traffic",
    "seal_records",
    "seed_stream_data",
    "tenant_specs",
    "window_tag",
    "wire_size",
]
