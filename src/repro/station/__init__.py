"""Base-station substrate: mission planning, the control client, storage.

The Python client of §II-C: waypoint lattices split across a UAV fleet,
the per-UAV control loop (take-off → leg → scan with radio down → fetch
→ land), sample logging, the full campaign runner, and the endurance
test protocol.
"""

from .active import ActiveSamplingConfig, ActiveSamplingPlanner
from .campaign import CampaignConfig, CampaignResult, run_campaign
from .client import BaseStationClient, ClientConfig, UavFlightReport
from .endurance import EnduranceResult, run_endurance_test
from .fleet import (
    FleetCampaignResult,
    FleetConfig,
    FleetRound,
    FleetRoundPlan,
    drone_name,
    first_separation_conflict,
    merge_fleet_samples,
    plan_fleet_round,
    run_fleet_campaign,
)
from .mission import (
    Mission,
    UavMissionConfig,
    WaypointPlan,
    plan_batch_mission,
    plan_demo_mission,
)
from .online import OnlineRemBuilder, OnlineSnapshot
from .scheduler import (
    PartitionPlan,
    PartitionReport,
    evaluate_partition,
    partition_waypoints,
)
from .storage import Sample, SampleLog
from .waypoints import snake_order, split_between_uavs, spread_subset, waypoint_grid

__all__ = [
    "ActiveSamplingConfig",
    "ActiveSamplingPlanner",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "BaseStationClient",
    "ClientConfig",
    "UavFlightReport",
    "EnduranceResult",
    "run_endurance_test",
    "FleetCampaignResult",
    "FleetConfig",
    "FleetRound",
    "FleetRoundPlan",
    "drone_name",
    "first_separation_conflict",
    "merge_fleet_samples",
    "plan_fleet_round",
    "run_fleet_campaign",
    "Mission",
    "UavMissionConfig",
    "WaypointPlan",
    "plan_batch_mission",
    "plan_demo_mission",
    "Sample",
    "SampleLog",
    "snake_order",
    "spread_subset",
    "split_between_uavs",
    "waypoint_grid",
    "PartitionPlan",
    "PartitionReport",
    "evaluate_partition",
    "partition_waypoints",
    "OnlineRemBuilder",
    "OnlineSnapshot",
]
