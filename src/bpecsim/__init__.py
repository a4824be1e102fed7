"""Rate bounds and feedback network-coding simulation for two-user broadcast
erasure channels whose statistics change at known times."""

from .channel import (
    ChannelSampler,
    Mode,
    ModeKind,
    ModeSchedule,
    SlotState,
    build_schedule,
)
from .montecarlo import AggregateStats, convergence_sweep, simulate
from .protocol import (
    Action,
    PacketId,
    PacketStatus,
    Phase,
    Receiver,
    Scheme,
    SchemePlan,
    Transmitter,
    TrialStats,
    plan_scheme,
    run_trial,
)
from .rates import (
    HalfSpace,
    ModeParams,
    RatePair,
    RateRegion,
    achievable_intermodal_sum,
    achievable_intramodal_sum,
    achievable_nofeedback_sum,
    achievability_threshold,
    avg_erasure,
    betas,
    kappa,
    max_sum_rate,
    multicast_delivery_rate,
    optimal_raw_fraction,
    outer_bound_achievable,
    outer_region,
    region_c1,
    region_c2,
    region_c3,
    unimodal_sum_capacity,
    vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
