"""Multi-variant FlexRay static-segment schedule synthesis toolkit."""

from .core import (
    CycleWindow,
    FlexRayConfig,
    InfeasibleSignalError,
    Instance,
    InstanceError,
    Signal,
    VariantMatrix,
    load_instance,
    round_time_constraints,
)
from .exclusion import ConflictModel, compute_mems
from .multischedule import (
    Multischedule,
    Placement,
    extract_native_schedule,
    find_position_for_signal,
    find_suitable_offset,
    place_signal_to_schedule,
    slot_count,
)
from .scheduler import OrderingStrategy, ScheduleResult, schedule, sort_signals
from .validator import Violation, validate_multischedule

__version__ = "0.1.0"

__all__ = [
    "ConflictModel",
    "CycleWindow",
    "FlexRayConfig",
    "InfeasibleSignalError",
    "Instance",
    "InstanceError",
    "Multischedule",
    "OrderingStrategy",
    "Placement",
    "ScheduleResult",
    "Signal",
    "VariantMatrix",
    "Violation",
    "compute_mems",
    "extract_native_schedule",
    "find_position_for_signal",
    "find_suitable_offset",
    "load_instance",
    "place_signal_to_schedule",
    "round_time_constraints",
    "schedule",
    "slot_count",
    "sort_signals",
    "validate_multischedule",
    "__version__",
]
