"""Multi-variant FlexRay static-segment schedule synthesis toolkit."""

from .core import (
    FlexRayConfig,
    InfeasibleSignalError,
    Instance,
    InstanceError,
    Signal,
    VariantMatrix,
    load_instance,
)
from .multischedule import Multischedule, Placement
from .scheduler import OrderingStrategy, ScheduleResult, schedule
from .validator import Violation, validate_multischedule

__version__ = "0.1.0"

__all__ = [
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
    "load_instance",
    "schedule",
    "validate_multischedule",
    "__version__",
]
