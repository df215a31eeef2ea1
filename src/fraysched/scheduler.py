"""Signal ordering strategies and the top-level first-fit driver."""

from __future__ import annotations

import time
from enum import Enum
from typing import NamedTuple, Sequence

from .core import CycleWindow, Instance, Signal, round_time_constraints
from .exclusion import ConflictModel, compute_mems
from .multischedule import Multischedule, place_signal_to_schedule


class OrderingStrategy(Enum):
    """How the signal list is ordered before first-fit placement.

    FF   input order (no sorting)
    FFP  period, ascending
    FFW  admissible-window span, ascending (tightest signals first)
    FFL  payload length, descending
    FFC  one stable sort on (node asc, period asc, window asc,
         payload desc) -- node is the most significant key
    """

    FF = "ff"
    FFP = "ffp"
    FFW = "ffw"
    FFL = "ffl"
    FFC = "ffc"

    @classmethod
    def from_name(cls, name: str) -> "OrderingStrategy":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(
                f"unknown strategy {name!r}; expected one of "
                + "|".join(s.value for s in cls)
            ) from None


class ScheduleResult(NamedTuple):
    multischedule: Multischedule
    wall_time_s: float
    # the variant membership the placement used; the natives are grouped from it
    mems: ConflictModel

    # the minimization objective: static slots allocated
    slot_count = property(lambda self: len(self.multischedule.slots))


# each strategy's sort key, from a signal and its cycle window; FF's is
# constant, and a stable sort then keeps input order
_ORDER_KEYS = {
    OrderingStrategy.FF: lambda s, w: 0,
    OrderingStrategy.FFP: lambda s, w: s.period_us,
    OrderingStrategy.FFW: lambda s, w: w.span,
    OrderingStrategy.FFL: lambda s, w: -s.length_bits,
    # int and str node ids may mix; ints sort first, in their own order
    OrderingStrategy.FFC: lambda s, w: (
        (isinstance(s.node, str), s.node), s.period_us, w.span, -s.length_bits
    ),
}


def sort_signals(
    signals: Sequence[Signal], strategy: OrderingStrategy, windows: dict[str, CycleWindow]
) -> list[Signal]:
    """Ordered signal list for the given strategy.

    All sorts are stable, so equal keys keep input order and results are
    reproducible.  FFW and FFC read the span of each signal's cycle window.
    """
    key = _ORDER_KEYS[strategy]
    return sorted(signals, key=lambda s: key(s, windows[s.id]))


def schedule(instance: Instance, strategy: OrderingStrategy) -> ScheduleResult:
    """Run the first-fit heuristic over the whole instance.

    The wall time covers the algorithm only (conflict model, sorting,
    placement); parsing and serialization are measured elsewhere.
    Propagates InfeasibleSignalError when a signal's window is empty.
    """
    t0 = time.perf_counter()
    mems = compute_mems(instance.signals, instance.variants)
    windows = {
        s.id: round_time_constraints(s, instance.config) for s in instance.signals
    }
    ordered = sort_signals(instance.signals, strategy, windows)
    ms = Multischedule(instance.config, windows)
    for sig in ordered:
        place_signal_to_schedule(ms, sig, mems)
    return ScheduleResult(ms, time.perf_counter() - t0, mems)
