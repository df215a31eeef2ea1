"""Signal ordering strategies and the top-level first-fit driver."""

from __future__ import annotations

import time
from enum import Enum
from operator import attrgetter
from typing import NamedTuple, Sequence

from .core import CycleWindow, Instance, Signal, round_time_constraints
from .exclusion import compute_mems
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
    """A schedule and the time it took; the conflict model the placement
    used, and the natives are grouped by, is `multischedule.mems`."""

    multischedule: Multischedule
    wall_time_s: float

    # the minimization objective: static slots allocated
    slot_count = property(lambda self: len(self.multischedule.slots))


def sort_signals(
    signals: Sequence[Signal], strategy: OrderingStrategy, windows: dict[str, CycleWindow]
) -> list[Signal]:
    """Ordered signal list for the given strategy.

    All sorts are stable, so equal keys keep input order and results are
    reproducible.  FFW and FFC read the span of each signal's cycle window.
    Each strategy is one sorted() call on a plain key per signal: FFC's is
    the tuple (node rank, period, span, -length).
    """
    if strategy is OrderingStrategy.FF:
        return list(signals)
    if strategy is OrderingStrategy.FFP:
        return sorted(signals, key=attrgetter("period_us"))
    if strategy is OrderingStrategy.FFL:
        # a reverse sort keeps equal keys in input order too
        return sorted(signals, key=attrgetter("length_bits"), reverse=True)

    def span(sig: Signal) -> int:
        window = windows[sig.id]
        return window.deadline_cycle - window.release_cycle

    if strategy is OrderingStrategy.FFW:
        return sorted(signals, key=span)
    # FFC: node, period, span, then length descending; int and str node
    # ids may mix, ints first, each kind in its own order
    ranked = sorted({s.node for s in signals}, key=lambda n: (isinstance(n, str), n))
    rank = {n: r for r, n in enumerate(ranked)}
    return sorted(
        signals, key=lambda s: (rank[s.node], s.period_us, span(s), -s.length_bits)
    )


def schedule(instance: Instance, strategy: OrderingStrategy) -> ScheduleResult:
    """Run the first-fit heuristic over the whole instance.

    The wall time covers the algorithm only (conflict model, sorting,
    placement); parsing and serialization are measured elsewhere.
    Propagates InfeasibleSignalError when a signal's window is empty,
    naming the first such signal in input order.
    """
    t0 = time.perf_counter()
    signals, config = instance.signals, instance.config
    mems = compute_mems(signals, instance.variants)
    # a window depends on the signal's period, release and deadline only,
    # so it is rounded once per distinct triple, in input order
    keys = list(map(attrgetter("period_us", "release_us", "deadline_us"), signals))
    rounded: dict[tuple, CycleWindow] = {}
    for sig, key in zip(signals, keys):
        if key not in rounded:
            rounded[key] = round_time_constraints(sig, config)
    windows = dict(zip(map(attrgetter("id"), signals), map(rounded.__getitem__, keys)))
    ordered = sort_signals(signals, strategy, windows)
    ms = Multischedule(config, windows, mems)
    for sig in ordered:
        place_signal_to_schedule(ms, sig)
    return ScheduleResult(ms, time.perf_counter() - t0)
