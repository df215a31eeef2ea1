"""Host speed, measured next to the work it is used to rescale.

The VM the benchmark runs on shares its host, and the host's speed moves
by up to ~40% within minutes: a fixed job can take 1.0 s in one minute
and 1.8 s in the next.  That swamps any bound a regression check can use.
So every time in the result line is rescaled to a reference host, one on
which `probe()` takes PROBE_REF_S: a time t measured right after a probe
that took p becomes t * PROBE_REF_S / p.  The probe is fixed interpreter
work over a few megabytes (list indexing, big-int shifts, dict stores),
the kind of work the program spends its time on, and it does not use the
program, so a change to the program moves the rescaled times in full.
The raw wall times are printed and recorded next to them.
"""

from __future__ import annotations

import math
import time

# what probe() takes on a 2-vCPU Intel Xeon VM in a slow phase of its host
PROBE_REF_S = 0.020

_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(1 << 17)]


def probe() -> float:
    """Seconds that the fixed work takes, the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc, seen = 0, {}
        for i in range(30000):
            k = _TABLE[(i * 7919) & 0x1FFFF]
            acc ^= k << (i & 63)
            seen[k & 4095] = acc & 0xFFFF
            if acc.bit_length() > 100:
                acc >>= 37
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds: float, probe_s: float) -> float:
    """`seconds`, measured right after a probe that took `probe_s`, on the
    reference host."""
    return seconds * PROBE_REF_S / probe_s
