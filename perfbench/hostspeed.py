"""How fast the host runs Python right now, to take host drift out of wall times.

On a shared virtual machine the whole host runs slower or faster for
seconds to minutes at a time (a fixed pure-Python loop measured 1.6x
apart within one minute), and a slow stretch shows in CPU time as well as
wall time.  No statistic over the benchmark's own rounds removes a shift
that covers a whole run.  So every unit of measured work is bracketed by
:func:`probe`, a fixed loop of integer arithmetic, object allocation,
dict updates and a sort that touches no ``repro`` code, and the unit's
wall time is scaled by :func:`factor`: the probe's time on the reference
host over its mean time around the unit.  A scaled time reads as the time
the unit would take on the reference host when quiet; the raw wall times
are reported next to it, ungated.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: :func:`probe` on the reference host when quiet: a 2-vCPU x86_64
#: virtual machine on a 2.1 GHz Xeon, Python 3.11.7
REFERENCE_PROBE_S = 3.6e-3


class _Item:
    __slots__ = ("index", "key", "value")

    def __init__(self, index, key, value):
        self.index = index
        self.key = key
        self.value = value


def probe() -> float:
    """Wall seconds of one fixed reference loop, run now."""
    enabled = gc.isenabled()
    # a collection triggered by the program's heap must not land in the probe
    gc.disable()
    start = perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i % 7
    totals: dict = {}
    items = []
    for i in range(1_500):
        key = (i % 97, f"k{i % 53}")
        item = _Item(i, key, i * 0.5)
        items.append(item)
        totals[key] = totals.get(key, 0.0) + item.value
    items.sort(key=lambda it: (it.key[1], -it.index))
    total = 0.0
    for item in items:
        total += item.value * 1.0001 + len(item.key[1])
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


def factor(*probes: float) -> float:
    """Scale for a wall time measured between ``probes``: reference over their mean."""
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


def bracketed(fn):
    """Call ``fn`` between two probes: (its result, wall seconds, scale)."""
    before = probe()
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    return result, seconds, factor(before, probe())
