"""Reference work that tells how fast the host runs Python right now.

The benchmark's host is a shared virtual machine whose speed moves by up
to 2x over tens of minutes as other tenants come and go; one set of runs
can see both levels.  Between passes the benchmark times this fixed piece
of work, which imports nothing from the program, and scales its time
metrics to a host on which the work takes ``REFERENCE_S`` (``scaled``).

The work mixes what the simulator's time goes to: a walk in random order
over a list of small records larger than the CPU caches, and an event
loop of objects on a heap with dictionary state.  The program's times
swing less than the reference's: across a 2.2x swing of a 2-vCPU x86
guest, each end-to-end time moved as the 0.72-0.90th power of the
reference time (median 0.75), and a separate pair of slow and fast
stretches gave 0.81; hence ``ELASTICITY``.
"""

from __future__ import annotations

import heapq
import random
import time

#: Host time of one ``Reference.measure()`` on the nominal host, seconds.
#: The scaled metrics read as if measured there.
REFERENCE_S = 0.2
#: How the program's times follow the reference's: a time scales by the
#: host speed to this power, a rate by its inverse, a size (or any other
#: unit) not at all.
ELASTICITY = 0.8
SPEED_POWER = {"s": ELASTICITY, "ms": ELASTICITY, "1/s": -ELASTICITY}

_RECORDS = 200_000
_EVENTS = 10_000


def scaled(value: float, unit: str, host_speed: float) -> float:
    """``value`` measured on a host running at ``host_speed`` times the
    nominal host's speed, as it would read on the nominal host."""
    return value * host_speed ** SPEED_POWER.get(unit, 0)


class _Event:
    __slots__ = ("t", "unit", "state")

    def __init__(self, t, unit, state):
        self.t, self.unit, self.state = t, unit, state

    def __lt__(self, other):
        return self.t < other.t


class Reference:
    def __init__(self) -> None:
        rng = random.Random(1)
        self.records = [[i, str(i), float(i)] for i in range(_RECORDS)]
        self.order = list(range(_RECORDS))
        rng.shuffle(self.order)

    def _walk(self) -> float:
        records = self.records
        total = 0.0
        for i in self.order:
            total += records[i][2]
        return total

    @staticmethod
    def _events() -> int:
        rng = random.Random(7)
        busy = {}
        heap = [_Event(rng.random(), i % 64, {"n": i}) for i in range(_EVENTS)]
        heapq.heapify(heap)
        done = 0
        while heap:
            ev = heapq.heappop(heap)
            t = max(busy.get(ev.unit, 0.0), ev.t) + 0.001 * (ev.unit + 1)
            busy[ev.unit] = t
            done += 1
            if done < 3 * _EVENTS and ev.state["n"] % 3 == 0:
                heapq.heappush(heap, _Event(t, (ev.unit * 7 + 3) % 64,
                                            {"n": ev.state["n"] + 1}))
        return done

    def measure(self) -> float:
        """Host seconds for one fixed unit of reference work."""
        t0 = time.perf_counter()
        self._walk()
        self._events()
        return time.perf_counter() - t0
