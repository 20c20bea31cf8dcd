"""Timings at reference machine speed.

The benchmark's host is a shared virtual machine whose CPU speed drifts: a
fixed pure-Python loop runs 1.3-1.8x slower for stretches of a second to
several minutes while neighbours are busy, no steal time is reported and no
hardware counters are exposed.  Wall times of the same code therefore differ
between runs by more than any useful regression bound.

A :class:`Speedometer` measures that drift while the program runs.  It times
a fixed calibration loop (:func:`calibration_slice`, benchmark code that the
program never calls) at the start of every measured interval and, from a
``SIGALRM`` handler, every :data:`PERIOD_S` seconds of wall time inside it.
The loop mixes interpreter-bound work with a pointer chase through a heap
larger than the core's L2 cache, because the compiler is both: a purely
interpreter-bound loop swings about 1.5x between the host's fast and slow
phases, more than the compiler does.
If the program does work at a rate proportional to ``1 / slice``, the
interval's work takes

    ``wall * REFERENCE_S * mean(1 / slice)``

seconds on a machine where one slice takes :data:`REFERENCE_S`; ``wall``
excludes the slices themselves.  Every timing metric the benchmark reports
is such a reference-speed time; raw wall times go to the info line.

Disabled (the traced runs), a speedometer takes no slices and reports raw
times with a factor of 1.
"""

from __future__ import annotations

import random
import resource
import signal
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List, Optional, Tuple

#: Iterations of the interpreter-bound part of one slice.
SLICE_ITERATIONS = 1000
#: Steps of the pointer chase in one slice, and the ring it walks (about
#: 7 MB of objects, visited in a fixed shuffled order).
CHASE_STEPS = 400
RING_NODES = 100_000
#: One slice's time at reference speed: about its median on an idle 2-vCPU
#: Xeon (Sapphire Rapids, 2.1 GHz) host under CPython 3.
REFERENCE_S = 0.001
#: Wall seconds between slices inside an interval.
PERIOD_S = 0.03


class _Node:
    __slots__ = ("opcode", "operands", "users")

    def __init__(self, opcode: str, operands: tuple):
        self.opcode = opcode
        self.operands = operands
        self.users: List[_Node] = []

    def key(self) -> tuple:
        return (self.opcode, len(self.operands), self.operands[0] & 7)


_OPCODES = ("add", "mul", "load", "store", "icmp", "br", "call", "phi")
_NODES = [_Node(_OPCODES[i % 8], (i, i >> 1, i >> 2)) for i in range(64)]


class _Link:
    __slots__ = ("next", "value")

    def __init__(self, value: int):
        self.next: Optional[_Link] = None
        self.value = value


def _ring(size: int) -> List[_Link]:
    links = [_Link(i) for i in range(size)]
    order = list(range(size))
    random.Random(size).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        links[here].next = links[there]
    return links


_RING: List[_Link] = []
_CURSOR: List[_Link] = []


def calibration_slice(iterations: int = SLICE_ITERATIONS,
                      steps: int = CHASE_STEPS) -> int:
    """A fixed mix of what the compiler's Python does most: attribute
    reads, method calls, tuple keys, dict lookups and small lists, then a
    pointer chase through a heap that does not fit in the L2 cache."""
    if not _RING:
        _RING.extend(_ring(RING_NODES))
        _CURSOR.append(_RING[0])
    table = {}
    worklist: List[_Node] = []
    acc = 0
    for index in range(iterations):
        node = _NODES[index & 63]
        key = node.key()
        table[key] = table.get(key, 0) + 1
        if isinstance(node.operands, tuple) and node.opcode != "br":
            worklist.append(node)
        if len(worklist) > 16:
            acc += sum(len(n.operands) for n in worklist)
            worklist.clear()
    link = _CURSOR[0]
    for _ in range(steps):
        acc += link.value & 3
        link = link.next
    _CURSOR[0] = link
    return acc + len(table)


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Interval:
    """One measured interval.  ``wall_s`` and ``cpu_s`` exclude the
    calibration slices; ``factor`` turns them into reference-speed time."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.gross_s = 0.0      # wall time including the slices
        self.factor = 1.0
        self.slices = 0

    @property
    def seconds(self) -> float:
        """The interval's reference-speed wall time."""
        return self.wall_s * self.factor

    @property
    def busy_s(self) -> float:
        """The interval's reference-speed CPU time."""
        return self.cpu_s * self.factor

    def scale(self, measured_s: float) -> float:
        """Reference-speed time of a span the program timed itself inside
        this interval (the slices fall into it pro rata)."""
        if self.gross_s <= 0.0:
            return measured_s * self.factor
        return measured_s * (self.wall_s / self.gross_s) * self.factor


class Speedometer:
    """Samples the calibration loop during measured intervals."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.slices: List[Tuple[float, float]] = []   # (start, seconds)
        self._depth = 0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        calibration_slice()
        self.slices.append((start, perf_counter() - start))

    def _arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextmanager
    def measure(self) -> Iterator[Interval]:
        """Time the body; intervals may nest."""
        interval = Interval()
        if not self.enabled:
            cpu_start, start = cpu_seconds(), perf_counter()
            yield interval
            interval.wall_s = interval.gross_s = perf_counter() - start
            interval.cpu_s = cpu_seconds() - cpu_start
            return
        first = len(self.slices)
        self.sample()
        if self._depth == 0:
            self._arm()
        self._depth += 1
        cpu_start, start = cpu_seconds(), perf_counter()
        try:
            yield interval
        finally:
            end, cpu_end = perf_counter(), cpu_seconds()
            self._depth -= 1
            if self._depth == 0:
                self._disarm()
        # slices that started after ``end`` belong to no part of the body
        taken = [s for s in self.slices[first:] if s[0] < end]
        inside = sum(seconds for begin, seconds in taken[1:])
        interval.gross_s = end - start
        interval.wall_s = interval.gross_s - inside
        interval.cpu_s = max(0.0, cpu_end - cpu_start - inside)
        interval.slices = len(taken)
        interval.factor = REFERENCE_S * sum(1.0 / s for _, s in taken) / len(taken)
