"""Minimal discrete-event kernel.

A heap-based scheduler with deterministic tie-breaking (events at equal
times fire in insertion order), which keeps whole simulations
reproducible bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class EventScheduler:
    """Priority-queue event loop over simulated seconds."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self._now + delay, action)

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` at absolute time ``when`` (>= now)."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule in the past: {when} < {self._now}"
            )
        heapq.heappush(self._heap, (when, next(self._counter), action))

    def run(self, until: float) -> None:
        """Fire events in time order until the clock reaches ``until``.

        Events scheduled exactly at ``until`` still fire; the clock
        never runs backwards.
        """
        if until < self._now:
            raise ValueError(
                f"cannot run to {until}, already at {self._now}"
            )
        self._running = True
        while self._heap and self._heap[0][0] <= until:
            when, _, action = heapq.heappop(self._heap)
            self._now = when
            action()
        self._now = until
        self._running = False
