"""The service's thread-safe priority job queue.

Scheduling order is ``(priority desc, submission order asc)``: higher
``priority`` values run first, ties break FIFO on the submission sequence
number, so two identical services draining the same submissions always
schedule identically — determinism of *results* is carried by per-job seeds,
but deterministic scheduling keeps latency tests and the chaos harness
reproducible too.

The queue is deliberately minimal: ``put``/``get(timeout)``/``close``.
The service's slot threads block in ``get``; ``close`` wakes them all.
Retry scheduling lives in the worker layer (a retried job is a fresh
attempt on the slot thread that popped it, never re-queued), so the queue
never needs to reorder in-flight work.
"""

from __future__ import annotations

import heapq
import itertools
import threading

__all__ = ["PriorityJobQueue", "QueueClosed"]


class QueueClosed(RuntimeError):
    """``put`` after ``close`` — the service is shutting down."""


class PriorityJobQueue:
    """Heap-backed priority queue with blocking ``get`` and clean shutdown."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object]] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._sequence = itertools.count()
        self._closed = False

    def put(self, item, priority: int = 0) -> None:
        """Enqueue ``item``; higher ``priority`` values are served first."""
        with self._not_empty:
            if self._closed:
                raise QueueClosed("queue is closed")
            heapq.heappush(self._heap, (-int(priority), next(self._sequence), item))
            self._not_empty.notify()

    def get(self, timeout: "float | None" = None):
        """Pop the highest-priority item, blocking up to ``timeout`` seconds.

        Returns ``None`` on timeout or once the queue is closed: a closed
        queue hands out nothing, so the items still in it stay queued.
        """
        with self._not_empty:
            while not self._closed:
                if self._heap:
                    return heapq.heappop(self._heap)[2]
                if not self._not_empty.wait(timeout):
                    return None
            return None

    def close(self) -> None:
        """Refuse new puts and wake every blocked getter."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)
