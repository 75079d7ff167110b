"""Pausing CPython's cyclic garbage collector around bulk allocation.

Building and starting a fleet of ``n`` stations allocates several
container objects per station (algorithm, runtime, queue, interval,
heap entry) that all stay reachable.  The collector still runs a young
pass every few hundred allocations and an older pass every few of
those, and each pass re-walks what is already allocated, so at
``n = 10^5`` most of the set-up time goes to passes that free nothing.
:func:`collector_paused` turns the collector off for such a stretch;
what the stretch leaves behind is collected once, after it.
"""

from __future__ import annotations

import gc
import threading


class _CollectorPause:
    """The process-wide pause behind :func:`collector_paused`.

    The collector's on/off flag belongs to the whole process, and
    ``repro serve`` runs one thread per connection, so entries are
    counted under a lock: the first entrant saves the flag and disables
    the collector, and the last one out restores exactly what the first
    one found.  A collector that was already off stays off.
    """

    __slots__ = ("_lock", "_depth", "_was_enabled")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_PAUSE = _CollectorPause()


def collector_paused() -> _CollectorPause:
    """Context manager: no cyclic collection inside the ``with`` block.

    Nested and concurrent entries are counted; the collector comes back
    on when the last one exits, also when it exits by an exception, and
    only if it was on when the first one entered.

    Nothing may fork inside a pause: the child would inherit a disabled
    collector and a count that no exit in the child ever brings back to
    zero.  The pause wraps fleet construction, station start and the
    batch kernel's array sync, none of which forks, and ``repro serve``
    already serializes executions (its builds and pool forks) under one
    lock.
    """
    return _PAUSE
