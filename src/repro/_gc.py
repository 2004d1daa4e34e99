"""Pausing CPython's cyclic garbage collector around big object graphs.

Loading a database and running an engine each allocate hundreds of
thousands of container objects (the parsed rows, the transactions, the
RP-tree's nodes and ts-lists).  Every allocation burst triggers
collections, and each gen-2 pass walks every tracked object built so
far — work that finds no garbage, because these graphs are live until
the operation ends.  :func:`paused_gc` keeps the collector off for the
whole operation instead.

Each pause saves the state it found and restores it on exit, so a
nested pause, or a caller's own ``gc.disable()``, is left as it was,
and the pause that turned collection off turns it back on when its
own operation ends, whatever other threads are still running.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from typing import Iterator

__all__ = ["paused_gc"]

# The switch is process-wide.  Reading it and turning it off must be
# one step: if another pause's exit re-enabled collection in between,
# this pause would find it off, turn it off again and never undo that.
_switch = threading.Lock()


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Disable automatic cyclic collection for the ``with`` block.

    On exit, collection is re-enabled if it was enabled on entry, also
    when the block raises.  Explicit ``gc.collect()`` calls still run.
    """
    with _switch:
        was_enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            with _switch:
                gc.enable()
