"""The one clock the observability layer (and its consumers) read.

Every duration in the repo — span wall times, timer histograms, the
progress reporter's ETA smoothing — must come from the *monotonic* clock:
``time.time()`` can jump backwards under NTP adjustment and would produce
negative spans and oscillating ETAs.  Funnelling all reads through this
module keeps that rule greppable and gives tests a single seam to patch.

``CLOCK_MONOTONIC`` is system-wide on Linux, so timestamps taken in
forked worker processes are directly comparable with the parent's — which is
what lets the Chrome-trace export lay worker shard spans on the same time
axis as the campaign span that contains them.
"""

from __future__ import annotations

import time

__all__ = ["monotonic", "wall"]

#: Monotonic seconds; the timestamp source for spans, timers and ETAs.
monotonic = time.monotonic

#: Wall-clock seconds since the epoch — only for *labelling* artifacts
#: (e.g. "generated at"), never for measuring durations.
wall = time.time
