"""Calendar-queue event scheduler for the simulation kernel.

A drop-in replacement for the kernel's former single global ``heapq``:
entries are ``(time, priority, eid, event)`` tuples and pop order is
**exactly** the heap's — ascending time, then priority, then insertion
order (``eid`` is unique, so comparisons never reach the event object).
What changes is the cost model: instead of one O(log n) heap over every
pending event — at 100k+ pending entries that is ~20 levels of
cache-cold tuple comparisons per operation — entries are spread across
time buckets of ``width`` sim-ms, so each push/pop works on a small
per-bucket heap whose size is the *local* event density, not the
global pending count.

Structure
---------
``_cur`` / ``_over``
    The active bucket, split in two.  ``_cur`` holds the entries that
    were in the bucket when it was loaded, sorted *descending* once
    (one C-level sort) and consumed from the tail with ``list.pop()``
    — no per-event heap sift.  ``_over`` is a small heap catching
    entries pushed at or before the current bucket index *after* the
    load (delay-0 scheduling, process-start bursts); a pop takes the
    smaller of ``_cur``'s tail and ``_over``'s root.  A plain sorted
    list cannot serve both roles: a freshly pushed same-time entry
    carries the largest eid in the bucket and would have to be
    inserted at the far end of the sorted order, degenerating to
    O(bucket) memmove per push exactly when delay-0 traffic is
    heaviest (e.g. 100k process initializations at t=0).
``_ring``
    Future near-term buckets: a flat power-of-two array of entry lists
    indexed by ``bucket_index & mask``.  The reachable window is
    exactly one lap (``_far_limit = _cur_idx + ring size``), so two
    live bucket indices can never collide in a slot and no lap checks
    are needed.  A push into the window is one array index and an
    append — no dict probe, no per-bucket bookkeeping.  Advancing
    scans forward for the next non-empty slot; with the resizer
    holding bucket occupancy near ``_TARGET_OCC`` the scan cost per
    dequeued event is a fraction of a slot.
``_far``
    Heap fallback for events beyond the ring's window (timers like
    10 s SLO windows).  Due entries are pulled back into the calendar
    whenever the active bucket advances, using bucket-index
    comparisons so float boundary rounding cannot reorder anything.

Automatic width resizing
------------------------
Every 4096 pops the queue measures the *frontier density*: the mean
sim-time gap between dequeued events since the last check.  The width
is then set in one shot to ``TARGET_OCC x gap`` (with 4x hysteresis),
rebuilding the structure in O(n).  Two design points matter:

* The check is triggered by **pop count**, not bucket loads.  A badly
  oversized width makes bucket loads rare (one load can cover
  thousands of events), so a load-triggered check would let most of a
  run execute at the wrong width before the first correction.
* The width is **computed from measured density**, not adjusted by
  occupancy feedback (shrink while buckets look full / grow while
  empty).  On bimodal schedules — a dense leading edge of sub-ms RPC
  hops ahead of sparse multi-ms think timers — feedback keeps reading
  "full" at every width and spirals down until each bucket holds one
  entry and the queue degenerates into a slower global ``heapq``.
  One-shot targeting lands on the right width in a single rebuild and
  the hysteresis band keeps it there.

At each rebuild the ring is re-sized so its window covers the full
time span of the pending entries (within ``max_ring`` slots); whatever
still does not fit stays in the far heap.  Resizing is driven purely
by the pop sequence — it is deterministic, and pop *order* is
invariant under any width, so the kernel's event-sequence hash cannot
depend on it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

_INF = float("inf")

Entry = Tuple[float, int, int, Any]




class CalendarQueue:
    """Bucketed scheduler, order-identical to a ``(t, prio, eid)`` heap."""

    __slots__ = (
        "_width", "_inv_width", "_ring", "_mask", "_ring_count",
        "_cur", "_over", "_cur_idx", "_far", "_far_limit",
        "_pops", "_check_time", "_scanned",
        "min_width", "max_width", "max_ring", "resizes",
    )

    #: Pops between width checks.
    _CHECK_POPS = 4096
    #: Entries per bucket the resizer aims for.  Chosen empirically at
    #: 100k+ pending entries: below ~10 the empty-slot scan and bucket
    #: churn dominate, above ~a thousand the per-bucket heaps do;
    #: throughput is flat in between, and the upper half of the band
    #: needs fewer corrective rebuilds as density drifts.
    _TARGET_OCC = 192.0
    #: Hysteresis, asymmetric.  A width that is too *wide* piles
    #: entries into oversized bucket heaps and degenerates toward the
    #: global heap, so shrinking reacts quickly; a width that is too
    #: *narrow* merely spreads entries over more slots and costs a
    #: short empty-slot scan per bucket advance, so growing tolerates a
    #: much larger drift (e.g. the falling density of a drain tail)
    #: before paying an O(n) rebuild.
    _SHRINK_RATIO = 4.0
    _GROW_RATIO = 16.0

    def __init__(
        self,
        width: float = 0.5,
        start: float = 0.0,
        ring: int = 8192,
        min_width: float = 1e-7,
        max_width: float = 1e9,
        max_ring: int = 1 << 20,
    ) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if ring < 2 or ring & (ring - 1):
            raise ValueError("ring must be a power of two >= 2")
        self._width = float(width)
        self._inv_width = 1.0 / self._width
        self._ring: List[Optional[List[Entry]]] = [None] * ring
        self._mask = ring - 1
        self._ring_count = 0
        self._cur: List[Entry] = []
        self._over: List[Entry] = []
        self._cur_idx = int(float(start) * self._inv_width)
        self._check_time = float(start)
        self._far: List[Entry] = []
        self._far_limit = self._cur_idx + ring
        self.min_width = min_width
        self.max_width = max_width
        self.max_ring = max_ring
        self._pops = 0
        self._scanned = 0
        self.resizes = 0

    def __len__(self) -> int:
        # Derived, not maintained: the active bucket (sorted part and
        # overflow heap), the ring population counter, and the far
        # heap partition every entry.  Keeping size out of push/pop
        # saves a read-modify-write on the two hottest kernel paths.
        return (len(self._cur) + len(self._over)
                + self._ring_count + len(self._far))

    @property
    def width(self) -> float:
        """Current bucket width (sim time units); resized automatically."""
        return self._width

    # -- hot path ----------------------------------------------------------
    def push(self, t: float, priority: int, eid: int, event: Any) -> None:
        """Insert one entry; ``eid`` must be unique and increasing."""
        idx = int(t * self._inv_width)
        if idx <= self._cur_idx:
            heappush(self._over, (t, priority, eid, event))
        elif idx < self._far_limit:
            ring = self._ring
            slot = idx & self._mask
            bucket = ring[slot]
            if bucket is None:
                ring[slot] = [(t, priority, eid, event)]
            else:
                bucket.append((t, priority, eid, event))
            self._ring_count += 1
        else:
            heappush(self._far, (t, priority, eid, event))

    def pop(self) -> Optional[Entry]:
        """Remove and return the least entry, or ``None`` when empty."""
        cur = self._cur
        over = self._over
        if over:
            if cur and cur[-1] < over[0]:
                entry = cur.pop()
            else:
                entry = heappop(over)
        elif cur:
            entry = cur.pop()
        else:
            if not self._refill():
                return None
            return self.pop()
        pops = self._pops + 1
        if pops >= self._CHECK_POPS:
            self._pops = 0
            self._auto_resize(entry[0])
        else:
            self._pops = pops
        return entry

    def peek(self) -> float:
        """Time of the least entry, or ``inf`` when empty."""
        cur = self._cur
        over = self._over
        if not cur and not over:
            if not self._refill():
                return _INF
            cur = self._cur
            over = self._over
        if over and (not cur or over[0] < cur[-1]):
            return over[0][0]
        return cur[-1][0]

    # -- bucket management -------------------------------------------------
    def _refill(self) -> bool:
        """Make the active bucket non-empty; False iff queue empty.

        Only called when both ``_cur`` and ``_over`` are empty (the
        overflow heap holds entries due in or before the current
        bucket, so it always drains before the window may advance).
        """
        while True:
            if self._cur or self._over:
                return True
            if not self._ring_count and not self._far:
                return False
            ring = self._ring
            mask = self._mask
            bucket: Optional[List[Entry]] = None
            if self._ring_count:
                # Advance to the next non-empty slot.  The window is
                # one lap, so the scan is bounded by the ring size and,
                # with occupancy held near target, costs a fraction of
                # a slot per dequeued event.
                idx = self._cur_idx
                start = idx
                limit = self._far_limit
                while idx + 1 < limit:
                    idx += 1
                    slot = idx & mask
                    bucket = ring[slot]
                    if bucket is not None:
                        ring[slot] = None
                        self._ring_count -= len(bucket)
                        self._cur_idx = idx
                        self._far_limit = idx + mask + 1
                        self._scanned += idx - start
                        break
            if bucket is None:
                # Ring drained: everything pending is in the far heap.
                # Re-anchor at the earliest far event so its bucket
                # becomes the active one.
                far = self._far
                if not far:
                    return False
                self._cur_idx = int(far[0][0] * self._inv_width)
                self._far_limit = self._cur_idx + mask + 1
                self._pull_far()
                continue
            if self._far:
                # Pull newly-due far events into the advanced window.
                self._pull_far()
            bucket.sort(reverse=True)
            self._cur = bucket
            return True

    def _pull_far(self) -> None:
        """Move far-heap entries now inside the window into place.

        Compares bucket indices, not times, so float rounding at
        bucket boundaries cannot disagree with :meth:`push`.
        """
        far = self._far
        inv = self._inv_width
        limit = self._far_limit
        cur_idx = self._cur_idx
        ring = self._ring
        mask = self._mask
        while far and int(far[0][0] * inv) < limit:
            entry = heappop(far)
            idx = int(entry[0] * inv)
            if idx <= cur_idx:
                heappush(self._over, entry)
            else:
                slot = idx & mask
                bucket = ring[slot]
                if bucket is None:
                    ring[slot] = [entry]
                else:
                    bucket.append(entry)
                self._ring_count += 1

    # -- automatic width resizing -----------------------------------------
    def _auto_resize(self, now: float) -> None:
        # One-shot width targeting from the measured frontier density:
        # the mean inter-event gap over the last _CHECK_POPS dequeues
        # is elapsed / pops, so width = TARGET_OCC * gap lands on the
        # occupancy target in a single rescale.  An elapsed of zero
        # (e.g. the t=0 startup burst of process-initialize events)
        # carries no density signal and is skipped — which also resets
        # the window so the burst never pollutes a later estimate.
        elapsed = now - self._check_time
        self._check_time = now
        if elapsed <= 0.0:
            return
        ideal = self._TARGET_OCC * elapsed / self._CHECK_POPS
        ratio = ideal / self._width
        if ratio < 1.0 / self._SHRINK_RATIO:
            self._rescale(ideal)
        elif ratio > self._GROW_RATIO and (
            len(self._far) * 4 > len(self)
            or self._scanned > 2 * self._CHECK_POPS
        ):
            # Growing only pays when the narrow width causes actual
            # pressure: due events parked in the far heap, or empty-slot
            # scans exceeding ~2 slots per pop.  A quiet drain tail with
            # falling density never rebuilds.
            self._rescale(ideal)
        self._scanned = 0

    def _rescale(self, new_width: float) -> None:
        new_width = min(max(new_width, self.min_width), self.max_width)
        if new_width == self._width:
            return
        entries = list(self._cur)
        entries.extend(self._over)
        for bucket in self._ring:
            if bucket is not None:
                entries.extend(bucket)
        entries.extend(self._far)
        self.resizes += 1
        self._width = new_width
        self._inv_width = 1.0 / new_width
        # Clear the retired lists in place before replacing them: the
        # run loop caches ``_cur``/``_over`` in locals, and emptying the
        # old objects guarantees a stale cached reference can only read
        # "empty" (routing it through ``_refill`` and a re-read), never
        # a duplicate entry.
        self._cur.clear()
        self._over.clear()
        self._far.clear()
        self._cur = []
        self._over = []
        self._far = []
        self._ring_count = 0
        if not entries:
            self._ring = [None] * (self._mask + 1)
            return
        tmin = entries[0][0]
        tmax = tmin
        for entry in entries:
            t = entry[0]
            if t < tmin:
                tmin = t
            elif t > tmax:
                tmax = t
        # Size the ring so one lap covers the whole pending span (with
        # slack for the frontier to keep advancing); beyond max_ring
        # the far heap absorbs the tail.
        span_slots = int((tmax - tmin) * self._inv_width) + 2
        ring = 8192
        target = min(span_slots * 2, self.max_ring)
        while ring < target:
            ring <<= 1
        self._ring = [None] * ring
        self._mask = ring - 1
        self._cur_idx = int(tmin * self._inv_width)
        self._check_time = tmin
        self._far_limit = self._cur_idx + ring
        # Redistribute in place (the push body inlined so the existing
        # entry tuples are reused instead of reallocated).
        inv = self._inv_width
        cur_idx = self._cur_idx
        limit = self._far_limit
        ring_list = self._ring
        mask = self._mask
        far = self._far
        cur = self._cur
        count = 0
        for entry in entries:
            idx = int(entry[0] * inv)
            if idx <= cur_idx:
                cur.append(entry)
            elif idx < limit:
                slot = idx & mask
                bucket = ring_list[slot]
                if bucket is None:
                    ring_list[slot] = [entry]
                else:
                    bucket.append(entry)
                count += 1
            else:
                heappush(far, entry)
        cur.sort(reverse=True)
        self._ring_count = count

    # -- diagnostics -------------------------------------------------------
    def stats(self) -> dict:
        """Occupancy snapshot (for tests and the kernel benchmark)."""
        return {
            "size": len(self),
            "width": self._width,
            "active": len(self._cur) + len(self._over),
            "ring_slots": self._mask + 1,
            "ring_buckets": sum(1 for b in self._ring if b is not None),
            "ring_entries": self._ring_count,
            "far": len(self._far),
            "resizes": self.resizes,
        }
