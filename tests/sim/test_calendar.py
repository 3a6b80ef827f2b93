"""Property and unit tests for the calendar-queue scheduler.

The load-bearing invariant: for any push/pop interleaving, pop order is
identical to a global ``(time, priority, eid)`` heap — ascending time,
ties broken by priority then insertion order — regardless of bucket
width, ring size, resize activity, or which internal partition (active
bucket, overflow heap, ring, far heap) each entry traversed.
"""

import heapq
import random

import pytest

from repro.sim import CalendarQueue


def _drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


def _reference_order(entries):
    return sorted(entries, key=lambda e: (e[0], e[1], e[2]))


class TestOrdering:
    def test_empty(self):
        q = CalendarQueue()
        assert q.pop() is None
        assert len(q) == 0
        assert q.peek() == float("inf")

    def test_single(self):
        q = CalendarQueue()
        q.push(3.5, 1, 0, "a")
        assert q.peek() == 3.5
        assert q.pop() == (3.5, 1, 0, "a")
        assert q.pop() is None

    def test_time_then_priority_then_eid(self):
        q = CalendarQueue()
        q.push(1.0, 1, 0, "late-normal")
        q.push(1.0, 0, 1, "late-urgent")
        q.push(0.5, 1, 2, "early")
        q.push(1.0, 1, 3, "late-normal-2")
        assert [e[3] for e in _drain(q)] == [
            "early", "late-urgent", "late-normal", "late-normal-2"
        ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("width", [1e-4, 0.5, 100.0])
    def test_random_schedule_matches_heap(self, seed, width):
        rng = random.Random(seed)
        q = CalendarQueue(width=width, ring=8192)
        entries = []
        for eid in range(2000):
            # Mix of clustered near-term, spread, and far-future times.
            roll = rng.random()
            if roll < 0.5:
                t = rng.uniform(0.0, 10.0)
            elif roll < 0.9:
                t = rng.uniform(0.0, 1000.0)
            else:
                t = rng.uniform(0.0, 1e7)  # far beyond any ring window
            entry = (t, rng.choice([0, 1]), eid, f"e{eid}")
            entries.append(entry)
            q.push(*entry)
        assert len(q) == len(entries)
        assert _drain(q) == _reference_order(entries)

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_push_pop_matches_heap(self, seed):
        """Advancing-frontier interleaving, as the kernel drives it."""
        rng = random.Random(1000 + seed)
        q = CalendarQueue(width=0.25)
        heap = []
        popped = []
        eid = 0
        now = 0.0
        for _ in range(300):
            for _ in range(rng.randrange(1, 12)):
                # Occasionally schedule exactly at the frontier
                # (delay-0: the overflow-heap path), else ahead of it.
                delay = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 50.0)
                entry = (now + delay, rng.choice([0, 1]), eid, eid)
                heapq.heappush(heap, entry)
                q.push(*entry)
                eid += 1
            for _ in range(rng.randrange(0, 10)):
                expected = heapq.heappop(heap) if heap else None
                got = q.pop()
                assert got == expected
                if got is None:
                    break
                now = got[0]
                popped.append(got)
        assert _drain(q) == [heapq.heappop(heap) for _ in range(len(heap))]

    def test_same_time_burst_pops_in_insertion_order(self):
        """Models the t=0 process-initialize burst (overflow heap)."""
        q = CalendarQueue()
        for eid in range(5000):
            q.push(0.0, 0, eid, eid)
        assert [e[3] for e in _drain(q)] == list(range(5000))

    def test_push_behind_frontier_pops_immediately(self):
        q = CalendarQueue(width=0.5)
        q.push(100.0, 1, 0, "a")
        assert q.pop() == (100.0, 1, 0, "a")
        # Frontier has advanced to t=100; a push before it must still
        # surface before anything later.
        q.push(200.0, 1, 1, "c")
        q.push(1.0, 1, 2, "b")
        assert [e[3] for e in _drain(q)] == ["b", "c"]


class TestResizeMachinery:
    def test_auto_resize_changes_width_without_reordering(self):
        # Dense schedule with a width far too coarse: after enough
        # pops the one-shot density targeting must shrink the width.
        q = CalendarQueue(width=100.0)
        entries = []
        rng = random.Random(42)
        for eid in range(20000):
            entry = (rng.uniform(0.0, 20.0), 1, eid, eid)
            entries.append(entry)
            q.push(*entry)
        assert _drain(q) == _reference_order(entries)
        assert q.resizes >= 1
        assert q.width < 100.0

    def test_grow_skipped_without_pressure(self):
        # Density drifted far above the grow hysteresis (~192x the
        # width target) but with no actual pressure: every entry is
        # inside the ring window (far heap empty) and the frontier
        # walks only ~1 empty slot per pop.  Growing would be a pure
        # rebuild with no benefit, so the resizer must not fire.
        q = CalendarQueue(width=0.1, ring=1 << 16)
        eid = 0
        t = 0.0
        entries = []
        rng = random.Random(7)
        for _ in range(3 * q._CHECK_POPS):
            t += rng.uniform(0.05, 0.15)  # ~one entry per slot
            entries.append((t, 1, eid, eid))
            eid += 1
        for entry in entries:
            q.push(*entry)
        assert _drain(q) == entries
        assert q.resizes == 0

    def test_far_heap_round_trip(self):
        # Entries beyond the window park in the far heap and must
        # reintegrate exactly when the frontier reaches them.
        q = CalendarQueue(width=0.01, ring=8192)  # window = 81.92
        entries = []
        rng = random.Random(3)
        for eid in range(4000):
            entry = (rng.uniform(0.0, 5000.0), 1, eid, eid)
            entries.append(entry)
            q.push(*entry)
        assert q.stats()["far"] > 0
        assert _drain(q) == _reference_order(entries)

    @staticmethod
    def _dense_head_sparse_tail(q, pops, seed=11):
        """512 self-re-arming entries 0.01-0.2 ahead of the frontier;
        every other pop also arms a watchdog-like timer 50 ms-30 s out.
        Checks every pop against a reference heap; returns pop times."""
        rng = random.Random(seed)
        heap = []
        eid = 0

        def push(t, kind):
            nonlocal eid
            entry = (t, 1, eid, kind)
            eid += 1
            heapq.heappush(heap, entry)
            q.push(*entry)

        for _ in range(512):
            push(rng.uniform(0.01, 0.2), "head")
        times = []
        for step in range(pops):
            got = q.pop()
            assert got == heapq.heappop(heap)
            now = got[0]
            times.append(now)
            if got[3] == "head":
                push(now + rng.uniform(0.01, 0.2), "head")
            if step & 1:
                push(now + rng.uniform(50.0, 30_000.0), "tail")
        return times

    @staticmethod
    def _target_ratio(q, times):
        """Density target of the last check window over the width."""
        window = q._CHECK_POPS
        gap = (times[-1] - times[-1 - window]) / window
        return q._TARGET_OCC * gap / q.width

    def test_ring_follows_population_not_span(self):
        # The tail stretches the pending span to ~30 s; sizing the lap
        # by span would allocate ~10^6 slots for ~3*10^4 entries.  The
        # tail then lives in the far heap without pulling the width
        # away from its density target.
        q = CalendarQueue()
        times = self._dense_head_sparse_tail(q, 60_000)
        stats = q.stats()
        assert stats["ring_slots"] <= max(8192, 4 * len(q))
        assert stats["far"] > 0
        assert 1 <= q.resizes <= 3
        ratio = self._target_ratio(q, times)
        assert 1.0 / q._SHRINK_RATIO <= ratio <= q._GROW_RATIO

    def test_sparse_tail_in_far_heap_does_not_grow(self):
        # Start ~40x narrower than the density target: inside the band
        # where a narrow width costs a fraction of a scanned slot per
        # pop.  The tail parks in the far heap and is never due, so
        # nothing is stuck there and no grow rebuild may fire.
        width = 0.04 / 40  # head density: ~4900 pops per sim-ms
        q = CalendarQueue(width=width)
        times = self._dense_head_sparse_tail(q, 60_000)
        assert q.stats()["far"] * 2 > len(q)
        assert q.resizes == 0
        assert q.width == width
        # Cross-check the premise: the window's density target sits
        # above the grow hysteresis, so only the pressure gate held.
        assert self._target_ratio(q, times) > q._GROW_RATIO

    def test_due_entries_stuck_in_far_heap_grow_the_width(self):
        # The contrast case: a lap of 8 narrow slots cannot hold the
        # dense head, so due entries stream through the far heap.
        # That pressure must grow the width to the density target.
        q = CalendarQueue(width=0.04 / 40, ring=8)
        times = self._dense_head_sparse_tail(q, 60_000)
        assert 1 <= q.resizes <= 3
        ratio = self._target_ratio(q, times)
        assert 1.0 / q._SHRINK_RATIO <= ratio <= q._GROW_RATIO
        assert q.stats()["ring_slots"] <= max(8192, 4 * len(q))

    def test_len_and_stats_track_partitions(self):
        q = CalendarQueue(width=1.0, ring=8192)
        q.push(0.0, 1, 0, "over")      # current bucket
        q.push(10.0, 1, 1, "ring")     # ring window
        q.push(1e9, 1, 2, "far")       # far heap
        assert len(q) == 3
        stats = q.stats()
        assert stats["size"] == 3
        assert stats["far"] == 1
        assert stats["ring_entries"] == 1
        for _ in range(3):
            q.pop()
        assert len(q) == 0
        assert q.stats()["size"] == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CalendarQueue(width=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(ring=1000)  # not a power of two


class TestRemoval:
    """``remove`` takes one pending entry out of whichever partition
    holds it; every other entry pops exactly as before."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("width", [1e-4, 0.5, 100.0])
    def test_random_schedule_with_cancels_matches_heap(self, seed, width):
        # Advancing frontier with near, spread and far-future pushes;
        # a random share of the pending entries is removed between
        # pops.  The reference heap skips the removed eids.
        rng = random.Random(2000 + seed)
        q = CalendarQueue(width=width, ring=8192)
        heap = []
        pending = {}
        removed = set()
        eid = 0
        now = 0.0
        for _ in range(200):
            for _ in range(rng.randrange(1, 16)):
                roll = rng.random()
                if roll < 0.2:
                    delay = 0.0
                elif roll < 0.7:
                    delay = rng.uniform(0.0, 10.0)
                elif roll < 0.95:
                    delay = rng.uniform(0.0, 1000.0)
                else:
                    delay = rng.uniform(0.0, 1e7)
                entry = (now + delay, rng.choice([0, 1]), eid, eid)
                heapq.heappush(heap, entry)
                q.push(*entry)
                pending[eid] = entry
                eid += 1
            for victim in rng.sample(sorted(pending), len(pending) // 4):
                q.remove(*pending.pop(victim))
                removed.add(victim)
            assert len(q) == len(pending)
            for _ in range(rng.randrange(0, 12)):
                while heap and heap[0][2] in removed:
                    heapq.heappop(heap)
                expected = heapq.heappop(heap) if heap else None
                got = q.pop()
                assert got == expected
                if got is None:
                    break
                del pending[got[2]]
                now = got[0]
        rest = [e for e in sorted(heap) if e[2] not in removed]
        assert _drain(q) == rest

    def test_ring_bucket(self):
        q = CalendarQueue(width=1.0, ring=8192)
        q.push(10.0, 1, 0, "a")
        q.push(10.5, 1, 1, "b")      # same bucket
        q.push(20.0, 1, 2, "c")      # a bucket of its own
        q.remove(10.0, 1, 0, "a")
        q.remove(20.0, 1, 2, "c")
        stats = q.stats()
        assert stats["ring_entries"] == 1 and len(q) == 1
        assert stats["ring_buckets"] == 1  # the emptied slot is freed
        assert _drain(q) == [(10.5, 1, 1, "b")]

    def test_active_bucket(self):
        q = CalendarQueue(width=1.0, ring=8192)
        for eid, t in enumerate([5.0, 5.1, 5.2, 5.3]):
            q.push(t, 1, eid, eid)
        assert q.pop() == (5.0, 1, 0, 0)  # loads the bucket into _cur
        q.remove(5.2, 1, 2, 2)
        assert len(q._cur) == 2 and len(q) == 2
        assert _drain(q) == [(5.1, 1, 1, 1), (5.3, 1, 3, 3)]

    def test_overflow_heap(self):
        q = CalendarQueue(width=1.0, ring=8192)
        entries = [(0.1 * i, 1, i, i) for i in (5, 3, 8, 1, 7, 2, 6, 4)]
        for entry in entries:
            q.push(*entry)  # at or before the current bucket
        assert len(q._over) == len(entries)
        q.remove(*min(entries))          # the root
        q.remove(*max(entries))          # a leaf
        q.remove(*sorted(entries)[3])    # an interior node
        kept = [e for e in entries if e[2] not in (1, 8, 4)]
        assert _drain(q) == _reference_order(kept)

    def _far_queue(self, count):
        q = CalendarQueue(width=1.0, ring=8192)
        entries = [(1e6 + i, 1, i, i) for i in range(count)]
        for entry in entries:
            q.push(*entry)
        assert q.stats()["far"] == count
        return q, entries

    def test_far_tombstone_is_dropped_on_pull(self):
        q, entries = self._far_queue(10)
        q.remove(*entries[0])
        q.remove(*entries[4])
        assert len(q) == 8
        assert q.stats()["far"] == 8 and q.stats()["far_tombstones"] == 2
        assert q.peek() == 1e6 + 1
        assert q.stats()["far_tombstones"] == 0  # pulled into the ring
        kept = [e for e in entries if e[2] not in (0, 4)]
        assert _drain(q) == kept

    def test_far_tombstone_is_dropped_on_rescale(self):
        q, entries = self._far_queue(10)
        q.remove(*entries[3])
        q._rescale(10.0)
        assert q.stats()["far_tombstones"] == 0
        assert len(q) == 9
        assert _drain(q) == entries[:3] + entries[4:]

    def test_far_heap_is_compacted_once_half_is_tombstones(self):
        q, entries = self._far_queue(10)
        for entry in entries[:5]:
            q.remove(*entry)
        assert q.stats()["far_tombstones"] == 5  # exactly half: kept
        assert len(q._far) == 10
        q.remove(*entries[7])
        assert q.stats()["far_tombstones"] == 0
        assert len(q._far) == 4 and len(q) == 4
        assert _drain(q) == [entries[5], entries[6], entries[8], entries[9]]

    def test_only_tombstones_left_reads_empty(self):
        # A live far entry and a tombstone a lap behind it: pulling the
        # live one leaves the far heap holding only the tombstone.
        q = CalendarQueue(width=1.0, ring=8192)
        q.push(1e6, 1, 0, "live")
        q.push(2e6, 1, 1, "dead")
        q.remove(2e6, 1, 1, "dead")
        assert q.stats()["far_tombstones"] == 1 and len(q) == 1
        assert q.pop() == (1e6, 1, 0, "live")
        assert len(q) == 0 and len(q._far) == 1
        assert q.peek() == float("inf")
        assert q.pop() is None
        assert q.stats()["far_tombstones"] == 0
