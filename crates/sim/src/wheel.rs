//! The calendar wheel: an O(1)-amortized future-event list with the exact
//! deterministic ordering of [`crate::queue::EventQueue`].
//!
//! Events are bucketed by time quantum (`bucket_width = 2^shift` ps) into a
//! power-of-two ring of buckets anchored at the current clock tick; events
//! beyond the ring horizon wait in a small overflow heap and migrate into
//! the ring as the clock advances. Within a bucket, every event is inserted
//! at its `(time, seq)` position — the same total order as the binary-heap
//! queue, where `seq` is the global insertion sequence number — so two
//! events at the same instant still fire in the order they were scheduled
//! and a run driven by the wheel is bit-identical to one driven by the
//! heap. Most events sort last and append; the rest take a binary search
//! and a shift. Insertion compares the full key, not the time alone: an
//! event migrating in from the overflow heap can carry a lower `seq` than
//! same-instant events scheduled straight into the ring after it.
//!
//! The anchoring invariant that makes the ring sound: every pending event's
//! timestamp is `>= now` (scheduling into the past panics, and the clock
//! only ever advances to the globally earliest pending event), so all ring
//! events live in the half-open tick window `[tick(now), tick(now) + N)`
//! and bucket index `tick & (N-1)` is injective over the live window.
//!
//! Why a wheel: the engine's event population is dominated by short
//! deadlines (hop crossings, body drains, start-up timers) that land within
//! a few microseconds of `now`. The wheel turns each schedule/pop into a
//! couple of array writes on the active bucket instead of an O(log n) sift
//! plus the hash-table bookkeeping the cancellable queue pays, and finding
//! the next occupied bucket is a bitmap scan
//! ([`ActiveSet::next_at_or_after`]).
//!
//! Cancellation is deliberately not supported — the network engine never
//! cancels — which is what makes the per-event constant factor so small.
//! Use [`EventQueue`](crate::queue::EventQueue) when you need [`cancel`]
//! semantics.
//!
//! [`cancel`]: crate::queue::EventQueue::cancel

use crate::active_set::ActiveSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event inside a bucket. The event payload sits in an
/// `Option` so it can be moved out at pop time without shifting the rest of
/// the bucket.
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

struct Bucket<E> {
    /// Unfired items, `items[cursor..]`, are always in `(time, seq)` order.
    items: Vec<Slot<E>>,
    /// Items before the cursor have already fired.
    cursor: usize,
}

impl<E> Bucket<E> {
    const fn new() -> Self {
        Bucket {
            items: Vec::new(),
            cursor: 0,
        }
    }
}

struct Overflow<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest (time, seq) at the top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking, O(1) amortized
/// schedule/pop, and no cancellation. Drop-in ordering-compatible with
/// [`EventQueue`](crate::queue::EventQueue): for any sequence of
/// `schedule`/`pop` calls both structures yield events in the identical
/// order.
pub struct CalendarWheel<E> {
    shift: u32,
    /// `num_buckets - 1`; bucket index of tick `t` is `t & mask`.
    mask: u64,
    buckets: Vec<Bucket<E>>,
    /// Bucket indices with unfired events — the wheel's active set.
    occupied: ActiveSet,
    /// Events beyond the ring horizon, migrated in as the clock advances.
    overflow: BinaryHeap<Overflow<E>>,
    now: SimTime,
    next_seq: u64,
    /// Unfired events currently in the ring (excludes overflow).
    ring_len: usize,
    /// Occupancy-bitmap scans performed by `pop`/`peek_time` (deterministic
    /// observability counter; does not affect event order).
    bucket_scans: u64,
}

impl<E> Default for CalendarWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarWheel<E> {
    /// A wheel with the default geometry: 512 buckets of 8.192 ns
    /// (2¹³ ps) — a ~4.2 µs horizon, sized so start-up latencies and body
    /// drains of the paper's constants land inside the ring.
    pub fn new() -> Self {
        Self::with_geometry(13, 512)
    }

    /// A wheel with `num_buckets` buckets (a power of two) of width
    /// `2^bucket_width_log2` picoseconds.
    ///
    /// # Panics
    /// Panics if `num_buckets` is not a power of two or the width exceeds
    /// the clock.
    pub fn with_geometry(bucket_width_log2: u32, num_buckets: usize) -> Self {
        assert!(
            num_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        assert!(bucket_width_log2 < 64, "bucket width overflows the clock");
        CalendarWheel {
            shift: bucket_width_log2,
            mask: num_buckets as u64 - 1,
            buckets: (0..num_buckets).map(|_| Bucket::new()).collect(),
            occupied: ActiveSet::new(num_buckets),
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            ring_len: 0,
            bucket_scans: 0,
        }
    }

    /// The current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether any events remain pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Number of events pushed so far (fired or pending); a deterministic
    /// progress measure, mirroring
    /// [`EventQueue::scheduled_total`](crate::queue::EventQueue::scheduled_total).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Occupancy-bitmap scans performed so far by [`CalendarWheel::pop`]
    /// and [`CalendarWheel::peek_time`]. Deterministic: a pure function of
    /// the schedule/pop/peek call sequence.
    pub fn bucket_scans(&self) -> u64 {
        self.bucket_scans
    }

    /// First tick beyond the ring window anchored at the current clock.
    #[inline]
    fn horizon(&self) -> u64 {
        (self.now.0 >> self.shift) + self.mask + 1
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.0 >> self.shift < self.horizon() {
            self.place(at, seq, event);
        } else {
            self.overflow.push(Overflow {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Put an event into its ring bucket (its tick must be inside the
    /// window `[tick(now), tick(now) + N)`) at its `(time, seq)` position
    /// among the unfired items.
    fn place(&mut self, at: SimTime, seq: u64, event: E) {
        let idx = ((at.0 >> self.shift) & self.mask) as usize;
        let bucket = &mut self.buckets[idx];
        let slot = Slot {
            time: at,
            seq,
            event: Some(event),
        };
        // A non-empty bucket's last item is unfired (a drained bucket is
        // cleared), so sorting after it means sorting after every item.
        match bucket.items.last() {
            Some(last) if (at, seq) < (last.time, last.seq) => {
                let tail = &bucket.items[bucket.cursor..];
                let pos = bucket.cursor + tail.partition_point(|s| (s.time, s.seq) < (at, seq));
                bucket.items.insert(pos, slot);
            }
            _ => bucket.items.push(slot),
        }
        self.ring_len += 1;
        self.occupied.insert(idx);
    }

    /// Move every overflow event whose tick now falls inside the ring
    /// window into the ring. Called before any scan, so the remaining
    /// overflow is strictly later than everything in the ring.
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.time.0 >> self.shift >= self.horizon() {
                break;
            }
            let o = self.overflow.pop().expect("peeked");
            self.place(o.time, o.seq, o.event);
        }
    }

    /// Index of the ring bucket holding the earliest unfired event, if the
    /// ring is non-empty. Ticks `[tick(now), tick(now)+N)` map monotonically
    /// onto indices `base..N` then `0..base`, so the earliest occupied
    /// bucket is the first occupancy bit at or after `base`, wrapping once.
    #[inline]
    fn earliest_bucket(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let base = ((self.now.0 >> self.shift) & self.mask) as usize;
        self.occupied
            .next_at_or_after(base)
            .or_else(|| self.occupied.next_at_or_after(0))
    }

    /// Remove and return the earliest pending event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.migrate_overflow();
        self.bucket_scans += 1;
        if let Some(idx) = self.earliest_bucket() {
            let bucket = &mut self.buckets[idx];
            let slot = &mut bucket.items[bucket.cursor];
            let (time, event) = (slot.time, slot.event.take().expect("unfired slot"));
            bucket.cursor += 1;
            self.ring_len -= 1;
            debug_assert!(time >= self.now, "wheel went backwards");
            self.now = time;
            if bucket.cursor == bucket.items.len() {
                bucket.items.clear();
                bucket.cursor = 0;
                self.occupied.remove(idx);
            }
            return Some((time, event));
        }
        // Ring empty: the next event (if any) leads the overflow heap.
        let o = self.overflow.pop()?;
        debug_assert!(o.time >= self.now, "wheel went backwards");
        self.now = o.time;
        Some((o.time, o.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.migrate_overflow();
        self.bucket_scans += 1;
        if let Some(idx) = self.earliest_bucket() {
            let bucket = &self.buckets[idx];
            return Some(bucket.items[bucket.cursor].time);
        }
        self.overflow.peek().map(|o| o.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarWheel::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = CalendarWheel::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = CalendarWheel::new();
        q.schedule(t(10), ());
        q.schedule(t(10), ());
        q.schedule(t(25), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(10));
        q.pop();
        assert_eq!(q.now(), t(25));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_into_past_panics() {
        let mut q = CalendarWheel::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Default geometry horizon is ~4.2e6 ps; stress multiple epochs.
        let mut q = CalendarWheel::new();
        q.schedule(t(30_000_000), "late");
        q.schedule(t(1_000), "early");
        q.schedule(t(8_000_000), "middle");
        assert_eq!(q.pop(), Some((t(1_000), "early")));
        // Schedule relative to now into a fresh epoch while draining.
        q.schedule(t(8_000_001), "middle2");
        assert_eq!(q.pop(), Some((t(8_000_000), "middle")));
        assert_eq!(q.pop(), Some((t(8_000_001), "middle2")));
        assert_eq!(q.pop(), Some((t(30_000_000), "late")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_bucket_disorder_is_ordered_on_insert() {
        // Two events in one bucket scheduled out of time order.
        let mut q = CalendarWheel::with_geometry(10, 64); // 1024 ps buckets
        q.schedule(t(900), "b");
        q.schedule(t(100), "a");
        q.schedule(t(901), "c");
        assert_eq!(q.pop(), Some((t(100), "a")));
        assert_eq!(q.pop(), Some((t(900), "b")));
        assert_eq!(q.pop(), Some((t(901), "c")));
    }

    #[test]
    fn overflow_migration_keeps_fifo_ties() {
        // "A" waits in the overflow heap; after the clock advances, "C" is
        // scheduled straight into the ring at the same instant. "A" migrates
        // in behind it with the lower seq and must still fire first.
        let mut q = CalendarWheel::with_geometry(4, 16); // horizon 256 ps
        let mut heap = EventQueue::new();
        for (at, ev) in [(300, "A"), (100, "B")] {
            q.schedule(t(at), ev);
            heap.schedule(t(at), ev);
        }
        assert_eq!(q.pop(), Some((t(100), "B")));
        assert_eq!(heap.pop(), Some((t(100), "B")));
        q.schedule(t(300), "C");
        heap.schedule(t(300), "C");
        assert_eq!(heap.pop(), Some((t(300), "A")));
        assert_eq!(q.pop(), Some((t(300), "A")));
        assert_eq!(q.pop(), Some((t(300), "C")));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = CalendarWheel::new();
        q.schedule(t(10), 1u32);
        let (now, _) = q.pop().unwrap();
        q.schedule(now + SimDuration::from_ps(5), 2u32);
        q.schedule(now + SimDuration::from_ps(1), 3u32);
        assert_eq!(q.pop(), Some((t(11), 3)));
        assert_eq!(q.pop(), Some((t(15), 2)));
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut q = CalendarWheel::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(500), "x");
        q.schedule(t(40), "y");
        assert_eq!(q.peek_time(), Some(t(40)));
        assert_eq!(q.peek_time(), Some(t(40)), "peek is idempotent");
        assert_eq!(q.pop(), Some((t(40), "y")));
        assert_eq!(q.peek_time(), Some(t(500)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_disturb_later_schedules() {
        // Regression: a peek at a far-future event must not shift the ring
        // anchor — a subsequent near-now schedule still pops first.
        let mut q = CalendarWheel::with_geometry(4, 16); // horizon 256 ps
        q.schedule(t(10_000), "far");
        assert_eq!(q.peek_time(), Some(t(10_000)));
        q.schedule(t(4), "near");
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop(), Some((t(4), "near")));
        assert_eq!(q.pop(), Some((t(10_000), "far")));
    }

    /// The contract the engine swap rests on: for an arbitrary interleaved
    /// schedule/pop workload, the wheel yields the exact event sequence of
    /// the reference heap queue.
    #[test]
    fn orders_identically_to_event_queue_on_random_workloads() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut heap = EventQueue::new();
            // Deliberately awkward geometry: tiny buckets force frequent
            // horizon crossings and overflow migration.
            let mut wheel = CalendarWheel::with_geometry(4, 16);
            let mut next_id = 0u64;
            for _round in 0..2_000 {
                // Burst of schedules at mixed offsets: same-instant ties,
                // in-bucket, near-future, far-future, and instants on a
                // coarse absolute grid, so an event scheduled after a pop
                // can tie one still waiting in the overflow heap.
                for _ in 0..(rng.index(4) + 1) {
                    let at = match rng.index(5) {
                        0 => heap.now(),
                        1 => heap.now() + SimDuration::from_ps(rng.next_u64() % 16),
                        2 => heap.now() + SimDuration::from_ps(rng.next_u64() % 1_000),
                        3 => heap.now() + SimDuration::from_ps(rng.next_u64() % 100_000),
                        _ => on_grid(heap.now(), rng.next_u64() % 1_000),
                    };
                    heap.schedule(at, next_id);
                    wheel.schedule(at, next_id);
                    next_id += 1;
                }
                for _ in 0..rng.index(4) {
                    let a = heap.pop();
                    let b = wheel.pop();
                    assert_eq!(a, b, "seed {seed}");
                    assert_eq!(heap.now(), wheel.now());
                }
                // Peek only now and then: a peek migrates the overflow,
                // which would hide a pop -> schedule -> pop tie.
                if rng.index(4) == 0 {
                    assert_eq!(heap.peek_time(), wheel.peek_time(), "seed {seed}");
                }
            }
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "seed {seed} (drain)");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// The first multiple of 64 ps at or after `now + off`: a coarse
    /// absolute grid on which events scheduled at different clocks tie.
    fn on_grid(now: SimTime, off: u64) -> SimTime {
        t((now.0 + off).div_ceil(64) * 64)
    }

    #[test]
    fn len_and_scheduled_total_track() {
        let mut q = CalendarWheel::new();
        assert_eq!(q.len(), 0);
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn horizon_boundary_is_exclusive() {
        // Geometry (4, 16): 16-ps buckets, ring window [tick(now),
        // tick(now)+16). At now=0 the last in-ring instant is 255; 256 is
        // the first tick past the horizon and must take the overflow path,
        // yet still pop in global order once the clock reaches its window.
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(255), "last-inside");
        q.schedule(t(256), "first-outside");
        q.schedule(t(0), "now-tick");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(0), "now-tick")));
        assert_eq!(q.pop(), Some((t(255), "last-inside")));
        assert_eq!(q.pop(), Some((t(256), "first-outside")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_at_the_current_instant_fires_next() {
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(100), 1);
        q.schedule(t(200), 2);
        assert_eq!(q.pop(), Some((t(100), 1)));
        // `at == now` is legal (only strictly-past schedules panic) and
        // fires before everything later, FIFO after already-fired peers.
        q.schedule(t(100), 3);
        assert_eq!(q.pop(), Some((t(100), 3)));
        assert_eq!(q.pop(), Some((t(200), 2)));
    }

    #[test]
    fn horizon_window_tracks_the_advancing_clock() {
        let mut q = CalendarWheel::with_geometry(4, 16);
        q.schedule(t(300), "a"); // overflow while now = 0
        assert_eq!(q.pop(), Some((t(300), "a")));
        // The window re-anchors at tick(300) = 18, so the horizon tick is
        // 34: instant 543 is the new last-inside, 544 the new first-outside.
        q.schedule(t(543), "in-ring");
        q.schedule(t(544), "overflow");
        q.schedule(t(300), "at-now");
        assert_eq!(q.pop(), Some((t(300), "at-now")));
        assert_eq!(q.pop(), Some((t(543), "in-ring")));
        assert_eq!(q.pop(), Some((t(544), "overflow")));
        assert_eq!(q.pop(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Property form of the engine-swap contract: under arbitrary
        /// schedule/pop/peek interleavings — offsets spanning same-instant
        /// ties, in-bucket, in-ring and past-horizon — the wheel's
        /// `(time, seq)` order, clock and peeks all match the reference heap
        /// queue. Peek is an op of its own, so `pop -> schedule -> pop` runs
        /// with no overflow migration in between occur.
        #[test]
        fn wheel_matches_heap_on_arbitrary_interleavings(
            ops in proptest::collection::vec((0u8..7, 0u64..2_000), 1usize..200),
        ) {
            use proptest::prelude::prop_assert_eq;
            // Tiny geometry: a 256-ps horizon forces constant overflow
            // migration and window wraps.
            let mut heap = EventQueue::new();
            let mut wheel = CalendarWheel::with_geometry(4, 16);
            let mut next_id = 0u64;
            for (kind, off) in ops {
                match kind {
                    // Schedule (twice as likely as pop, so queues grow),
                    // half the time on a grid where ties across clocks are
                    // common.
                    0..=3 => {
                        let at = if kind < 2 {
                            heap.now() + SimDuration::from_ps(off)
                        } else {
                            on_grid(heap.now(), off)
                        };
                        heap.schedule(at, next_id);
                        wheel.schedule(at, next_id);
                        next_id += 1;
                    }
                    4 | 5 => {
                        prop_assert_eq!(heap.pop(), wheel.pop());
                        prop_assert_eq!(heap.now(), wheel.now());
                    }
                    _ => prop_assert_eq!(heap.peek_time(), wheel.peek_time()),
                }
            }
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// The engine's regime: default geometry, every offset inside one
        /// bucket width (8192 ps), bursts of schedules between pops, so
        /// buckets stay crowded and most schedules land mid-bucket.
        #[test]
        fn dense_buckets_match_heap(
            rounds in proptest::collection::vec(
                (proptest::collection::vec(0u64..8_192, 0usize..12), 0usize..6),
                1usize..120,
            ),
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut heap = EventQueue::new();
            let mut wheel = CalendarWheel::new();
            let mut next_id = 0u64;
            for (burst, pops) in rounds {
                for off in burst {
                    // A quarter of the offsets collapse to a few ps, so
                    // same-instant ties are common too.
                    let off = if off % 4 == 0 { off % 8 } else { off };
                    let at = heap.now() + SimDuration::from_ps(off);
                    heap.schedule(at, next_id);
                    wheel.schedule(at, next_id);
                    next_id += 1;
                }
                for _ in 0..pops {
                    prop_assert_eq!(heap.pop(), wheel.pop());
                }
            }
            loop {
                let (a, b) = (heap.pop(), wheel.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
