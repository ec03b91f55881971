//! Stable event priority queue.
//!
//! A plain priority queue is not enough for reproducible simulation: ties in
//! timestamp would pop in arbitrary order. [`EventQueue`] pairs every event
//! with a monotone sequence number so equal-time events pop FIFO — the
//! insertion order is part of the simulation's definition.
//!
//! ## Calendar layout
//!
//! [`EventQueue`] is a two-level calendar (bucket) queue, replacing the
//! original `BinaryHeap` (kept as [`HeapEventQueue`], the reference
//! implementation the equivalence proptests compare against). Time is quantised into ticks of `TICK_S` (¼ s); a ring of
//! `BUCKETS` (1024) buckets covers the window `[cursor, cursor + BUCKETS)`
//! ticks, one tick per bucket. Operations:
//!
//! * **push** appends to its tick's bucket: O(1) for the common
//!   "schedule ahead of now" case. Ticks beyond the window go to a sorted
//!   overflow map; pushes behind the cursor (allowed by the public API,
//!   though [`crate::Engine`] never emits them) go to a small sorted `past`
//!   vector.
//! * **pop** drains the cursor bucket back-to-front. The bucket is sorted
//!   descending by `(time, seq)` once, when the cursor reaches it;
//!   re-entrant pushes landing in the cursor tick binary-insert to keep it
//!   sorted. When the bucket runs dry the cursor jumps straight to the next
//!   non-empty bucket via a two-level occupancy bitmap (no linear scan over
//!   empty buckets), falling back to the overflow map's first key.
//!
//! With sub-tick event spacing the per-bucket sort touches only a handful
//! of entries, so both operations are effectively O(1) — and, unlike the
//! heap, pop order never depends on heap shape, only on `(time, seq)`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Number of ring buckets (power of two; window = `BUCKETS * TICK_S` = 256 s).
const BUCKETS: usize = 1024;

/// Tick width in seconds (1/4 s). The width trades per-bucket sort size
/// against ring window: sub-tick ordering is restored by the one-shot
/// descending sort when the cursor reaches a bucket, so a coarser tick only
/// costs sort work on dense buckets — while a wider window keeps the paper's
/// adaptive sleep intervals (seconds to minutes) out of the overflow
/// `BTreeMap`, whose per-push allocation is the expensive path. 1/4 s makes
/// the window 256 s, which covers nearly every in-run wake/arrival push.
const TICK_S: f64 = 1.0 / 4.0;

/// Inverse tick width; `tick = floor(seconds * TICKS_PER_S)` is exact f64
/// math, so the mapping is bit-stable across platforms.
const TICKS_PER_S: f64 = 1.0 / TICK_S;

/// Bitmap words covering the ring (64 buckets per word).
const WORDS: usize = BUCKETS / 64;

#[inline]
fn tick_of(time: SimTime) -> u64 {
    // Times are non-negative and finite here (push rejects NEVER).
    (time.as_secs() * TICKS_PER_S) as u64
}

/// An event scheduled at a time, carrying its tie-break sequence number.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

/// Two-level occupancy bitmap over the ring: one bit per bucket, plus a
/// summary word with one bit per 64-bucket group, giving O(1) next-set-bit.
#[derive(Debug)]
struct Occupancy {
    words: [u64; WORDS],
    summary: u64,
}

impl Occupancy {
    fn new() -> Self {
        Occupancy {
            words: [0; WORDS],
            summary: 0,
        }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
        self.summary |= 1u64 << (idx / 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        let w = idx / 64;
        self.words[w] &= !(1u64 << (idx % 64));
        if self.words[w] == 0 {
            self.summary &= !(1u64 << w);
        }
    }

    fn clear_all(&mut self) {
        self.words = [0; WORDS];
        self.summary = 0;
    }

    /// First set bucket index in `[from, BUCKETS)`, if any.
    fn next_set_from(&self, from: usize) -> Option<usize> {
        if from >= BUCKETS {
            return None;
        }
        let (w0, b0) = (from / 64, from % 64);
        let masked = self.words[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        if w0 + 1 >= WORDS {
            return None;
        }
        let higher = self.summary & (!0u64 << (w0 + 1));
        if higher == 0 {
            return None;
        }
        let w = higher.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// Min-priority queue of `(SimTime, E)` with FIFO tie-breaking.
///
/// Two-level calendar queue; see the module docs for the layout. Pop order
/// is exactly ascending `(time, insertion seq)` — byte-identical to the
/// former `BinaryHeap` implementation, as pinned by the equivalence
/// proptests in `tests/prop.rs`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of buckets; bucket `i` holds tick `t` iff `t % BUCKETS == i` and
    /// `cursor <= t < cursor + BUCKETS`.
    ring: Vec<Vec<Entry<E>>>,
    occupied: Occupancy,
    /// Tick the cursor bucket holds. Everything pending in the ring is at a
    /// tick `>= cursor` (earlier pushes go to `past`).
    cursor: u64,
    /// Whether the cursor bucket has been sorted (descending) for draining.
    cursor_sorted: bool,
    /// Ticks at or beyond `cursor + BUCKETS` (or clustered above an earlier
    /// overflow key), keyed by tick, each FIFO in push order.
    overflow: BTreeMap<u64, Vec<Entry<E>>>,
    /// Cached smallest overflow key (`u64::MAX` when the map is empty), so
    /// the push fast path never probes the map.
    overflow_min: u64,
    /// Entries pushed behind the cursor, sorted descending by `(time, seq)`
    /// so the earliest is at the back.
    past: Vec<Entry<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: Occupancy::new(),
            cursor: 0,
            cursor_sorted: true,
            overflow: BTreeMap::new(),
            overflow_min: u64::MAX,
            past: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Create an empty queue sized for roughly `cap` pending events.
    ///
    /// The ring itself is fixed-size; `cap` only pre-sizes the expected
    /// per-bucket capacity, so this mostly exists for API compatibility.
    pub fn with_capacity(_cap: usize) -> Self {
        Self::new()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is [`SimTime::NEVER`] — scheduling "never" is always
    /// a logic error and would otherwise silently leak queue memory.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "cannot schedule an event at NEVER");
        let seq = self.next_seq;
        self.next_seq += 1;
        let tick = tick_of(time);
        if self.len == 0 {
            // Empty queue: re-anchor the window at this tick so a fresh
            // queue (or one drained and reused) never round-trips through
            // `past`/`overflow`.
            self.cursor = tick;
            self.cursor_sorted = true;
            self.overflow.clear();
            self.overflow_min = u64::MAX;
        }
        self.len += 1;
        let entry = Entry { time, seq, event };
        if tick < self.cursor {
            let at = self.past.partition_point(|e| (e.time, e.seq) > (time, seq));
            self.past.insert(at, entry);
        } else if tick >= self.cursor + BUCKETS as u64 || tick >= self.overflow_min {
            // Beyond the ring window, or at/above an existing overflow tick
            // (each tick's entries must live in exactly one place so seq
            // order within a tick is preserved).
            self.overflow.entry(tick).or_default().push(entry);
            self.overflow_min = self.overflow_min.min(tick);
        } else {
            let idx = (tick % BUCKETS as u64) as usize;
            let bucket = &mut self.ring[idx];
            if tick == self.cursor && self.cursor_sorted && !bucket.is_empty() {
                // Re-entrant push into the tick being drained: keep the
                // bucket sorted descending so pop-from-back stays correct.
                let at = bucket.partition_point(|e| (e.time, e.seq) > (time, seq));
                bucket.insert(at, entry);
            } else {
                if bucket.is_empty() {
                    self.occupied.set(idx);
                }
                if tick == self.cursor {
                    self.cursor_sorted = false;
                }
                bucket.push(entry);
            }
        }
    }

    /// Advance internal state so the next event (if any) is ready at either
    /// the back of `past` or the back of the sorted cursor bucket.
    fn settle(&mut self) {
        if self.len == 0 || !self.past.is_empty() {
            return;
        }
        loop {
            let idx = (self.cursor % BUCKETS as u64) as usize;
            if !self.ring[idx].is_empty() {
                if !self.cursor_sorted {
                    if self.ring[idx].len() > 1 {
                        self.ring[idx].sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                    }
                    self.cursor_sorted = true;
                }
                return;
            }
            // Cursor bucket dry: jump to the next occupied bucket. Ring
            // indices for ticks (cursor, cursor + BUCKETS) wrap once, so
            // check [idx+1, BUCKETS) then [0, idx].
            let next_idx = self
                .occupied
                .next_set_from(idx + 1)
                .or_else(|| self.occupied.next_set_from(0));
            match next_idx {
                Some(i) => {
                    // Map the ring index back to its absolute tick.
                    let delta = (i + BUCKETS - idx) % BUCKETS;
                    self.cursor += delta as u64;
                    self.cursor_sorted = false;
                }
                None => {
                    // Ring fully empty: jump to the overflow's first tick
                    // and migrate every tick now inside the new window.
                    let (&first, _) = self
                        .overflow
                        .first_key_value()
                        .expect("len > 0 with empty ring and past implies overflow");
                    self.cursor = first;
                    self.cursor_sorted = false;
                    let window_end = first + BUCKETS as u64;
                    while let Some((&t, _)) = self.overflow.first_key_value() {
                        if t >= window_end {
                            break;
                        }
                        let entries = self.overflow.remove(&t).expect("checked key");
                        let i = (t % BUCKETS as u64) as usize;
                        debug_assert!(self.ring[i].is_empty());
                        self.occupied.set(i);
                        self.ring[i] = entries;
                    }
                    self.overflow_min = self
                        .overflow
                        .first_key_value()
                        .map_or(u64::MAX, |(&k, _)| k);
                }
            }
        }
    }

    /// Timestamp of the next event, if any.
    ///
    /// Takes `&mut self` because the calendar may advance its cursor to
    /// find the next occupied bucket (the answer is unchanged by the call).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.past.last() {
            return Some(e.time);
        }
        self.settle();
        let idx = (self.cursor % BUCKETS as u64) as usize;
        self.ring[idx].last().map(|e| e.time)
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::NEVER)
    }

    /// Pop the earliest event iff its timestamp is `<= horizon`.
    ///
    /// Returns `None` both when the queue is empty and when the next event
    /// is strictly after `horizon` (check [`EventQueue::is_empty`] to tell
    /// the cases apart). This is the engine's hot-loop primitive: a
    /// `peek_time` + `pop` pair would settle the calendar cursor twice per
    /// event; this settles once.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.past.last() {
            if e.time > horizon {
                return None;
            }
            let e = self.past.pop().expect("checked non-empty");
            self.len -= 1;
            return Some((e.time, e.event));
        }
        self.settle();
        let idx = (self.cursor % BUCKETS as u64) as usize;
        let bucket = &mut self.ring[idx];
        if bucket.last().expect("settle found a non-empty bucket").time > horizon {
            return None;
        }
        let e = bucket.pop().expect("checked non-empty");
        if bucket.is_empty() {
            self.occupied.clear(idx);
        }
        self.len -= 1;
        Some((e.time, e.event))
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.ring {
            b.clear();
        }
        self.occupied.clear_all();
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.past.clear();
        self.cursor_sorted = true;
        self.len = 0;
    }

    /// Total number of events ever pushed (monotone; used for stats).
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }
}

// ---------------------------------------------------------------------------
// Reference implementation
// ---------------------------------------------------------------------------

/// An event scheduled at a time, carrying its tie-break sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap`-backed stable queue, kept as the reference
/// implementation: the calendar [`EventQueue`] must pop in exactly this
/// order. Nothing in the simulator uses it: it exists only as the oracle
/// of the equivalence proptests (`tests/prop.rs`).
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `time` (panics on NEVER).
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "cannot schedule an event at NEVER");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Remove all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Total number of events ever pushed (monotone; used for stats).
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "t1-first");
        q.push(SimTime::from_secs(2.0), "t2-first");
        q.push(SimTime::from_secs(1.0), "t1-second");
        q.push(SimTime::from_secs(2.0), "t2-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["t1-first", "t1-second", "t2-first", "t2-second"]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(4.0), ());
        q.push(SimTime::from_secs(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2.0));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2, "total_pushed survives clear");
    }

    #[test]
    #[should_panic(expected = "NEVER")]
    fn rejects_never() {
        let mut q = EventQueue::new();
        q.push(SimTime::NEVER, ());
    }

    // --- calendar-specific edges ------------------------------------------

    #[test]
    fn sub_tick_ordering_within_one_bucket() {
        // Events closer together than one tick (1/64 s) share a bucket but
        // must still pop in exact time order, not push order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.010), "late");
        q.push(SimTime::from_secs(1.002), "early");
        q.push(SimTime::from_secs(1.005), "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        // 1/4 s ticks and 1024 buckets give a 256 s window; 1000 s ahead
        // must round-trip the overflow map and still pop in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(0.5), "near");
        q.push(SimTime::from_secs(1000.0), "far");
        q.push(SimTime::from_secs(500.0), "mid");
        q.push(SimTime::from_secs(1000.0), "far2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "mid", "far", "far2"]);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(5.0), "b");
        q.push(SimTime::from_secs(1000.0), "c"); // overflow tick
                                                 // Horizon between events: only "a" comes out.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(3.0)).map(|(_, e)| e),
            Some("a")
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(3.0)), None);
        assert!(!q.is_empty(), "None from a horizon is not None from empty");
        // Horizon exactly at the event time is inclusive.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(5.0)).map(|(_, e)| e),
            Some("b")
        );
        // Behind-cursor entries respect the horizon too.
        q.push(SimTime::from_secs(2.0), "late");
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1.0)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2.0)).map(|(_, e)| e),
            Some("late")
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::NEVER).map(|(_, e)| e),
            Some("c")
        );
        assert_eq!(q.pop_at_or_before(SimTime::NEVER), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_cursor_pops_first() {
        // The public API permits scheduling before an already-popped time
        // (the Engine forbids it, the queue must not lose the event).
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), "five");
        q.push(SimTime::from_secs(9.0), "nine");
        assert_eq!(q.pop().map(|(_, e)| e), Some("five"));
        q.push(SimTime::from_secs(1.0), "one");
        q.push(SimTime::from_secs(2.0), "two");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["one", "two", "nine"]);
    }

    #[test]
    fn reentrant_push_into_cursor_tick() {
        // Handler-style usage: while draining tick T, push more events into
        // T — both later (pops after) and FIFO ties at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        q.push(t, 0);
        q.push(t + 0.001, 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.push(t + 0.0005, 1); // same tick, between the two
        q.push(t + 0.001, 3); // FIFO tie with event 2
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn drain_and_reuse_reanchors_window() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(500.0), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // Re-anchor far behind the old cursor: must not go through `past`
        // or leave stale overflow state.
        q.push(SimTime::from_secs(1.0), "b");
        q.push(SimTime::from_secs(0.5), "c");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "b"]);
    }

    #[test]
    fn matches_heap_reference_on_dense_ties() {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Deterministic pseudo-random times with heavy tie density.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = SimTime::from_secs(((x >> 40) % 128) as f64 * 0.25);
            cal.push(t, i);
            heap.push(t, i);
            if x.is_multiple_of(3) {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
