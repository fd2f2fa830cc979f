//! A fixed-capacity lock-free slowlog ring.
//!
//! Batches whose end-to-end latency exceeds the server's
//! `--slowlog-threshold-us` land here with their full per-stage
//! breakdown (see [`crate::span`]); the `SLOWLOG [n]` wire verb reads
//! the most recent entries back out. Writers never block and never
//! allocate: a global ticket counter picks the slot, and each slot is
//! guarded by its own seqlock (odd = write in progress) that a writer
//! must *claim* — a compare-and-swap even → odd — before it stores
//! anything. Two writers a whole lap apart can reach one slot at once;
//! the one that loses the claim drops its entry (counted in
//! [`SlowRing::dropped`]) rather than wait on the batch path, so a slot
//! only ever holds one writer's fields — a reader that observes a slot
//! mid-write simply skips it.
//!
//! `SLOWLOG RESET` does not touch the slots at all: it advances a
//! floor ticket, and readers ignore entries older than the floor.
//! That makes reset a single store that is trivially safe against
//! racing inserts — an insert that straddles the reset either lands
//! before the floor (hidden) or after (kept), never half of each.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::span::{SpanContext, STAGE_COUNT};

/// One slow batch: identity, end-to-end total, and the per-stage
/// breakdown, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlowEntry {
    /// Service-wide batch sequence number.
    pub batch_id: u64,
    /// Requests in the batch.
    pub ops: u32,
    /// End-to-end nanoseconds (reader drain → response flushed).
    pub total_ns: u64,
    /// Per-stage nanoseconds, indexed by
    /// [`Stage as usize`](crate::span::Stage).
    pub stage_ns: [u64; STAGE_COUNT],
}

impl SlowEntry {
    /// Builds an entry from a finished span.
    pub fn from_span(span: &SpanContext) -> SlowEntry {
        SlowEntry {
            batch_id: span.batch_id(),
            ops: span.ops(),
            total_ns: span.total_ns(),
            stage_ns: span.stages(),
        }
    }

    /// Sum of the stage durations (compare against `total_ns`).
    pub fn stage_sum(&self) -> u64 {
        self.stage_ns.iter().sum()
    }
}

/// One seqlock-guarded slot: `seq` odd while a writer is copying the
/// payload in, even when stable. A reader rereads `seq` after copying
/// the payload out and discards the copy on any mismatch.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    /// The entry, flattened to atomics so concurrent access is
    /// race-free by construction; the seqlock gives the copy
    /// atomicity.
    batch_id: AtomicU64,
    ops: AtomicU64,
    total_ns: AtomicU64,
    stage_ns: [AtomicU64; STAGE_COUNT],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            batch_id: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            stage_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Copies `e` in, or returns `false` without touching the slot if
    /// another writer holds it (or takes it first).
    fn write(&self, e: &SlowEntry) -> bool {
        // Odd seq opens the write window, and only the writer whose
        // compare-and-swap made it odd may store: a bare load-then-store
        // would let two writers one lap apart interleave their fields
        // under a seq that reads even at both ends. The fence orders
        // the claim before the payload stores as observed by a reader's
        // Acquire.
        let open = self.seq.load(Ordering::Relaxed);
        if open % 2 == 1
            || self
                .seq
                .compare_exchange(
                    open,
                    open.wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
        {
            return false;
        }
        std::sync::atomic::fence(Ordering::Release);
        self.batch_id.store(e.batch_id, Ordering::Relaxed);
        self.ops.store(u64::from(e.ops), Ordering::Relaxed);
        self.total_ns.store(e.total_ns, Ordering::Relaxed);
        for (dst, &src) in self.stage_ns.iter().zip(e.stage_ns.iter()) {
            dst.store(src, Ordering::Relaxed);
        }
        // Even seq closes it; Release orders the payload before the
        // close as observed by the reader's first Acquire load.
        self.seq.store(open.wrapping_add(2), Ordering::Release);
        true
    }

    /// Copies the slot out, or `None` if a writer raced (torn).
    fn read(&self) -> Option<SlowEntry> {
        let before = self.seq.load(Ordering::Acquire);
        if before % 2 == 1 {
            return None;
        }
        let e = SlowEntry {
            batch_id: self.batch_id.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed) as u32,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            stage_ns: std::array::from_fn(|i| self.stage_ns[i].load(Ordering::Relaxed)),
        };
        std::sync::atomic::fence(Ordering::Acquire);
        let after = self.seq.load(Ordering::Relaxed);
        (after == before).then_some(e)
    }
}

/// The ring itself. Capacity is fixed at construction; the newest
/// `capacity` entries (since the last reset) are retained.
#[derive(Debug)]
pub struct SlowRing {
    slots: Box<[Slot]>,
    /// Tickets ever issued — `head % capacity` is the next slot.
    head: AtomicU64,
    /// Tickets below this are hidden (advanced by `reset`).
    floor: AtomicU64,
    /// Entries dropped because their slot was mid-write.
    dropped: AtomicU64,
}

impl SlowRing {
    /// Creates a ring retaining the newest `capacity` entries
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> SlowRing {
        let capacity = capacity.max(1);
        SlowRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries ever inserted (monotonic; not affected by reset).
    pub fn inserted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Entries lost to a writer a lap behind (or ahead) that held the
    /// same slot; counted in [`SlowRing::inserted`] too.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one slow batch. Wait-free: a ticket fetch-add plus a
    /// seqlock slot write, or — when a lapped writer is still in the
    /// slot — a drop.
    pub fn push(&self, e: &SlowEntry) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        if !self.slots[(ticket % self.slots.len() as u64) as usize].write(e) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hides every current entry. Racing inserts land wholly before
    /// or wholly after the new floor — never torn across it.
    pub fn reset(&self) {
        self.floor
            .fetch_max(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The newest `n` entries, newest first. Slots torn by a
    /// concurrent writer (or lapped mid-walk) are skipped, so the
    /// result is always a set of internally-consistent entries.
    pub fn recent(&self, n: usize) -> Vec<SlowEntry> {
        let head = self.head.load(Ordering::Relaxed);
        let floor = self.floor.load(Ordering::Relaxed);
        let oldest = floor.max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::new();
        let mut ticket = head;
        while ticket > oldest && out.len() < n {
            ticket -= 1;
            let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
            if let Some(e) = slot.read() {
                out.push(e);
            }
        }
        out
    }

    /// Entries currently visible (newest `capacity` minus any hidden
    /// by reset; racy snapshot like every other counter).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let floor = self.floor.load(Ordering::Relaxed);
        (head - floor.max(head.saturating_sub(self.slots.len() as u64))) as usize
    }

    /// Whether nothing is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(id: u64, fill: u64) -> SlowEntry {
        SlowEntry {
            batch_id: id,
            ops: fill as u32,
            total_ns: fill,
            stage_ns: [fill; STAGE_COUNT],
        }
    }

    /// Every field of `entry(id, fill)` encodes `fill`, so any mix of
    /// two writers' fields is detectable.
    fn is_consistent(e: &SlowEntry) -> bool {
        let fill = e.total_ns;
        u64::from(e.ops) == fill && e.stage_ns.iter().all(|&s| s == fill)
    }

    /// [`is_consistent`] for the tests that push `entry(fill, fill)`:
    /// the id belongs to the same writer as the rest.
    fn is_one_writers(e: &SlowEntry) -> bool {
        is_consistent(e) && e.batch_id == e.total_ns
    }

    #[test]
    fn push_and_recent_newest_first() {
        let ring = SlowRing::new(4);
        assert!(ring.is_empty());
        for i in 0..3 {
            ring.push(&entry(i, i + 100));
        }
        assert_eq!(ring.len(), 3);
        let got = ring.recent(10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].batch_id, 2, "newest first");
        assert_eq!(got[2].batch_id, 0);
        assert_eq!(ring.recent(1).len(), 1);
    }

    #[test]
    fn wrap_retains_only_the_newest_capacity_entries() {
        let ring = SlowRing::new(4);
        for i in 0..10 {
            ring.push(&entry(i, i));
        }
        assert_eq!(ring.inserted(), 10);
        assert_eq!(ring.len(), 4);
        let ids: Vec<u64> = ring.recent(10).iter().map(|e| e.batch_id).collect();
        assert_eq!(ids, [9, 8, 7, 6]);
    }

    #[test]
    fn reset_hides_current_entries_but_keeps_inserted() {
        let ring = SlowRing::new(4);
        ring.push(&entry(1, 1));
        ring.push(&entry(2, 2));
        ring.reset();
        assert_eq!(ring.len(), 0);
        assert!(ring.recent(10).is_empty());
        assert_eq!(ring.inserted(), 2);
        ring.push(&entry(3, 3));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.recent(10)[0].batch_id, 3);
    }

    #[test]
    fn concurrent_writers_wrap_without_tearing() {
        // Satellite: a small ring lapped hard by several writers must
        // never hand a reader a mixed-up entry. Each writer stamps
        // every field with the same fill value; the reader thread
        // polls `recent` throughout and checks self-consistency.
        let ring = Arc::new(SlowRing::new(8));
        let writers = 4;
        let per_writer = 2_000u64;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for e in ring.recent(8) {
                        assert!(is_one_writers(&e), "torn entry: {e:?}");
                        seen += 1;
                    }
                }
                seen
            })
        };
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        let fill = w as u64 * per_writer + i;
                        ring.push(&entry(fill, fill));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let seen = reader.join().unwrap();
        assert_eq!(ring.inserted(), writers as u64 * per_writer);
        assert_eq!(ring.len(), 8);
        // Quiescent now: every retained entry must read consistent.
        let finals = ring.recent(8);
        assert_eq!(finals.len(), 8);
        for e in &finals {
            assert!(is_one_writers(e), "mixed entry: {e:?}");
        }
        // A writer that found its slot taken dropped its entry whole.
        assert!(ring.dropped() < ring.inserted());
        let _ = seen;
    }

    #[test]
    fn a_writer_that_loses_the_claim_drops_its_entry() {
        let ring = SlowRing::new(1);
        ring.push(&entry(1, 1));
        // A lapped writer caught mid-write: the slot reads odd.
        ring.slots[0].seq.fetch_add(1, Ordering::Relaxed);
        ring.push(&entry(2, 2));
        assert_eq!((ring.inserted(), ring.dropped()), (2, 1));
        assert!(ring.recent(1).is_empty(), "an open slot is skipped");
        // It finishes: its entry is intact and the slot takes writes again.
        ring.slots[0].seq.fetch_add(1, Ordering::Relaxed);
        assert_eq!(ring.recent(1), [entry(1, 1)]);
        ring.push(&entry(3, 3));
        assert_eq!(ring.recent(1), [entry(3, 3)]);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn reset_races_inserts_without_corruption() {
        // Satellite: RESET storms against insert storms. Invariants:
        // len never exceeds capacity, every visible entry is
        // internally consistent, and a final reset empties the ring.
        let ring = Arc::new(SlowRing::new(4));
        let inserter = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    ring.push(&entry(i, i));
                }
            })
        };
        let resetter = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    ring.reset();
                    let got = ring.recent(8);
                    assert!(got.len() <= 4);
                    for e in &got {
                        assert!(is_consistent(e), "torn across reset: {e:?}");
                    }
                }
            })
        };
        inserter.join().unwrap();
        resetter.join().unwrap();
        assert_eq!(ring.inserted(), 5_000);
        ring.reset();
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = SlowRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(&entry(1, 1));
        ring.push(&entry(2, 2));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.recent(4)[0].batch_id, 2);
    }
}
