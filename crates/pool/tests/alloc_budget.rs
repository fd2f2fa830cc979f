//! The allocation budget of the batch path, asserted: once warm,
//! applying a GET/PUT batch allocates at most twice — the `ops` vector
//! handed to storage and the `replies` vector it hands back — whether
//! it holds sixteen ops over 4 shards or, the degenerate case every
//! request of a depth-1 client is, one. Grouping by shard, collecting a
//! shard's write pairs and rendering the replies all run in reused
//! scratch; these tests are what keeps that reuse from silently
//! rotting, and what gives the batch of one a number instead of prose.
//!
//! Alone in its file: the counting allocator is process-wide (the
//! counter is per thread, so the tests may run side by side).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use malthus_pool::kv::{AdmissionSnapshot, AdmissionStats};
use malthus_pool::{KvService, Parsed};

thread_local! {
    /// Allocations made by this thread (const-initialized and without a
    /// destructor, so touching it from inside the allocator is safe).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

struct NoAdmission;

impl AdmissionStats for NoAdmission {
    fn admission_snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot::default()
    }
}

#[test]
fn a_warm_get_put_batch_allocates_at_most_twice() {
    const SHARDS: usize = 4;
    let service = KvService::with_shards(SHARDS, 4_096, 256);
    // Sixteen tagged ops the way a depth-16 client sends them: three
    // GETs to each PUT, large values, keys that land on every shard.
    let lines: Vec<String> = (0..16u64)
        .map(|i| {
            let key = 1_000 + i * 7;
            if i % 4 == 3 {
                format!("#{} PUT {key} {}", 900_000 + i, u64::MAX - i)
            } else {
                format!("#{} GET {key}", 900_000 + i)
            }
        })
        .collect();
    let batch: Vec<Parsed> = lines.iter().map(|l| Parsed::from_line(l)).collect();
    let router = service.store().router();
    let mut touched = [false; SHARDS];
    for i in 0..16u64 {
        touched[router.route(1_000 + i * 7)] = true;
    }
    assert_eq!(touched, [true; SHARDS], "the batch must span every shard");

    let mut out = String::new();
    // Warm-up: the keys enter the memtable, the scratch and `out` grow
    // to size.
    for _ in 0..3 {
        out.clear();
        service.apply_batch(&batch, &NoAdmission, &mut out);
    }
    assert_eq!(out.lines().count(), 16);

    out.clear();
    let before = ALLOCATIONS.with(Cell::get);
    service.apply_batch(&batch, &NoAdmission, &mut out);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(out.lines().count(), 16);
    assert!(
        allocations <= 2,
        "a warm 16-op batch made {allocations} allocations (budget: ops + replies)"
    );
}

#[test]
fn a_warm_one_request_batch_allocates_at_most_twice() {
    let service = KvService::with_shards(4, 4_096, 256);
    for line in ["#7 GET 1000", "GET 1000", "#8 PUT 1000 5", "PUT 1000 6"] {
        let batch = [Parsed::from_line(line)];
        let mut out = String::new();
        for _ in 0..3 {
            out.clear();
            service.apply_batch(&batch, &NoAdmission, &mut out);
        }
        out.clear();
        let before = ALLOCATIONS.with(Cell::get);
        service.apply_batch(&batch, &NoAdmission, &mut out);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(out.lines().count(), 1, "{line}: {out:?}");
        assert!(
            allocations <= 2,
            "a warm batch of one `{line}` made {allocations} allocations (budget: ops + replies)"
        );
    }
}
