//! The allocation budget of the batch path, asserted: once warm,
//! applying a GET/PUT batch allocates at most twice — the `ops` vector
//! handed to storage and the `replies` vector it hands back — whether
//! it holds sixteen ops over 4 shards or, the degenerate case every
//! request of a depth-1 client is, one. Tracing the batch as the
//! server does (a live span with its stage clocks, the flight recorder
//! sampling, the slowlog capturing) adds nothing to that budget.
//! Grouping by shard, collecting a shard's write pairs and rendering
//! the replies all run in reused scratch; these tests are what keeps
//! that reuse from silently rotting, and what gives the batch of one a
//! number instead of prose.
//! Opening a connection allocates nothing at all: it carries no
//! instrument of its own, and its buffers stay empty until it sends.
//! Nor does admission in place: a warm `WorkCrew::enter` that has to
//! wait for a place, and the returned slot that hands it one.
//!
//! Alone in its file: the counting allocator is process-wide (the
//! counter is per thread, but the recorder's gate is process-wide, so
//! the tests take turns under [`COUNTING`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use malthus_net::Handler;
use malthus_obs::{recorder, span, SpanContext};
use malthus_pool::{Admission, KvHandler, KvService, Parsed, PoolConfig, Waiter, WorkCrew};

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

/// Held by every test while it counts: the traced case turns the
/// flight recorder on for the whole process, and a recorder ring is
/// allocated by the first event a thread keeps.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn a_warm_get_put_batch_allocates_at_most_twice() {
    let _turn = counting();
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
    // Untraced, then traced the way the server traces: a live span
    // with the stage clocks on, closed through `finish_span`, the
    // recorder sampling 1 in 64, and every batch slow enough for the
    // slowlog.
    for traced in [false, true] {
        if traced {
            span::set_enabled(true);
            recorder::enable(4_096, 64);
            service.set_slowlog_threshold_us(1);
        }
        let mut apply = |id: u64| {
            out.clear();
            if traced {
                let mut span = SpanContext::start(id, 16);
                let started = span::now_ns();
                service.apply_batch_span(&batch, &mut out, &mut span);
                // An in-process batch can finish inside the slowlog's
                // 1 µs floor; hold the span open past it, allocating
                // nothing, so every batch takes the slowlog push.
                while span::now_ns() - started < 1_000 {
                    std::hint::spin_loop();
                }
                service.finish_span(&mut span);
            } else {
                service.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
            }
            assert_eq!(out.lines().count(), 16);
        };
        // Warm-up: the keys enter the memtable, the scratch and `out`
        // grow to size, and the recorder has kept one of this thread's
        // events (allocating its ring).
        for id in 0..200 {
            apply(id);
        }
        let slow_before = service.slowlog().inserted();
        let mut most = 0;
        for id in 200..400 {
            let before = ALLOCATIONS.with(Cell::get);
            apply(id);
            most = most.max(ALLOCATIONS.with(Cell::get) - before);
        }
        if traced {
            recorder::disable();
            assert!(!recorder::events().is_empty(), "the recorder kept no event");
            let slow = service.slowlog().inserted() - slow_before;
            assert_eq!(slow, 200, "every traced batch takes the slowlog push");
        }
        assert!(
            most <= 2,
            "a warm 16-op batch (traced: {traced}) made {most} allocations \
             (budget: ops + replies)"
        );
    }
}

#[test]
fn a_warm_one_request_batch_allocates_at_most_twice() {
    let _turn = counting();
    let service = KvService::with_shards(4, 4_096, 256);
    for line in ["#7 GET 1000", "GET 1000", "#8 PUT 1000 5", "PUT 1000 6"] {
        let batch = [Parsed::from_line(line)];
        let mut out = String::new();
        for _ in 0..3 {
            out.clear();
            service.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
        }
        out.clear();
        let before = ALLOCATIONS.with(Cell::get);
        service.apply_batch_span(&batch, &mut out, &mut SpanContext::detached());
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(out.lines().count(), 1, "{line}: {out:?}");
        assert!(
            allocations <= 2,
            "a warm batch of one `{line}` made {allocations} allocations (budget: ops + replies)"
        );
    }
}

#[test]
fn opening_a_reactor_connection_allocates_nothing() {
    let _turn = counting();
    let service = Arc::new(KvService::with_shards(4, 4_096, 256));
    let handler = KvHandler::new(service);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let conn = handler.on_open(&stream);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    drop(conn);
    assert_eq!(allocations, 0, "on_open made {allocations} allocations");
}

#[test]
fn a_warm_enter_that_waits_and_the_hand_off_that_wakes_it_allocate_nothing() {
    let _turn = counting();
    const WARM: u64 = 10;
    const ROUNDS: u64 = 110;
    // One worker: while this thread holds its place, the entrant's
    // `enter` must queue and park until the drop below hands it over.
    let crew = WorkCrew::new(PoolConfig::new(Admission::unrestricted(1), 8));
    // Once the worker has idled, this thread's own `enter` never waits:
    // the entrant's drop below idles the worker before it signals.
    while crew.try_enter().is_none() {
        std::thread::yield_now();
    }
    let (go, done, most) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let await_round = |flag: &AtomicU64, round: u64| {
        while flag.load(Ordering::SeqCst) < round {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut waiter = Waiter::new();
            for round in 1..=ROUNDS {
                await_round(&go, round);
                let before = ALLOCATIONS.with(Cell::get);
                let slot = crew.enter(&mut waiter).expect("the crew is running");
                drop(slot);
                if round > WARM {
                    most.fetch_max(ALLOCATIONS.with(Cell::get) - before, Ordering::SeqCst);
                }
                done.store(round, Ordering::SeqCst);
            }
        });
        let mut waiter = Waiter::new();
        let mut hand_off = 0;
        for round in 1..=ROUNDS {
            let slot = crew.enter(&mut waiter).expect("the crew is running");
            go.store(round, Ordering::SeqCst);
            // The entrant is queued once its wait is counted.
            while crew.stats().enter_refused < round {
                std::thread::yield_now();
            }
            let before = ALLOCATIONS.with(Cell::get);
            drop(slot);
            if round > WARM {
                hand_off = hand_off.max(ALLOCATIONS.with(Cell::get) - before);
            }
            await_round(&done, round);
        }
        assert_eq!(hand_off, 0, "a hand-off made {hand_off} allocations");
    });
    let most = most.load(Ordering::SeqCst);
    assert_eq!(most, 0, "a waiting enter made {most} allocations");
    let stats = crew.shutdown();
    assert_eq!(
        (stats.inline, stats.enter_refused),
        (2 * ROUNDS + 1, ROUNDS)
    );
}
