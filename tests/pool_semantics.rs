//! End-to-end semantics of the Malthusian work crew and KV service.
//!
//! The acceptance bar for the pool subsystem: culled workers are
//! reprovisioned (no task is ever lost), the fairness trigger
//! eventually promotes the eldest passive worker, and the networked
//! KV front end serves correct responses through the restricted crew.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use malthusian::pool::{server, KvClient, KvService, PoolConfig, WorkCrew};

#[test]
fn culled_workers_are_reprovisioned_and_no_task_is_lost() {
    // ACS of 1 on a crew of 5: four workers are culled immediately.
    // A task that wedges the lone active worker forces the standby
    // machinery to reprovision, and every submitted task must still
    // run exactly once.
    let cfg = PoolConfig::malthusian(5, 32)
        .with_acs_target(1)
        .with_fairness_period(None)
        .with_stall_threshold(Duration::from_millis(5));
    let crew = WorkCrew::new(cfg);
    let hits = Arc::new(AtomicU64::new(0));
    for batch in 0..4 {
        // Each batch starts with a 20 ms blocker, then 100 quick
        // tasks that would strand behind it without reprovisioning.
        crew.submit(move || std::thread::sleep(Duration::from_millis(20)))
            .unwrap();
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            crew.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        let _ = batch;
    }
    let stats = crew.shutdown();
    assert_eq!(hits.load(Ordering::Relaxed), 400, "no lost tasks");
    assert_eq!(stats.completed, 404);
    assert_eq!(stats.submitted, 404);
    assert!(stats.culls >= 4, "culls = {}", stats.culls);
    assert!(
        stats.reprovisions >= 1,
        "blocked service must reprovision: {stats:?}"
    );
}

#[test]
fn fairness_trigger_rotates_every_worker_through_the_acs() {
    let cfg = PoolConfig::malthusian(4, 32)
        .with_acs_target(1)
        .with_fairness_period(Some(8));
    let crew = WorkCrew::new(cfg);
    for i in 0..4_000u64 {
        crew.submit(move || {
            std::hint::black_box(i.wrapping_mul(2_654_435_761));
        })
        .unwrap();
    }
    let stats = crew.shutdown();
    assert_eq!(stats.completed, 4_000);
    assert!(
        stats.fairness_promotions > 0,
        "promotions = {}",
        stats.fairness_promotions
    );
    for (w, &n) in stats.per_worker_completed.iter().enumerate() {
        assert!(
            n > 0,
            "worker {w} starved: {:?}",
            stats.per_worker_completed
        );
    }
}

/// One unit of crew work for the admission test: counts itself in,
/// records the high-water mark, does a little work, counts itself out.
fn tracked_work(in_flight: &AtomicUsize, high_water: &AtomicUsize) {
    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    high_water.fetch_max(now, Ordering::SeqCst);
    for i in 0..200u64 {
        std::hint::black_box(i.wrapping_mul(2_654_435_761));
    }
    in_flight.fetch_sub(1, Ordering::SeqCst);
}

#[test]
fn lent_slots_and_queued_tasks_together_never_exceed_the_acs() {
    // Four callers race `try_enter` against `submit` on an ACS of 2
    // (aggressive fairness rotation on, stall reprovisioning out of
    // reach so the limit cannot be boosted): whichever way the work
    // gets in, at most two threads are ever inside it.
    let cfg = PoolConfig::malthusian(6, 64)
        .with_acs_target(2)
        .with_fairness_period(Some(16))
        .with_stall_threshold(Duration::from_secs(3_600));
    let crew = Arc::new(WorkCrew::new(cfg));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let high_water = Arc::new(AtomicUsize::new(0));
    let per_caller = 6_000u64;
    let callers: Vec<_> = (0..4)
        .map(|_| {
            let crew = Arc::clone(&crew);
            let in_flight = Arc::clone(&in_flight);
            let high_water = Arc::clone(&high_water);
            std::thread::spawn(move || {
                for i in 0..per_caller {
                    // A third of the work insists on a slot, a third
                    // always queues, a third takes whichever it gets
                    // (the connection loop's pattern) — so both ways
                    // in are exercised however the threads interleave.
                    let slot = match i % 3 {
                        0 => loop {
                            match crew.try_enter() {
                                Some(slot) => break Some(slot),
                                None => std::thread::yield_now(),
                            }
                        },
                        1 => None,
                        _ => crew.try_enter(),
                    };
                    if let Some(_slot) = slot {
                        tracked_work(&in_flight, &high_water);
                    } else {
                        let in_flight = Arc::clone(&in_flight);
                        let high_water = Arc::clone(&high_water);
                        crew.submit(move || tracked_work(&in_flight, &high_water))
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
    let stats = crew.shutdown();
    assert_eq!(stats.completed, 4 * per_caller, "{stats:?}");
    assert_eq!(stats.completed, stats.submitted + stats.inline, "{stats:?}");
    assert_eq!(stats.reprovisions, 0, "the limit was never boosted");
    assert!(stats.inline >= 4 * per_caller / 3, "{stats:?}");
    assert!(stats.submitted >= 4 * per_caller / 3, "{stats:?}");
    assert_eq!(
        stats.per_worker_completed.iter().sum::<u64>(),
        stats.submitted,
        "in-place completions are not charged to a worker"
    );
    let peak = high_water.load(Ordering::SeqCst);
    assert!((1..=2).contains(&peak), "peak concurrency {peak}, ACS 2");
}

#[test]
fn shutdown_with_a_slot_lent_drains_the_queue_without_hanging() {
    // The only worker is lent, so everything submitted meanwhile sits
    // in the queue: `shutdown` must release the lent worker to drain
    // it, and must not wait for the slot to come back.
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let crew = WorkCrew::new(PoolConfig::unrestricted(1, 64));
        let slot = loop {
            match crew.try_enter() {
                Some(slot) => break slot,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            crew.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 0, "nobody to run them yet");
        let at_shutdown = crew.shutdown();
        let ran = hits.load(Ordering::Relaxed);
        assert!(crew.try_enter().is_none(), "no lending after shutdown");
        drop(slot); // returning a slot to a stopped crew is harmless
        let _ = tx.send((ran, at_shutdown, crew.stats()));
    });
    let (ran, at_shutdown, after) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown hung behind a lent slot");
    runner.join().unwrap();
    assert_eq!(ran, 50, "queued tasks lost: {at_shutdown:?}");
    assert_eq!((at_shutdown.completed, at_shutdown.inline), (50, 0));
    assert_eq!((after.completed, after.inline), (51, 1));
}

#[test]
fn kv_service_round_trips_under_the_restricted_crew() {
    let (listener, control) = server::bind("127.0.0.1:0").unwrap();
    let addr = control.addr();
    let crew = Arc::new(WorkCrew::new(
        PoolConfig::malthusian(4, 64).with_acs_target(1),
    ));
    let svc = Arc::new(KvService::new(128, 1_024));
    let server = {
        let crew = Arc::clone(&crew);
        let svc = Arc::clone(&svc);
        let control = control.clone();
        std::thread::spawn(move || server::serve(listener, &control, crew, svc).unwrap())
    };

    // Two concurrent closed-loop clients with disjoint key ranges.
    let clients: Vec<_> = (0..2u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut cl = KvClient::connect(addr).unwrap();
                let base = c * 10_000;
                for i in 0..150u64 {
                    let k = base + i;
                    assert_eq!(cl.roundtrip(&format!("PUT {k} {}", k * 7)).unwrap(), "OK");
                }
                for i in 0..150u64 {
                    let k = base + i;
                    assert_eq!(
                        cl.roundtrip(&format!("GET {k}")).unwrap(),
                        format!("VAL {}", k * 7),
                        "client {c} key {k}"
                    );
                }
                assert_eq!(
                    cl.roundtrip(&format!("GET {}", base + 99_999)).unwrap(),
                    "NIL"
                );
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let mut cl = KvClient::connect(addr).unwrap();
    let stats_line = cl.roundtrip("STATS").unwrap();
    assert!(stats_line.starts_with("STATS reads="), "{stats_line}");
    assert_eq!(cl.roundtrip("SHUTDOWN").unwrap(), "OK");
    server.join().unwrap();

    let stats = crew.shutdown();
    assert!(stats.completed >= 603, "completed = {}", stats.completed);
    let store = svc.store().stats();
    assert_eq!(store.writes(), 300);
    assert_eq!(store.reads(), 302);
}
