//! The background shard healer: turns read-only poisoning from a
//! life sentence into a fault *window*.
//!
//! A WAL failure poisons its shard read-only (see [`crate::sharded`])
//! because acking a write whose log record may not be durable would
//! break the recovery contract. Before this module that state was
//! permanent; the healer makes it recoverable: a single low-priority
//! thread scans the shards, and for each read-only one probes its WAL
//! — reopen the file layer, then fsync ([`ShardWal::heal_probe`]) —
//! with **capped, jittered exponential backoff** per shard. A probe
//! that succeeds flips the shard writable; one that fails doubles the
//! shard's backoff up to the cap, so a persistently broken disk costs
//! a bounded, tiny probe rate instead of a spin.
//!
//! Jitter (±25%, from a seedable xorshift stream) keeps a fleet of
//! servers that all lost the same disk from probing in lockstep — the
//! same thundering-herd hygiene as the KV client's connect backoff.
//!
//! [`ShardWal::heal_probe`]: crate::wal::ShardWal::heal_probe

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sharded::{LockPair, ShardedKv};

/// Backoff policy (and determinism knob) for [`spawn_healer`].
#[derive(Debug, Clone, Copy)]
pub struct HealerConfig {
    /// First retry delay after a failed probe (and the delay before
    /// the *first* probe of a freshly poisoned shard is at most one
    /// tick, not this).
    pub initial_backoff_ms: u64,
    /// Backoff cap: a persistently failing shard is probed at least
    /// this often (± jitter), at most every `initial_backoff_ms`.
    pub max_backoff_ms: u64,
    /// Scan granularity: how often the healer wakes to look for
    /// read-only shards and due probes.
    pub tick_ms: u64,
    /// Seed for the jitter stream (any value; 0 is fixed up).
    pub seed: u64,
}

impl Default for HealerConfig {
    fn default() -> Self {
        HealerConfig {
            initial_backoff_ms: 50,
            max_backoff_ms: 2_000,
            tick_ms: 10,
            seed: 0x6d61_6c74_6875_7331, // "malthus1"
        }
    }
}

/// Applies ±25% jitter to `ms` from the xorshift state `rng`.
fn jittered(rng: &mut u64, ms: u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let span = (ms / 2).max(1); // jitter range: [-25%, +25%] of ms
    ms - ms / 4 + *rng % span
}

/// Spawns the healer thread over `store`. It scans every `tick_ms`
/// for poisoned shards, probes the due ones, and exits promptly once
/// `stop` is set. Join the handle on shutdown.
///
/// Attempt/success counts land in the store's per-shard
/// `heal_attempts`/`heals` counters, so they flow into STATS, the
/// metrics registry (`kv_shard_heal_attempts_total`,
/// `kv_shard_heals_total`) and kvtop with no extra wiring.
pub fn spawn_healer<P: LockPair>(
    store: Arc<ShardedKv<P>>,
    stop: Arc<AtomicBool>,
    cfg: HealerConfig,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("kv-healer".into())
        .spawn(move || run_healer(&store, &stop, cfg))
        .expect("spawn kv-healer")
}

fn run_healer<P: LockPair>(store: &ShardedKv<P>, stop: &AtomicBool, cfg: HealerConfig) {
    let n = store.shard_count();
    let mut rng = if cfg.seed == 0 { 1 } else { cfg.seed };
    let mut backoff_ms = vec![cfg.initial_backoff_ms; n];
    let mut next_probe: Vec<Option<Instant>> = vec![None; n];
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        for i in 0..n {
            if !store.shard_readonly(i) {
                // Healthy (or just healed): reset the shard's ladder
                // so the next poisoning starts from the bottom.
                backoff_ms[i] = cfg.initial_backoff_ms;
                next_probe[i] = None;
                continue;
            }
            match next_probe[i] {
                Some(due) if now < due => continue,
                _ => {}
            }
            if store.try_heal_shard(i) {
                backoff_ms[i] = cfg.initial_backoff_ms;
                next_probe[i] = None;
            } else {
                let delay = jittered(&mut rng, backoff_ms[i]);
                backoff_ms[i] = (backoff_ms[i] * 2).min(cfg.max_backoff_ms);
                next_probe[i] = Some(now + Duration::from_millis(delay));
            }
        }
        std::thread::sleep(Duration::from_millis(cfg.tick_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOptions;
    use std::sync::atomic::AtomicU64;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "malthus-healer-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Options failing the store's first fsync, and no other.
    fn first_fsync_fails() -> WalOptions {
        WalOptions {
            faults: Some(
                malthus_fault::FaultPlan::parse("storage.fsync=1x1")
                    .unwrap()
                    .arm(),
            ),
            ..WalOptions::default()
        }
    }

    #[test]
    fn jitter_stays_within_a_quarter_band() {
        let mut rng = 42u64;
        for _ in 0..1_000 {
            let d = jittered(&mut rng, 100);
            assert!((75..125).contains(&d), "jittered(100) = {d}");
        }
    }

    #[test]
    fn healer_revives_a_poisoned_shard_within_its_backoff_budget() {
        let dir = temp_dir("revive");
        // The store's first sync (shard 0's: its first write goes
        // there) fails, everything after succeeds — the single-fault
        // window the healer exists for.
        let (kv, _) = ShardedKv::open_with(&dir, 2, 64, 64, first_fsync_fails()).unwrap();
        let kv = Arc::new(kv);
        let key0 = (0..1_000u64).find(|&k| kv.router().route(k) == 0).unwrap();
        assert!(kv.put(key0, 1).is_err(), "first sync poisons shard 0");
        assert!(kv.shard_readonly(0));

        let stop = Arc::new(AtomicBool::new(false));
        let handle = spawn_healer(
            Arc::clone(&kv),
            Arc::clone(&stop),
            HealerConfig {
                initial_backoff_ms: 5,
                max_backoff_ms: 50,
                tick_ms: 2,
                seed: 7,
            },
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while kv.shard_readonly(0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!kv.shard_readonly(0), "healer did not revive shard 0");
        kv.put(key0, 2).expect("healed shard accepts writes");
        assert_eq!(kv.get(key0), Some(2));
        let stats = kv.stats();
        let shard0 = &stats.per_shard[0];
        assert!(shard0.heal_attempts >= 1);
        // Store-wide: the healthy shard recorded no heal.
        assert_eq!(stats.per_shard.iter().map(|s| s.heals).sum::<u64>(), 1);
        assert_eq!(shard0.heals, 1);
        assert!(shard0.readonly_rejects >= 1, "the refusal was counted");
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
        // The write that failed its commit is absent, the healed one
        // durable.
        drop(kv);
        let (kv2, _) = ShardedKv::open(&dir, 2, 64, 64).unwrap();
        assert_eq!(kv2.get(key0), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn direct_probe_heals_and_counts_only_real_attempts() {
        let dir = temp_dir("probe");
        let (kv, _) = ShardedKv::open_with(&dir, 1, 64, 64, first_fsync_fails()).unwrap();
        assert!(kv.put(1, 1).is_err());
        assert!(kv.shard_readonly(0));
        // Direct probe: first succeeds (the injected failure spent the
        // budget), flips writable, and counts.
        assert!(kv.try_heal_shard(0));
        assert!(!kv.shard_readonly(0));
        assert!(kv.try_heal_shard(0), "healthy shard heals trivially");
        let stats = kv.stats();
        let s = &stats.per_shard[0];
        assert_eq!(s.heal_attempts, 1, "healthy-shard call is not an attempt");
        assert_eq!(s.heals, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
