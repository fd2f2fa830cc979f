//! Deterministic, seed-replayable fault injection for every I/O
//! boundary of the KV server.
//!
//! *Malthusian Locks* is a paper about graceful degradation under
//! adversity; this crate supplies the adversity. A [`FaultPlan`] is a
//! tiny comma-separated spec (`seed=42,storage.fsync=1x3,net.reset=0.01`)
//! naming **sites** — fixed injection points compiled into the storage
//! WAL, the reactor's syscall shims, and the shard execution path —
//! each armed with a firing probability, an optional fault **budget**
//! (`xN`: at most `N` injections, then the site disarms — a fault
//! *window* that closes, so self-healing can be observed), and, for
//! stall sites, a duration.
//!
//! # Determinism
//!
//! Every site draws from its own xorshift64 stream seeded from the
//! plan's master seed (`seed=N`, else derived from the clock and
//! printed at arm time), so a single-threaded caller replays the exact
//! fault sequence given the same seed. Under concurrency the per-site
//! draw order depends on thread interleaving — the per-site streams
//! keep runs *statistically* identical, and the `kv_chaos` harness
//! layers its own strictly deterministic round schedule on top.
//!
//! # Who reads which state
//!
//! [`FaultPlan::arm`] makes a [`FaultState`] value, handed as an `Arc`
//! to whatever it faults. A store reads the storage sites and
//! `shard.stall` from the instance it is opened with
//! (`WalOptions::faults` in `malthus-storage`), so two tests in one
//! binary never share a schedule. The reactor's syscall shims have no
//! store to be handed one, so the `net.*` sites read the process-global
//! state [`install`] arms; a server hands that same `Arc` to its store,
//! so one state counts every site.
//!
//! # Overhead
//!
//! A process that never calls [`install`] pays one relaxed atomic load
//! per [`fire`] — the `OnceLock` lookup — and nothing else, so the
//! hooks stay compiled into production binaries. A store opened
//! without faults has no injection point at all.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed injection point compiled into one of the server's I/O
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Fail a WAL fsync (`storage.fsync`) — poisons the shard
    /// read-only until the healer's probe succeeds.
    StorageFsync,
    /// Short-write a WAL append then error (`storage.short_write`) —
    /// the torn-record shape a crash mid-`write` leaves behind.
    StorageShortWrite,
    /// Fail a WAL append outright, ENOSPC-style (`storage.enospc`):
    /// nothing of the record reaches the file.
    StorageEnospc,
    /// Force an `epoll_wait` to report an `EINTR`-style spurious
    /// wakeup (`net.eintr`).
    NetEintr,
    /// Force a connection read/write to report `EAGAIN`
    /// (`net.eagain`) — the worker must re-arm and retry.
    NetEagain,
    /// Inject a connection reset on a ready connection (`net.reset`).
    NetReset,
    /// Stall a shard's write group for the clause's duration while the
    /// exclusive lock is held (`shard.stall`) — the lock-holder
    /// preemption/stall shape the Malthusian policy reprovisions
    /// around.
    ShardStall,
}

/// All sites, index-aligned with the armed state's point table.
pub const SITES: [Site; 7] = [
    Site::StorageFsync,
    Site::StorageShortWrite,
    Site::StorageEnospc,
    Site::NetEintr,
    Site::NetEagain,
    Site::NetReset,
    Site::ShardStall,
];

/// Stall duration applied when a `shard.stall` clause names none.
pub const DEFAULT_STALL_MS: u64 = 20;

impl Site {
    /// The spec-grammar name of this site (`storage.fsync`, …).
    pub fn name(self) -> &'static str {
        match self {
            Site::StorageFsync => "storage.fsync",
            Site::StorageShortWrite => "storage.short_write",
            Site::StorageEnospc => "storage.enospc",
            Site::NetEintr => "net.eintr",
            Site::NetEagain => "net.eagain",
            Site::NetReset => "net.reset",
            Site::ShardStall => "shard.stall",
        }
    }

    fn parse(name: &str) -> Option<Site> {
        SITES.iter().copied().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        SITES
            .iter()
            .position(|&s| s == self)
            .expect("site in table")
    }
}

/// One armed site of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clause {
    /// Which injection point this clause arms.
    pub site: Site,
    /// Firing probability per opportunity, in `[0, 1]`.
    pub rate: f64,
    /// At most this many injections, then the site disarms (a fault
    /// window that closes). `None` = unlimited.
    pub budget: Option<u64>,
    /// Stall duration for [`Site::ShardStall`]; [`DEFAULT_STALL_MS`]
    /// elsewhere (the grammar refuses a `:stall_ms` there).
    pub stall_ms: u64,
}

/// A parsed fault-plan spec: a master seed plus armed sites.
///
/// # Grammar
///
/// Comma-separated clauses:
///
/// ```text
/// plan   := clause ("," clause)*
/// clause := "seed=" u64
///         | site "=" rate ["x" budget] [":" stall_ms]
/// site   := "storage.fsync" | "storage.short_write" | "storage.enospc"
///         | "net.eintr" | "net.eagain" | "net.reset" | "shard.stall"
/// rate   := f64 in [0, 1]
/// ```
///
/// `storage.fsync=1x3` fails the first three fsync opportunities with
/// certainty, then the site disarms; `net.reset=0.01` resets 1% of
/// ready connections forever; `shard.stall=0.05:40` stalls 5% of write
/// groups for 40 ms. A site may be named once, `seed=` given once, and
/// only `shard.stall` takes `:stall_ms`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Master seed; `None` lets [`FaultPlan::arm`] derive one from the
    /// clock (kept in the armed state so the run stays replayable).
    pub seed: Option<u64>,
    /// Armed sites.
    pub clauses: Vec<Clause>,
}

impl FaultPlan {
    /// Parses a plan spec (see the type-level grammar). Whitespace
    /// around clauses is tolerated; empty clauses are skipped, so a
    /// trailing comma is fine. A clause the armed state would ignore —
    /// a repeated site, a second `seed=`, a `:stall_ms` on a site that
    /// never stalls — is an error naming it.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault clause {part:?} has no '='"))?;
            if key == "seed" {
                if plan.seed.is_some() {
                    return Err(format!("fault clause {part:?} repeats the seed"));
                }
                let seed = value
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed {value:?}: {e}"))?;
                plan.seed = Some(seed);
                continue;
            }
            let site = Site::parse(key).ok_or_else(|| {
                let known: Vec<&str> = SITES.iter().map(|s| s.name()).collect();
                format!("unknown fault site {key:?} (known: {})", known.join(", "))
            })?;
            if plan.clauses.iter().any(|c| c.site == site) {
                return Err(format!("fault clause {part:?} repeats site {key}"));
            }
            let (value, stall_ms) = match value.split_once(':') {
                Some(_) if site != Site::ShardStall => {
                    return Err(format!(
                        "fault clause {part:?}: only shard.stall takes :<ms>"
                    ));
                }
                Some((v, ms)) => (
                    v,
                    ms.parse::<u64>()
                        .map_err(|e| format!("bad stall ms {ms:?}: {e}"))?,
                ),
                None => (value, DEFAULT_STALL_MS),
            };
            let (rate_s, budget) = match value.split_once('x') {
                Some((r, b)) => (
                    r,
                    Some(
                        b.parse::<u64>()
                            .map_err(|e| format!("bad budget {b:?}: {e}"))?,
                    ),
                ),
                None => (value, None),
            };
            let rate = rate_s
                .parse::<f64>()
                .map_err(|e| format!("bad rate {rate_s:?}: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} for {key} outside [0, 1]"));
            }
            plan.clauses.push(Clause {
                site,
                rate,
                budget,
                stall_ms,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back into the spec grammar with the resolved
    /// `seed` substituted — paste it into `--fault-plan` to replay.
    pub fn render(&self, seed: u64) -> String {
        let mut out = format!("seed={seed}");
        for c in &self.clauses {
            out.push(',');
            out.push_str(c.site.name());
            out.push('=');
            out.push_str(&format!("{}", c.rate));
            if let Some(b) = c.budget {
                out.push_str(&format!("x{b}"));
            }
            if c.site == Site::ShardStall && c.stall_ms != DEFAULT_STALL_MS {
                out.push_str(&format!(":{}", c.stall_ms));
            }
        }
        out
    }

    /// Arms the plan as a value to hand to whatever it faults: with
    /// its `seed=`, else a seed derived from the clock — read it back
    /// with [`FaultState::seed`], because the run is only replayable if
    /// someone wrote it down.
    pub fn arm(&self) -> Arc<FaultState> {
        Arc::new(FaultState::new(
            self,
            self.seed.unwrap_or_else(entropy_seed),
        ))
    }
}

/// One site's armed state. Rate is pre-scaled to a 32-bit threshold
/// so the hot path compares integers; the budget counts *injections*
/// (not opportunities) down to disarm.
#[derive(Debug)]
struct Point {
    threshold: u64,
    budget: AtomicU64,
    stall_ms: u64,
    rng: AtomicU64,
    checked: AtomicU64,
    injected: AtomicU64,
}

impl Point {
    fn disarmed() -> Self {
        Point {
            threshold: 0,
            budget: AtomicU64::new(0),
            stall_ms: DEFAULT_STALL_MS,
            rng: AtomicU64::new(1),
            checked: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The armed form of a [`FaultPlan`]: per-site xorshift streams and
/// counters. Handed (as an `Arc`, see [`FaultPlan::arm`]) to whatever
/// it faults; the one behind [`install`]/[`fire`] is the process's
/// global instance.
#[derive(Debug)]
pub struct FaultState {
    points: [Point; SITES.len()],
    seed: u64,
}

impl FaultState {
    /// Arms `plan` with `seed` as the master seed.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        let mut points: [Point; SITES.len()] = std::array::from_fn(|_| Point::disarmed());
        for c in &plan.clauses {
            let i = c.site.index();
            // Scale [0,1] to a 33-bit threshold: 1.0 covers every
            // 32-bit draw.
            points[i].threshold = (c.rate * f64::from(u32::MAX) + c.rate).round() as u64;
            points[i].budget = AtomicU64::new(c.budget.unwrap_or(u64::MAX));
            points[i].stall_ms = c.stall_ms;
            let mut s = splitmix64(seed ^ splitmix64(i as u64 + 1));
            if s == 0 {
                s = 0x9E37_79B9_7F4A_7C15;
            }
            points[i].rng = AtomicU64::new(s);
        }
        FaultState { points, seed }
    }

    /// The master seed this state was armed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One injection opportunity at `site`: draws from the site's
    /// stream and reports whether the caller must inject the fault.
    /// Never fires once the site's budget is spent.
    ///
    /// The stream update is a racy load/store — under concurrency two
    /// opportunities may share a draw, which perturbs nothing but the
    /// exact interleaving (already nondeterministic across threads).
    pub fn fire(&self, site: Site) -> bool {
        let p = &self.points[site.index()];
        if p.threshold == 0 {
            return false;
        }
        p.checked.fetch_add(1, Ordering::Relaxed);
        let mut s = p.rng.load(Ordering::Relaxed);
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        p.rng.store(s, Ordering::Relaxed);
        if (s & u64::from(u32::MAX)) >= p.threshold {
            return false;
        }
        let mut b = p.budget.load(Ordering::Relaxed);
        loop {
            if b == 0 {
                return false;
            }
            if b == u64::MAX {
                break; // unlimited: no decrement
            }
            match p
                .budget
                .compare_exchange_weak(b, b - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => b = cur,
            }
        }
        p.injected.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// [`FaultState::fire`] for a stall site: `Some(ms)` when the
    /// caller must sleep.
    pub fn stall_ms(&self, site: Site) -> Option<u64> {
        if self.fire(site) {
            Some(self.points[site.index()].stall_ms)
        } else {
            None
        }
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: Site) -> u64 {
        self.points[site.index()].injected.load(Ordering::Relaxed)
    }

    /// Opportunities checked at `site` so far (fired or not).
    pub fn checked(&self, site: Site) -> u64 {
        self.points[site.index()].checked.load(Ordering::Relaxed)
    }
}

static ARMED: OnceLock<Arc<FaultState>> = OnceLock::new();

/// Arms `plan` process-wide ([`FaultPlan::arm`]) and returns the armed
/// state, for the caller to print its seed and hand to whatever else
/// it faults. Idempotent: a second call keeps the first state.
pub fn install(plan: &FaultPlan) -> Arc<FaultState> {
    Arc::clone(ARMED.get_or_init(|| plan.arm()))
}

fn entropy_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mixed = splitmix64(nanos ^ u64::from(std::process::id()));
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// One injection opportunity at `site` against the global plan; false
/// when no plan is armed (one atomic load).
pub fn fire(site: Site) -> bool {
    ARMED.get().is_some_and(|s| s.fire(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("seed=42, storage.fsync=1x3, net.reset=0.25, shard.stall=0.5:40,")
                .unwrap();
        assert_eq!(plan.seed, Some(42));
        assert_eq!(plan.clauses.len(), 3);
        assert_eq!(
            plan.clauses[0],
            Clause {
                site: Site::StorageFsync,
                rate: 1.0,
                budget: Some(3),
                stall_ms: DEFAULT_STALL_MS,
            }
        );
        assert_eq!(plan.clauses[1].rate, 0.25);
        assert_eq!(plan.clauses[1].budget, None);
        assert_eq!(plan.clauses[2].stall_ms, 40);
        assert_eq!(
            plan.render(42),
            "seed=42,storage.fsync=1x3,net.reset=0.25,shard.stall=0.5:40"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("storage.fsync").is_err(), "no '='");
        assert!(FaultPlan::parse("bogus.site=1").is_err(), "unknown site");
        assert!(FaultPlan::parse("net.reset=1.5").is_err(), "rate > 1");
        assert!(FaultPlan::parse("net.reset=-0.1").is_err(), "rate < 0");
        assert!(FaultPlan::parse("seed=abc").is_err(), "bad seed");
        assert!(FaultPlan::parse("storage.fsync=1xq").is_err(), "bad budget");
        assert!(FaultPlan::parse("shard.stall=1:q").is_err(), "bad stall");
        // Clauses the armed state would silently drop.
        let refusal = |spec: &str| FaultPlan::parse(spec).unwrap_err();
        let twice = refusal("storage.fsync=1x1,storage.fsync=0");
        assert!(
            twice.contains("\"storage.fsync=0\""),
            "repeated site: {twice}"
        );
        let reseeded = refusal("seed=1,net.reset=0.5,seed=2");
        assert!(reseeded.contains("\"seed=2\""), "second seed: {reseeded}");
        let stall = refusal("net.reset=0.1:40");
        assert!(stall.contains("\"net.reset=0.1:40\""), "stray :ms: {stall}");
    }

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let plan = FaultPlan::parse("net.reset=0.3").unwrap();
        let draw = |seed: u64| -> Vec<bool> {
            let st = FaultState::new(&plan, seed);
            (0..256).map(|_| st.fire(Site::NetReset)).collect()
        };
        assert_eq!(draw(7), draw(7), "identical schedule for one seed");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
        let fired = draw(7).iter().filter(|&&f| f).count();
        assert!(
            (32..=160).contains(&fired),
            "rate 0.3 over 256 draws fired {fired} times"
        );
    }

    #[test]
    fn budget_closes_the_fault_window() {
        let plan = FaultPlan::parse("storage.fsync=1x3").unwrap();
        let st = FaultState::new(&plan, 1);
        let fired: Vec<bool> = (0..10).map(|_| st.fire(Site::StorageFsync)).collect();
        assert_eq!(
            fired,
            vec![true, true, true, false, false, false, false, false, false, false],
            "rate 1 fires exactly budget times then disarms"
        );
        assert_eq!(st.injected(Site::StorageFsync), 3);
        assert_eq!(st.checked(Site::StorageFsync), 10);
    }

    #[test]
    fn unarmed_sites_never_fire_and_cost_nothing() {
        let plan = FaultPlan::parse("storage.fsync=1").unwrap();
        let st = FaultState::new(&plan, 1);
        assert!(!st.fire(Site::NetReset));
        assert_eq!(st.checked(Site::NetReset), 0, "disarmed check not counted");
    }

    #[test]
    fn stall_site_reports_its_duration() {
        let plan = FaultPlan::parse("shard.stall=1:7").unwrap();
        let st = FaultState::new(&plan, 1);
        assert_eq!(st.stall_ms(Site::ShardStall), Some(7));
        let none = FaultState::new(&FaultPlan::default(), 1);
        assert_eq!(none.stall_ms(Site::ShardStall), None);
    }

    #[test]
    fn global_install_is_idempotent_and_feeds_counters() {
        // The one test that touches the process-global singleton (the
        // other tests use standalone `FaultState`s so order cannot
        // matter). Arm a site no other global path exercises in this
        // test binary.
        let plan = FaultPlan::parse("seed=9,net.eagain=1x2").unwrap();
        let state = install(&plan);
        assert_eq!(state.seed(), 9);
        let other = FaultPlan::parse("seed=10").unwrap();
        assert!(
            Arc::ptr_eq(&install(&other), &state),
            "second install keeps the first"
        );
        assert!(fire(Site::NetEagain));
        assert!(fire(Site::NetEagain));
        assert!(!fire(Site::NetEagain), "budget spent");
        assert_eq!(state.injected(Site::NetEagain), 2);
    }

    #[test]
    fn arm_resolves_the_seed_once() {
        assert_eq!(FaultPlan::parse("seed=5").unwrap().arm().seed(), 5);
        // No `seed=`: one is drawn, and the state keeps it.
        let plan = FaultPlan::parse("storage.fsync=1x1").unwrap();
        let state = plan.arm();
        assert_ne!(state.seed(), 0);
        assert!(state.fire(Site::StorageFsync));
        assert!(!state.fire(Site::StorageFsync), "one state, one budget");
        assert!(plan.arm().fire(Site::StorageFsync), "a second arm is fresh");
    }
}
