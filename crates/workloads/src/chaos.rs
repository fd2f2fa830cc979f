//! The chaos harness behind `kv_chaos`: a seeded, replayable fault
//! campaign against the **real** `kv_server` binary.
//!
//! The paper's pitch for Malthusian admission is graceful degradation
//! under pressure; this harness applies the same standard to the
//! whole server under *injected* pressure. From one master seed it
//! derives a deterministic [`schedule`] of rounds — fsync faults
//! (poison-then-heal), injected connection resets through the reactor
//! front-end, and a mid-traffic `SIGKILL` — and drives each round
//! against a freshly spawned server process over one shared data
//! directory, maintaining an **acked-write ledger**: every `OK` the
//! client saw, keyed by key, valued by a per-run monotone sequence
//! number.
//!
//! The invariants checked, per round:
//!
//! 1. **No acked write is ever lost.** After every round a clean
//!    verifier server replays the WALs and each ledger entry must
//!    read back at a value `>=` the acked one (`>=`, not `==`: a
//!    write that was applied but whose ack was eaten by an injected
//!    reset is allowed to survive — it must simply never *regress*
//!    an acked value, and values are monotone per key).
//! 2. **No hang.** A watchdog thread hard-exits the harness if the
//!    campaign overruns its deadline — a server that stops answering
//!    is a failure, not a longer run.
//! 3. **Fault windows close.** After an fsync-fault round poisons a
//!    shard read-only, the background healer must flip it writable
//!    again within the round's heal budget.
//! 4. **Shutdown honesty.** A round that ends with the `SHUTDOWN`
//!    verb must leave the clean-shutdown marker in `MANIFEST`; a
//!    round that ends in `SIGKILL` must not.
//!
//! Replayability: [`schedule`] is a pure function of the seed (same
//! seed → byte-identical round list and per-round fault-plan specs,
//! unit-tested below), and every spawned server gets an explicit
//! `seed=…` in its `--fault-plan`, so a failing campaign is
//! rerun exactly with `kv_chaos --seed <the printed seed>`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malthus_pool::KvClient;

/// One round's flavour of misfortune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Arm `storage.fsync=1x2`: the first group commit poisons its
    /// shard, the healer's first probe burns the second injection,
    /// the second probe heals. Ends with a graceful `SHUTDOWN`.
    FsyncFault,
    /// Serve through the reactor (`--async`) with `net.reset`
    /// armed: connections die mid-conversation and the client
    /// reconnects. Ends with a graceful `SHUTDOWN`.
    ConnReset,
    /// No fault plan — the fault is `SIGKILL` mid-traffic, and the
    /// next open must recover every acked write from the WALs.
    Kill,
}

impl RoundKind {
    /// Short name for logs and summaries.
    pub fn name(self) -> &'static str {
        match self {
            RoundKind::FsyncFault => "fsync-fault",
            RoundKind::ConnReset => "conn-reset",
            RoundKind::Kill => "kill",
        }
    }
}

/// One scheduled round: what to break and the derived seed that makes
/// the round's own randomness (fault plan, key choices) replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The failure mode this round exercises.
    pub kind: RoundKind,
    /// Per-round seed, derived from the master seed; feeds the
    /// spawned server's `--fault-plan` spec verbatim.
    pub seed: u64,
    /// The `--fault-plan` spec armed in the server for this round
    /// (empty for [`RoundKind::Kill`]).
    pub plan: String,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the deterministic round list for a campaign: a pure
/// function of `(seed, rounds)` — same inputs, byte-identical output.
/// The list always contains at least one [`RoundKind::FsyncFault`]
/// (the heal invariant needs one) and, when `rounds >= 2`, at least
/// one [`RoundKind::Kill`] (the recovery invariant needs one).
pub fn schedule(seed: u64, rounds: usize) -> Vec<Round> {
    let rounds = rounds.max(1);
    let mut out = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let rseed = splitmix64(seed ^ splitmix64(i as u64 + 1));
        let kind = match rseed % 3 {
            0 => RoundKind::FsyncFault,
            1 => RoundKind::ConnReset,
            _ => RoundKind::Kill,
        };
        out.push(Round {
            kind,
            seed: rseed,
            plan: String::new(),
        });
    }
    // Guarantee the two invariant-bearing kinds are present.
    if !out.iter().any(|r| r.kind == RoundKind::FsyncFault) {
        out[0].kind = RoundKind::FsyncFault;
    }
    if rounds >= 2 && !out.iter().any(|r| r.kind == RoundKind::Kill) {
        // Latest slot that is not the campaign's only fsync round —
        // this force must not undo the one above.
        let fsyncs = out
            .iter()
            .filter(|r| r.kind == RoundKind::FsyncFault)
            .count();
        let idx = (0..out.len())
            .rev()
            .find(|&j| out[j].kind != RoundKind::FsyncFault || fsyncs > 1)
            .unwrap_or(out.len() - 1);
        out[idx].kind = RoundKind::Kill;
    }
    for r in &mut out {
        r.plan = match r.kind {
            RoundKind::FsyncFault => format!("seed={},storage.fsync=1x2", r.seed),
            RoundKind::ConnReset => format!("seed={},net.reset=0.02x40", r.seed),
            RoundKind::Kill => String::new(),
        };
    }
    out
}

/// Campaign parameters for [`run`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: derives the schedule and every per-round plan.
    pub seed: u64,
    /// Soft time budget; rounds are sized so the campaign fits, and
    /// the watchdog hard-exits at `2 × duration + 60 s`.
    pub duration_secs: u64,
    /// Data directory shared by every round (WALs accumulate across
    /// crashes, exactly like a real server's disk).
    pub dir: PathBuf,
    /// Path to the `kv_server` binary under test.
    pub server_bin: PathBuf,
}

/// What a campaign did, for the final report.
#[derive(Debug, Default)]
pub struct ChaosSummary {
    /// Rounds completed, in order.
    pub rounds: Vec<&'static str>,
    /// Writes acked by the server across the whole campaign.
    pub acked_writes: u64,
    /// `ERR shard readonly` responses absorbed (fsync rounds).
    pub readonly_errs: u64,
    /// Connections that died mid-conversation and were re-dialed.
    pub reconnects: u64,
}

/// A spawned `kv_server` child: killed on drop so a panicking harness
/// never leaks a listener.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(cfg: &ChaosConfig, plan: &str, r#async: bool) -> Result<Server, String> {
    let mut cmd = Command::new(&cfg.server_bin);
    cmd.args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(&cfg.dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if r#async {
        cmd.arg("--async");
    }
    if !plan.is_empty() {
        cmd.args(["--fault-plan", plan]);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cfg.server_bin.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    break rest
                        .trim()
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad listen banner {line:?}: {e}"))?;
                }
            }
            Some(Err(e)) => return Err(format!("read server banner: {e}")),
            None => return Err("server exited before its listen banner".into()),
        }
    };
    Ok(Server { child, addr })
}

fn connect(addr: SocketAddr) -> Result<KvClient, String> {
    // Generous backoff ladder: the server is a fresh process and CI
    // machines are slow.
    KvClient::connect_with_backoff(addr, 8).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends `SHUTDOWN`, expects `OK`, and waits for a zero exit status.
fn graceful_shutdown(mut srv: Server) -> Result<(), String> {
    let mut c = connect(srv.addr)?;
    match c.roundtrip("SHUTDOWN") {
        Ok("OK") => {}
        Ok(other) => return Err(format!("SHUTDOWN answered {other:?}")),
        Err(e) => return Err(format!("SHUTDOWN round trip: {e}")),
    }
    drop(c);
    let status = srv.child.wait().map_err(|e| format!("wait server: {e}"))?;
    // `Drop` must not re-kill/re-wait the reaped child.
    std::mem::forget(srv);
    if !status.success() {
        return Err(format!("graceful shutdown exited {status}"));
    }
    Ok(())
}

fn manifest_has_clean_marker(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("MANIFEST"))
        .map(|s| s.lines().any(|l| l.trim() == "clean-shutdown"))
        .unwrap_or(false)
}

/// Replays the WALs under a clean (fault-free) server and checks the
/// no-acked-write-lost invariant for every ledger entry.
fn verify_ledger(cfg: &ChaosConfig, ledger: &HashMap<u64, u64>) -> Result<(), String> {
    let srv = spawn_server(cfg, "", false)?;
    let mut c = connect(srv.addr)?;
    for (&key, &acked) in ledger {
        let resp = c
            .roundtrip(&format!("GET {key}"))
            .map_err(|e| format!("verify GET {key}: {e}"))?;
        let got: u64 = resp
            .strip_prefix("VAL ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("ACKED WRITE LOST: key {key} acked at {acked}, got {resp:?}"))?;
        if got < acked {
            return Err(format!(
                "ACKED WRITE REGRESSED: key {key} acked at {acked}, read back {got}"
            ));
        }
    }
    graceful_shutdown(srv)
}

/// Runs the whole campaign. `Err` is a human-readable invariant
/// violation; the caller turns it into a nonzero exit.
pub fn run(cfg: &ChaosConfig) -> Result<ChaosSummary, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    // Watchdog (invariant 2): a hung server must fail the campaign,
    // not stall CI until the job-level timeout reaps it.
    let deadline = Duration::from_secs(2 * cfg.duration_secs + 60);
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        let t0 = Instant::now();
        std::thread::Builder::new()
            .name("chaos-watchdog".into())
            .spawn(move || loop {
                if done.load(Ordering::Relaxed) {
                    return;
                }
                if t0.elapsed() > deadline {
                    eprintln!("# kv_chaos: WATCHDOG: campaign overran {deadline:?} — hang");
                    std::process::exit(3);
                }
                std::thread::sleep(Duration::from_millis(200));
            })
            .map_err(|e| format!("spawn watchdog: {e}"))?;
    }

    // ~10 s of traffic per round fills the budget without overrunning.
    let rounds = schedule(cfg.seed, (cfg.duration_secs / 10).max(2) as usize);
    let per_round = Duration::from_secs((cfg.duration_secs / rounds.len() as u64).clamp(2, 10));
    eprintln!(
        "# kv_chaos: seed {} -> {} rounds: {}",
        cfg.seed,
        rounds.len(),
        rounds
            .iter()
            .map(|r| r.kind.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut summary = ChaosSummary::default();
    let mut ledger: HashMap<u64, u64> = HashMap::new();
    let mut seq: u64 = 0;
    for (i, round) in rounds.iter().enumerate() {
        eprintln!(
            "# kv_chaos: round {i}: {} (plan {:?})",
            round.kind.name(),
            round.plan
        );
        match round.kind {
            RoundKind::FsyncFault => {
                let srv = spawn_server(cfg, &round.plan, false)?;
                let mut c = connect(srv.addr)?;
                // First durable write trips the injected fsync
                // failure and poisons the shard.
                let mut poisoned = false;
                let t0 = Instant::now();
                while t0.elapsed() < per_round && !poisoned {
                    seq += 1;
                    let key = 1_000 * (i as u64 + 1) + seq % 64;
                    match c.roundtrip(&format!("PUT {key} {seq}")) {
                        Ok("OK") => {
                            ledger.insert(key, seq);
                            summary.acked_writes += 1;
                        }
                        Ok(resp) if resp.starts_with("ERR") => {
                            summary.readonly_errs += 1;
                            poisoned = true;
                        }
                        Ok(resp) => return Err(format!("PUT answered {resp:?}")),
                        Err(e) => return Err(format!("fsync round PUT: {e}")),
                    }
                }
                if !poisoned {
                    return Err("fsync fault never fired: no ERR within the round".into());
                }
                // Invariant 3: the healer closes the window. Probe
                // with real PUTs until one is acked again.
                let heal_deadline = Instant::now() + Duration::from_secs(20);
                let mut healed = false;
                while Instant::now() < heal_deadline {
                    seq += 1;
                    let key = 1_000 * (i as u64 + 1) + 999;
                    match c.roundtrip(&format!("PUT {key} {seq}")) {
                        Ok("OK") => {
                            ledger.insert(key, seq);
                            summary.acked_writes += 1;
                            healed = true;
                            break;
                        }
                        Ok(_) => std::thread::sleep(Duration::from_millis(100)),
                        Err(e) => return Err(format!("heal-wait PUT: {e}")),
                    }
                }
                if !healed {
                    return Err("shard did not heal within 20 s of the fault window".into());
                }
                drop(c);
                graceful_shutdown(srv)?;
                if !manifest_has_clean_marker(&cfg.dir) {
                    return Err("graceful exit left no clean-shutdown marker".into());
                }
            }
            RoundKind::ConnReset => {
                let srv = spawn_server(cfg, &round.plan, true)?;
                let mut c = connect(srv.addr)?;
                let t0 = Instant::now();
                while t0.elapsed() < per_round {
                    seq += 1;
                    let key = 1_000 * (i as u64 + 1) + seq % 64;
                    match c.roundtrip(&format!("PUT {key} {seq}")) {
                        Ok("OK") => {
                            ledger.insert(key, seq);
                            summary.acked_writes += 1;
                        }
                        Ok(resp) => return Err(format!("PUT answered {resp:?}")),
                        Err(_) => {
                            // The injected reset killed this
                            // connection; survival means re-dialing,
                            // not erroring out.
                            summary.reconnects += 1;
                            c = connect(srv.addr)?;
                        }
                    }
                }
                drop(c);
                graceful_shutdown(srv)?;
                if !manifest_has_clean_marker(&cfg.dir) {
                    return Err("graceful exit left no clean-shutdown marker".into());
                }
            }
            RoundKind::Kill => {
                let mut srv = spawn_server(cfg, "", false)?;
                let mut c = connect(srv.addr)?;
                let t0 = Instant::now();
                while t0.elapsed() < per_round {
                    seq += 1;
                    let key = 1_000 * (i as u64 + 1) + seq % 64;
                    match c.roundtrip(&format!("PUT {key} {seq}")) {
                        Ok("OK") => {
                            ledger.insert(key, seq);
                            summary.acked_writes += 1;
                        }
                        Ok(resp) => return Err(format!("PUT answered {resp:?}")),
                        Err(e) => return Err(format!("kill round PUT: {e}")),
                    }
                }
                // SIGKILL mid-traffic: no drain, no marker — recovery
                // alone must preserve every acked write.
                srv.child.kill().map_err(|e| format!("kill server: {e}"))?;
                let _ = srv.child.wait();
                std::mem::forget(srv);
                if manifest_has_clean_marker(&cfg.dir) {
                    return Err("SIGKILL must not leave a clean-shutdown marker".into());
                }
            }
        }
        // Invariant 1, after every round.
        verify_ledger(cfg, &ledger)?;
        summary.rounds.push(round.kind.name());
    }
    done.store(true, Ordering::Relaxed);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = schedule(seed, 6);
            let b = schedule(seed, 6);
            assert_eq!(a, b, "seed {seed}: two derivations must be identical");
        }
        assert_ne!(
            schedule(1, 6),
            schedule(2, 6),
            "different seeds should (here) give different campaigns"
        );
    }

    #[test]
    fn schedule_always_carries_the_invariant_rounds() {
        for seed in 0..200u64 {
            let s = schedule(seed, 3);
            assert!(
                s.iter().any(|r| r.kind == RoundKind::FsyncFault),
                "seed {seed}: no fsync round"
            );
            assert!(
                s.iter().any(|r| r.kind == RoundKind::Kill),
                "seed {seed}: no kill round"
            );
        }
    }

    #[test]
    fn round_plans_embed_their_derived_seed() {
        for r in schedule(7, 5) {
            match r.kind {
                RoundKind::Kill => assert!(r.plan.is_empty()),
                _ => assert!(
                    r.plan.starts_with(&format!("seed={},", r.seed)),
                    "plan {:?} must pin its seed",
                    r.plan
                ),
            }
        }
    }
}
