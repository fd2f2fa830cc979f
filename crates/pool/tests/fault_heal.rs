//! Fault-window robustness, end to end over TCP: boot the real
//! `kv_server` binary with an armed fault plan, watch a shard get
//! poisoned read-only by an injected fsync failure, and hold the
//! server to the healing contract — the background healer must flip
//! the shard writable again, the refusals must be counted, and no
//! acked write may be lost across the whole episode. Plus the
//! graceful-shutdown contract: `SIGTERM` with a pipelined window in
//! flight answers every request, exits 0, and stamps the
//! clean-shutdown marker the next boot reports.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use malthus_pool::KvClient;
use malthus_storage::{ShardedKv, CLEAN_SHUTDOWN_MARKER};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("malthus-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots the real server binary on an ephemeral port over `dir` with
/// the given extra args, returning the child and the bound address.
fn spawn_server(dir: &std::path::Path, extra: &[&str]) -> (Child, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kv_server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kv_server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed its address")
        .expect("read server stdout");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

/// Pulls one `name=value` field out of a `STATS` response line.
fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("STATS lacks {name}=: {stats}"))
        .parse()
        .unwrap_or_else(|_| panic!("STATS {name} not a number: {stats}"))
}

/// The tentpole contract over the wire: an injected fsync failure
/// poisons the shard (`ERR shard readonly`), the healer's probes burn
/// through the fault window (`storage.fsync=1x2`: the poisoning sync
/// plus one failing probe), the shard comes back writable, the
/// episode is visible in `STATS`, and after a graceful shutdown a
/// restart serves exactly the acked writes.
#[test]
fn fsync_fault_poisons_then_heals_and_the_shard_accepts_writes_again() {
    let dir = temp_dir("heal");
    let (mut child, addr) = spawn_server(&dir, &["--fault-plan", "seed=7,storage.fsync=1x2"]);
    let mut client = KvClient::connect_with_backoff(addr, 50).expect("connect");

    // The first durable write trips the injected fsync failure: the
    // write is refused (not acked, not applied) and the shard goes
    // read-only.
    let resp = client.roundtrip("PUT 1 10").expect("first put round trip");
    assert_eq!(resp, "ERR shard readonly", "injected fsync must refuse");
    // Reads keep working while the shard is poisoned.
    assert_eq!(client.roundtrip("GET 1").expect("get"), "NIL");

    // The healer probes with capped backoff (50 ms doubling): the
    // first probe fails (second injection of the x2 window), the
    // second succeeds. Well under this deadline.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut healed = false;
    while Instant::now() < deadline {
        match client.roundtrip("PUT 2 20").expect("probe put") {
            "OK" => {
                healed = true;
                break;
            }
            "ERR shard readonly" => std::thread::sleep(Duration::from_millis(100)),
            other => panic!("probe PUT answered {other:?}"),
        }
    }
    assert!(healed, "shard did not heal within 20 s");

    // The episode is visible end to end: refusals counted, at least
    // one failed attempt before the successful heal.
    let stats = client.roundtrip("STATS").expect("stats").to_string();
    assert!(stats_field(&stats, "readonly_rejects") >= 1, "{stats}");
    assert_eq!(stats_field(&stats, "heals"), 1, "{stats}");
    assert!(stats_field(&stats, "heal_attempts") >= 2, "{stats}");
    assert_eq!(stats_field(&stats, "readonly_shards"), 0, "{stats}");

    // Healed means durable: SHUTDOWN, restart, and the acked write is
    // there while the refused one is not.
    assert_eq!(client.roundtrip("SHUTDOWN").expect("shutdown"), "OK");
    assert!(child.wait().expect("reap").success());
    let (mut child, addr) = spawn_server(&dir, &[]);
    let mut client = KvClient::connect_with_backoff(addr, 50).expect("reconnect");
    assert_eq!(client.roundtrip("GET 2").expect("get 2"), "VAL 20");
    assert_eq!(
        client.roundtrip("GET 1").expect("get 1"),
        "NIL",
        "the refused write must not resurrect"
    );
    assert_eq!(client.roundtrip("SHUTDOWN").expect("shutdown"), "OK");
    assert!(child.wait().expect("reap").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SIGTERM` mid-window: every request of a depth-16 pipelined burst
/// already accepted by the server is answered before the connection
/// closes, the process exits 0, the clean-shutdown marker lands in
/// `MANIFEST`, and the next open reports (and consumes) it.
#[test]
fn sigterm_drains_the_inflight_window_and_stamps_the_clean_marker() {
    const DEPTH: u64 = 16;
    let dir = temp_dir("sigterm");
    let (mut child, addr) = spawn_server(&dir, &[]);
    let mut client = KvClient::connect_with_backoff(addr, 50).expect("connect");

    // Fire the whole window without reading a single response, give
    // the bytes time to reach the server, then SIGTERM it.
    for seq in 0..DEPTH {
        client
            .send_tagged(seq, &format!("PUT {seq} {}", seq * 3 + 1))
            .expect("send in-window");
    }
    std::thread::sleep(Duration::from_millis(300));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill -TERM");
    assert!(term.success(), "kill -TERM failed");

    // Graceful drain: all DEPTH responses arrive, in order, all OK.
    for seq in 0..DEPTH {
        let (tag, resp) = client.recv_tagged().expect("drained response");
        assert_eq!(tag, seq, "responses must stay in request order");
        assert_eq!(resp, "OK", "request {seq} must be answered, not dropped");
    }
    let status = child.wait().expect("reap after SIGTERM");
    assert!(status.success(), "SIGTERM exit must be clean, got {status}");

    // The marker is on disk...
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("read MANIFEST");
    assert!(
        manifest.lines().any(|l| l.trim() == CLEAN_SHUTDOWN_MARKER),
        "MANIFEST lacks the clean-shutdown marker:\n{manifest}"
    );
    // ...the next open reports it, consumes it, and serves the acked
    // window.
    let (kv, report) = ShardedKv::open(&dir, 1, 4_096, 256).expect("reopen");
    assert!(report.clean_marker, "open must report the clean shutdown");
    assert!(report.clean(), "a drained shutdown leaves no torn tail");
    for seq in 0..DEPTH {
        assert_eq!(kv.get(seq), Some(seq * 3 + 1), "key {seq}");
    }
    drop(kv);
    let (_, report) = ShardedKv::open(&dir, 1, 4_096, 256).expect("second reopen");
    assert!(
        !report.clean_marker,
        "the marker is one-shot: consumed by the first open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
