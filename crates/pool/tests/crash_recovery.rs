//! The durability contract, end to end: boot a real `kv_server`
//! process on a temp data directory, drive it with a pipelined write
//! window, SIGKILL it with requests still in flight, then reopen the
//! data directory in-process and verify **every acknowledged write**
//! is readable. An ack means the group commit's fsync completed, so
//! not even `kill -9` may lose it; unacked in-flight writes may or
//! may not survive (both outcomes are correct).

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use malthus_pool::KvClient;
use malthus_storage::ShardedKv;

const SHARDS: usize = 2;
/// In-flight window per the pipelined protocol.
const DEPTH: usize = 32;
/// Acked writes before the kill.
const TARGET_ACKED: usize = 500;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("malthus-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots the real server binary on an ephemeral port over `dir`,
/// returning the child and the bound address parsed from its stdout.
fn spawn_server(dir: &std::path::Path) -> (Child, std::net::SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kv_server"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &SHARDS.to_string(),
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
        ])
        // Names the server once read as settings. Flags are its only
        // configuration: were these still read, the boot would run
        // memory-only on the reactor and nothing would survive the
        // restart below.
        .env("MALTHUS_KV_NO_WAL", "1")
        .env("MALTHUS_KV_ASYNC", "1")
        .env("MALTHUS_KV_SHARDS", "7")
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

/// The value every key is written with (recomputable at verify time).
fn value_of(key: u64) -> u64 {
    key.wrapping_mul(31) + 7
}

#[test]
fn acked_writes_survive_sigkill() {
    let dir = temp_dir("sigkill");
    let (mut child, addr) = spawn_server(&dir);
    let mut client = KvClient::connect_with_backoff(addr, 50).expect("connect to fresh server");

    // A pipelined window of writes: mostly PUTs, every 8th a 4-pair
    // MSET, so both write verbs' acks are covered. Tags are the
    // sequence numbers; `outstanding` maps each in-flight tag to the
    // keys that request wrote.
    let mut outstanding: std::collections::VecDeque<(u64, Vec<u64>)> =
        std::collections::VecDeque::with_capacity(DEPTH);
    let mut acked: Vec<u64> = Vec::with_capacity(TARGET_ACKED + 8);
    let mut seq = 0u64;
    let mut next_key = 0u64;
    let mut req = String::new();
    while acked.len() < TARGET_ACKED {
        while outstanding.len() < DEPTH {
            use std::fmt::Write as _;
            req.clear();
            let mut keys = Vec::new();
            if seq % 8 == 7 {
                req.push_str("MSET");
                for _ in 0..4 {
                    let k = next_key;
                    next_key += 1;
                    let _ = write!(req, " {k} {}", value_of(k));
                    keys.push(k);
                }
            } else {
                let k = next_key;
                next_key += 1;
                let _ = write!(req, "PUT {k} {}", value_of(k));
                keys.push(k);
            }
            client.send_tagged(seq, &req).expect("send in-window");
            outstanding.push_back((seq, keys));
            seq += 1;
        }
        let (exp, keys) = outstanding.pop_front().expect("window just filled");
        let (tag, resp) = client.recv_tagged().expect("response before the kill");
        assert_eq!(tag, exp, "pipeline tag mismatch");
        // PUT acks "OK", MSET acks "OK <count>".
        assert!(
            resp == "OK" || resp.starts_with("OK "),
            "write in a healthy run must ack, got {resp:?}"
        );
        acked.extend(keys);
    }

    // kill -9 with a full window still in flight: no shutdown path,
    // no Drop handlers — the process is simply gone.
    assert!(
        !outstanding.is_empty(),
        "the kill must race in-flight writes"
    );
    child.kill().expect("SIGKILL the server");
    child.wait().expect("reap the server");

    // Reboot the store the way a restarted server would and check the
    // contract: every acked key must be there, bit-exact. (A torn
    // tail from the in-flight window is legal and tolerated.)
    let (kv, report) = ShardedKv::open(&dir, SHARDS, 4_096, 256).expect("reopen after crash");
    assert_eq!(
        report.bad_records(),
        0,
        "a crash must never corrupt records"
    );
    assert!(
        report.pairs() >= acked.len() as u64,
        "replay recovered {} pairs but {} were acked",
        report.pairs(),
        acked.len()
    );
    for &k in &acked {
        assert_eq!(
            kv.get(k),
            Some(value_of(k)),
            "acked key {k} lost by the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_restart_serves_previous_writes_over_the_wire() {
    let dir = temp_dir("restart");
    // First server generation: write, then SHUTDOWN cleanly.
    {
        let (mut child, addr) = spawn_server(&dir);
        let mut client = KvClient::connect_with_backoff(addr, 50).expect("connect gen 1");
        for k in 0..50u64 {
            let resp = client
                .roundtrip(&format!("PUT {k} {}", value_of(k)))
                .expect("gen-1 put");
            assert_eq!(resp, "OK");
        }
        assert_eq!(client.roundtrip("SHUTDOWN").expect("shutdown"), "OK");
        child.wait().expect("gen-1 exit");
    }
    // Second generation over the same directory: the replayed store
    // serves generation 1's writes over the wire.
    let (mut child, addr) = spawn_server(&dir);
    let mut client = KvClient::connect_with_backoff(addr, 50).expect("connect gen 2");
    for k in 0..50u64 {
        let resp = client.roundtrip(&format!("GET {k}")).expect("gen-2 get");
        assert_eq!(resp, format!("VAL {}", value_of(k)), "key {k}");
    }
    assert_eq!(client.roundtrip("SHUTDOWN").expect("shutdown"), "OK");
    child.wait().expect("gen-2 exit");
    let _ = std::fs::remove_dir_all(&dir);
}
