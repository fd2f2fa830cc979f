//! The pipelined-KV wire invariants, replayed against the **reactor
//! front-end** (`Front::Reactor`): tagged responses echo in request
//! order, tagged/untagged streams interleave, malformed tags earn
//! `ERR` without killing the connection, a single-segment burst
//! answers every line, a depth-1 client runs one request per batch, a
//! depth-16 stress run passes under the watchdog, and —
//! reactor-specific — idle connections are reaped by the timer wheel
//! into `STATS idle_disconnects=`. The protocol is
//! byte-identical between front-ends, so the shared assertions are
//! the very functions (`tests/common`) that `tests/pipelined_kv.rs`
//! runs against the threaded server.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use malthus_obs::Sample;
use malthus_pool::{Admission, Front, KvClient, KvService, ReactorConfig, Server};
use malthus_storage::{LockPair, McsPair, ShardedKv};

mod common;

/// Boots a reactor-front-end server (three workers, one polling) on
/// an ephemeral loopback port; returns the address and a closer that
/// shuts everything down.
fn start_async_server(
    shards: usize,
    read_timeout: Option<Duration>,
) -> (SocketAddr, Arc<KvService>, impl FnOnce()) {
    let service = Arc::new(KvService::with_shards(shards, 64, 256));
    let front = Front::Reactor(ReactorConfig::malthusian(3).with_acs_target(1));
    let server = Server::start("127.0.0.1:0", Arc::clone(&service), front, read_timeout).unwrap();
    (server.addr(), service, move || server.stop())
}

#[test]
fn tagged_responses_echo_in_request_order() {
    let (addr, _service, close) = start_async_server(2, None);
    common::tagged_responses_echo_in_request_order(addr);
    close();
}

#[test]
fn tagged_and_untagged_streams_interleave() {
    let (addr, _service, close) = start_async_server(2, None);
    common::tagged_and_untagged_streams_interleave(addr);
    close();
}

#[test]
fn malformed_tags_err_without_killing_the_connection() {
    let (addr, _service, close) = start_async_server(1, None);
    common::malformed_tags_err_without_killing_the_connection(addr);
    close();
}

/// Many requests in ONE TCP segment: the reactor's readiness wakeup
/// must drain them as a batch and answer every line in order — the
/// ready-connection-is-a-batch path exercised from the socket side.
#[test]
fn single_write_burst_answers_every_line() {
    let (addr, service, close) = start_async_server(2, None);
    common::single_write_burst_answers_every_line(addr, &service);
    close();
}

#[test]
fn batch_instruments_agree_while_connections_are_open() {
    let (addr, _service, close) = start_async_server(2, None);
    common::batch_instruments_agree_while_connections_are_open(addr);
    close();
}

#[test]
fn a_depth_one_client_runs_one_request_per_batch() {
    let (addr, service, close) = start_async_server(2, None);
    common::a_depth_one_client_runs_one_request_per_batch(addr, &service);
    close();
}

/// QUIT closes without a response; SHUTDOWN answers `OK` (tagged) and
/// stops the whole server — control verbs through the reactor path.
#[test]
fn control_verbs_match_the_threaded_front_end() {
    let (addr, _service, close) = start_async_server(1, None);
    {
        let mut c = KvClient::connect(addr).unwrap();
        assert_eq!(c.roundtrip("PING").unwrap(), "PONG");
        c.send_line("QUIT").unwrap();
        // QUIT closes silently: the next read sees EOF, not a line.
        assert!(c.recv_line().is_err());
    }
    let mut c = KvClient::connect(addr).unwrap();
    assert_eq!(c.roundtrip("#9 SHUTDOWN").unwrap(), "#9 OK");
    close(); // already stopping; must not hang or double-panic
}

/// The unrestricted server is built as `kv_server --unrestricted
/// --async` builds it: every worker circulating, over the MCS lock pair.
#[test]
fn the_admission_point_exports_one_family() {
    fn start<P: LockPair>(service: KvService<P>, admission: Admission) -> Server<P> {
        let front = Front::Reactor(ReactorConfig::new(admission));
        Server::start("127.0.0.1:0", Arc::new(service), front, None).unwrap()
    }
    let restricted = start(
        KvService::with_shards(2, 64, 256),
        Admission::malthusian(4).with_acs_target(1),
    );
    let unrestricted = start(
        KvService::from_store(ShardedKv::<McsPair>::memory(2, 64, 256)),
        Admission::unrestricted(4),
    );
    common::the_admission_point_exports_one_family(
        "reactor",
        "kv_reactor_culls_total",
        restricted.addr(),
        unrestricted.addr(),
    );
    restricted.stop();
    unrestricted.stop();
}

/// The depth-16 stress of the threaded suite, under the watchdog so a
/// lost readiness wakeup fails loudly instead of hanging CI.
#[test]
fn depth_16_stress_against_four_shards() {
    let done = common::run_with_watchdog(Duration::from_secs(60), || {
        let (addr, service, close) = start_async_server(4, None);
        common::depth_16_stress_against_four_shards(addr, &service);
        close();
    });
    assert!(done, "async pipelined stress timed out");
}

/// With a read timeout configured, the reactor's timer wheel reaps
/// idle connections into the same `idle_disconnects` counter the
/// threaded front-end's socket timeouts feed — while a chatty
/// connection on the same wheel survives.
#[test]
fn idle_connections_feed_idle_disconnects() {
    let (addr, service, close) = start_async_server(1, Some(Duration::from_millis(500)));
    let mut busy = KvClient::connect(addr).unwrap();
    let _idle_a = TcpStream::connect(addr).unwrap();
    let _idle_b = TcpStream::connect(addr).unwrap();
    let idle = || match service.registry().sample("kv_idle_disconnects_total") {
        Some(Sample::Counter(n)) => n,
        other => panic!("kv_idle_disconnects_total reads {other:?}"),
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while idle() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "idle connections were not reaped within 10s (saw {})",
            idle()
        );
        assert_eq!(busy.roundtrip("PING").unwrap(), "PONG");
        std::thread::sleep(Duration::from_millis(50));
    }
    // The chatty connection outlived the reaping.
    assert_eq!(busy.roundtrip("GET 1").unwrap(), "NIL");
    drop(busy);
    close();
}
