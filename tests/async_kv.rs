//! The pipelined-KV wire invariants, replayed against the **reactor
//! front-end** (`serve_async`): tagged responses echo in request
//! order, tagged/untagged streams interleave, malformed tags earn
//! `ERR` without killing the connection, a single-segment burst
//! answers every line, a depth-16 stress run passes under the
//! watchdog, and — reactor-specific — idle connections are reaped by
//! the timer wheel into `STATS idle_disconnects=`. The protocol is
//! byte-identical between front-ends, so the shared assertions are
//! the very functions (`tests/common`) that `tests/pipelined_kv.rs`
//! runs against the threaded server.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use malthus_obs::Sample;
use malthus_pool::{serve_async, server, AsyncServeOptions, KvClient, KvService};

mod common;

/// Boots a reactor-front-end server on an ephemeral loopback port;
/// returns the address and a closer that shuts everything down.
fn start_async_server(
    shards: usize,
    read_timeout: Option<Duration>,
) -> (SocketAddr, Arc<KvService>, impl FnOnce()) {
    let (listener, control) = server::bind("127.0.0.1:0").unwrap();
    let addr = control.addr();
    let service = Arc::new(KvService::with_shards(shards, 64, 256));
    let server = {
        let service = Arc::clone(&service);
        let control = control.clone();
        std::thread::spawn(move || {
            serve_async(
                listener,
                &control,
                service,
                AsyncServeOptions {
                    workers: 3,
                    acs_target: 1,
                    read_timeout,
                },
            )
            .unwrap()
        })
    };
    let service_out = Arc::clone(&service);
    let closer = move || {
        control.stop();
        server.join().unwrap();
    };
    (addr, service_out, closer)
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
