//! Spurious readiness loses nothing: with `net.eagain` armed, half of
//! all socket reads and flushes report `EAGAIN` without touching the
//! socket, and with `net.eintr` armed half of all `epoll_wait`s return
//! empty as if interrupted. The short-read rule leans on the
//! level-triggered re-arm to redeliver what a cut-short drain left
//! behind; this is that promise under the worst readiness the fault
//! plan can produce.
//!
//! Alone in its file because a fault plan is armed process-wide.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use malthus_fault::{FaultPlan, Site};
use malthus_net::{Action, CloseReason, Handler, Reactor, ReactorConfig};

struct Echo;

impl Handler for Echo {
    type Conn = ();

    fn on_open(&self, _stream: &TcpStream) -> Self::Conn {}

    fn on_data(
        &self,
        _conn: &mut Self::Conn,
        read_buf: &mut Vec<u8>,
        write_buf: &mut Vec<u8>,
    ) -> Action {
        if let Some(last_nl) = read_buf.iter().rposition(|&b| b == b'\n') {
            write_buf.extend(read_buf.drain(..=last_nl));
        }
        Action::Continue
    }

    fn on_close(&self, _conn: &mut Self::Conn, _reason: CloseReason) {}
}

#[test]
fn injected_eagain_on_reads_and_flushes_loses_no_line() {
    let plan = FaultPlan::parse("seed=15,net.eagain=0.5,net.eintr=0.5").unwrap();
    let faults = malthus_fault::install(&plan);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let reactor = Reactor::start(listener, Echo, ReactorConfig::malthusian(2)).unwrap();
    let mut c = TcpStream::connect(reactor.local_addr().unwrap()).unwrap();
    c.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(c.try_clone().unwrap());
    let mut got = String::new();
    // Closed loop: every request is its own wakeup, so every one of
    // them can meet an injected EAGAIN on the way in and on the way out.
    for i in 0..300 {
        c.write_all(format!("ping-{i}\n").as_bytes()).unwrap();
        got.clear();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, format!("ping-{i}\n"));
    }
    // Pipelined: a burst several read blocks long, cut short at random.
    let burst: String = (0..6_000).map(|i| format!("burst-{i:06}\n")).collect();
    c.write_all(burst.as_bytes()).unwrap();
    for i in 0..6_000 {
        got.clear();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, format!("burst-{i:06}\n"));
    }
    drop((c, reader));
    let stats = reactor.join();
    let injected = faults.injected(Site::NetEagain);
    assert!(injected >= 100, "only {injected} EAGAINs were injected");
    assert!(stats.partial_flushes > 0, "no flush met an injected EAGAIN");
    let interrupted = faults.injected(Site::NetEintr);
    assert!(interrupted > 0, "no epoll_wait met an injected EINTR");
}
