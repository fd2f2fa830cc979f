//! Line framing is one piece of code (`drain_lines`) behind two
//! readers — the threaded front-end's block reader and the reactor's
//! scratch-block drain — so each framing case is asserted once and run
//! against both: a line split across two writes, a line longer than
//! either reader's block, Unicode whitespace around a line, and
//! invalid UTF-8 closing the connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use malthus_pool::kv::{self, KvService, MAX_BATCH_KEYS};
use malthus_pool::{serve_async, AsyncServeOptions, PoolConfig, WorkCrew};

/// Boots one front-end on an ephemeral port; the closer stops it.
fn start(reactor: bool) -> (SocketAddr, Box<dyn FnOnce()>) {
    let (listener, control) = kv::bind("127.0.0.1:0").unwrap();
    let addr = control.addr();
    let service = Arc::new(KvService::with_shards(4, 4_096, 256));
    let crew = Arc::new(WorkCrew::new(PoolConfig::malthusian(2, 16)));
    let server = {
        let (control, crew) = (control.clone(), Arc::clone(&crew));
        std::thread::spawn(move || {
            if reactor {
                serve_async(
                    listener,
                    &control,
                    service,
                    AsyncServeOptions::malthusian(2),
                )
            } else {
                kv::serve(listener, &control, crew, service)
            }
            .unwrap()
        })
    };
    let closer = move || {
        control.stop();
        server.join().unwrap();
        crew.shutdown();
    };
    (addr, Box::new(closer))
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn on_both_front_ends(case: impl Fn(SocketAddr)) {
    for reactor in [false, true] {
        let (addr, close) = start(reactor);
        case(addr);
        close();
    }
}

#[test]
fn a_request_split_across_two_writes_is_answered_once_whole() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"#1 PUT 7 70\n#2 GE").unwrap();
        assert_eq!(reply(&mut replies), "#1 OK\n");
        // The server now holds `#2 GE` as an unfinished line.
        c.write_all(b"T 7\n#3 PING\n").unwrap();
        assert_eq!(reply(&mut replies), "#2 VAL 70\n");
        assert_eq!(reply(&mut replies), "#3 PONG\n");
    });
}

#[test]
fn a_line_longer_than_the_read_block_is_served() {
    // 1024 pairs of 20-digit numbers: 43 KiB in one line, several
    // times the threaded reader's block and the reactor's scratch.
    let mut line = String::from("#9 MSET");
    for i in 0..MAX_BATCH_KEYS as u64 {
        line.push_str(&format!(" {} {}", u64::MAX - i, u64::MAX / 2 + i));
    }
    line.push('\n');
    assert!(line.len() > 40 * 1024);
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(line.as_bytes()).unwrap();
        assert_eq!(reply(&mut replies), format!("#9 OK {MAX_BATCH_KEYS}\n"));
        c.write_all(format!("GET {}\n", u64::MAX).as_bytes())
            .unwrap();
        assert_eq!(reply(&mut replies), format!("VAL {}\n", u64::MAX / 2));
    });
}

#[test]
fn unicode_whitespace_around_a_line_is_trimmed() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all("\u{00A0}#4 PUT 1 2\u{2003}\r\n\u{3000}\n \t GET 1 \n".as_bytes())
            .unwrap();
        assert_eq!(reply(&mut replies), "#4 OK\n");
        assert_eq!(reply(&mut replies), "VAL 2\n");
    });
}

#[test]
fn invalid_utf8_closes_the_connection_and_nothing_executes() {
    on_both_front_ends(|addr| {
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"PUT 5 50\nGET \xFF\n").unwrap();
        let mut rest = Vec::new();
        replies.read_to_end(&mut rest).unwrap();
        assert_eq!(
            rest, b"",
            "the chunk is dropped whole and the socket closed"
        );
        let (mut c, mut replies) = connect(addr);
        c.write_all(b"GET 5\n").unwrap();
        assert_eq!(reply(&mut replies), "NIL\n");
    });
}
