//! The load generator's connection driver and reply checker.
//!
//! One thread drives every connection: each sends a tagged window of
//! `depth` requests in one `write()` and its next window once the
//! last reply of the previous one is in, and the thread sleeps in
//! `poll` while no connection has a reply to read. Every reply line
//! is compared against the script's pre-rendered expectation; latency
//! is stamped per request from its window's `write()` to the `read()`
//! that returned its reply. A reply that differs in any byte — wrong
//! value, `ERR`, wrong tag, broken framing — is a failure and earns no
//! latency sample.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Sample;
use crate::stream::Script;

/// Read buffer per connection; far above any reply burst a window can
/// produce.
const READ_BUF: usize = 64 * 1024;

/// Compares the reply byte stream against a script, line by line.
#[derive(Debug)]
pub struct Checker<'a> {
    script: &'a Script,
    /// Replies consumed so far; reply `n` answers request
    /// `n % script.len()`.
    next: u64,
}

impl<'a> Checker<'a> {
    pub fn new(script: &'a Script) -> Self {
        Checker { script, next: 0 }
    }

    /// Replies consumed so far, matching or not.
    pub fn consumed(&self) -> u64 {
        self.next
    }

    /// Checks every complete line in `data`, calling `on_reply(index,
    /// wrong)` for each — `wrong` is the received line when it is not
    /// the expected one — and returns how many bytes it consumed; the
    /// rest is a partial line the caller must present again with more
    /// bytes behind it.
    pub fn check(&mut self, data: &[u8], mut on_reply: impl FnMut(u64, Option<&[u8]>)) -> usize {
        let mut pos = 0;
        loop {
            let expect = self
                .script
                .reply((self.next % self.script.len() as u64) as usize);
            let rest = &data[pos..];
            if rest.len() >= expect.len() && rest[..expect.len()] == *expect {
                on_reply(self.next, None);
                pos += expect.len();
            } else if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
                // A complete line that is not the expected one.
                on_reply(self.next, Some(&rest[..nl]));
                pos += nl + 1;
            } else {
                return pos;
            }
            self.next += 1;
        }
    }
}

/// When the measured window is, on a clock the load thread and the
/// sampling thread share.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub t0: Instant,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: u32,
}

impl Clock {
    /// When slice `i` starts; `slices` gives the window's end.
    pub fn slice_start(&self, i: u32) -> Instant {
        self.t0 + self.warmup + self.slice * i
    }

    /// The slice `t` falls in, if it is inside the measured window.
    fn slice_of(&self, t: Instant) -> Option<u32> {
        let into = t.checked_duration_since(self.slice_start(0))?;
        let i = (into.as_nanos() / self.slice.as_nanos()) as u32;
        (i < self.slices).then_some(i)
    }
}

/// How long the connections keep sending.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Send each script once, front to back (the preload).
    Once,
    /// Replay the scripts until the window ends, then drain.
    Window(Clock),
    /// Replay the scripts until the server dies under them: the crash
    /// test keeps requests in flight when `SIGKILL` lands. The
    /// connection error is expected once `killed` is set.
    UntilKilled(Clock),
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Requests written (whole windows).
    pub sent: u64,
    /// Replies that matched their expectation.
    pub verified: u64,
    /// Replies consumed, matching or not.
    pub answered: u64,
    /// Replies that did not match, plus requests never answered
    /// because a connection failed.
    pub failed: u64,
    /// Verified replies per window slice.
    pub ok_per_slice: Vec<u64>,
    /// Latency samples of the window's verified replies.
    pub samples: Vec<Sample>,
    /// The first reply that did not match, for the error report.
    pub first_wrong: Option<String>,
    /// The I/O error that ended the run while this connection had
    /// requests in flight, unless it was the expected kill.
    pub error: Option<String>,
}

/// `poll(2)`, the one call this needs that std does not offer: the
/// load thread sleeps on all its connections at once.
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }

    /// Blocks until one of `fds` has `revents` set; descriptors below
    /// zero are skipped, as `poll(2)` defines.
    pub fn wait(fds: &mut [PollFd]) -> std::io::Result<()> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `#[repr(C)]` structs laid out as `struct pollfd`, and its
            // length is passed alongside.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, -1) };
            if n >= 0 {
                return Ok(());
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

/// One connection inside [`drive`]: at most one window in flight.
struct Lane<'a> {
    stream: &'a TcpStream,
    script: &'a Script,
    checker: Checker<'a>,
    buf: Vec<u8>,
    have: usize,
    /// When the window in flight was written.
    sent_at: Instant,
    report: ConnReport,
}

impl Lane<'_> {
    fn in_flight(&self) -> bool {
        self.report.sent > self.report.answered
    }

    /// Writes the next window — `depth` request lines in one `write()`
    /// — if `plan` still has one to send at `now`.
    fn send(&mut self, depth: usize, plan: Plan, now: Instant) -> std::io::Result<()> {
        let len = self.script.len() as u64;
        let may_send = match plan {
            Plan::Once => self.report.sent < len,
            Plan::Window(c) => now < c.slice_start(c.slices),
            Plan::UntilKilled(_) => true,
        };
        if !may_send {
            return Ok(());
        }
        let from = (self.report.sent % len) as usize;
        let to = (from + depth).min(self.script.len());
        self.sent_at = Instant::now();
        let mut stream = self.stream;
        stream.write_all(self.script.requests(from, to))?;
        self.report.sent += (to - from) as u64;
        Ok(())
    }

    /// One `read()` and the check of every complete reply line it
    /// brought. Replies returned by one read share a latency. Returns
    /// the time of the read.
    fn receive(&mut self, clock: Option<Clock>) -> std::io::Result<Instant> {
        if self.have == self.buf.len() {
            return Err(std::io::Error::other(
                "reply line overflows the read buffer",
            ));
        }
        let mut stream = self.stream;
        let n = stream.read(&mut self.buf[self.have..])?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let now = Instant::now();
        self.have += n;
        let (script, report) = (self.script, &mut self.report);
        let mut ok = 0u32;
        let used = self.checker.check(&self.buf[..self.have], |index, wrong| {
            let Some(got) = wrong else {
                ok += 1;
                return;
            };
            report.failed += 1;
            report.first_wrong.get_or_insert_with(|| {
                let want = script.reply((index % script.len() as u64) as usize);
                format!(
                    "reply {index}: expected {:?}, got {:?}",
                    String::from_utf8_lossy(want).trim_end(),
                    String::from_utf8_lossy(got)
                )
            });
        });
        report.verified += u64::from(ok);
        report.answered = self.checker.consumed();
        if let (Some(slice), true) = (clock.and_then(|c| c.slice_of(now)), ok > 0) {
            report.ok_per_slice[slice as usize] += u64::from(ok);
            report.samples.push(Sample {
                lat_ns: now.duration_since(self.sent_at).as_nanos() as u64,
                n: ok,
                slice,
            });
        }
        self.buf.copy_within(used..self.have, 0);
        self.have -= used;
        if report.answered > report.sent {
            return Err(std::io::Error::other("reply to a request never sent"));
        }
        Ok(now)
    }
}

/// Drives every connection through its script under `plan`, from the
/// calling thread alone. Each connection sends a window of `depth`
/// requests, and its next window once the last reply of the previous
/// one is in; the thread sleeps in `poll` whenever no connection has
/// a reply to read.
pub fn drive(
    conns: &[TcpStream],
    scripts: &[&Script],
    depth: usize,
    plan: Plan,
    killed: &AtomicBool,
) -> Vec<ConnReport> {
    let clock = match plan {
        Plan::Once => None,
        Plan::Window(c) | Plan::UntilKilled(c) => Some(c),
    };
    let mut lanes: Vec<Lane<'_>> = conns
        .iter()
        .zip(scripts)
        .map(|(stream, script)| {
            assert!(
                clock.is_none() || script.len().is_multiple_of(depth),
                "a replayed script must be whole windows"
            );
            Lane {
                stream,
                script,
                checker: Checker::new(script),
                buf: vec![0u8; READ_BUF],
                have: 0,
                sent_at: Instant::now(),
                report: ConnReport {
                    ok_per_slice: vec![0; clock.map_or(0, |c| c.slices as usize)],
                    // Room for the whole window up front, so the
                    // window itself almost never allocates.
                    samples: Vec::with_capacity(if clock.is_some() { 1 << 20 } else { 0 }),
                    ..ConnReport::default()
                },
            }
        })
        .collect();
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();

    let result: std::io::Result<()> = (|| {
        let start = Instant::now();
        for lane in &mut lanes {
            lane.send(depth, plan, start)?;
        }
        loop {
            // Only connections with a window in flight are waited on.
            for ((fd, lane), conn) in fds.iter_mut().zip(&lanes).zip(conns) {
                fd.fd = if lane.in_flight() {
                    conn.as_raw_fd()
                } else {
                    -1
                };
                fd.revents = 0;
            }
            if !lanes.iter().any(Lane::in_flight) {
                return Ok(()); // nothing in flight and nothing more to send
            }
            sys::wait(&mut fds)?;
            for (fd, lane) in fds.iter().zip(&mut lanes) {
                if fd.revents == 0 {
                    continue;
                }
                let now = lane.receive(clock)?;
                if !lane.in_flight() {
                    lane.send(depth, plan, now)?;
                }
            }
        }
    })();

    let expected = matches!(plan, Plan::UntilKilled(_)) && killed.load(Ordering::SeqCst);
    if let (Err(e), false) = (&result, expected) {
        // Every request still in flight, on any connection, missed its
        // reply; an error with nothing in flight is still reported.
        let any = lanes.iter().any(Lane::in_flight);
        for lane in lanes.iter_mut().filter(|l| !any || l.in_flight()) {
            lane.report.failed += lane.report.sent.saturating_sub(lane.report.answered);
            lane.report.error = Some(e.to_string());
        }
    }
    lanes.into_iter().map(|l| l.report).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{conn_stream, Traffic, CONNS, MSET_PAIRS};

    const T: Traffic = Traffic {
        keys: 1_000,
        put_pct: 20,
        depth: 16,
        fresh_puts: true,
    };

    fn replies(script: &Script, range: std::ops::Range<usize>) -> Vec<u8> {
        range.flat_map(|i| script.reply(i).to_vec()).collect()
    }

    fn run(checker: &mut Checker<'_>, data: &[u8]) -> (usize, Vec<(u64, bool)>) {
        let mut seen = Vec::new();
        let used = checker.check(data, |i, wrong| seen.push((i, wrong.is_none())));
        (used, seen)
    }

    #[test]
    fn matching_replies_verify_and_partial_lines_wait() {
        let s = conn_stream(1, 0, T);
        let mut c = Checker::new(&s.script);
        let bytes = replies(&s.script, 0..3);
        // Split mid-line: the tail is left for the next read.
        let cut = bytes.len() - 2;
        let (used, seen) = run(&mut c, &bytes[..cut]);
        assert_eq!(seen, vec![(0, true), (1, true)]);
        assert!(used < cut);
        let (_, seen) = run(&mut c, &bytes[used..]);
        assert_eq!(seen, vec![(2, true)]);
        assert_eq!(c.consumed(), 3);
    }

    #[test]
    fn wrong_value_and_err_are_failures_that_keep_framing() {
        let s = conn_stream(1, 0, T);
        let mut c = Checker::new(&s.script);
        let mut bytes = b"#0 VAL 1\n".to_vec(); // no value is ever 1 digit here
        bytes.extend_from_slice(b"#1 ERR shard readonly\n");
        bytes.extend(replies(&s.script, 2..4));
        let (used, seen) = run(&mut c, &bytes);
        assert_eq!(used, bytes.len());
        assert_eq!(seen, vec![(0, false), (1, false), (2, true), (3, true)]);
    }

    #[test]
    fn swapped_tags_fail_both_replies() {
        let s = conn_stream(1, 0, T);
        let mut c = Checker::new(&s.script);
        let mut bytes = replies(&s.script, 1..2);
        bytes.extend(replies(&s.script, 0..1));
        bytes.extend(replies(&s.script, 2..3));
        let (_, seen) = run(&mut c, &bytes);
        assert_eq!(seen, vec![(0, false), (1, false), (2, true)]);
    }

    #[test]
    fn corrupted_expected_table_reports_failures_not_latency() {
        let mut s = conn_stream(1, 0, T);
        let wire = replies(&s.script, 0..4);
        // The server's bytes are right; the generator's table is wrong.
        s.script.corrupt_reply(2, b"#9");
        let mut c = Checker::new(&s.script);
        let (_, seen) = run(&mut c, &wire);
        assert_eq!(seen, vec![(0, true), (1, true), (2, false), (3, true)]);
    }

    /// A scripted peer: answers whatever arrives with `reply_bytes`,
    /// then closes.
    fn peer(reply_bytes: Vec<u8>) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(&reply_bytes).unwrap();
            let mut sink = Vec::new();
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let _ = s.read_to_end(&mut sink);
        });
        (TcpStream::connect(addr).unwrap(), handle)
    }

    #[test]
    fn short_read_fails_every_request_still_in_flight() {
        let s = conn_stream(1, 0, T);
        // Five full replies and half of the sixth, then EOF.
        let mut wire = replies(&s.script, 0..6);
        wire.truncate(wire.len() - 3);
        let (stream, handle) = peer(wire);
        let clock = Clock {
            t0: Instant::now(),
            warmup: Duration::ZERO,
            slice: Duration::from_secs(5),
            slices: 1,
        };
        let r = drive(
            std::slice::from_ref(&stream),
            &[&s.script],
            16,
            Plan::Window(clock),
            &AtomicBool::new(false),
        )
        .remove(0);
        drop(stream);
        handle.join().unwrap();
        assert_eq!(r.verified, 5);
        assert_eq!(r.sent, 16);
        assert_eq!(r.failed, 11, "the torn reply and the ten behind it");
        assert!(r.error.is_some());
        let sampled: u64 = r.samples.iter().map(|s| u64::from(s.n)).sum();
        assert_eq!(sampled, 5, "failures earn no latency sample");
        assert_eq!(r.ok_per_slice, vec![5]);
    }

    #[test]
    fn once_plan_sends_the_script_exactly_once() {
        // Five lines: less than the window, so one write sends them all.
        let p = crate::stream::preload_script(1, 0, 5 * (MSET_PAIRS * CONNS) as u64);
        let wire = replies(&p, 0..p.len());
        let (stream, handle) = peer(wire);
        let never = AtomicBool::new(false);
        let r = drive(std::slice::from_ref(&stream), &[&p], 8, Plan::Once, &never).remove(0);
        drop(stream);
        handle.join().unwrap();
        assert_eq!((r.sent, r.verified, r.failed), (5, 5, 0));
        assert!(r.error.is_none());
    }
}
