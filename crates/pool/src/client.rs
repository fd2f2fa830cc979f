//! The KV wire client: what the tests, `kv_load`, `kvtop` and the
//! end-to-end benchmark speak to either front-end with.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::split_tag;

/// A minimal client for tests and the load generator: closed-loop via
/// [`KvClient::roundtrip`], or pipelined via
/// [`KvClient::send_tagged`]/[`KvClient::recv_tagged`] with a window
/// of in-flight tags.
///
/// All receive methods return `&str` slices **borrowed from the
/// client's reused line buffer** — the response is valid until the
/// next call, and the read hot path allocates nothing.
#[derive(Debug)]
pub struct KvClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    out: String,
}

/// Default connect attempts for [`KvClient::connect_with_backoff`]:
/// 3 tries with 10 ms → 40 ms capped exponential backoff.
pub const CONNECT_TRIES: u32 = 3;
/// First retry delay of the backoff schedule.
pub const CONNECT_FIRST_DELAY: Duration = Duration::from_millis(10);
/// Retry delay cap of the backoff schedule.
pub const CONNECT_DELAY_CAP: Duration = Duration::from_millis(40);

impl KvClient {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(KvClient {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            out: String::new(),
        })
    }

    /// [`KvClient::connect`] with up to `tries` attempts under capped
    /// exponential backoff (10 ms doubling to a 40 ms cap between
    /// attempts), killing the startup race where a load generator
    /// dials before the server's listener is up. `tries` is clamped
    /// to at least 1; the last attempt's error is returned. The
    /// default schedule ([`CONNECT_TRIES`]) gives up after ~70 ms —
    /// CI wrappers that race `cargo run` startup pass a larger
    /// `tries`.
    /// Each sleep is jittered ±25%: a thousand clients reconnecting
    /// to a restarted server would otherwise retry in lockstep and
    /// arrive as a synchronized stampede on every backoff step.
    pub fn connect_with_backoff(addr: SocketAddr, tries: u32) -> std::io::Result<Self> {
        let tries = tries.max(1);
        let mut delay = CONNECT_FIRST_DELAY;
        let mut last_err = None;
        // Seeded per call from the wall clock (nonzero by | 1), so
        // concurrent clients desynchronize from each other.
        let rng = malthus_park::XorShift64::new(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(1, |d| d.as_nanos() as u64)
                | 1,
        );
        for attempt in 0..tries {
            match Self::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
            if attempt + 1 < tries {
                let jitter_pct = 75 + rng.next_below(51); // 75..=125
                std::thread::sleep(delay.mul_f64(jitter_pct as f64 / 100.0));
                delay = (delay * 2).min(CONNECT_DELAY_CAP);
            }
        }
        Err(last_err.expect("at least one attempt"))
    }

    /// Sends one request line (terminator appended) as a single
    /// write, without waiting for the response.
    pub fn send_line(&mut self, request: &str) -> std::io::Result<()> {
        self.out.clear();
        self.out.push_str(request);
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())
    }

    /// Sends one request under a `#<tag>` pipeline prefix without
    /// waiting; the matching response will echo the tag.
    pub fn send_tagged(&mut self, tag: u64, request: &str) -> std::io::Result<()> {
        self.out.clear();
        let _ = write!(self.out, "#{tag} {request}");
        self.out.push('\n');
        self.writer.write_all(self.out.as_bytes())
    }

    /// Receives one response line, borrowed from the reused buffer
    /// (valid until the next client call).
    pub fn recv_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Receives one **tagged** response line, returning `(tag,
    /// response)` with the response borrowed from the reused buffer.
    /// An untagged or tag-garbled line is an
    /// [`InvalidData`](std::io::ErrorKind::InvalidData) error —
    /// pipelined callers have lost framing at that point.
    pub fn recv_tagged(&mut self) -> std::io::Result<(u64, &str)> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = self.line.trim_end();
        match split_tag(trimmed) {
            Ok((Some(tag), rest)) => Ok((tag, rest)),
            Ok((None, _)) | Err(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected a tagged response, got {trimmed:?}"),
            )),
        }
    }

    /// Sends one request line and returns the response line, borrowed
    /// from the reused buffer (valid until the next client call).
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.send_line(request)?;
        self.recv_line()
    }

    /// Sends one request whose response is a **multi-line document**
    /// terminated by a bare `# EOF` line (`METRICS`, `TRACE DUMP`),
    /// returning the body with the terminator stripped. Owned, not
    /// borrowed: documents outlive the reused line buffer.
    pub fn fetch_document(&mut self, request: &str) -> std::io::Result<String> {
        self.send_line(request)?;
        let mut doc = String::new();
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-document",
                ));
            }
            if self.line.trim_end() == "# EOF" {
                return Ok(doc);
            }
            doc.push_str(&self.line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_with_backoff_retries_then_reports_the_last_error() {
        // A port nothing listens on: bind-then-drop reserves one.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let started = std::time::Instant::now();
        let err = KvClient::connect_with_backoff(addr, 3).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        // Two sleeps: 10 ms + 20 ms (under the 40 ms cap), each
        // jittered down to 75% at worst — so at least 22.5 ms.
        assert!(elapsed >= Duration::from_millis(22), "{elapsed:?}");
        // And the racy-start case it exists for: a listener that
        // appears between attempts is reached.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap() // nothing accepting yet…
        };
        let accepter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            TcpListener::bind(addr).map(|l| l.accept().map(drop))
        });
        let late = KvClient::connect_with_backoff(addr, 50);
        let rebound = accepter.join().unwrap();
        if rebound.is_ok() {
            late.expect("connect must succeed once the listener is up");
        }
    }
}
