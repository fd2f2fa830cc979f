//! Spawning and reaping the real `kv_server` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use malthus_pool::KvClient;

/// How long a server gets to exit after `SHUTDOWN` before it is
/// killed.
const SHUTDOWN_BOUND: Duration = Duration::from_secs(2);

/// A running `kv_server` child. Dropping it kills and reaps the
/// process, so no exit path — error return or panic — leaves a
/// listener behind.
#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: SocketAddr,
    /// Held open so a later write to stdout cannot kill the server
    /// with a broken pipe.
    _stdout: ChildStdout,
}

impl Server {
    /// Spawns `bin` on an ephemeral loopback port with `flags` and
    /// blocks until it prints its `listening on` line. The server's
    /// stderr banner is appended to `log`.
    pub fn spawn(bin: &Path, flags: &[String], log: &Path) -> std::io::Result<Server> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()?;
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        // EOF here means the server died before binding; the read
        // cannot hang, because its exit closes the pipe.
        let read = BufReader::new(&mut stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| parse_listening(&line));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "kv_server did not announce its port (got {line:?})"
            )));
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A control connection for `STATS`, `METRICS`, `PING` and the
    /// crash read-back; never part of a timed window.
    pub fn control(&self) -> std::io::Result<KvClient> {
        KvClient::connect_with_backoff(self.addr, 10)
    }

    /// `SIGKILL`, then reap (what dropping does): the crash in the
    /// crash test, and the fast way to discard a set-up repetition.
    pub fn kill(self) {}

    /// Graceful stop: `SHUTDOWN`, then wait up to [`SHUTDOWN_BOUND`];
    /// a server that has not exited by then is killed.
    pub fn shutdown(mut self) {
        if let Ok(mut c) = self.control() {
            let _ = c.roundtrip("SHUTDOWN");
        }
        let deadline = Instant::now() + SHUTDOWN_BOUND;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// The address in a `listening on <addr>` line.
fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.trim().strip_prefix("listening on ")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses_and_garbage_does_not() {
        assert_eq!(
            parse_listening("listening on 127.0.0.1:38115\n"),
            Some("127.0.0.1:38115".parse().unwrap())
        );
        assert_eq!(parse_listening(""), None);
        assert_eq!(parse_listening("listening on nowhere"), None);
    }
}
