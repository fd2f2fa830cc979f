//! The text layer of the wire protocol: one byte-level tokenizer, the
//! per-wakeup drain loop every connection runs, and the reply renderer.
//!
//! A request line is split exactly once, on bytes: an optional `#<tag>`
//! prefix, a verb, and unsigned 64-bit arguments separated by ASCII
//! whitespace. Nothing here allocates on a well-formed `GET`/`PUT`
//! line, and nothing goes through `core::fmt` — parse errors are the
//! only place a `String` is built.
//!
//! Two whitespace classes matter, and both are inherited from the
//! `str`-based parser this replaced (kept under `#[cfg(test)]` as the
//! oracle): a line is *trimmed*, and a tag is *terminated*, by any
//! Unicode `White_Space` character; arguments are *separated* by ASCII
//! whitespace only. The multi-byte members of the first class are
//! recognised by their UTF-8 encodings, which is exact because
//! the drain loop validates a chunk as UTF-8 before tokenizing it.

use std::borrow::Cow;

/// Upper bound on keys per `MGET` / pairs per `MSET` line: bounds
/// the parsed batch (and so how long one batch monopolizes the crew
/// worker executing it).
pub const MAX_BATCH_KEYS: usize = 1_024;
/// Entries a bare `SLOWLOG` (no count) returns.
pub const DEFAULT_SLOWLOG_ENTRIES: usize = 16;
/// A connection whose unfinished request line grows past this is
/// protocol-broken (or hostile) and is closed. A legitimate line tops
/// out near 43 KiB (`MSET` of [`MAX_BATCH_KEYS`] 20-digit pairs).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PUT <key> <value>`
    Put(u64, u64),
    /// `GET <key>`
    Get(u64),
    /// `MGET <key>...` (at least one key)
    Mget(Vec<u64>),
    /// `MSET <key> <value>...` (at least one pair)
    Mset(Vec<(u64, u64)>),
    /// `SCAN <start> <limit>`
    Scan(u64, u64),
    /// `PING`
    Ping,
    /// `STATS`
    Stats,
    /// `METRICS` — the unified registry exposition, terminated by a
    /// `# EOF` line.
    Metrics,
    /// `TRACE DUMP` — the flight recorder's merged JSON lines,
    /// terminated by a `# EOF` line.
    TraceDump,
    /// `SLOWLOG [n]` — the newest `n` slow-batch stage breakdowns
    /// (default [`DEFAULT_SLOWLOG_ENTRIES`]), newest first,
    /// terminated by a `# EOF` line.
    Slowlog(usize),
    /// `SLOWLOG RESET` — hides every current slowlog entry.
    SlowlogReset,
    /// `SHUTDOWN`
    Shutdown,
    /// `QUIT`
    Quit,
}

impl Request {
    /// Parses one line of the wire protocol.
    pub fn parse(line: &str) -> Result<Request, String> {
        parse_request(line.as_bytes())
    }
}

/// Splits an optional `#<tag>` pipeline prefix off a request line,
/// returning `(tag, rest-of-line)`.
///
/// Lines not starting with `#` are untagged — the pre-pipelining
/// grammar, passed through untouched. A line that starts with `#` but
/// whose tag is not a u64 is an error: the server answers it with an
/// *untagged* `ERR` (there is no trustworthy tag to echo) and keeps
/// the connection open.
pub fn split_tag(line: &str) -> Result<(Option<u64>, &str), String> {
    let (tag, rest) = split_tag_bytes(line.as_bytes())?;
    // `rest` is a suffix of `line` that starts after a whole character.
    Ok((tag, &line[line.len() - rest.len()..]))
}

/// One request of a drained batch: its echo tag (if tagged) and the
/// parse result — errors ride along so `ERR` renders at the request's
/// position in the response stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The `#<tag>` to echo, if the request carried one.
    pub tag: Option<u64>,
    /// The parsed request, or the parse error to report.
    pub body: Result<Request, String>,
}

impl Parsed {
    /// Parses one raw line: tag prefix first, then the verb grammar.
    /// A malformed tag yields an untagged error body.
    pub fn from_line(line: &str) -> Parsed {
        Parsed::from_bytes(line.as_bytes())
    }

    fn from_bytes(line: &[u8]) -> Parsed {
        match split_tag_bytes(line) {
            Ok((tag, rest)) => Parsed {
                tag,
                body: parse_request(rest),
            },
            Err(e) => Parsed {
                tag: None,
                body: Err(e),
            },
        }
    }
}

/// Byte length of the Unicode `White_Space` character `b` starts with,
/// or 0 if it starts with none (`char::is_whitespace`, by encoding).
fn ws_len(b: &[u8]) -> usize {
    match b {
        [0x09..=0x0D | 0x20, ..] => 1,
        // U+0085, U+00A0
        [0xC2, 0x85 | 0xA0, ..] => 2,
        // U+1680; U+2000–U+200A, U+2028, U+2029, U+202F; U+205F; U+3000
        [0xE1, 0x9A, 0x80, ..]
        | [0xE2, 0x80, 0x80..=0x8A | 0xA8 | 0xA9 | 0xAF, ..]
        | [0xE2, 0x81, 0x9F, ..]
        | [0xE3, 0x80, 0x80, ..] => 3,
        _ => 0,
    }
}

fn trim_start(mut b: &[u8]) -> &[u8] {
    loop {
        match ws_len(b) {
            0 => return b,
            n => b = &b[n..],
        }
    }
}

fn trim_end(mut b: &[u8]) -> &[u8] {
    // A whitespace character is one to three bytes long.
    while let Some(n) = (1..=3).find(|&n| n <= b.len() && ws_len(&b[b.len() - n..]) == n) {
        b = &b[..b.len() - n];
    }
    b
}

/// The longest `+?digits` prefix of `s` as `str::parse::<u64>` would
/// read it: the value (`None` without a digit, or if it overflows) and
/// the length of the prefix.
fn leading_u64(s: &[u8]) -> (Option<u64>, usize) {
    /// Digits that cannot overflow a u64 whatever they are.
    const SAFE_DIGITS: usize = 19;
    let sign = usize::from(s.first() == Some(&b'+'));
    let safe_end = s.len().min(sign + SAFE_DIGITS);
    let mut n = sign;
    let mut v = 0u64;
    while n < safe_end {
        let d = s[n].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v * 10 + u64::from(d);
        n += 1;
    }
    let mut value = Some(v).filter(|_| n > sign);
    // A twentieth digit and beyond: only these pay for the check.
    while let Some(d) = s.get(n).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        value = value
            .and_then(|v| v.checked_mul(10))
            .and_then(|v| v.checked_add(u64::from(d)));
        n += 1;
    }
    (value, n)
}

/// `tok` as a u64, all of it.
fn whole_u64(tok: &[u8]) -> Option<u64> {
    let (value, n) = leading_u64(tok);
    value.filter(|_| n == tok.len())
}

/// A cursor over the ASCII-whitespace-separated tokens of a line.
struct Scanner<'a>(&'a [u8]);

impl<'a> Scanner<'a> {
    /// Steps over leading ASCII whitespace; false at the end of line.
    fn skip_space(&mut self) -> bool {
        let n = self
            .0
            .iter()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        self.0 = &self.0[n..];
        !self.0.is_empty()
    }

    /// Takes the token the cursor stands on.
    fn take(&mut self) -> &'a [u8] {
        let n = self
            .0
            .iter()
            .take_while(|b| !b.is_ascii_whitespace())
            .count();
        let (tok, rest) = self.0.split_at(n);
        self.0 = rest;
        tok
    }

    /// The next token, if any.
    fn token(&mut self) -> Option<&'a [u8]> {
        self.skip_space().then(|| self.take())
    }

    /// The next token as a u64, read in the same pass that finds its
    /// end: `Ok(None)` at the end of line, `Err(token)` for a token
    /// that is not one.
    fn int(&mut self) -> Result<Option<u64>, &'a [u8]> {
        if !self.skip_space() {
            return Ok(None);
        }
        let (value, n) = leading_u64(self.0);
        match value {
            Some(v) if self.0.get(n).is_none_or(u8::is_ascii_whitespace) => {
                self.0 = &self.0[n..];
                Ok(Some(v))
            }
            _ => Err(self.take()),
        }
    }

    /// [`Scanner::int`] as the required argument `name` of `verb`.
    fn arg(&mut self, verb: &str, name: &str) -> Result<u64, String> {
        match self.int() {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(format!("{verb} missing {name}")),
            Err(_) => Err(format!("{verb} {name} must be a u64")),
        }
    }

    /// [`Scanner::int`] as one more argument of the variadic `verb`.
    fn batch_arg(&mut self, verb: &str) -> Result<Option<u64>, String> {
        self.int()
            .map_err(|tok| format!("{verb} arguments must be u64s, got {:?}", text(tok)))
    }
}

/// A token as error text. Tokens are cut from validated UTF-8 at
/// character boundaries, so this borrows; it cannot panic either way.
fn text(tok: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(tok)
}

fn split_tag_bytes(line: &[u8]) -> Result<(Option<u64>, &[u8]), String> {
    let Some(rest) = line.strip_prefix(b"#") else {
        return Ok((None, line));
    };
    let (tag, n) = leading_u64(rest);
    match tag {
        Some(tag) if n == rest.len() || ws_len(&rest[n..]) != 0 => {
            Ok((Some(tag), trim_start(&rest[n..])))
        }
        _ => {
            // Not a u64: the tag to quote runs to the first whitespace.
            let end = (n..rest.len())
                .find(|&i| ws_len(&rest[i..]) != 0)
                .unwrap_or(rest.len());
            Err(format!(
                "malformed tag {:?} (tags are u64s)",
                text(&rest[..end])
            ))
        }
    }
}

fn parse_request(line: &[u8]) -> Result<Request, String> {
    let mut args = Scanner(line);
    let verb = args.token().ok_or_else(|| "empty request".to_string())?;
    let req = match verb {
        b"PUT" => Request::Put(args.arg("PUT", "key")?, args.arg("PUT", "value")?),
        b"GET" => Request::Get(args.arg("GET", "key")?),
        b"MGET" => {
            let mut keys = Vec::new();
            while let Some(key) = args.batch_arg("MGET")? {
                keys.push(key);
            }
            if keys.is_empty() {
                return Err("MGET needs at least one key".to_string());
            }
            if keys.len() > MAX_BATCH_KEYS {
                return Err(format!("MGET capped at {MAX_BATCH_KEYS} keys"));
            }
            return Ok(Request::Mget(keys));
        }
        b"MSET" => {
            let mut pairs = Vec::new();
            let mut key = None;
            while let Some(v) = args.batch_arg("MSET")? {
                match key.take() {
                    Some(k) => pairs.push((k, v)),
                    None => key = Some(v),
                }
            }
            if pairs.is_empty() || key.is_some() {
                return Err("MSET needs one or more <key> <value> pairs".to_string());
            }
            if pairs.len() > MAX_BATCH_KEYS {
                return Err(format!("MSET capped at {MAX_BATCH_KEYS} pairs"));
            }
            return Ok(Request::Mset(pairs));
        }
        b"SCAN" => Request::Scan(args.arg("SCAN", "start")?, args.arg("SCAN", "limit")?),
        b"PING" => Request::Ping,
        b"STATS" => Request::Stats,
        b"METRICS" => Request::Metrics,
        b"TRACE" => match args.token() {
            Some(b"DUMP") => Request::TraceDump,
            Some(other) => return Err(format!("unknown TRACE subcommand {}", text(other))),
            None => return Err("TRACE needs a subcommand (DUMP)".to_string()),
        },
        b"SLOWLOG" => match args.token() {
            None => Request::Slowlog(DEFAULT_SLOWLOG_ENTRIES),
            Some(b"RESET") => Request::SlowlogReset,
            Some(n) => Request::Slowlog(
                whole_u64(n)
                    .and_then(|count| usize::try_from(count).ok())
                    .ok_or_else(|| {
                        format!("SLOWLOG count must be an integer, got {:?}", text(n))
                    })?,
            ),
        },
        b"SHUTDOWN" => Request::Shutdown,
        b"QUIT" => Request::Quit,
        other => return Err(format!("unknown verb {}", text(other))),
    };
    if args.token().is_some() {
        return Err(format!("{} given too many arguments", text(verb)));
    }
    Ok(req)
}

/// How a [`drain_lines`] pass ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DrainEnd {
    /// Every complete line was taken; the connection carries on.
    Open,
    /// A `QUIT` line: close without a response.
    Quit,
    /// A `SHUTDOWN` line carrying this tag: answer `OK`, then stop the
    /// server.
    Shutdown(Option<u64>),
    /// The complete lines are not UTF-8: close, nothing executes.
    InvalidUtf8,
}

/// What one [`drain_lines`] pass took off the front of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Drained {
    /// Leading bytes of the buffer the pass is done with — everything
    /// through the last newline. The rest is an unfinished line.
    pub consumed: usize,
    /// Why the pass stopped.
    pub end: DrainEnd,
}

/// The drain a connection's session runs per wakeup: parses every
/// *complete* line buffered in `bytes` onto `batch` (blank lines
/// skipped), leaving the bytes after the last newline for the next
/// wakeup.
///
/// `QUIT` and `SHUTDOWN` split the drain: the requests before the
/// control verb are in `batch` and execute, the lines after it die
/// with the connection.
pub(crate) fn drain_lines(bytes: &[u8], batch: &mut Vec<Parsed>) -> Drained {
    // A long line arrives in many pieces, and each piece brings the
    // whole unfinished line back here: `contains` (a word-at-a-time
    // search) turns those down, so that the byte-wise search from the
    // back only ever walks the tail after a newline it will find.
    let last_nl = bytes
        .contains(&b'\n')
        .then(|| bytes.iter().rposition(|&b| b == b'\n'))
        .flatten();
    let Some(last_nl) = last_nl else {
        return Drained {
            consumed: 0,
            end: DrainEnd::Open,
        };
    };
    let consumed = last_nl + 1;
    let mut end = DrainEnd::Open;
    if std::str::from_utf8(&bytes[..consumed]).is_err() {
        end = DrainEnd::InvalidUtf8;
    } else {
        let mut rest = &bytes[..consumed];
        while let Some(nl) = find_newline(rest) {
            let line = trim_end(trim_start(&rest[..nl]));
            rest = &rest[nl + 1..];
            if line.is_empty() {
                continue;
            }
            let p = Parsed::from_bytes(line);
            match p.body {
                Ok(Request::Quit) => {
                    end = DrainEnd::Quit;
                    break;
                }
                Ok(Request::Shutdown) => {
                    end = DrainEnd::Shutdown(p.tag);
                    break;
                }
                _ => batch.push(p),
            }
        }
    }
    Drained { consumed, end }
}

/// Index of the first `\n` in `s`, looked for eight bytes at a time:
/// short lines are found in two or three steps, and a 40 KiB `MSET`
/// line is not walked byte by byte.
fn find_newline(s: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut words = s.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        // Newlines become zero bytes, and the zero-byte test raises
        // the high bit of the lowest one — the first in memory, read
        // little-endian. (It can also flag bytes above a zero one,
        // which trailing_zeros never reaches.)
        let x = word ^ (ONES * u64::from(b'\n'));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(s.len() - tail.len() + at)
}

/// Writes `v` in decimal into `buf` so that it ends just before
/// `buf[end]`, two digits at a time (one 64-bit division per pair, not
/// per digit), and returns where it starts.
fn digits_before(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut at = end;
    while v >= 10 {
        let pair = (v % 100) as u8;
        v /= 100;
        at -= 2;
        buf[at] = b'0' + pair / 10;
        buf[at + 1] = b'0' + pair % 10;
    }
    // What is left is one digit: the leading one of an odd-length
    // number, or a zero that is written only when it is the number.
    if v > 0 || at == end {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Appends `v` in decimal — what `write!(out, "{v}")` renders, without
/// the `core::fmt` call.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut digits = [0; 20];
    let at = digits_before(&mut digits, 20, v);
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Appends one whole reply line — the `#<tag> ` prefix of a tagged
/// request, `head`, `value` in decimal if there is one, the newline —
/// assembled on the stack first, back to front so the digits land in
/// place, and appended with one `push_str` where the pieces took five
/// or six.
pub(crate) fn push_line(out: &mut String, tag: Option<u64>, head: &str, value: Option<u64>) {
    // `#`, 20 digits and a space; then `head`; 20 digits; `\n`.
    let mut line = [0u8; 64];
    let mut at = line.len() - 1;
    line[at] = b'\n';
    if let Some(value) = value {
        at = digits_before(&mut line, at, value);
    }
    at -= head.len();
    line[at..at + head.len()].copy_from_slice(head.as_bytes());
    if let Some(tag) = tag {
        at -= 1;
        line[at] = b' ';
        at = digits_before(&mut line, at, tag) - 1;
        line[at] = b'#';
    }
    out.push_str(std::str::from_utf8(&line[at..]).expect("a str and ASCII digits"));
}

/// Appends the `#<tag> ` reply prefix for a tagged request; untagged
/// requests get none (byte-identical legacy framing).
pub(crate) fn write_tag(out: &mut String, tag: Option<u64>) {
    if let Some(t) = tag {
        out.push('#');
        push_u64(out, t);
        out.push(' ');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malthus_park::XorShift64;

    /// The `str`-based parser the byte tokenizer replaced, kept as the
    /// reference the differential tests compare against.
    mod oracle {
        use super::super::{Parsed, Request, DEFAULT_SLOWLOG_ENTRIES, MAX_BATCH_KEYS};

        pub fn parse(line: &str) -> Result<Request, String> {
            let mut parts = line.split_ascii_whitespace();
            let verb = parts.next().ok_or_else(|| "empty request".to_string())?;
            let mut int = |name: &str| -> Result<u64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("{verb} missing {name}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("{verb} {name} must be a u64"))
            };
            let req = match verb {
                "PUT" => Request::Put(int("key")?, int("value")?),
                "GET" => Request::Get(int("key")?),
                "MGET" => {
                    let keys = rest_u64s(verb, parts)?;
                    if keys.is_empty() {
                        return Err("MGET needs at least one key".to_string());
                    }
                    if keys.len() > MAX_BATCH_KEYS {
                        return Err(format!("MGET capped at {MAX_BATCH_KEYS} keys"));
                    }
                    return Ok(Request::Mget(keys));
                }
                "MSET" => {
                    let flat = rest_u64s(verb, parts)?;
                    if flat.is_empty() || flat.len() % 2 != 0 {
                        return Err("MSET needs one or more <key> <value> pairs".to_string());
                    }
                    if flat.len() / 2 > MAX_BATCH_KEYS {
                        return Err(format!("MSET capped at {MAX_BATCH_KEYS} pairs"));
                    }
                    return Ok(Request::Mset(
                        flat.chunks_exact(2).map(|kv| (kv[0], kv[1])).collect(),
                    ));
                }
                "SCAN" => Request::Scan(int("start")?, int("limit")?),
                "PING" => Request::Ping,
                "STATS" => Request::Stats,
                "METRICS" => Request::Metrics,
                "TRACE" => match parts.next() {
                    Some("DUMP") => Request::TraceDump,
                    Some(other) => return Err(format!("unknown TRACE subcommand {other}")),
                    None => return Err("TRACE needs a subcommand (DUMP)".to_string()),
                },
                "SLOWLOG" => match parts.next() {
                    None => Request::Slowlog(DEFAULT_SLOWLOG_ENTRIES),
                    Some("RESET") => Request::SlowlogReset,
                    Some(n) => Request::Slowlog(
                        n.parse::<usize>()
                            .map_err(|_| format!("SLOWLOG count must be an integer, got {n:?}"))?,
                    ),
                },
                "SHUTDOWN" => Request::Shutdown,
                "QUIT" => Request::Quit,
                other => return Err(format!("unknown verb {other}")),
            };
            if parts.next().is_some() {
                return Err(format!("{verb} given too many arguments"));
            }
            Ok(req)
        }

        fn rest_u64s<'a>(
            verb: &str,
            parts: impl Iterator<Item = &'a str>,
        ) -> Result<Vec<u64>, String> {
            parts
                .map(|tok| {
                    tok.parse::<u64>()
                        .map_err(|_| format!("{verb} arguments must be u64s, got {tok:?}"))
                })
                .collect()
        }

        pub fn split_tag(line: &str) -> Result<(Option<u64>, &str), String> {
            let Some(rest) = line.strip_prefix('#') else {
                return Ok((None, line));
            };
            let (tag_str, after) = match rest.split_once(char::is_whitespace) {
                Some((t, a)) => (t, a),
                None => (rest, ""),
            };
            let tag = tag_str
                .parse::<u64>()
                .map_err(|_| format!("malformed tag {tag_str:?} (tags are u64s)"))?;
            Ok((Some(tag), after.trim_start()))
        }

        pub fn from_line(line: &str) -> Parsed {
            match split_tag(line) {
                Ok((tag, rest)) => Parsed {
                    tag,
                    body: parse(rest),
                },
                Err(e) => Parsed {
                    tag: None,
                    body: Err(e),
                },
            }
        }

        /// The drain loop as both front-ends used to spell it: every
        /// line of `text`, trimmed, blank ones skipped, stopping at the
        /// first `QUIT`/`SHUTDOWN` (returned beside the batch).
        pub fn drain(text: &str) -> (Vec<Parsed>, Option<Parsed>) {
            let mut batch = Vec::new();
            for line in text.lines() {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let p = from_line(trimmed);
                if matches!(p.body, Ok(Request::Quit | Request::Shutdown)) {
                    return (batch, Some(p));
                }
                batch.push(p);
            }
            (batch, None)
        }
    }

    /// Asserts the tokenizer and the oracle agree on one line — on
    /// the parse, on the tag split, and on the bare verb grammar.
    fn assert_agrees(line: &str) {
        assert_eq!(Parsed::from_line(line), oracle::from_line(line), "{line:?}");
        assert_eq!(split_tag(line), oracle::split_tag(line), "{line:?}");
        assert_eq!(Request::parse(line), oracle::parse(line), "{line:?}");
    }

    /// Asserts `drain_lines` and the oracle's drain loop agree on a
    /// chunk of complete lines.
    fn assert_drain_agrees(text: &str) {
        let mut batch = Vec::new();
        let drained = drain_lines(text.as_bytes(), &mut batch);
        let (want, control) = oracle::drain(text);
        assert_eq!(batch, want, "{text:?}");
        let want_end = match control {
            None => DrainEnd::Open,
            Some(p) if p.body == Ok(Request::Quit) => DrainEnd::Quit,
            Some(p) => DrainEnd::Shutdown(p.tag),
        };
        assert_eq!(drained.end, want_end, "{text:?}");
        assert_eq!(drained.consumed, text.len(), "{text:?}");
    }

    #[test]
    fn ws_len_is_char_is_whitespace_by_encoding() {
        let mut buf = [0u8; 8];
        let mut spaces = 0;
        for c in (0..=0x10FFFFu32).filter_map(char::from_u32) {
            let n = c.encode_utf8(&mut buf[..4]).len();
            // Trailing bytes must not change the answer.
            buf[n] = b'x';
            let want = if c.is_whitespace() { n } else { 0 };
            assert_eq!(ws_len(&buf[..=n]), want, "U+{:04X}", c as u32);
            assert_eq!(ws_len(&buf[..n]), want, "U+{:04X} at the end", c as u32);
            spaces += usize::from(c.is_whitespace());
        }
        assert_eq!(spaces, 25, "the White_Space set this table was cut for");
        assert_eq!(ws_len(b""), 0);
    }

    #[test]
    fn tokenizer_matches_the_oracle_on_every_verb() {
        for line in [
            "PUT 1 2",
            "GET 7",
            "MGET 1 2 3",
            "MSET 1 10 2 20",
            "SCAN 5 100",
            "PING",
            "STATS",
            "METRICS",
            "TRACE DUMP",
            "TRACE",
            "TRACE FLUSH",
            "TRACE DUMP now",
            "SLOWLOG",
            "SLOWLOG 5",
            "SLOWLOG +5",
            "SLOWLOG RESET",
            "SLOWLOG banana",
            "SLOWLOG 5 6",
            "SLOWLOG RESET 2",
            "SLOWLOG 18446744073709551616",
            "SHUTDOWN",
            "QUIT",
            "QUIT now",
            "DEL 1",
            "get 1",
            "",
            "PUT",
            "PUT 1",
            "PUT 1 2 3",
            "PUT x 2",
            "PUT 1 y",
            "GET",
            "GET banana",
            "GET 1 2",
            "MGET",
            "MGET 1 banana",
            "MGET banana 1",
            "MSET",
            "MSET 1",
            "MSET 1 2 3",
            "MSET 1 2 x 4",
            "SCAN 1",
            "SCAN 1 2 3",
            "#9 GET 4",
            "#9 BOGUS",
            "#oops GET 4",
            "#9",
            "#9 ",
        ] {
            assert_agrees(line);
        }
    }

    #[test]
    fn tokenizer_matches_the_oracle_on_the_awkward_cases() {
        let max = u64::MAX;
        let mget_1025 = format!("MGET{}", " 7".repeat(MAX_BATCH_KEYS + 1));
        let mset_1025 = format!("#3 MSET{}", " 7 8".repeat(MAX_BATCH_KEYS + 1));
        let mget_1025_bad_tail = format!("{mget_1025} x");
        for line in [
            // Signs and range: `str::parse::<u64>` takes a leading `+`.
            "GET +7",
            "GET ++7",
            "GET +",
            "GET -7",
            "GET -0",
            "GET 007",
            "GET 0000000000000000000000000000000000007",
            "GET 18446744073709551615",
            "GET 18446744073709551616",
            "GET 99999999999999999999999999",
            "PUT 18446744073709551616 1",
            "MGET 1 18446744073709551616",
            "#+5 GET 1",
            "#18446744073709551616 GET 1",
            "#-3 GET 1",
            "#1.5 GET 1",
            // Separators: ASCII whitespace splits arguments, and only it.
            "GET\t7",
            "  GET   9  ",
            "GET \t  7",
            "GET\r7",
            "GET\x0C7",
            "GET\x0B7",
            "GET\u{00A0}7",
            "GET 7\u{2003}8",
            "PUT 1\u{3000}2 3",
            // A tag ends at any Unicode whitespace.
            "#7   GET   1",
            "#7\tGET 1",
            "#7\x0BGET 1",
            "#7\u{00A0}GET 1",
            "#7\u{2003}\u{00A0} GET 1",
            "#7\u{00A0}",
            "#7é GET 1",
            "#é7 GET 1",
            "#",
            "# 1 GET 2",
            "#\u{00A0}1 GET 2",
            "##1 GET 2",
            "# ",
            // Untrimmed input reaches the verb grammar as it is.
            " #1 GET 1",
            "\u{00A0}GET 1",
            "GET 1\u{00A0}",
            "GÉT 1",
            "TRACE dümp",
            "SLOWLOG 5\u{00A0}",
            "MGET 1 2\u{2003}3",
            mget_1025.as_str(),
            mset_1025.as_str(),
            mget_1025_bad_tail.as_str(),
            format!("#{max} PUT {max} {max}").as_str(),
        ] {
            assert_agrees(line);
        }
    }

    #[test]
    fn drain_matches_the_oracle_on_line_framing() {
        for text in [
            "GET 1\n",
            "GET 1\r\n#2 PUT 3 4\r\n",
            "\n\n  \nGET 1\n\r\n",
            "\u{00A0}GET 1\u{2003}\n",
            "\u{2003}#4 GET 1 \u{00A0}\u{3000}\n",
            "\u{00A0}\n\u{0085}\nPING\n",
            "\x0B#1 GET 2\x0C\n",
            "GET 1\nQUIT\nGET 2\n",
            "GET 1\n#8 SHUTDOWN\nGET 2\n",
            "SHUTDOWN\n",
            " quit \n QUIT \n",
            "QUIT now\nGET 1\n",
            "#x QUIT\nPING\n",
            "BOGUS\n#\n# 1 GET 2\nGET 18446744073709551616\n",
        ] {
            assert_drain_agrees(text);
        }
    }

    #[test]
    fn find_newline_is_position_eight_bytes_at_a_time() {
        // Every length around the word size, a newline at every
        // offset, over bytes chosen to tempt the zero-byte test: the
        // neighbours of `\n`, and `\n` with the high bit set.
        for filler in [b'x', 0x09, 0x0B, 0x8A, 0x00, 0xFF] {
            for len in 0..40 {
                let mut s = vec![filler; len];
                assert_eq!(find_newline(&s), None, "{s:?}");
                for at in (0..len).rev() {
                    s[at] = b'\n';
                    assert_eq!(find_newline(&s), Some(at), "{s:?}");
                }
            }
        }
        let rng = XorShift64::new(0xF1D0);
        for _ in 0..20_000 {
            let s: Vec<u8> = (0..rng.next_below(64))
                .map(|_| [b'\n', 0x0B, 0x8A, b'a'][rng.next_below(4) as usize])
                .collect();
            assert_eq!(find_newline(&s), s.iter().position(|&b| b == b'\n'));
        }
    }

    #[test]
    fn drain_leaves_the_unfinished_line_and_rejects_invalid_utf8() {
        let mut batch = Vec::new();
        let drained = drain_lines(b"GET 1", &mut batch);
        assert_eq!((drained.consumed, drained.end), (0, DrainEnd::Open));
        assert!(batch.is_empty());
        let drained = drain_lines(b"GET 1\nPUT 2 3\nGET", &mut batch);
        assert_eq!((drained.consumed, drained.end), (14, DrainEnd::Open));
        assert_eq!(batch.len(), 2);
        // An unfinished line is not validated until it is complete.
        batch.clear();
        let drained = drain_lines(b"GET 1\n\xFF", &mut batch);
        assert_eq!((drained.consumed, drained.end), (6, DrainEnd::Open));
        assert_eq!(batch.len(), 1);
        // One bad byte in the complete lines: nothing executes.
        batch.clear();
        let drained = drain_lines(b"GET 1\nGET \xFF\nGET 2\n", &mut batch);
        assert_eq!(drained.end, DrainEnd::InvalidUtf8);
        assert_eq!(drained.consumed, 18);
        assert!(batch.is_empty());
    }

    /// One seeded line of protocol-shaped noise: fragments the grammar
    /// cares about, glued with every kind of whitespace, salted with
    /// raw bytes.
    fn noise_line(rng: &XorShift64) -> Vec<u8> {
        const FRAGMENTS: [&str; 40] = [
            "GET",
            "PUT",
            "MGET",
            "MSET",
            "SCAN",
            "PING",
            "STATS",
            "METRICS",
            "TRACE",
            "DUMP",
            "SLOWLOG",
            "RESET",
            "SHUTDOWN",
            "QUIT",
            "get",
            "#",
            "#7",
            "+",
            "-",
            "0",
            "7",
            "42",
            "18446744073709551615",
            "18446744073709551616",
            "184467440737095516150",
            " ",
            "  ",
            "\t",
            "\r",
            "\x0B",
            "\x0C",
            "\u{0085}",
            "\u{00A0}",
            "\u{1680}",
            "\u{2003}",
            "\u{2028}",
            "\u{202F}",
            "\u{205F}",
            "\u{3000}",
            "é",
        ];
        let mut line = Vec::new();
        for _ in 0..rng.next_below(9) {
            match rng.next_below(16) {
                0 => line.push(rng.next_u64() as u8),
                1 => line.extend_from_slice(rng.next_u64().to_string().as_bytes()),
                _ => {
                    let f = FRAGMENTS[rng.next_below(FRAGMENTS.len() as u64) as usize];
                    line.extend_from_slice(f.as_bytes());
                    if rng.one_in(2) {
                        line.push(b' ');
                    }
                }
            }
        }
        line.retain(|&b| b != b'\n');
        line
    }

    #[test]
    fn hundred_thousand_noise_lines_never_panic_and_match_the_oracle() {
        let rng = XorShift64::new(0x4D41_4C54_4855_5321);
        let (mut valid, mut parsed_ok) = (0u32, 0u32);
        let mut chunk = Vec::new();
        let mut batch = Vec::new();
        for _ in 0..100_000 {
            let line = noise_line(&rng);
            chunk.clear();
            chunk.extend_from_slice(&line);
            chunk.push(b'\n');
            batch.clear();
            let drained = drain_lines(&chunk, &mut batch);
            assert_eq!(drained.consumed, chunk.len());
            // Arbitrary bytes go through the tokenizer too: it must
            // cope with what validation would have turned away.
            let direct = Parsed::from_bytes(&line);
            match std::str::from_utf8(&line) {
                Ok(text) => {
                    valid += 1;
                    assert_eq!(direct, oracle::from_line(text), "{text:?}");
                    assert_eq!(split_tag(text), oracle::split_tag(text), "{text:?}");
                    assert_drain_agrees(std::str::from_utf8(&chunk).expect("valid line"));
                    parsed_ok += u32::from(direct.body.is_ok());
                }
                Err(_) => {
                    assert_eq!(drained.end, DrainEnd::InvalidUtf8);
                    assert!(batch.is_empty());
                }
            }
        }
        // The generator must exercise both sides of both splits.
        assert!(valid > 50_000 && valid < 100_000, "valid = {valid}");
        assert!(parsed_ok > 1_000, "parsed_ok = {parsed_ok}");
    }

    #[test]
    fn push_u64_renders_what_format_renders() {
        // Every digit count from both sides of its boundary: 0, 9, 10,
        // 99, 100, …, 10^k - 1, 10^k, …, 10^19, and around 2^32 and
        // u64::MAX.
        let powers = (0..20).map(|k| 10u64.pow(k));
        let values: Vec<u64> = (powers.flat_map(|p| [p - 1, p, p + 1, p.saturating_mul(5)]))
            .chain([4_294_967_295, 4_294_967_296, u64::MAX - 1, u64::MAX])
            .collect();
        for &v in &values {
            let mut out = String::from("VAL ");
            push_u64(&mut out, v);
            assert_eq!(out, format!("VAL {v}"));
            let mut out = String::from("x");
            push_line(&mut out, Some(v), "VAL ", Some(v));
            push_line(&mut out, None, "OK ", Some(v));
            push_line(&mut out, Some(v), "ERR shard readonly", None);
            assert_eq!(
                out,
                format!("x#{v} VAL {v}\nOK {v}\n#{v} ERR shard readonly\n")
            );
        }
        let mut out = String::new();
        push_line(&mut out, None, "NIL", None);
        assert_eq!(out, "NIL\n");
        out.clear();
        write_tag(&mut out, None);
        assert_eq!(out, "");
        write_tag(&mut out, Some(u64::MAX));
        assert_eq!(out, format!("#{} ", u64::MAX));
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        assert_eq!(Request::parse("PUT 1 2"), Ok(Request::Put(1, 2)));
        assert_eq!(Request::parse("GET 7"), Ok(Request::Get(7)));
        assert_eq!(
            Request::parse("MGET 1 2 3"),
            Ok(Request::Mget(vec![1, 2, 3]))
        );
        assert_eq!(
            Request::parse("MSET 1 10 2 20"),
            Ok(Request::Mset(vec![(1, 10), (2, 20)]))
        );
        assert_eq!(Request::parse("SCAN 5 100"), Ok(Request::Scan(5, 100)));
        assert_eq!(Request::parse("PING"), Ok(Request::Ping));
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
        assert_eq!(Request::parse("  GET   9  "), Ok(Request::Get(9)));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("PUT 1").is_err());
        assert!(Request::parse("PUT 1 2 3").is_err());
        assert!(Request::parse("GET banana").is_err());
        assert!(Request::parse("DEL 1").is_err());
        assert!(Request::parse("MGET").is_err());
        assert!(Request::parse("MGET 1 banana").is_err());
        assert!(Request::parse("MSET").is_err());
        assert!(Request::parse("MSET 1 2 3").is_err(), "odd pair list");
        assert!(Request::parse("SCAN 1").is_err());
        assert!(Request::parse("SCAN 1 2 3").is_err());
    }

    #[test]
    fn parse_caps_batch_sizes() {
        let huge: String = std::iter::once("MGET".to_string())
            .chain((0..=MAX_BATCH_KEYS as u64).map(|k| k.to_string()))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(Request::parse(&huge).is_err());
        let ok: String = std::iter::once("MGET".to_string())
            .chain((0..MAX_BATCH_KEYS as u64).map(|k| k.to_string()))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(Request::parse(&ok).is_ok());
    }

    #[test]
    fn split_tag_round_trips_the_framing() {
        assert_eq!(split_tag("GET 1"), Ok((None, "GET 1")));
        assert_eq!(split_tag("#0 GET 1"), Ok((Some(0), "GET 1")));
        assert_eq!(split_tag("#42 PUT 1 2"), Ok((Some(42), "PUT 1 2")));
        assert_eq!(
            split_tag(&format!("#{} PING", u64::MAX)),
            Ok((Some(u64::MAX), "PING"))
        );
        // Tag but no body: parse of "" fails later as "empty request".
        assert_eq!(split_tag("#7"), Ok((Some(7), "")));
        assert_eq!(split_tag("#7   GET   1"), Ok((Some(7), "GET   1")));
        assert!(split_tag("#").is_err());
        assert!(split_tag("#banana GET 1").is_err());
        assert!(split_tag("#-3 GET 1").is_err());
        assert!(split_tag("#1.5 GET 1").is_err());
    }

    #[test]
    fn parsed_carries_tags_and_errors_positionally() {
        let p = Parsed::from_line("#9 GET 4");
        assert_eq!(p.tag, Some(9));
        assert_eq!(p.body, Ok(Request::Get(4)));
        let p = Parsed::from_line("#9 BOGUS");
        assert_eq!(p.tag, Some(9), "tag echoes even on a bad verb");
        assert!(p.body.is_err());
        let p = Parsed::from_line("#oops GET 4");
        assert_eq!(p.tag, None, "malformed tag cannot be echoed");
        assert!(p.body.unwrap_err().contains("malformed tag"));
    }

    #[test]
    fn parse_slowlog_grammar() {
        assert_eq!(
            Request::parse("SLOWLOG"),
            Ok(Request::Slowlog(DEFAULT_SLOWLOG_ENTRIES))
        );
        assert_eq!(Request::parse("SLOWLOG 5"), Ok(Request::Slowlog(5)));
        assert_eq!(Request::parse("SLOWLOG RESET"), Ok(Request::SlowlogReset));
        assert!(Request::parse("SLOWLOG banana").is_err());
        assert!(Request::parse("SLOWLOG 5 6").is_err());
        assert!(Request::parse("SLOWLOG RESET 2").is_err());
    }
}
