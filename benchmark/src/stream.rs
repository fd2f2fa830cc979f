//! Seeded request streams, pre-rendered before any clock starts.
//!
//! Connection `c` owns the keys with `key % CONNS == c`, and the server
//! answers one connection's requests in order, so the reply to every
//! request is a pure function of the connection's own stream. Each
//! stream is therefore rendered twice — the request bytes and the
//! exact reply bytes they must earn — and the timed window only
//! writes slices of the first and compares against slices of the
//! second: nothing is formatted, parsed or allocated while the clock
//! runs.
//!
//! A stream is one cycle of [`CYCLE_OPS`] requests that the generator
//! replays for as long as the window lasts. The last PUT to each key
//! in the cycle restores the key's preloaded value, so the table at
//! the end of a cycle equals the table at its start and the expected
//! replies hold on every pass.

use std::io::Write as _;

/// Requests in one cycle of a connection's stream.
pub const CYCLE_OPS: usize = 1 << 19;
/// Pairs per preload `MSET`.
pub const MSET_PAIRS: usize = 512;
/// Load connections, all driven by one load thread.
pub const CONNS: usize = 4;

/// SplitMix64: the benchmark's own generator, so no change to the
/// repository's RNGs can alter a workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` far below 2^32 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The traffic one workload sends: its key space, write share and
/// pipeline depth. Two workloads with equal `Traffic` and seed send
/// byte-identical streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    pub keys: u64,
    pub put_pct: u32,
    pub depth: usize,
    /// Whether a PUT writes a fresh random value or rewrites the
    /// key's preloaded one.
    ///
    /// `MiniKv::put` merges its two oldest runs with the *older* run's
    /// values winning, so once a shard has frozen more than four runs
    /// a key that was ever overwritten can read back a stale value. A
    /// workload whose shards freeze runs (more than 4 096 keys per
    /// shard) must therefore rewrite the preloaded value, or its GETs
    /// fail; the fix is program code, outside this benchmark.
    pub fresh_puts: bool,
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64, u64),
}

/// Pre-rendered request lines and, for each, the exact reply line it
/// must earn. Lines carry `#<index>` tags.
#[derive(Debug, Default)]
pub struct Script {
    req: Vec<u8>,
    req_off: Vec<u32>,
    resp: Vec<u8>,
    resp_off: Vec<u32>,
}

impl Script {
    fn with_capacity(ops: usize, req_bytes: usize, resp_bytes: usize) -> Script {
        let mut s = Script {
            req: Vec::with_capacity(req_bytes),
            req_off: Vec::with_capacity(ops + 1),
            resp: Vec::with_capacity(resp_bytes),
            resp_off: Vec::with_capacity(ops + 1),
        };
        s.req_off.push(0);
        s.resp_off.push(0);
        s
    }

    /// Closes the line pair just written into `req` / `resp`.
    fn end_line(&mut self) {
        self.req.push(b'\n');
        self.resp.push(b'\n');
        let off = |len: usize| u32::try_from(len).expect("script stays below 4 GiB");
        self.req_off.push(off(self.req.len()));
        self.resp_off.push(off(self.resp.len()));
    }

    /// Requests in the script.
    pub fn len(&self) -> usize {
        self.req_off.len() - 1
    }

    /// The request lines `from..to`, contiguous.
    pub fn requests(&self, from: usize, to: usize) -> &[u8] {
        &self.req[self.req_off[from] as usize..self.req_off[to] as usize]
    }

    /// The reply line request `i` must earn, newline included.
    pub fn reply(&self, i: usize) -> &[u8] {
        &self.resp[self.resp_off[i] as usize..self.resp_off[i + 1] as usize]
    }

    /// Test hook: overwrites the expected reply bytes of request `i`
    /// in place (same length), as a corrupted expected-value table
    /// would.
    #[cfg(test)]
    pub fn corrupt_reply(&mut self, i: usize, with: &[u8]) {
        let at = self.resp_off[i] as usize;
        self.resp[at..at + with.len()].copy_from_slice(with);
    }
}

/// One connection's cycle: the rendered script plus the ops behind it
/// (the crash read-back needs the values, not the bytes).
#[derive(Debug)]
pub struct ConnStream {
    pub script: Script,
    pub ops: Vec<Op>,
}

/// The value key `key` is preloaded with.
pub fn initial_value(seed: u64, key: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    1 + (r.next_u64() >> 32)
}

fn owned_keys(keys: u64, conn: usize) -> u64 {
    (keys + (CONNS - 1 - conn) as u64) / CONNS as u64
}

/// Renders connection `conn`'s cycle for `traffic` under `seed`.
pub fn conn_stream(seed: u64, conn: usize, traffic: Traffic) -> ConnStream {
    let mut rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let owned = owned_keys(traffic.keys, conn);
    let mut ops: Vec<Op> = (0..CYCLE_OPS)
        .map(|_| {
            let key = CONNS as u64 * rng.below(owned) + conn as u64;
            if rng.below(100) < u64::from(traffic.put_pct) {
                // Drawn either way, so the flag changes values only.
                let fresh = 1 + (rng.next_u64() >> 32);
                let value = if traffic.fresh_puts {
                    fresh
                } else {
                    initial_value(seed, key)
                };
                Op::Put(key, value)
            } else {
                Op::Get(key)
            }
        })
        .collect();
    // The last PUT to each key restores the preloaded value, which
    // makes the cycle replayable (see the module docs).
    let mut restored = vec![false; owned as usize];
    for op in ops.iter_mut().rev() {
        if let Op::Put(key, value) = op {
            let slot = (*key / CONNS as u64) as usize;
            if !restored[slot] {
                restored[slot] = true;
                *value = initial_value(seed, *key);
            }
        }
    }
    let mut table: Vec<u64> = (0..owned)
        .map(|slot| initial_value(seed, slot * CONNS as u64 + conn as u64))
        .collect();
    let mut script = Script::with_capacity(CYCLE_OPS, CYCLE_OPS * 32, CYCLE_OPS * 24);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Get(key) => {
                let value = table[(key / CONNS as u64) as usize];
                let _ = write!(script.req, "#{i} GET {key}");
                let _ = write!(script.resp, "#{i} VAL {value}");
            }
            Op::Put(key, value) => {
                table[(key / CONNS as u64) as usize] = value;
                let _ = write!(script.req, "#{i} PUT {key} {value}");
                let _ = write!(script.resp, "#{i} OK");
            }
        }
        script.end_line();
    }
    ConnStream { script, ops }
}

/// The `MSET` lines that preload every key connection `conn` owns with
/// its [`initial_value`], [`MSET_PAIRS`] pairs a line.
pub fn preload_script(seed: u64, conn: usize, keys: u64) -> Script {
    let owned = owned_keys(keys, conn);
    let lines = (owned as usize).div_ceil(MSET_PAIRS);
    let mut script = Script::with_capacity(lines, owned as usize * 24 + lines * 16, lines * 16);
    let mut slot = 0u64;
    for line in 0..lines {
        let pairs = (owned - slot).min(MSET_PAIRS as u64);
        let _ = write!(script.req, "#{line} MSET");
        for _ in 0..pairs {
            let key = slot * CONNS as u64 + conn as u64;
            let _ = write!(script.req, " {key} {}", initial_value(seed, key));
            slot += 1;
        }
        let _ = write!(script.resp, "#{line} OK {pairs}");
        script.end_line();
    }
    script
}

/// FNV-1a over every connection's request bytes: two workloads print
/// the same hash exactly when the server sees the same bytes.
pub fn stream_hash(streams: &[ConnStream]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in streams {
        for &b in &s.script.req {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// What a crash may leave in each key connection `conn` owns, given
/// that `acked` requests were acknowledged and `sent` were written
/// when the server died: the value of the last acknowledged PUT (or
/// the preload), or the value of any PUT sent after it. Indexed by
/// `key / CONNS`.
pub fn crash_survivors(
    seed: u64,
    conn: usize,
    keys: u64,
    stream: &ConnStream,
    acked: u64,
    sent: u64,
) -> Vec<Vec<u64>> {
    let slot = |key: u64| (key / CONNS as u64) as usize;
    let mut ok: Vec<Vec<u64>> = (0..owned_keys(keys, conn))
        .map(|s| vec![initial_value(seed, s * CONNS as u64 + conn as u64)])
        .collect();
    // Whole cycles restore the preload, so only the current cycle's
    // acknowledged prefix matters.
    for op in &stream.ops[..(acked % CYCLE_OPS as u64) as usize] {
        if let Op::Put(key, value) = *op {
            ok[slot(key)][0] = value;
        }
    }
    for i in acked..sent {
        if let Op::Put(key, value) = stream.ops[(i % CYCLE_OPS as u64) as usize] {
            ok[slot(key)].push(value);
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRONT: Traffic = Traffic {
        keys: 10_000,
        put_pct: 20,
        depth: 16,
        fresh_puts: true,
    };

    #[test]
    fn same_seed_gives_byte_identical_streams_and_hash() {
        let a = [conn_stream(7, 0, FRONT), conn_stream(7, 1, FRONT)];
        let b = [conn_stream(7, 0, FRONT), conn_stream(7, 1, FRONT)];
        assert_eq!(a[0].script.req, b[0].script.req);
        assert_eq!(a[1].script.resp, b[1].script.resp);
        assert_eq!(stream_hash(&a), stream_hash(&b));
        let c = [conn_stream(8, 0, FRONT), conn_stream(8, 1, FRONT)];
        assert_ne!(stream_hash(&a), stream_hash(&c));
    }

    #[test]
    fn connections_own_disjoint_keys_and_the_cycle_restores_the_preload() {
        for conn in 0..CONNS {
            let s = conn_stream(3, conn, FRONT);
            assert_eq!(s.script.len(), CYCLE_OPS);
            let mut table = std::collections::BTreeMap::new();
            for op in &s.ops {
                let key = match *op {
                    Op::Get(k) => k,
                    Op::Put(k, v) => {
                        table.insert(k, v);
                        k
                    }
                };
                assert_eq!(key % CONNS as u64, conn as u64);
                assert!(key < FRONT.keys);
            }
            for (k, v) in table {
                assert_eq!(v, initial_value(3, k), "key {k} not restored");
            }
        }
    }

    #[test]
    fn rendered_lines_are_tagged_and_replies_track_the_table() {
        let s = conn_stream(11, 0, FRONT);
        let line = |b: &[u8]| String::from_utf8(b.to_vec()).unwrap();
        let mut last_put = std::collections::BTreeMap::new();
        for i in 0..2_000 {
            let req = line(s.script.requests(i, i + 1));
            let resp = line(s.script.reply(i));
            match s.ops[i] {
                Op::Put(k, v) => {
                    assert_eq!(req, format!("#{i} PUT {k} {v}\n"));
                    assert_eq!(resp, format!("#{i} OK\n"));
                    last_put.insert(k, v);
                }
                Op::Get(k) => {
                    let v = last_put
                        .get(&k)
                        .copied()
                        .unwrap_or_else(|| initial_value(11, k));
                    assert_eq!(req, format!("#{i} GET {k}\n"));
                    assert_eq!(resp, format!("#{i} VAL {v}\n"));
                }
            }
        }
    }

    #[test]
    fn preload_covers_every_owned_key_once() {
        let keys = 1_234;
        let mut seen = std::collections::BTreeSet::new();
        for conn in 0..CONNS {
            let p = preload_script(5, conn, keys);
            for i in 0..p.len() {
                let req = String::from_utf8(p.requests(i, i + 1).to_vec()).unwrap();
                let mut words = req.split_ascii_whitespace();
                assert_eq!(words.next(), Some(format!("#{i}").as_str()));
                assert_eq!(words.next(), Some("MSET"));
                let flat: Vec<u64> = words.map(|w| w.parse().unwrap()).collect();
                for kv in flat.chunks_exact(2) {
                    assert_eq!(kv[1], initial_value(5, kv[0]));
                    assert!(seen.insert(kv[0]));
                }
                let expect = format!("#{i} OK {}\n", flat.len() / 2);
                assert_eq!(p.reply(i), expect.as_bytes());
            }
        }
        assert_eq!(seen.len() as u64, keys);
        assert_eq!(seen.last(), Some(&(keys - 1)));
    }

    #[test]
    fn crash_survivors_are_last_acked_or_later_sent() {
        let t = Traffic {
            keys: 100,
            put_pct: 100,
            depth: 16,
            fresh_puts: true,
        };
        let s = conn_stream(9, 0, t);
        let (acked, sent) = (CYCLE_OPS as u64 + 40, CYCLE_OPS as u64 + 56);
        let ok = crash_survivors(9, 0, t.keys, &s, acked, sent);
        let mut table: Vec<u64> = (0..t.keys / CONNS as u64)
            .map(|slot| initial_value(9, slot * CONNS as u64))
            .collect();
        for op in &s.ops[..40] {
            if let Op::Put(k, v) = *op {
                table[(k / CONNS as u64) as usize] = v;
            }
        }
        for (slot, values) in ok.iter().enumerate() {
            assert_eq!(values[0], table[slot]);
        }
        let later: usize = ok.iter().map(|v| v.len() - 1).sum();
        assert_eq!(later, 16, "every in-flight PUT is a candidate");
    }
}
