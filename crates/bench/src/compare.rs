//! Noise-aware comparison of two `BENCH_locks.json`-shaped documents
//! (the `bench_compare` binary).
//!
//! A naive A/B diff trusts every contended median equally, but the
//! bench JSON carries two quality signals per cell: the per-trial
//! relative spread (`contended_rel_spread` — the noise floor the
//! median had to shrug off) and whether the thread count
//! oversubscribes the host (`oversubscribed_threads` — cells that are
//! scheduler-bound by construction). This module weights each cell's
//! log-ratio by `1 / (1 + spread_a + spread_b)` and additionally
//! discounts oversubscribed cells by [`OVERSUBSCRIBED_DISCOUNT`], so
//! the aggregate speedup is dominated by the cells that actually
//! isolate instruction-path costs.
//!
//! The container ships no serde, so a ~hundred-line recursive-descent
//! parser for the JSON subset the bench binaries emit lives here too.

use std::collections::BTreeMap;

/// Weight multiplier for cells whose thread count oversubscribes the
/// host in either input: they are scheduler-noise-dominated, so they
/// may inform but must not dominate the verdict.
pub const OVERSUBSCRIBED_DISCOUNT: f64 = 0.25;

/// A parsed JSON value (the subset the bench binaries emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is irrelevant to the comparison, so
    /// a sorted map keeps lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Accumulate raw bytes and decode once: pushing bytes as chars
        // would mangle multibyte UTF-8 content.
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| format!("invalid UTF-8 in string ending at {}", self.pos))
                }
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => b'"',
                        b'\\' => b'\\',
                        b'/' => b'/',
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.expect(b'{')?;
                let mut map = BTreeMap::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        other => {
                            return Err(format!("expected ',' or '}}', got '{}'", other as char))
                        }
                    }
                }
            }
            b'[' => {
                self.expect(b'[')?;
                let mut arr = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(arr));
                }
                loop {
                    arr.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(arr));
                        }
                        other => {
                            return Err(format!("expected ',' or ']', got '{}'", other as char))
                        }
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Reads and parses the JSON document at `path`; the error names the
/// path.
pub fn parse_file(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Parses one JSON document (the subset the bench binaries emit).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// One compared contended cell.
#[derive(Debug, Clone)]
pub struct CellDiff {
    /// Series (lock) name.
    pub lock: String,
    /// Thread-count key of the cell.
    pub threads: String,
    /// ops/s in document A.
    pub a: f64,
    /// ops/s in document B.
    pub b: f64,
    /// `b / a` (> 1 means B is faster here).
    pub ratio: f64,
    /// The cell's weight in the aggregates.
    pub weight: f64,
    /// Whether either document flagged this thread count as
    /// oversubscribing its host.
    pub oversubscribed: bool,
}

/// The full comparison: per-cell diffs plus weighted aggregates.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Every cell present in both documents.
    pub cells: Vec<CellDiff>,
    /// Weighted geometric-mean ratio per lock.
    pub per_lock: Vec<(String, f64)>,
    /// Weighted geometric-mean ratio over all cells.
    pub overall: f64,
    /// `host_cpus` of document A and of document B, where recorded.
    pub host_cpus: (Option<u64>, Option<u64>),
}

impl CompareReport {
    /// Whether both documents record the same `host_cpus`. Every
    /// contended cell depends on the CPU count, so a ratio across
    /// hosts can be reported but must not gate anything.
    pub fn same_host(&self) -> bool {
        self.host_cpus.0 == self.host_cpus.1
    }
}

fn oversubscribed_set(doc: &Json) -> Vec<String> {
    doc.get("oversubscribed_threads")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(Json::as_f64)
                .map(|t| format!("{}", t as u64))
                .collect()
        })
        .unwrap_or_default()
}

fn spread_of(doc: &Json, lock: &str, threads: &str) -> f64 {
    doc.get("contended_rel_spread")
        .and_then(|s| s.get(lock))
        .and_then(|s| s.get(threads))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn weighted_geomean(cells: &[&CellDiff]) -> f64 {
    let (log_sum, weight_sum) = cells
        .iter()
        .filter(|c| c.ratio.is_finite() && c.ratio > 0.0)
        .fold((0.0, 0.0), |(ls, ws), c| {
            (ls + c.weight * c.ratio.ln(), ws + c.weight)
        });
    if weight_sum == 0.0 {
        f64::NAN
    } else {
        (log_sum / weight_sum).exp()
    }
}

/// Compares two parsed bench documents.
///
/// Cells are matched on (lock, thread-count) pairs present in both
/// documents' `contended_ops_per_sec`; each cell's weight is
/// `1 / (1 + spread_a + spread_b)`, discounted by
/// [`OVERSUBSCRIBED_DISCOUNT`] when either document flags the thread
/// count as oversubscribed. Errors if the documents share no cells.
pub fn compare(a: &Json, b: &Json) -> Result<CompareReport, String> {
    let a_ops = a
        .get("contended_ops_per_sec")
        .and_then(Json::as_obj)
        .ok_or("document A lacks contended_ops_per_sec")?;
    let b_ops = b
        .get("contended_ops_per_sec")
        .and_then(Json::as_obj)
        .ok_or("document B lacks contended_ops_per_sec")?;
    let mut over = oversubscribed_set(a);
    over.extend(oversubscribed_set(b));

    let mut cells = Vec::new();
    for (lock, a_cells) in a_ops {
        let (Some(a_cells), Some(b_cells)) =
            (a_cells.as_obj(), b_ops.get(lock).and_then(Json::as_obj))
        else {
            continue;
        };
        for (threads, a_val) in a_cells {
            let (Some(av), Some(bv)) =
                (a_val.as_f64(), b_cells.get(threads).and_then(Json::as_f64))
            else {
                continue;
            };
            let spread = spread_of(a, lock, threads) + spread_of(b, lock, threads);
            let oversubscribed = over.contains(threads);
            let mut weight = 1.0 / (1.0 + spread);
            if oversubscribed {
                weight *= OVERSUBSCRIBED_DISCOUNT;
            }
            cells.push(CellDiff {
                lock: lock.clone(),
                threads: threads.clone(),
                a: av,
                b: bv,
                ratio: if av > 0.0 { bv / av } else { f64::NAN },
                weight,
                oversubscribed,
            });
        }
    }
    if cells.is_empty() {
        return Err("the documents share no contended cells".to_string());
    }

    let mut locks: Vec<String> = cells.iter().map(|c| c.lock.clone()).collect();
    locks.sort();
    locks.dedup();
    let per_lock = locks
        .into_iter()
        .map(|lock| {
            let of_lock: Vec<&CellDiff> = cells.iter().filter(|c| c.lock == lock).collect();
            let g = weighted_geomean(&of_lock);
            (lock, g)
        })
        .collect();
    let overall = weighted_geomean(&cells.iter().collect::<Vec<_>>());
    let host_cpus = |doc: &Json| {
        doc.get("host_cpus")
            .and_then(Json::as_f64)
            .map(|n| n as u64)
    };
    Ok(CompareReport {
        cells,
        per_lock,
        overall,
        host_cpus: (host_cpus(a), host_cpus(b)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC_A: &str = r#"{
        "uncontended_ns_per_op": {"X": 20.0, "Y": 25.0},
        "contended_ops_per_sec": {
            "X": {"1": 100.0, "4": 50.0},
            "Y": {"1": 200.0, "4": 80.0}
        },
        "contended_rel_spread": {
            "X": {"1": 0.1, "4": 3.0},
            "Y": {"1": 0.0, "4": 1.0}
        },
        "host_cpus": 1,
        "oversubscribed_threads": [4]
    }"#;

    fn doc_b() -> String {
        DOC_A
            .replace("\"1\": 100.0", "\"1\": 150.0")
            .replace("\"1\": 200.0", "\"1\": 100.0")
    }

    #[test]
    fn parser_round_trips_the_bench_shape() {
        let doc = parse(DOC_A).unwrap();
        assert_eq!(doc.get("host_cpus").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("contended_ops_per_sec")
                .and_then(|o| o.get("X"))
                .and_then(|o| o.get("4"))
                .and_then(Json::as_f64),
            Some(50.0)
        );
        assert_eq!(
            doc.get("oversubscribed_threads")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn parser_preserves_multibyte_utf8() {
        let doc = parse("{\"note\": \"p99 µs ±3%\"}").unwrap();
        assert_eq!(doc.get("note"), Some(&Json::Str("p99 µs ±3%".into())));
    }

    #[test]
    fn parser_handles_real_emitted_json() {
        // The exact shape `to_json` emits, including extras.
        let doc = parse(
            "{\n  \"uncontended_ns_per_op\": {\n    \"A\": 12.50\n  },\n  \
             \"contended_ops_per_sec\": {\n    \"A\": {\"1\": 100.00}\n  },\n  \
             \"contended_rel_spread\": {\n    \"A\": {\"1\": 0.050}\n  },\n  \
             \"note\": \"hi\",\n  \"threads_swept\": [1, 2]\n}\n",
        )
        .unwrap();
        assert_eq!(doc.get("note"), Some(&Json::Str("hi".into())));
    }

    #[test]
    fn self_compare_is_unity() {
        let a = parse(DOC_A).unwrap();
        let r = compare(&a, &a).unwrap();
        assert_eq!(r.cells.len(), 4);
        assert!((r.overall - 1.0).abs() < 1e-12, "overall = {}", r.overall);
        for (_, g) in &r.per_lock {
            assert!((g - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighting_discounts_noisy_and_oversubscribed_cells() {
        let a = parse(DOC_A).unwrap();
        let b = parse(&doc_b()).unwrap();
        let r = compare(&a, &b).unwrap();
        // X: 1-thread ratio 1.5 (clean), 4-thread ratio 1.0 (noisy +
        // oversubscribed). The weighted geomean must sit much closer
        // to 1.5 than the unweighted geomean (~1.22) would.
        let x = r.per_lock.iter().find(|(l, _)| l == "X").unwrap().1;
        assert!(x > 1.4, "clean cell must dominate: {x}");
        // Y: 1-thread ratio 0.5 dominates symmetrically.
        let y = r.per_lock.iter().find(|(l, _)| l == "Y").unwrap().1;
        assert!(y < 0.55, "clean cell must dominate: {y}");
        // The noisy oversubscribed cells carry OVERSUBSCRIBED_DISCOUNT
        // on top of the spread weight.
        let cell = r
            .cells
            .iter()
            .find(|c| c.lock == "X" && c.threads == "4")
            .unwrap();
        assert!(cell.oversubscribed);
        let expected = 1.0 / (1.0 + 6.0) * OVERSUBSCRIBED_DISCOUNT;
        assert!((cell.weight - expected).abs() < 1e-12, "{}", cell.weight);
    }

    #[test]
    fn documents_from_different_hosts_are_told_apart() {
        let a = parse(DOC_A).unwrap();
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.host_cpus, (Some(1), Some(1)));
        assert!(same.same_host());
        let b = parse(&DOC_A.replace("\"host_cpus\": 1", "\"host_cpus\": 2")).unwrap();
        let across = compare(&a, &b).unwrap();
        assert_eq!(across.host_cpus, (Some(1), Some(2)));
        assert!(!across.same_host());
        // The ratios are still reported: only a gate is refused.
        assert_eq!(across.cells.len(), 4);
        // A document that does not say where it ran matches no host.
        let unlabelled = parse(&DOC_A.replace("\"host_cpus\": 1,", "")).unwrap();
        assert!(!compare(&a, &unlabelled).unwrap().same_host());
    }

    #[test]
    fn disjoint_documents_error() {
        let a = parse(DOC_A).unwrap();
        let b = parse("{\"contended_ops_per_sec\": {\"Z\": {\"1\": 5.0}}}").unwrap();
        assert!(compare(&a, &b).is_err());
    }
}
