//! The one sweep harness behind every `bench_*` binary that emits the
//! `BENCH_locks.json` document shape.
//!
//! The paper's evaluation (§6) is one experiment shape — sweep a
//! thread count, interleave the series, report the median — so it is
//! written once: a [`Sweep`] names the series, the cell sizes, the
//! trial count; [`Sweep::run`] drives the round-major interleaved
//! loop (every series × cell measured once per round, so slow host
//! drift biases all series equally instead of whichever happened to
//! run last); the [`SweepResult`] owns everything after it — median
//! and spread per cell, the host triple `bench_compare` weighs cells
//! by, the text table and the write. A binary is left with its series
//! definitions, its cell function and its headline lines.

use malthus_metrics::{format_table, Column};

use crate::livebench::{median, rel_spread, to_json, Series};

/// A sweep definition. `S` is whatever the binary's cell function
/// needs to build one series (a lock factory, a `(lock, read
/// fraction)` pair, …).
pub struct Sweep<S> {
    /// Series in legend order: document name plus its definition.
    pub series: Vec<(String, S)>,
    /// Cell sizes — thread or connection counts; the document's cell
    /// keys.
    pub cells: Vec<usize>,
    /// Interleaved rounds; a cell reports the median of this many
    /// samples. Passed by value: only a `main` reads the environment.
    pub trials: usize,
    /// The other swept dimensions the series names encode
    /// (`read_fractions`, …), recorded in the document.
    pub axes: Vec<(&'static str, Vec<usize>)>,
}

/// Raw samples of a sweep: `cells[series][cell]` holds one ops/s
/// sample per round, `uncontended[series]` one latency per round
/// (empty when the sweep has no single-thread latency cell).
struct Samples {
    uncontended: Vec<Vec<f64>>,
    cells: Vec<Vec<Vec<f64>>>,
}

/// The host's CPU count (0 when it cannot be determined) — recorded
/// in every document, because every contended number depends on it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

impl<S> Sweep<S> {
    /// Runs the round-major interleaved loop: `trials` rounds, each
    /// measuring every series × cell once, every call under a distinct
    /// seed. `uncontended`, when given, is measured once per series
    /// per round ahead of that series' cells (the lock benches'
    /// single-thread latency).
    pub fn run(
        &self,
        mut uncontended: Option<&mut dyn FnMut(&S) -> f64>,
        measure: &mut dyn FnMut(&S, usize, u64) -> f64,
    ) -> SweepResult {
        let mut samples = Samples {
            uncontended: vec![Vec::new(); self.series.len()],
            cells: vec![vec![Vec::new(); self.cells.len()]; self.series.len()],
        };
        eprintln!(
            "# {} series x cells {:?}, {} interleaved trials, {} host CPUs",
            self.series.len(),
            self.cells,
            self.trials,
            host_cpus()
        );
        let mut seed = 0xBE9C_0000u64;
        for _round in 0..self.trials {
            for (i, (_, def)) in self.series.iter().enumerate() {
                if let Some(uncontended) = uncontended.as_mut() {
                    samples.uncontended[i].push(uncontended(def));
                }
                for (j, &cell) in self.cells.iter().enumerate() {
                    seed += 1;
                    samples.cells[i][j].push(measure(def, cell, seed));
                }
            }
        }
        self.summarize(&samples, host_cpus())
    }

    /// Reduces raw samples to per-cell medians and spreads, as
    /// measured on a host of `host_cpus` CPUs.
    fn summarize(&self, samples: &Samples, host_cpus: usize) -> SweepResult {
        let mut series = Vec::new();
        for (i, (name, _)) in self.series.iter().enumerate() {
            let mut s = Series {
                name: name.clone(),
                uncontended_ns: match samples.uncontended[i].as_slice() {
                    [] => f64::NAN,
                    xs => median(xs.to_vec()),
                },
                contended: Vec::new(),
                contended_spread: Vec::new(),
            };
            for (&cell, ops) in self.cells.iter().zip(&samples.cells[i]) {
                s.contended_spread.push((cell, rel_spread(ops)));
                s.contended.push((cell, median(ops.clone())));
            }
            series.push(s);
        }
        SweepResult {
            series,
            cells: self.cells.clone(),
            axes: self.axes.clone(),
            host_cpus,
        }
    }
}

/// A finished sweep: medians and spreads per cell, plus what the
/// document says about the host that measured them.
pub struct SweepResult {
    /// Per-series medians and spreads, in legend order.
    pub series: Vec<Series>,
    cells: Vec<usize>,
    axes: Vec<(&'static str, Vec<usize>)>,
    host_cpus: usize,
}

/// Renders `[a, b, c]`.
fn json_list(xs: impl IntoIterator<Item = usize>) -> String {
    let items: Vec<String> = xs.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

impl SweepResult {
    /// Median ops/s of one cell, for a binary's headline lines.
    ///
    /// # Panics
    ///
    /// Panics if the series or the cell was not part of the sweep.
    pub fn ops(&self, series: &str, cell: usize) -> f64 {
        let i = self.series.iter().position(|s| s.name == series);
        let j = self.cells.iter().position(|&c| c == cell);
        match (i, j) {
            (Some(i), Some(j)) => self.series[i].contended[j].1,
            _ => panic!("cell {series}/{cell} was not swept"),
        }
    }

    /// Renders the document: series sections, `host_cpus`, the axes,
    /// `threads_swept`, `oversubscribed_threads` (cells above the
    /// host's CPU count: scheduler noise dominates there, and
    /// `bench_compare` discounts them), then the binary's own `extras`
    /// as raw JSON values.
    pub fn to_json(&self, extras: &[(&str, String)]) -> String {
        let mut all = vec![("host_cpus", self.host_cpus.to_string())];
        for (name, values) in &self.axes {
            all.push((name, json_list(values.iter().copied())));
        }
        let cells = self.cells.iter().copied();
        all.push(("threads_swept", json_list(cells.clone())));
        let over = cells.filter(|&c| c > self.host_cpus.max(1));
        all.push(("oversubscribed_threads", json_list(over)));
        all.extend_from_slice(extras);
        to_json(&self.series, &all)
    }

    /// The human-readable table: one row per series, one column per
    /// cell.
    pub fn table(&self) -> String {
        let latency = self.series.iter().any(|s| s.uncontended_ns.is_finite());
        let mut columns = vec![Column::left("series")];
        if latency {
            columns.push(Column::right("uncontended"));
        }
        columns.extend(self.cells.iter().map(|c| Column::right(format!("{c}T"))));
        let rows: Vec<Vec<String>> = (self.series.iter())
            .map(|s| {
                let mut row = vec![s.name.clone()];
                if latency {
                    row.push(format!("{:.1} ns", s.uncontended_ns));
                }
                row.extend(s.contended.iter().map(|(_, ops)| format!("{ops:.0}/s")));
                row
            })
            .collect();
        format_table(&columns, &rows)
    }

    /// Prints the table and writes the document to `MALTHUS_BENCH_OUT`
    /// (default `default_out`).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written: a bench run whose
    /// recording is lost has failed.
    pub fn emit(&self, default_out: &str, extras: &[(&str, String)]) {
        print!("{}", self.table());
        let path = std::env::var("MALTHUS_BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
        std::fs::write(&path, self.to_json(extras))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare;

    /// A depth × shards sweep over connection cells: series
    /// `depth<D>@shards<S>`, depth major.
    fn depth_sweep(trials: usize) -> Sweep<(usize, usize)> {
        Sweep {
            series: vec![
                ("depth1@shards2".to_string(), (1, 2)),
                ("depth16@shards2".to_string(), (16, 2)),
            ],
            cells: vec![2, 4],
            trials,
            axes: vec![("depth_sweep", vec![1, 16]), ("shard_sweep", vec![2])],
        }
    }

    /// `cells[series][cell]` from per-trial ops/s.
    fn samples(cells: [[[f64; 3]; 2]; 2]) -> Samples {
        Samples {
            uncontended: vec![Vec::new(); 2],
            cells: (cells.iter())
                .map(|series| series.iter().map(|trials| trials.to_vec()).collect())
                .collect(),
        }
    }

    #[test]
    fn rounds_interleave_every_series_and_cell_under_distinct_seeds() {
        let mut calls = Vec::new();
        let mut latency_calls = Vec::new();
        let result = depth_sweep(3).run(
            Some(&mut |&def| {
                latency_calls.push(def);
                10.0
            }),
            &mut |&def, cell, seed| {
                calls.push((def, cell, seed));
                cell as f64
            },
        );
        // Round-major: one full pass over series x cells, three times.
        let pass = [((1, 2), 2), ((1, 2), 4), ((16, 2), 2), ((16, 2), 4)];
        let order: Vec<_> = calls.iter().map(|&(def, cell, _)| (def, cell)).collect();
        assert_eq!(order, [pass, pass, pass].concat());
        assert_eq!(latency_calls, [(1, 2), (16, 2)].repeat(3));
        let mut seeds: Vec<u64> = calls.iter().map(|c| c.2).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), calls.len(), "a seed was reused");
        assert_eq!(result.ops("depth16@shards2", 4), 4.0);
        assert_eq!(result.series[0].uncontended_ns, 10.0);
        assert!(result.table().contains("depth1@shards2"));
    }

    #[test]
    fn a_sweep_renders_its_document_byte_for_byte() {
        let samples = samples([
            [[100.0, 120.0, 110.0], [90.5, 80.25, 85.0]],
            [[400.0, 300.0, 350.0], [500.0, 450.0, 475.125]],
        ]);
        let doc = depth_sweep(3)
            .summarize(&samples, 2)
            .to_json(&[("put_pct", "20".into()), ("keys", "10000".into())]);
        let golden = r#"{
  "contended_ops_per_sec": {
    "depth1@shards2": {"2": 110.00, "4": 85.00},
    "depth16@shards2": {"2": 350.00, "4": 475.12}
  },
  "contended_rel_spread": {
    "depth1@shards2": {"2": 0.182, "4": 0.121},
    "depth16@shards2": {"2": 0.286, "4": 0.105}
  },
  "host_cpus": 2,
  "depth_sweep": [1, 16],
  "shard_sweep": [2],
  "threads_swept": [2, 4],
  "oversubscribed_threads": [4],
  "put_pct": 20,
  "keys": 10000
}
"#;
        assert_eq!(doc, golden);
    }

    #[test]
    fn every_document_tells_compare_which_cells_oversubscribe_the_host() {
        let result = depth_sweep(3).summarize(&samples([[[100.0; 3]; 2]; 2]), 2);
        let doc = compare::parse(&result.to_json(&[])).unwrap();
        for key in ["host_cpus", "threads_swept", "oversubscribed_threads"] {
            assert!(doc.get(key).is_some(), "document lacks {key}");
        }
        let report = compare::compare(&doc, &doc).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            // 2 CPUs: the 4-connection cells are scheduler-bound, the
            // 2-connection cells are not.
            assert_eq!(cell.oversubscribed, cell.threads == "4", "{cell:?}");
        }
    }
}
