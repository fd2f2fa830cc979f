//! `bench_obs` — flight-recorder overhead sweep: writes
//! `BENCH_obs.json` plus per-mode part files for `bench_compare`.
//!
//! Runs the pipelined KV workload (real loopback TCP, windowed tagged
//! clients, batched under-lock execution) four times per cell: flight
//! recorder **off**, **on** (every event), **sampled** (1 in
//! [`SAMPLE`]), and **spans** (recorder off, the per-batch stage
//! clocks of `malthus_obs::span` on), interleaved median-of-trials.
//! Both facilities are process-global, so enabling them here
//! instruments the in-process server exactly as `kv_server` would.
//! The first three modes force the span gate *off* so the recorder
//! baseline is clean; the spans mode is the only one paying for stage
//! clocks.
//!
//! The combined `BENCH_obs.json` carries one series per mode
//! (`recorder-off@shards<S>`, …) for eyeballing. The part files
//! (`BENCH_obs_off.json`, `BENCH_obs_on.json`,
//! `BENCH_obs_sampled.json`, `BENCH_obs_spans.json`) all name their
//! series plain `pipeline@shards<S>` — the *same* cells across files
//! — so `bench_compare BENCH_obs_off.json BENCH_obs_sampled.json
//! --fail-below 0.98` gates the sampled recorder at ≤2% overhead, and
//! `bench_compare BENCH_obs_off.json BENCH_obs_spans.json
//! --fail-below 0.98` gates always-on span tracing the same way.
//!
//! Environment knobs:
//!
//! * `MALTHUS_PIPE_SHARDS` — shard counts (default `2`).
//! * `MALTHUS_THREAD_SWEEP` — connection counts (default `2,4`).
//! * `MALTHUS_BENCH_MS` — interval per cell in ms (default 300).
//! * `MALTHUS_BENCH_TRIALS` — trials per cell (default 5).
//! * `MALTHUS_BENCH_OUT` — combined output path (default
//!   `BENCH_obs.json`); part files replace its `.json` suffix with
//!   `_<mode>.json`.

use malthus_bench::livebench::{median, trials};
use malthus_bench::pipebench::{memory_service, ops_per_sec, KEYS, PUT_PCT};
use malthus_bench::sweep::Sweep;
use malthus_bench::{env_sweep, env_u64, thread_sweep};
use malthus_workloads::pipeline::{run_pipeline, FrontEnd, PipelineShape};

/// Sampling stride of the sampled mode.
const SAMPLE: u32 = 64;
/// Per-thread ring capacity in events.
const TRACE_BUF: usize = 4_096;
/// Pipeline depth of every cell.
const DEPTH: usize = 8;

/// The four observability configurations under test: `(name,
/// recorder stride, spans)` — stride 0 means disabled, 1 records every
/// event, N one in N; `spans` turns the per-batch stage clocks on.
type Mode = (&'static str, u32, bool);
const MODES: [Mode; 4] = [
    ("off", 0, false),
    ("on", 1, false),
    ("sampled", SAMPLE, false),
    ("spans", 0, true),
];

fn measure_cell(
    (_, stride, spans): Mode,
    shards: usize,
    conns: usize,
    seconds: f64,
    seed: u64,
) -> f64 {
    if stride > 0 {
        malthus_obs::recorder::enable(TRACE_BUF, stride);
    } else {
        malthus_obs::recorder::disable();
    }
    // The span gate defaults on process-wide; set it explicitly both
    // ways so the non-span modes measure a clean baseline.
    malthus_obs::span::set_enabled(spans);
    let shape = PipelineShape::new(KEYS, PUT_PCT, DEPTH);
    let service = memory_service(shards);
    let report = run_pipeline(service, FrontEnd::Threaded, conns, seconds, shape, seed);
    // Quiesced now (server and clients joined): drop the cell's rings
    // so a long sweep's ring memory stays flat.
    malthus_obs::recorder::disable();
    malthus_obs::recorder::clear();
    ops_per_sec(&report)
}

fn main() {
    let shard_counts = env_sweep("MALTHUS_PIPE_SHARDS", &[2]);
    let seconds = env_u64("MALTHUS_BENCH_MS", 300) as f64 / 1_000.0;
    let sweep = Sweep {
        series: (MODES.iter())
            .flat_map(|&mode| {
                (shard_counts.iter())
                    .map(move |&s| (format!("recorder-{}@shards{s}", mode.0), (mode, s)))
            })
            .collect(),
        cells: thread_sweep(&[2, 4]),
        trials: trials(),
        diagnostics: &[],
        axes: vec![("shard_sweep", shard_counts.clone())],
    };
    eprintln!(
        "# bench_obs: {{recorder off, on, 1-in-{SAMPLE}, spans}}, depth {DEPTH}, \
         {PUT_PCT}% PUT, {seconds} s per cell"
    );
    let result = sweep.run(None, &mut |&(mode, shards), conns, seed| {
        (measure_cell(mode, shards, conns, seconds, seed), vec![])
    });
    // Leave the process-global gate in its default (on) state.
    malthus_obs::span::set_enabled(true);

    // Headline overhead ratios (median over the per-cell ratios of
    // medians): the number the CI gate enforces for sampled mode.
    let vs_off = |mode: &str| -> f64 {
        let mut ratios = Vec::new();
        for &s in &shard_counts {
            for &c in &sweep.cells {
                let off = result.ops(&format!("recorder-off@shards{s}"), c);
                if off > 0.0 {
                    ratios.push(result.ops(&format!("recorder-{mode}@shards{s}"), c) / off);
                }
            }
        }
        median(ratios)
    };
    let [on, sampled, spans] = ["on", "sampled", "spans"].map(vs_off);

    let base_extras = [
        ("recorder_sample", SAMPLE.to_string()),
        ("recorder_trace_buf", TRACE_BUF.to_string()),
        ("pipeline_depth", DEPTH.to_string()),
        ("put_pct", PUT_PCT.to_string()),
        ("keys", KEYS.to_string()),
    ];
    let mut extras = base_extras.to_vec();
    extras.push(("recorder_on_vs_off", format!("{on:.4}")));
    extras.push(("recorder_sampled_vs_off", format!("{sampled:.4}")));
    extras.push(("spans_vs_off", format!("{spans:.4}")));
    let out_path = result.emit("BENCH_obs.json", &extras);
    println!(
        "# overhead: recorder on {on:.3}x of off, sampled (1-in-{SAMPLE}) {sampled:.3}x of off, \
         spans {spans:.3}x of off"
    );

    // Part files for bench_compare: same series names across modes so
    // every contended cell matches.
    let stem = out_path.strip_suffix(".json").unwrap_or(&out_path);
    for (mode, ..) in MODES {
        let prefix = format!("recorder-{mode}@");
        let part = result.renamed(|name| Some(format!("pipeline@{}", name.strip_prefix(&prefix)?)));
        let mut extras = base_extras.to_vec();
        extras.push(("recorder_mode", format!("\"{mode}\"")));
        part.write(&format!("{stem}_{mode}.json"), &extras);
    }
}
