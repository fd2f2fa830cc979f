//! Reading what the server already exports — `STATS`, the `METRICS`
//! exposition, `/proc/<pid>` — as before/after deltas around a
//! window. Nothing is added inside the program.

use std::collections::BTreeMap;
use std::path::Path;

/// A parsed `METRICS` exposition: `name{labels}` → value.
#[derive(Debug, Default, Clone)]
pub struct Exposition {
    series: BTreeMap<String, f64>,
}

impl Exposition {
    /// Parses Prometheus text: comment lines are skipped, every other
    /// line is `<series> <value>`.
    pub fn parse(text: &str) -> Exposition {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.trim().rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect();
        Exposition { series }
    }

    /// One series by its full `name{labels}` spelling; 0 when the
    /// server does not export it (the threaded front-end has no
    /// `kv_epoll_waits_total`, the reactor no `crew_culls_total`).
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// Sum over every label set of metric `name` (all shards, say).
    pub fn sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// The first series line of metric `name`, as exported
    /// (`kv_build_info{version="0.1.0"}`).
    pub fn series_of(&self, name: &str) -> Option<&str> {
        self.series
            .keys()
            .find(|k| k.split('{').next() == Some(name))
            .map(String::as_str)
    }

    /// `kv_stage_ns_sum{stage="<stage>"}`.
    pub fn stage_ns(&self, stage: &str) -> f64 {
        self.get(&format!("kv_stage_ns_sum{{stage=\"{stage}\"}}"))
    }
}

/// Parses a `STATS key=value ...` reply.
pub fn parse_stats(line: &str) -> BTreeMap<String, u64> {
    line.split_ascii_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// One reading of a process's `/proc` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU nanoseconds summed over live threads, from
    /// `task/*/schedstat` (the tick-based `stat` counters read 1.8x
    /// high on a shared VM).
    pub cpu_ns: u64,
    pub vol_ctx: u64,
    pub invol_ctx: u64,
    pub threads: u64,
    pub rss_kib: u64,
}

/// Reads `/proc/<pid>`; `pid` may be `self`.
pub fn proc_sample(pid: &str) -> std::io::Result<ProcSample> {
    let mut s = ProcSample::default();
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let task = task?.path();
        // A thread may exit between the listing and the read.
        let Ok(sched) = std::fs::read_to_string(task.join("schedstat")) else {
            continue;
        };
        s.cpu_ns += first_number(&sched).ok_or_else(|| bad_proc("schedstat"))?;
        let status = std::fs::read_to_string(task.join("status")).unwrap_or_default();
        s.vol_ctx += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
        s.invol_ctx += status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        s.threads += 1;
    }
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    s.rss_kib = status_field(&status, "VmRSS").unwrap_or(0);
    Ok(s)
}

/// On-CPU nanoseconds only: the one file per thread the end-to-end
/// run reads at each slice boundary.
pub fn proc_cpu_ns(pid: &str) -> std::io::Result<u64> {
    let mut ns = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        if let Ok(sched) = std::fs::read_to_string(task?.path().join("schedstat")) {
            ns += first_number(&sched).ok_or_else(|| bad_proc("schedstat"))?;
        }
    }
    Ok(ns)
}

fn bad_proc(what: &str) -> std::io::Error {
    std::io::Error::other(format!("unreadable /proc {what}"))
}

fn first_number(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// `<name>:\t<number> [unit]` from a `/proc/.../status` file.
fn status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(first_number)
}

/// The filesystem type `path` lives on: the longest mount point in
/// `/proc/self/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    fs_type_in(&mounts, &path)
}

fn fs_type_in(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `kv_server --shards 4` (abridged to the families
    /// the harness reads).
    const METRICS: &str = "\
# HELP kv_shard_wal_bytes_total Bytes appended to the WAL.
# TYPE kv_shard_wal_bytes_total counter
kv_shard_wal_bytes_total{shard=\"0\"} 120
kv_shard_wal_bytes_total{shard=\"1\"} 80
# HELP lock_write_episodes_total Exclusive write episodes on the shard DB lock.
# TYPE lock_write_episodes_total counter
lock_write_episodes_total{lock=\"db\",shard=\"0\"} 6
lock_write_episodes_total{lock=\"db\",shard=\"1\"} 4
lock_write_episodes_total{lock=\"db\",shard=\"2\"} 7
lock_write_episodes_total{lock=\"db\",shard=\"3\"} 5
# HELP kv_pipeline_batch_size Requests per drained batch (closed plus live connections)
# TYPE kv_pipeline_batch_size histogram
kv_pipeline_batch_size_bucket{le=\"2\"} 24
kv_pipeline_batch_size_bucket{le=\"+Inf\"} 24
kv_pipeline_batch_size_sum 24
kv_pipeline_batch_size_count 24
# HELP kv_stage_ns Per-batch latency attributed to one pipeline stage (span tracing)
# TYPE kv_stage_ns histogram
kv_stage_ns_bucket{stage=\"read\",le=\"136\"} 1
kv_stage_ns_bucket{stage=\"read\",le=\"+Inf\"} 23
kv_stage_ns_sum{stage=\"read\"} 11248
kv_stage_ns_count{stage=\"read\"} 23
kv_stage_ns_sum{stage=\"queue\"} 149440
kv_stage_ns_count{stage=\"queue\"} 23
kv_stage_ns_sum{stage=\"wal_fsync\"} 0
# TYPE kv_hottest_shard_write_share gauge
kv_hottest_shard_write_share 0.3181818181818182
# TYPE kv_build_info gauge
kv_build_info{version=\"0.1.0\"} 1
# TYPE crew_culls_total counter
crew_culls_total 6
";

    const STATS: &str = "STATS reads=1 writes=22 completed=22 culls=6 reprovisions=0 \
        promotions=0 rculls=0 rgrants=0 pbatches=23 pbatchmax=1 pbatch_p50=1 pbatch_p99=1 \
        wal_syncs=0 wal_errors=0 readonly_shards=0 idle_disconnects=0 readonly_rejects=0 \
        heal_attempts=0 heals=0 shards=4";

    #[test]
    fn exposition_parses_labelled_series_sums_and_stages() {
        let e = Exposition::parse(METRICS);
        assert_eq!(e.stage_ns("read"), 11_248.0);
        assert_eq!(e.stage_ns("queue"), 149_440.0);
        assert_eq!(e.stage_ns("flush"), 0.0, "absent series read as 0");
        assert_eq!(e.sum("lock_write_episodes_total"), 22.0);
        assert_eq!(e.sum("kv_shard_wal_bytes_total"), 200.0);
        assert_eq!(e.get("kv_pipeline_batch_size_sum"), 24.0);
        assert_eq!(e.get("crew_culls_total"), 6.0);
        assert_eq!(e.get("kv_epoll_waits_total"), 0.0);
        assert_eq!(e.get("kv_hottest_shard_write_share"), 0.3181818181818182);
        // A name is not a prefix match: `_sum` series are their own metric.
        assert_eq!(e.sum("kv_stage_ns"), 0.0);
        assert_eq!(
            e.series_of("kv_build_info"),
            Some("kv_build_info{version=\"0.1.0\"}")
        );
    }

    #[test]
    fn stats_line_parses_every_counter() {
        let s = parse_stats(STATS);
        assert_eq!(s["reads"], 1);
        assert_eq!(s["writes"], 22);
        assert_eq!(s["wal_syncs"], 0);
        assert_eq!(s["shards"], 4);
        assert_eq!(s.len(), 20);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let p = proc_sample("self").unwrap();
        assert!(p.threads >= 1);
        assert!(p.rss_kib > 0);
        assert!(proc_cpu_ns("self").unwrap() > 0);
        assert_eq!(
            status_field("Name:\tx\nVmRSS:\t  5404 kB\n", "VmRSS"),
            Some(5404)
        );
    }

    #[test]
    fn fs_type_takes_the_longest_matching_mount() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      /dev/vdb /data/fast xfs rw 0 0\n";
        assert_eq!(fs_type_in(mounts, Path::new("/data/fast/wal")), "xfs");
        assert_eq!(fs_type_in(mounts, Path::new("/data/slow")), "ext4");
        assert_eq!(fs_type_in(mounts, Path::new("/dev/shm/x")), "tmpfs");
        assert_eq!(fs_type_in("", Path::new("/x")), "unknown");
    }
}
