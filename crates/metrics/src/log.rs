//! Admission histories and the window-based short-term metrics.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The paper's LWSS window size: 1000 acquisitions, chosen to be well
/// above the maximum number of participating threads (§1).
pub const DEFAULT_LWSS_WINDOW: usize = 1000;

/// A recorded lock admission history (thread ids in admission order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionLog {
    history: Vec<u32>,
}

impl AdmissionLog {
    /// Wraps a history (thread identity per admission, in order).
    pub fn from_history(history: Vec<u32>) -> Self {
        AdmissionLog { history }
    }

    /// The raw history.
    pub fn history(&self) -> &[u32] {
        &self.history
    }

    /// Total number of admissions.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Number of distinct threads in the whole history.
    pub fn distinct_threads(&self) -> usize {
        self.history.iter().collect::<HashSet<_>>().len()
    }

    /// Lock working-set size over an admission-index range (§1): the
    /// number of distinct threads admitted in that interval.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the history length.
    pub fn lwss(&self, range: Range<usize>) -> usize {
        self.history[range].iter().collect::<HashSet<_>>().len()
    }

    /// Average LWSS over disjoint abutting windows of `window` size.
    ///
    /// A trailing partial window is included if it is at least half of
    /// `window` (so very short tails do not bias the mean downward);
    /// if the entire history is shorter than `window`, the single
    /// partial window is used.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn average_lwss(&self, window: usize) -> f64 {
        assert!(window > 0, "window must be positive");
        if self.history.is_empty() {
            return 0.0;
        }
        let mut sizes = Vec::new();
        let mut start = 0;
        while start < self.history.len() {
            let end = (start + window).min(self.history.len());
            let is_full = end - start == window;
            let is_first = start == 0;
            let is_big_enough = (end - start) * 2 >= window;
            if is_full || is_first || is_big_enough {
                sizes.push(self.lwss(start..end) as f64);
            }
            start += window;
        }
        sizes.iter().sum::<f64>() / sizes.len() as f64
    }

    /// Per-admission time-to-reacquire values (§1): for each admission
    /// by a thread that has acquired before, the number of admissions
    /// since its previous acquisition. First-time admissions produce
    /// no value.
    pub fn times_to_reacquire(&self) -> Vec<u64> {
        let mut last_seen: HashMap<u32, usize> = HashMap::new();
        let mut ttrs = Vec::new();
        for (i, &t) in self.history.iter().enumerate() {
            if let Some(&prev) = last_seen.get(&t) {
                ttrs.push((i - prev) as u64);
            }
            last_seen.insert(t, i);
        }
        ttrs
    }

    /// Median time to reacquire (MTTR) over the whole history, or
    /// `None` if no thread ever reacquired.
    pub fn median_time_to_reacquire(&self) -> Option<f64> {
        let mut ttrs = self.times_to_reacquire();
        if ttrs.is_empty() {
            return None;
        }
        ttrs.sort_unstable();
        let n = ttrs.len();
        Some(if n % 2 == 1 {
            ttrs[n / 2] as f64
        } else {
            (ttrs[n / 2 - 1] + ttrs[n / 2]) as f64 / 2.0
        })
    }

    /// Completed admissions per thread (the "work distribution" used
    /// for the long-term fairness indices).
    pub fn per_thread_counts(&self) -> HashMap<u32, u64> {
        let mut counts = HashMap::new();
        for &t in &self.history {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from §1 of the paper: history A B C A B C D
    /// A E has LWSS 3 over admissions 0–5.
    #[test]
    fn paper_example_lwss() {
        let log = AdmissionLog::from_history(vec![0, 1, 2, 0, 1, 2, 3, 0, 4]);
        assert_eq!(log.lwss(0..6), 3);
        assert_eq!(log.lwss(0..9), 5);
        assert_eq!(log.distinct_threads(), 5);
    }

    #[test]
    fn empty_log() {
        let log = AdmissionLog::from_history(vec![]);
        assert!(log.is_empty());
        assert_eq!(log.average_lwss(10), 0.0);
        assert_eq!(log.median_time_to_reacquire(), None);
    }

    #[test]
    fn average_lwss_full_windows() {
        // Windows [0,0,1,1] and [2,2,3,3]: LWSS 2 each.
        let log = AdmissionLog::from_history(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(log.average_lwss(4), 2.0);
    }

    #[test]
    fn average_lwss_short_history_uses_partial() {
        let log = AdmissionLog::from_history(vec![7, 7, 7]);
        assert_eq!(log.average_lwss(1000), 1.0);
    }

    #[test]
    fn average_lwss_ignores_tiny_tail() {
        // 8 admissions with window 8 plus a 1-admission tail; the tail
        // (< half a window) must not drag the average down.
        let mut h = vec![0, 1, 2, 3, 4, 5, 6, 7];
        h.push(0);
        let log = AdmissionLog::from_history(h);
        assert_eq!(log.average_lwss(8), 8.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        AdmissionLog::from_history(vec![1]).average_lwss(0);
    }

    #[test]
    fn ttr_round_robin() {
        // Round-robin over 3 threads: every reacquisition distance 3.
        let log = AdmissionLog::from_history(vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let ttrs = log.times_to_reacquire();
        assert_eq!(ttrs, vec![3, 3, 3, 3, 3, 3]);
        assert_eq!(log.median_time_to_reacquire(), Some(3.0));
    }

    #[test]
    fn ttr_greedy_thread() {
        // One thread monopolizes: distance 1 every time.
        let log = AdmissionLog::from_history(vec![9, 9, 9, 9]);
        assert_eq!(log.median_time_to_reacquire(), Some(1.0));
    }

    #[test]
    fn ttr_even_count_takes_midpoint() {
        // Thread 0 admitted at 0, 1, 3: TTRs [1, 2] -> median 1.5.
        let log = AdmissionLog::from_history(vec![0, 0, 1, 0]);
        assert_eq!(log.times_to_reacquire(), vec![1, 2]);
        assert_eq!(log.median_time_to_reacquire(), Some(1.5));
    }

    #[test]
    fn per_thread_counts_sums_to_len() {
        let log = AdmissionLog::from_history(vec![0, 1, 1, 2, 2, 2]);
        let counts = log.per_thread_counts();
        assert_eq!(counts[&0], 1);
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 3);
        assert_eq!(counts.values().sum::<u64>() as usize, log.len());
    }

    #[test]
    fn no_reacquire_yields_none() {
        let log = AdmissionLog::from_history(vec![0, 1, 2, 3]);
        assert_eq!(log.median_time_to_reacquire(), None);
    }
}
