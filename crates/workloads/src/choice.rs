//! The lock configurations evaluated in the paper's figures.

use malthus::policy::FairnessTrigger;
use malthus_machinesim::{LockKind, LockSpec, WaitMode};

/// A named lock configuration from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockChoice {
    /// Degenerate no-op lock (`null`), trivial workloads only.
    Null,
    /// Classic MCS with unbounded polite spinning.
    McsS,
    /// Classic MCS with spin-then-park.
    McsStp,
    /// MCSCR with unbounded polite spinning.
    McsCrS,
    /// MCSCR with spin-then-park (the paper's headline config).
    McsCrStp,
}

impl LockChoice {
    /// The four lock series plotted in most figures.
    pub const FIGURE_SET: [LockChoice; 4] = [
        LockChoice::McsS,
        LockChoice::McsStp,
        LockChoice::McsCrS,
        LockChoice::McsCrStp,
    ];

    /// The display label used in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            LockChoice::Null => "null",
            LockChoice::McsS => "MCS-S",
            LockChoice::McsStp => "MCS-STP",
            LockChoice::McsCrS => "MCSCR-S",
            LockChoice::McsCrStp => "MCSCR-STP",
        }
    }

    /// Builds the simulator lock specification (fairness period 1000,
    /// deterministic seed).
    pub fn spec(&self, seed: u64) -> LockSpec {
        let (kind, wait) = match self {
            LockChoice::Null => (LockKind::Null, WaitMode::Spin),
            LockChoice::McsS => (LockKind::Fifo, WaitMode::Spin),
            LockChoice::McsStp => (LockKind::Fifo, WaitMode::SpinThenPark),
            LockChoice::McsCrS => (
                LockKind::Cr {
                    fairness: FairnessTrigger::default_period(seed),
                },
                WaitMode::Spin,
            ),
            LockChoice::McsCrStp => (
                LockKind::Cr {
                    fairness: FairnessTrigger::default_period(seed),
                },
                WaitMode::SpinThenPark,
            ),
        };
        LockSpec { kind, wait }
    }

    /// Whether this is a concurrency-restricting configuration.
    pub fn is_cr(&self) -> bool {
        matches!(self, LockChoice::McsCrS | LockChoice::McsCrStp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(LockChoice::McsS.label(), "MCS-S");
        assert_eq!(LockChoice::McsCrStp.label(), "MCSCR-STP");
        assert_eq!(LockChoice::Null.label(), "null");
    }

    #[test]
    fn figure_set_has_four_series() {
        assert_eq!(LockChoice::FIGURE_SET.len(), 4);
        assert!(LockChoice::FIGURE_SET
            .iter()
            .all(|c| *c != LockChoice::Null));
    }

    #[test]
    fn cr_classification() {
        assert!(LockChoice::McsCrS.is_cr());
        assert!(LockChoice::McsCrStp.is_cr());
        assert!(!LockChoice::McsS.is_cr());
        assert!(!LockChoice::Null.is_cr());
    }
}
