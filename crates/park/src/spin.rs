//! Polite busy-wait primitives.
//!
//! The paper's `-S` lock variants spin with a "polite" instruction
//! (`RD CCR,G0` on SPARC, `PAUSE` on x86) that cedes pipeline resources
//! to sibling strands (§5.1). On stable Rust the portable equivalent is
//! [`std::hint::spin_loop`], which lowers to `PAUSE`/`YIELD` where
//! available.

/// Executes one polite spin iteration (the `PAUSE` idiom).
#[inline(always)]
pub fn cpu_relax() {
    std::hint::spin_loop();
}

/// Polite pauses executed by an unbounded waiter before it starts
/// interleaving voluntary yields.
///
/// Pure `PAUSE` spinning assumes the signalling thread runs on another
/// CPU. On an oversubscribed host (more runnable threads than CPUs —
/// the extreme case being a single-CPU CI container) the signaller may
/// be *descheduled*, and a waiter that never yields burns its entire
/// scheduling quantum before the signaller can make progress, turning
/// every handoff into a multi-millisecond stall. After this budget the
/// waiter cedes its timeslice each iteration instead, which is free
/// when the system is undersubscribed (the budget is rarely exhausted)
/// and essential when it is not.
pub const SPIN_YIELD_BUDGET: u32 = 256;

/// An unbounded-wait helper: polite pauses up to
/// [`SPIN_YIELD_BUDGET`], voluntary `yield_now` afterwards.
///
/// Use this for spin loops with no upper bound (waiting for a lock
/// handoff or a queue link).
#[derive(Debug, Default)]
pub struct SpinThenYield {
    spins: u32,
}

impl SpinThenYield {
    /// Creates a fresh helper with a full pause budget.
    pub const fn new() -> Self {
        SpinThenYield { spins: 0 }
    }

    /// Waits one step: a polite pause while the budget lasts, a
    /// voluntary yield once it is exhausted.
    #[inline]
    pub fn pause(&mut self) {
        if self.spins < SPIN_YIELD_BUDGET {
            self.spins += 1;
            cpu_relax();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_then_yield_survives_many_iterations() {
        // Exhausts the pause budget and crosses into yielding without
        // blocking or panicking.
        let mut s = SpinThenYield::new();
        for _ in 0..(SPIN_YIELD_BUDGET + 16) {
            s.pause();
        }
    }
}
