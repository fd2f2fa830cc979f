//! Golden of the simulated lock admission: every `LockChoice` through
//! the Figure 3 (`randarray`), Figure 8 (`readwhilewriting`) and
//! Figure 9 (`kccachetest`) simulations at 1, 4, 8 and 16 threads
//! (MCSCR culls at 8 and 16). The simulator is deterministic, so each
//! cell's iteration count, per-lock CR counters and a digest of each
//! lock's admission history must match `tests/golden/sim_admission.txt`
//! byte for byte. A change that moves a cell changed the simulated
//! policy: name the cell, and regenerate the file from the text this
//! test prints on a mismatch.

use std::fmt::Write;

use malthusian::machinesim::Simulation;
use malthusian::workloads::{kccachetest, randarray, readwhilewriting, LockChoice};

/// Simulated seconds per cell: long enough for MCSCR to cull and
/// reprovision at 8 and 16 threads, short enough for a debug build.
const T: f64 = 0.001;

const THREADS: [usize; 4] = [1, 4, 8, 16];

const CHOICES: [LockChoice; 5] = [
    LockChoice::Null,
    LockChoice::McsS,
    LockChoice::McsStp,
    LockChoice::McsCrS,
    LockChoice::McsCrStp,
];

/// 64-bit FNV-1a over each admitted thread id's little-endian bytes.
fn fnv1a(ids: &[u32]) -> u64 {
    ids.iter()
        .flat_map(|id| id.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A figure's simulation builder.
type Build = fn(usize, LockChoice) -> Simulation;

fn render() -> String {
    let sims: [(&str, Build); 3] = [
        ("randarray", randarray::sim),
        ("readwhilewriting", readwhilewriting::sim),
        ("kccachetest", kccachetest::sim),
    ];
    let mut out = String::new();
    for (name, sim) in sims {
        for choice in CHOICES {
            for threads in THREADS {
                let r = sim(threads, choice).run(T);
                write!(
                    out,
                    "{name} {} t={threads} iters={}",
                    choice.label(),
                    r.total_iterations
                )
                .unwrap();
                for (lock, (s, admissions)) in r.lock_stats.iter().zip(&r.admissions).enumerate() {
                    write!(
                        out,
                        " | lock{lock} culls={} reprovisions={} fairness={} admissions={} fnv={:016x}",
                        s.culls,
                        s.reprovisions,
                        s.fairness_grants,
                        admissions.len(),
                        fnv1a(admissions)
                    )
                    .unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn simulated_admission_matches_the_golden() {
    let got = render();
    let want = include_str!("golden/sim_admission.txt");
    assert!(
        got == want,
        "simulated admission moved; regenerated golden:\n----- BEGIN -----\n{got}----- END -----"
    );
}
