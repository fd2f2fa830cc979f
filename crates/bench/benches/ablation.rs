//! Ablation bench for MCSCR's fairness period
//! (`cargo bench --bench ablation`): the fairness-period
//! throughput-vs-Gini frontier on the simulated RandArray at 32
//! threads. Dependency-free (`harness = false`); the simulator is
//! deterministic, so a single run per period suffices.

use malthus::policy::FairnessTrigger;
use malthus_machinesim::{LockKind, LockSpec, MachineConfig, Simulation, WaitMode};
use malthus_workloads::randarray;

fn main() {
    println!("# ablation: fairness period vs throughput/Gini (RandArray, 32 simulated threads)");
    println!("{:>10} {:>14} {:>8}", "period", "throughput/s", "Gini");
    for period in [10u64, 100, 1000, 10_000] {
        let mut sim = Simulation::new(MachineConfig::t5_socket());
        sim.add_lock(LockSpec {
            kind: LockKind::Cr {
                fairness: FairnessTrigger::new(period, 7),
            },
            wait: WaitMode::SpinThenPark,
        });
        for _ in 0..32 {
            sim.add_thread(Box::new(randarray::RandArrayThread::new()));
        }
        let r = sim.run(malthus_bench::sim_seconds());
        println!(
            "{period:>10} {:>14.0} {:>8.3}",
            r.throughput(),
            malthus_metrics::gini_coefficient(&r.per_thread_iterations)
        );
    }
}
