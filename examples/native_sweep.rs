//! Native contention sweep: the paper's Fig 1 methodology executed on
//! the *host* with real atomics and pinned threads — the artifact to
//! run when you have an actual multicore (on a 1-CPU container it
//! degrades gracefully to the uncontended point and says so).
//!
//! ```text
//! cargo run --release --example native_sweep [max_threads]
//! ```

use bounce::harness::native::{native_measure, NativeConfig};
use bounce::model::{BouncingModel, ModelParams};
use bounce::topo::{host, Placement};
use bounce::workloads::Workload;
use bounce_atomics::Primitive;
use std::time::Duration;

fn main() {
    let topo = host::detect();
    let cpus = host::available_cpus();
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(cpus)
        .min(topo.num_threads());
    println!("host: {} ({cpus} online cpus)", topo.name);
    if cpus < 2 {
        println!("single-CPU host: only the n=1 point carries a performance signal;");
        println!("run this on a multicore to reproduce the contention cliff natively.\n");
    }
    let cfg = NativeConfig {
        duration: Duration::from_millis(250),
        warmup: Duration::from_millis(50),
        pin: max <= cpus,
        latency_sample_shift: 6,
    };
    // A generic model instance for regime advice (host transfer costs
    // unknown — E5 defaults give the right orders of magnitude).
    let advisor = BouncingModel::new(topo.clone(), {
        let mut p = ModelParams::e5_default();
        p.freq_ghz = topo.freq_ghz;
        p
    });
    let mut ns = vec![1usize];
    let mut n = 2;
    while n <= max {
        ns.push(n);
        n *= 2;
    }
    if *ns.last().unwrap() != max && max > 1 {
        ns.push(max);
    }
    println!(
        "{:>4} {:>14} {:>14} {:>12} {:>16}",
        "n", "HC FAA Mops/s", "HC CAS Mops/s", "CAS fail", "predicted regime"
    );
    for &n in &ns {
        let faa = native_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Faa,
            },
            n,
            &cfg,
        );
        let cas = native_measure(
            &topo,
            &Workload::HighContention {
                prim: Primitive::Cas,
            },
            n,
            &cfg,
        );
        let threads = Placement::Packed.assign(&topo, n.min(topo.num_threads()));
        let (regime, _) = advisor.classify(&threads, Primitive::Faa, 0.0);
        let note = if n > cpus { " (oversubscribed)" } else { "" };
        println!(
            "{:>4} {:>14.2} {:>14.2} {:>12.3} {:>16}{}",
            n,
            faa.throughput_ops_per_sec / 1e6,
            cas.throughput_ops_per_sec / 1e6,
            cas.failure_rate,
            regime.label(),
            note,
        );
    }
    println!("\nregime key: issue-bound = no contention; transfer-bound = line");
    println!("bouncing is the bottleneck (spread or batch); demand-bound = the");
    println!("line idles between your ops (threads still help).");
}
