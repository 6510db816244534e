//! Trace the bouncing itself: run a short contended FAA on the
//! simulated dual-socket machine with the conformance recorder attached
//! and print the ownership-transfer chain — the raw phenomenon the model
//! is built on.
//!
//! ```text
//! cargo run --release --example trace_bounces
//! ```

use bounce::sim::conform::{ConformEvent, ConformRecorder};
use bounce::sim::{cache::WordAddr, program::builders, Engine, SimConfig, SimParams};
use bounce::topo::{presets, Domain, MachineTopology, Placement};
use bounce_atomics::Primitive;

/// The core losing the line and the domain crossed, if `ev` is a
/// bounce.
fn bounce(topo: &MachineTopology, ev: &ConformEvent) -> Option<(u32, Domain)> {
    let from = ev.bounce_from()?;
    let to = topo.cores[ev.core as usize].threads[0];
    Some((
        from,
        topo.comm_domain(topo.cores[from as usize].threads[0], to),
    ))
}

fn main() {
    let topo = presets::dual_socket_small();
    let mut params = SimParams::e5();
    params.home_policy = bounce::sim::HomePolicy::Fixed(0);
    let mut eng = Engine::new(&topo, SimConfig::new(params, 40_000));

    let line = WordAddr::of_line(0x4000);
    // Four threads scattered over both sockets.
    let hws = Placement::Scattered.assign(&topo, 4);
    for &hw in &hws {
        eng.add_thread(hw, builders::op_loop(Primitive::Faa, line, 0));
    }
    let tracked = hws.iter().map(|&hw| topo.core_of(hw).id.0 as u32).collect();
    eng.set_conform_recorder(ConformRecorder::new(tracked));
    let report = eng.run();
    let rec = eng.take_conform_recorder().expect("recorder was attached");

    println!("machine: {}", topo.name);
    println!(
        "{} ops completed, {} ownership transfers\n",
        report.total_ops(),
        report.total_transfers()
    );
    println!("last {} recorded events:", rec.events.len().min(40));
    for ev in rec.events.iter().skip(rec.events.len().saturating_sub(40)) {
        let from = bounce(&topo, ev)
            .map(|(from, d)| format!("  bounce from core{from} [{}]", d.label()))
            .unwrap_or_default();
        println!(
            "  {:>10} {:<14} core{:<2} line {:#x}{from}",
            ev.at,
            ev.kind.tag(),
            ev.core,
            ev.line.0
        );
    }

    // Summarise the whole bounce chain by domain.
    let mut by_domain = [0u64; 5];
    for (_, d) in rec.events.iter().filter_map(|ev| bounce(&topo, ev)) {
        by_domain[d.index()] += 1;
    }
    assert_eq!(
        by_domain.iter().sum::<u64>(),
        report.total_transfers(),
        "the recorder saw every ownership transfer"
    );
    println!("\nbounces over the whole run, by domain:");
    for (d, count) in Domain::ALL.iter().zip(by_domain) {
        if count > 0 {
            println!("  {:<8} {count}", d.label());
        }
    }
    println!("\neach bounce is one exclusive-ownership transfer — the");
    println!("unit of cost the whole performance model is denominated in.");
}
