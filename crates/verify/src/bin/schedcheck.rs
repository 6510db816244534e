//! Exhaustive interleaving + memory-ordering model check of the real
//! `bounce-atomics` structures (counters, Treiber stack, MS queue,
//! spin/queue locks, seqlock) on the shadow-cell substrate.
//!
//! ```text
//! cargo run -p bounce-verify --bin schedcheck            # all scenarios
//! cargo run -p bounce-verify --bin schedcheck -- ticket_2 seqlock_rw
//! cargo run -p bounce-verify --bin schedcheck -- --mutate # + mutation sweep
//! ```
//!
//! Exits nonzero on any violation, on a capped (inconclusive)
//! exploration, and — under `--mutate` — when a scenario breaks the
//! benign-list contract of `scenarios::Entry::sweep`: an undetected
//! weakening that is not listed benign, a stale benign entry, or no
//! detected weakening at all (which would mean the clean pass proves
//! nothing).

use bounce_verify::exec::{render_report, scenarios, ExploreOpts};
use std::time::Instant;

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut mutate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--mutate" => mutate = true,
            "--help" | "-h" => {
                eprintln!("usage: schedcheck [--mutate] [scenario ...]");
                eprintln!("scenarios:");
                for e in scenarios::all() {
                    eprintln!("  {} ({} threads)", e.name, e.threads);
                }
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
            other => names.push(other.to_string()),
        }
    }
    let entries: Vec<scenarios::Entry> = if names.is_empty() {
        scenarios::all()
    } else {
        names
            .iter()
            .map(|n| {
                scenarios::find(n).unwrap_or_else(|| {
                    eprintln!("unknown scenario {n}; try --help");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let opts = ExploreOpts::default();
    let mut failed = false;
    for entry in &entries {
        let t0 = Instant::now();
        let report = (entry.run)(&opts);
        print!("{}", render_report(&report));
        println!("  [{:?}]", t0.elapsed());
        if !report.is_clean() {
            failed = true;
            continue;
        }
        if !mutate {
            continue;
        }
        match entry.sweep(&report) {
            Ok(sweep) => {
                let benign: Vec<String> = sweep
                    .silent
                    .iter()
                    .map(|(l, k)| format!("{l} {k:?}"))
                    .collect();
                println!(
                    "  mutate: {}/{} weakened sites detected{}",
                    sweep.caught.len(),
                    report.sites.len(),
                    if benign.is_empty() {
                        String::new()
                    } else {
                        format!(" (benign: {})", benign.join(", "))
                    }
                );
            }
            Err(breaches) => {
                for breach in breaches {
                    eprintln!("  {}: {breach}", entry.name);
                }
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("schedcheck passed: every interleaving of every scenario satisfies its spec");
}
