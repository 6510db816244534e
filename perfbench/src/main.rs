//! The repository benchmark: one command runs a named workload, prints
//! every metric by name with its unit, checks the outputs, and ends with
//! a one-line JSON result. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|engine-steady|verify --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of the named workload.
//! `--trace 1` alternates untraced and traced repetitions of the named
//! workload (their ratio is the tracing overhead), traces one repetition
//! of each other workload, and reports every per-layer metric derived
//! from the recorded spans.

mod campaign;
mod engine_steady;
mod ledger;
mod reference;
mod spans;
mod verify;

use ledger::{median, Ledger};
use reference::Reference;
use spans::{SpanId, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// One benchmark workload: a set-up step and a measured repetition.
pub trait Bench {
    /// What set-up builds and one repetition consumes.
    type State;
    /// What one repetition leaves for the per-layer metrics.
    type Rep;

    /// Build everything a repetition needs (timed as set-up).
    fn setup(&self, tracer: &Tracer, parent: SpanId) -> Self::State;

    /// Run one repetition, accounting its operations in `ledger`.
    /// Returns the repetition's data and the host seconds of each of its
    /// serial steps, always the same steps in the same order.
    fn rep(
        &mut self,
        state: Self::State,
        tracer: &Tracer,
        parent: SpanId,
        ledger: &mut Ledger,
        reference: &mut Reference,
    ) -> (Self::Rep, Vec<f64>);

    /// Per-layer metrics from traced repetitions and their spans.
    fn layers(
        &self,
        reps: &[Self::Rep],
        spans: &[spans::Span],
        tracer: &Tracer,
        ledger: &mut Ledger,
    );
}

/// The seed of the simulator presets: reference counters of the seeded
/// engine point hold at this seed.
const DEFAULT_SEED: u64 = 0x1CC9_2019;

/// `setup_s` is the median of this many samples per run.
const SETUP_SAMPLES: usize = 25;

/// Each set-up sample repeats set-up for at least this long and takes
/// the mean, so a set-up of a few microseconds is not lost in timer and
/// cache jitter.
const SETUP_SAMPLE_SECS: f64 = 0.002;

const WORKLOADS: [&str; 3] = ["campaign", "engine-steady", "verify"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            args.record_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad(&format!("expected one of {}", WORKLOADS.join(", "))))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"expected 0..=3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() && !args.record_reference {
        return Err(format!("--workload is required ({})", WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// Step seconds of repetitions, and their data.
struct Measured<R> {
    reps: Vec<R>,
    steps: Vec<Vec<f64>>,
}

impl<R> Measured<R> {
    /// The workload's wall time: the sum over its serial steps of each
    /// step's median. Per-step medians shed a host stall that hits one
    /// step of one repetition, which a median of whole repetitions
    /// keeps whenever stalls hit most repetitions somewhere.
    fn wall(&self) -> f64 {
        (0..self.steps[0].len())
            .map(|i| median(&self.steps.iter().map(|s| s[i]).collect::<Vec<_>>()))
            .sum()
    }
}

impl<R> Default for Measured<R> {
    fn default() -> Self {
        Measured {
            reps: Vec::new(),
            steps: Vec::new(),
        }
    }
}

/// Set up and run one repetition under `tracer`.
fn once<B: Bench>(
    b: &mut B,
    label: &str,
    tracer: &Tracer,
    m: &mut Measured<B::Rep>,
    ledger: &mut Ledger,
    reference: &mut Reference,
) {
    let (state, setup) = tracer.time(&format!("setup:{label}"), 0, |id| b.setup(tracer, id));
    let ((rep, steps), _) = tracer.time(&format!("bench.rep:{label}"), 0, |id| {
        b.rep(state, tracer, id, ledger, reference)
    });
    let traced = if tracer.enabled() { " (traced)" } else { "" };
    let wall: f64 = steps.iter().sum();
    let ms: Vec<u64> = steps.iter().map(|s| (s * 1e3).round() as u64).collect();
    eprintln!(
        "{label}{traced}: repetition wall {wall:.4} s (steps, ms: {ms:?}), set-up {setup:.6} s"
    );
    m.reps.push(rep);
    m.steps.push(steps);
}

/// Untraced repetitions until `seconds` have passed (at least one).
fn measure<B: Bench>(
    b: &mut B,
    label: &str,
    seconds: f64,
    ledger: &mut Ledger,
    reference: &mut Reference,
) -> Measured<B::Rep> {
    let plain = Tracer::new(false);
    let mut m = Measured::default();
    let start = Instant::now();
    loop {
        once(b, label, &plain, &mut m, ledger, reference);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

/// Median host seconds of one set-up, over [`SETUP_SAMPLES`] samples.
/// Taken before the repetitions, in a fresh process: afterwards the
/// allocator's state depends on what the repetitions did, and the
/// campaign's set-up spread between runs grew by a third.
fn setup_secs<B: Bench>(b: &B) -> f64 {
    let plain = Tracer::new(false);
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut n = 0u32;
            while n == 0 || t0.elapsed().as_secs_f64() < SETUP_SAMPLE_SECS {
                drop(b.setup(&plain, 0));
                n += 1;
            }
            t0.elapsed().as_secs_f64() / f64::from(n)
        })
        .collect();
    median(&samples)
}

/// Traced repetitions of one workload, reported as per-layer metrics.
/// For the named workload (`seconds` given), untraced and traced
/// repetitions alternate until the time is up (at least one of each),
/// and the ratio of their walls (each computed as for `wall_s`) is
/// returned as the tracing overhead; any other workload gets one traced
/// repetition.
fn traced<B: Bench>(
    b: &mut B,
    label: &str,
    seconds: Option<f64>,
    tracer: &Tracer,
    ledger: &mut Ledger,
    reference: &mut Reference,
) -> Option<f64> {
    let plain = Tracer::new(false);
    let mut untraced = Measured::default();
    let mut with_spans = Measured::default();
    let start = Instant::now();
    loop {
        if seconds.is_some() && untraced.reps.len() <= with_spans.reps.len() {
            once(b, label, &plain, &mut untraced, ledger, reference);
        } else {
            once(b, label, tracer, &mut with_spans, ledger, reference);
        }
        let done = seconds.is_none_or(|s| start.elapsed().as_secs_f64() >= s);
        if done && !with_spans.reps.is_empty() {
            break;
        }
    }
    b.layers(&with_spans.reps, &tracer.spans(), tracer, ledger);
    seconds.map(|_| with_spans.wall() / untraced.wall())
}

/// Run `f` on a thread pinned to the host's last CPU; threads it spawns
/// inherit the pin. The serial workloads run this way: schedcheck hands
/// a baton between OS threads, and on a shared 2-vCPU virtual machine
/// cross-CPU wake-ups spread `verify`'s wall time by more than 60%
/// between runs, against under 10% pinned. If the kernel refuses the
/// pin, `f` runs unpinned.
fn pinned<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    std::thread::scope(|s| {
        s.spawn(|| {
            if !bounce_harness::native::pin_to_cpu(cpu) {
                eprintln!("perfbench: could not pin to CPU {cpu}; running unpinned");
            }
            f()
        })
        .join()
        .expect("the pinned measurement thread panicked")
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `--trace 0`: the end-to-end metrics of the named workload.
fn end_to_end(
    args: &Args,
    root: &Path,
    out: &Path,
    ledger: &mut Ledger,
    reference: &mut Reference,
) -> Result<(), String> {
    let (wall, setup) = match args.workload {
        "campaign" => {
            let mut b = campaign::Campaign::default();
            let setup = setup_secs(&b);
            let m = measure(&mut b, "campaign", args.seconds, ledger, reference);
            (m.wall(), setup)
        }
        "engine-steady" => {
            let mut b = engine_steady::EngineSteady::new(args.seed, DEFAULT_SEED);
            pinned(|| {
                let setup = setup_secs(&b);
                let m = measure(&mut b, "engine-steady", args.seconds, ledger, reference);
                (m.wall(), setup)
            })
        }
        _ => {
            let mut b = verify::Verify::new(root, out.to_path_buf())?;
            pinned(|| {
                let setup = setup_secs(&b);
                let m = measure(&mut b, "verify", args.seconds, ledger, reference);
                (m.wall(), setup)
            })
        }
    };
    ledger.metric("wall_s", wall, "s");
    ledger.metric("setup_s", setup, "s");
    ledger.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    // The model's error against the simulator: deterministic, and
    // measured after the peak-memory reading so it does not move it.
    let plain = Tracer::new(false);
    if let Some(report) = campaign::validation(&plain, out, ledger, reference) {
        ledger.metric("model_mape_pct", campaign::mean_mape_pct(&report), "%");
    }
    Ok(())
}

/// `--trace 1`: every per-layer metric, and the tracing overhead of the
/// named workload.
fn per_layer(
    args: &Args,
    root: &Path,
    out: &Path,
    ledger: &mut Ledger,
    reference: &mut Reference,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let named = |w: &str| (w == args.workload).then_some(args.seconds);
    let mut overhead = None;
    // The named workload runs first, on a host in the same state as an
    // untraced run finds it.
    let mut order: Vec<&str> = vec![args.workload];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    for w in order {
        let o = match w {
            "campaign" => traced(
                &mut campaign::Campaign::default(),
                w,
                named(w),
                &tracer,
                ledger,
                reference,
            ),
            "engine-steady" => {
                let mut b = engine_steady::EngineSteady::new(args.seed, DEFAULT_SEED);
                pinned(|| traced(&mut b, w, named(w), &tracer, ledger, reference))
            }
            _ => {
                let mut b = verify::Verify::new(root, out.to_path_buf())?;
                pinned(|| traced(&mut b, w, named(w), &tracer, ledger, reference))
            }
        };
        overhead = overhead.or(o);
    }
    if let Some(report) = campaign::validation(&tracer, out, ledger, reference) {
        campaign::validation_layers(&report, ledger);
    }
    let spans = tracer.spans();
    for (layer, secs) in spans::self_time_by_layer(&spans) {
        ledger.metric(&format!("trace.self_s.{layer}"), secs, "s");
    }
    ledger.metric(
        "bench.trace_overhead_ratio",
        overhead.expect("the named workload ran"),
        "ratio",
    );
    let path = out.join("spans.json");
    std::fs::write(&path, spans::to_json(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `--record-reference`: one untraced repetition of every workload at
/// the default seed, with every gated counter written to
/// `perfbench/reference.txt` — but only if every operation succeeded.
fn record_reference(bench_dir: &Path, root: &Path, out: &Path) -> Result<(), String> {
    let mut reference = Reference::recorder();
    let mut ledger = Ledger::default();
    measure(
        &mut campaign::Campaign::default(),
        "campaign",
        0.0,
        &mut ledger,
        &mut reference,
    );
    let mut es = engine_steady::EngineSteady::new(DEFAULT_SEED, DEFAULT_SEED);
    measure(&mut es, "engine-steady", 0.0, &mut ledger, &mut reference);
    let mut v = verify::Verify::new(root, out.to_path_buf())?;
    measure(&mut v, "verify", 0.0, &mut ledger, &mut reference);
    campaign::validation(&Tracer::new(false), out, &mut ledger, &mut reference);
    if !ledger.correct() {
        let failures = [ledger.failures, ledger.check_failures].concat();
        return Err(format!("not recording: {}", failures.join("\n")));
    }
    let path = bench_dir.join("reference.txt");
    let text = format!(
        "# Exact reference counters of the benchmark (see README.md).\n\
         # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference\n{}",
        reference.render()
    );
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("the benchmark directory has no parent")?;
    let tag = if args.record_reference {
        "record".to_string()
    } else {
        format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )
    };
    let out: PathBuf = bench_dir.join("out").join(tag);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    bounce_harness::parallel::set_jobs(campaign::JOBS);
    if args.record_reference {
        return record_reference(bench_dir, root, &out);
    }
    let ref_path = bench_dir.join("reference.txt");
    let mut reference = Reference::parse(
        &std::fs::read_to_string(&ref_path)
            .map_err(|e| format!("reading {}: {e}", ref_path.display()))?,
    )
    .map_err(|e| format!("{}: {e}", ref_path.display()))?;
    let mut ledger = Ledger::default();
    if args.trace {
        per_layer(&args, root, &out, &mut ledger, &mut reference)?;
    } else {
        end_to_end(&args, root, &out, &mut ledger, &mut reference)?;
    }
    for f in ledger.failures.iter().chain(&ledger.check_failures) {
        eprintln!("FAILED {f}");
    }
    for (name, value, unit) in ledger.metrics() {
        println!("{name:<58} {value:>18.6} {unit}");
    }
    println!("{}", ledger.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
