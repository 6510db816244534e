# Development shortcuts (https://github.com/casey/just)

# Run every test in the workspace, under a hard wall-clock cap so a
# hung simulation (the failure mode the watchdog exists for) can never
# wedge the suite itself.
test:
    timeout 1500 cargo test --workspace

# Lint + docs, as CI runs them.
lint:
    cargo fmt --all -- --check
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The verification layer (see crates/verify): exhaustive model check
# of every coherence protocol, workload-IR lint over every registered
# workload, the determinism + shim/recorder-bypass lint, the schedcheck
# interleaving model check of the real atomics (with its
# ordering-mutation sweep), and the engine-vs-model conformance
# (trace refinement) campaign.
verify-static:
    cargo run --release -p bounce-verify --bin modelcheck
    cargo run --release -p bounce-bench --bin repro -- lint
    cargo run --release -p bounce-verify --bin detlint
    cargo run --release -p bounce-verify --bin schedcheck -- --mutate
    cargo run --release -p bounce-bench --bin repro -- conform --quick

# Regenerate every table and figure into results/ (with gnuplot scripts).
# jobs=0 means one worker per host core; jobs=1 is the serial baseline.
# Output is byte-identical at every job count.
repro jobs="0":
    cargo run --release -p bounce-bench --bin repro -- all --jobs {{jobs}} --timings --out results/ --plots

# Quick repro (CI-speed sweeps).
repro-quick jobs="0":
    cargo run --release -p bounce-bench --bin repro -- all --quick --jobs {{jobs}} --timings --out results-quick/

# Criterion microbenches of the native atomics on this host. The
# simulator's performance ledger is perfbench (see perfbench/README.md).
bench:
    cargo bench --workspace

# Smoke-run the benches without measuring.
bench-check:
    cargo bench --workspace -- --test

# Run every example.
examples:
    for e in quickstart placement_advisor lock_shootout model_fit energy_explorer trace_bounces host_microbench native_sweep custom_machine; do \
        cargo run --release --example $e; done
